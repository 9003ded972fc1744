#include "store/histories.h"

#include <algorithm>

namespace fastreg::store {

std::size_t store_histories::total_ops() const {
  std::size_t n = 0;
  for (const auto& [key, h] : by_key_) n += h.size();
  return n;
}

std::size_t store_histories::max_key_ops() const {
  std::size_t n = 0;
  for (const auto& [key, h] : by_key_) n = std::max(n, h.size());
  return n;
}

bool store_histories::all_complete() const {
  for (const auto& [key, h] : by_key_) {
    for (const auto& op : h.ops()) {
      if (!op.response_time.has_value()) return false;
    }
  }
  return true;
}

checker::check_result store_histories::verify(
    verify_mode mode, std::string* failing_key) const {
  for (const auto& [key, h] : by_key_) {
    checker::check_result res;
    switch (mode) {
      case verify_mode::swmr_atomic:
        res = checker::check_swmr_atomicity(h);
        break;
      case verify_mode::swmr_regular:
        res = checker::check_swmr_regular(h);
        break;
      case verify_mode::mwmr:
        res = checker::check_mwmr_linearizable(h);
        break;
      case verify_mode::mwmr_oracle:
        res = checker::check_linearizable(h);
        break;
    }
    if (!res.ok) {
      if (failing_key != nullptr) *failing_key = key;
      res.error = "key \"" + key + "\": " + res.error;
      return res;
    }
  }
  return {};
}

}  // namespace fastreg::store
