#include "common/types.h"

#include "common/seen_set.h"

namespace fastreg {

std::string to_string(const process_id& p) {
  switch (p.r) {
    case role::writer:
      return p.index == 0 ? "w" : "w" + std::to_string(p.index + 1);
    case role::reader:
      return "r" + std::to_string(p.index + 1);
    case role::server:
      return "s" + std::to_string(p.index + 1);
  }
  return "?";
}

}  // namespace fastreg
