// System configuration (the paper's S, t, b, R, W) and the feasibility
// predicates that are the paper's headline results. These predicates are
// the ground truth every test and bench compares against.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "crypto/sig.h"

namespace fastreg {

struct system_config {
  std::uint32_t servers{3};   // S
  std::uint32_t t_failures{1};  // t: max faulty servers (crash or arbitrary)
  std::uint32_t b_malicious{0};  // b <= t: of the t, at most b malicious
  std::uint32_t readers{1};   // R
  std::uint32_t writers{1};   // W (1 except for MWMR experiments)

  /// Signature scheme shared by all automata in the run; never null for
  /// the Byzantine protocol, may be null elsewhere.
  std::shared_ptr<crypto::signature_scheme> sigs{};

  [[nodiscard]] std::uint32_t S() const { return servers; }
  [[nodiscard]] std::uint32_t t() const { return t_failures; }
  [[nodiscard]] std::uint32_t b() const { return b_malicious; }
  [[nodiscard]] std::uint32_t R() const { return readers; }
  [[nodiscard]] std::uint32_t W() const { return writers; }

  /// Quorum size every client waits for: S - t (a client cannot wait for
  /// more without risking blocking on the t faulty servers).
  [[nodiscard]] std::uint32_t quorum() const { return servers - t_failures; }

  [[nodiscard]] std::string describe() const;
};

/// Fast SWMR atomic register feasibility, crash model (paper Sections 4-5):
/// exists iff R < S/t - 2, equivalently S > (R+2)*t. The lower bound needs
/// R >= 2; R = 1 is handled by single-reader feasibility below.
[[nodiscard]] constexpr bool fast_swmr_feasible(std::uint32_t S,
                                                std::uint32_t t,
                                                std::uint32_t R) {
  return t >= 1 && S > (R + 2) * t;
}

/// Fast SWMR atomic register feasibility, arbitrary-failure model
/// (Section 6): exists iff S > (R+2)*t + (R+1)*b, i.e. R < (S+b)/(t+b) - 2.
[[nodiscard]] constexpr bool fast_bft_feasible(std::uint32_t S,
                                               std::uint32_t t,
                                               std::uint32_t b,
                                               std::uint32_t R) {
  return t >= 1 && b <= t && S > (R + 2) * t + (R + 1) * b;
}

/// Single-reader fast atomic register (Section 1): the R >= 2 lower bound
/// does not apply; the modified-ABD single-reader protocol is fast whenever
/// a majority of servers is correct.
[[nodiscard]] constexpr bool fast_single_reader_feasible(std::uint32_t S,
                                                         std::uint32_t t) {
  return 2 * t < S;
}

/// Fast *regular* SWMR register (Section 8): t < S/2, any finite R.
[[nodiscard]] constexpr bool fast_regular_feasible(std::uint32_t S,
                                                   std::uint32_t t) {
  return 2 * t < S;
}

/// Non-fast baselines (ABD, max-min, MWMR two-phase): majority correct.
[[nodiscard]] constexpr bool majority_feasible(std::uint32_t S,
                                               std::uint32_t t) {
  return 2 * t < S;
}

}  // namespace fastreg
