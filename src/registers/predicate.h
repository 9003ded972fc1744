// The fast-read predicate at the heart of the paper's algorithms.
//
// Figure 2, line 19 (crash model, b = 0):
//   exists a in [1, R+1] and MS subset of maxTSmsg such that
//     |MS| >= S - a*t   and   |intersection of m.seen over MS| >= a
//
// Figure 5, line 19 (arbitrary failures):
//   |MS| >= S - a*t - (a-1)*b, same intersection condition.
//
// If the predicate holds the read returns maxTS (the latest value); else it
// returns maxTS - 1 (the previous value). Intuition (Section 4): a reader
// may return the latest timestamp only if enough servers have shown it to
// enough clients that every subsequent reader -- which may miss t servers
// per hop plus b liars -- is still guaranteed to see it with one a-step
// deeper evidence.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/seen_set.h"
#include "registers/message.h"

namespace fastreg {

/// Evaluates the predicate over the seen sets of the messages that carry
/// maxTS. `maxts_seen` holds one seen_set per message in maxTSmsg, at most
/// server_set::max_servers of them (one per server).
///
/// Semantics follow the pseudocode exactly, including the degenerate case:
/// when S - a*t - (a-1)*b <= 0 the empty MS qualifies (the intersection
/// over an empty family is the universe), so the predicate is trivially
/// true. That degenerate case can only arise outside the feasible region,
/// where the lower-bound constructions exploit exactly this kind of
/// over-eagerness.
[[nodiscard]] bool fast_read_predicate(std::span<const seen_set> maxts_seen,
                                       std::uint32_t S, std::uint32_t t,
                                       std::uint32_t b, std::uint32_t R);

/// Convenience overload extracting seen sets from readack messages.
[[nodiscard]] bool fast_read_predicate(std::span<const message> maxts_msgs,
                                       std::uint32_t S, std::uint32_t t,
                                       std::uint32_t b, std::uint32_t R);

/// The largest witness `a` for which the predicate holds, or 0 if it fails
/// for every a in [1, R+1]. Exposed for white-box tests and diagnostics.
[[nodiscard]] std::uint32_t fast_read_predicate_witness(
    std::span<const seen_set> maxts_seen, std::uint32_t S, std::uint32_t t,
    std::uint32_t b, std::uint32_t R);

}  // namespace fastreg
