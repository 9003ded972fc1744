// Name-based protocol lookup used by benches, examples and parameterized
// tests.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "registers/automaton.h"

namespace fastreg {

/// Returns the protocol registered under `name`, or nullptr.
/// Known names: "fast_swmr", "fast_bft", "abd", "maxmin", "regular",
/// "single_reader", "mwmr", "naive_fast_mwmr", "naive_fast_mwmr_lww".
[[nodiscard]] std::unique_ptr<protocol> make_protocol(const std::string& name);

/// All registered protocol names, in a stable order.
[[nodiscard]] std::vector<std::string> protocol_names();

}  // namespace fastreg
