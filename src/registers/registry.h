// Name-based protocol lookup used by benches, examples and parameterized
// tests. Every construction the repo implements is one row of the table in
// registry.cc: its name, round counts, feasibility predicate and the
// automata it is built from.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "registers/automaton.h"

namespace fastreg {

/// Returns the protocol registered under `name`, or nullptr.
[[nodiscard]] std::unique_ptr<protocol> make_protocol(const std::string& name);

/// All registered protocol names, in table order.
[[nodiscard]] std::vector<std::string> protocol_names();

}  // namespace fastreg
