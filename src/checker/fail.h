// The one constructor of a failed check_result, shared by the checkers
// in this directory and private to them.
#pragma once

#include <initializer_list>
#include <string>

#include "checker/atomicity.h"
#include "checker/history.h"

namespace fastreg::checker::detail {

/// A failure with message `error` that names `ops` (null entries are the
/// initial state and name no op).
[[nodiscard]] check_result fail(
    std::string error, std::initializer_list<const op_record*> ops = {});

}  // namespace fastreg::checker::detail
