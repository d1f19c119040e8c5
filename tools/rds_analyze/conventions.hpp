#pragma once

/// The project conventions of rds_analyze (docs/static_analysis.md):
/// token and per-function rules no compiler knows.
///
///   atomic-memory-order     every std::atomic operation spells its
///                           memory_order (compare_exchange needs both the
///                           success and the failure order); RcuCell's
///                           load()/store() are not atomic operations
///   result-path-throw       no `throw` inside a try_* (Result-returning)
///                           or noexcept function; a lambda is its own
///                           function
///   placement-determinism   no std::random_device / time-seeded entropy
///                           under placement/ or core/: placement is a
///                           pure function of (address, configuration)
///   header-hygiene          headers start with #pragma once and never say
///                           `using namespace` at namespace scope
///   metrics-naming          metric family literals follow the `rds_`
///                           scheme (docs/metrics.md)
///
/// They cover the project's own code only: files under src/, tools/ and
/// bench/, judged by their root-relative path.

#include <functional>
#include <set>
#include <string>

#include "tools/rds_analyze/cfg.hpp"

namespace rds::analyze {

/// Reports one finding of `rule` at `line` of the file being checked.
using EmitFn =
    std::function<void(int line, const char* rule, std::string message)>;

/// Runs the five convention rules over one file; a no-op unless the
/// file's root-relative path `rel` is under src/, tools/ or bench/.
/// `rcu_members` names the RcuCell-typed members.
void check_conventions(const FileModel& fm, const std::string& rel,
                       const std::set<std::string>& rcu_members,
                       const EmitFn& emit);

}  // namespace rds::analyze
