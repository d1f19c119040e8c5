// rds_lint: project-specific invariant checker (docs/static_analysis.md).
//
// A token-level scanner -- not a compiler plugin -- that enforces the
// conventions the compiler cannot or that clang-tidy has no check for:
//
//   atomic-memory-order     every std::atomic operation spells its
//                           memory_order explicitly (compare_exchange needs
//                           both the success and the failure order)
//   result-path-throw       no `throw` inside try_* (Result-returning) or
//                           noexcept functions
//   placement-determinism   no std::random_device / time-seeded entropy in
//                           src/placement/ (placement must be a pure
//                           function of its inputs)
//   header-hygiene          headers start with #pragma once and never say
//                           `using namespace` at namespace scope
//   metrics-naming          metric family literals follow the `rds_` scheme
//   stale-suppression       an `allow(rule)` comment naming one of the
//                           rules above that no longer shields a finding
//                           (only when every rule runs, i.e. an empty
//                           --rule filter; foreign rule ids are ignored)
//
// Findings are suppressed per line with
//   // rds_lint: allow(rule-id) -- reason
// on the offending line, or on a standalone comment line directly above it
// (the reason after `--` is mandatory; a bare allow() is ignored and the
// finding stands).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace rds::lint {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

struct Options {
  /// Empty = run every rule; otherwise only the listed rule ids.
  std::vector<std::string> only_rules;
};

/// Every rule id, in reporting order.
[[nodiscard]] const std::vector<std::string>& rule_ids();

/// Lints `text` as if it were the contents of `path` (the path decides
/// which rules apply: header rules for .hpp/.h, determinism rules for
/// paths containing "placement/").
[[nodiscard]] std::vector<Finding> lint_text(const std::string& path,
                                             std::string_view text,
                                             const Options& opts = {});

/// Reads and lints one file.  Returns false (and reports via `error`) when
/// the file cannot be read; findings are appended to `out`.
[[nodiscard]] bool lint_file(const std::string& path,
                             std::vector<Finding>& out, std::string& error,
                             const Options& opts = {});

}  // namespace rds::lint
