#pragma once

/// rds_analyze: the project's static analyzer (docs/static_analysis.md).
/// It checks what neither the compiler nor the sanitizers can: thirteen
/// rule families on top of the lexer + CFG + call-graph + summary layers.
///
///   lock-order            cycles in the mutex acquisition graph
///                         (summary-propagated through calls)
///   journal-protocol      the journal append is the commit point: its
///                         Result is checked on every path and no state
///                         mutation is reachable after an append, even
///                         when the append hides inside a callee
///                         (docs/persistence.md)
///   result-flow           a Result from a try_* call stored in a local
///                         is inspected on every path; passing it to a
///                         callee only counts when the callee consumes
///                         its Result parameters, and a function taking
///                         a Result parameter must consume it
///   capacity-arith        unchecked +/* on capacity values outside
///                         src/util/checked_math.hpp
///   rcu-escape            an epoch-guarded pointer (RcuCell read,
///                         placement_snapshot) must not be stored in a
///                         member, captured by an escaping lambda, or
///                         returned as a raw view
///   lock-held-across-call blocking operations (journal append, fsync,
///                         sleep, thread join) while a mutex is held --
///                         directly or through a call whose callee
///                         blocks without a lock of its own
///   guarded-member        every data member of a class that owns a
///                         mutex is RDS_GUARDED_BY, const, static,
///                         atomic, an RcuCell or a sync primitive, so
///                         clang -Wthread-safety sees every shared member
///   atomic-memory-order, result-path-throw, placement-determinism,
///   header-hygiene, metrics-naming
///                         the project conventions (conventions.hpp),
///                         for files under src/, tools/ and bench/
///   stale-suppression     an allow() comment naming a rule that no
///                         longer shields a finding
///
/// Findings are suppressed per line with
///   // rds_analyze: allow(rule-id) -- reason
/// on the offending line, or on a standalone comment line directly above
/// it; the reason after `--` is mandatory.

#include <string>
#include <string_view>
#include <vector>

#include "tools/rds_analyze/callgraph.hpp"
#include "tools/rds_analyze/summary.hpp"

namespace rds::analyze {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

struct Options {
  /// When non-empty, only run these rule ids.  stale-suppression needs
  /// every rule's verdict and therefore only runs with an empty filter.
  std::vector<std::string> only_rules;
  /// Directory the convention scope (src/, tools/, bench/) is judged
  /// from; empty judges file paths as given.
  std::string root;
};

/// Stable ids of every rule family.
[[nodiscard]] const std::vector<std::string>& rule_ids();

/// Whole-program analyzer: feed it every translation unit, then run().
/// Cross-file state (the call graph, summaries, the lock acquisition
/// graph) is built over everything added; per-function rules run per
/// file against the whole-program summaries.
class Analyzer {
 public:
  /// Analyze in-memory text under the given path (fixtures, tests).
  void add_text(std::string path, std::string_view text);

  /// Read and add a file; returns false (and records an io error) when
  /// the file cannot be read.
  bool add_file(const std::string& path);

  [[nodiscard]] std::vector<Finding> run(const Options& opts = {});

  [[nodiscard]] const std::vector<std::string>& io_errors() const {
    return io_errors_;
  }

  /// The call graph / summaries of the last run() (for --emit-callgraph
  /// and the tests); empty before the first run.
  [[nodiscard]] const CallGraph& callgraph() const { return cg_; }
  [[nodiscard]] const Summaries& summaries() const { return sums_; }

 private:
  std::vector<std::string> paths_;
  std::vector<std::string> texts_;
  std::vector<std::string> io_errors_;
  std::vector<FileModel> files_;  ///< stable: cg_ points into it
  CallGraph cg_;
  Summaries sums_;
};

/// One-shot single-file convenience used by the fixture tests.
[[nodiscard]] std::vector<Finding> analyze_text(const std::string& path,
                                                std::string_view text,
                                                const Options& opts = {});

}  // namespace rds::analyze
