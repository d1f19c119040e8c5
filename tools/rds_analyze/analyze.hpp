#pragma once

/// rds_analyze: flow-aware, whole-program static analysis for this
/// repository (docs/static_analysis.md).  Eleven rule families on top of
/// the lexer + CFG + call-graph + summary + lockset layers:
///
///   lock-order            cycles in the mutex acquisition graph
///                         (summary-propagated through calls), and
///                         volume->pool inversions of the documented
///                         pool->volume order (storage_pool.hpp)
///   journal-protocol      the journal append is the commit point: its
///                         Result is checked on every path and no state
///                         mutation is reachable after an append, even
///                         when the append hides inside a callee
///                         (docs/persistence.md)
///   metric-balance        every gauge add() is matched by a sub() on
///                         all outgoing paths, exception edges included;
///                         a callee that sub()s on all its paths credits
///                         the caller
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
///   shared-state-race     Eraser-style lockset intersection over every
///                         access to a data member of a mutex-owning
///                         class: a member that is neither atomic,
///                         RCU-published, nor confined to construction,
///                         written with an empty lockset intersection,
///                         is a candidate race (members.hpp)
///   lambda-escape         a lambda handed to an executor / stored as a
///                         callback / spawned as a never-joined thread
///                         while capturing locals by reference -- the
///                         closure outlives the defining frame
///   annotation-drift      inferred locksets vs declared RDS_GUARDED_BY:
///                         a consistently locked member with no
///                         annotation (missing), or an annotation naming
///                         a lock the access paths do not hold (wrong)
///   stale-suppression     a `// rds_lint: allow(rule)` comment that no
///                         longer matches any finding of this tool
///
/// `// rds_lint: allow(rule) -- reason` suppressions carry over from
/// rds_lint unchanged.

#include <string>
#include <string_view>
#include <vector>

#include "tools/rds_analyze/callgraph.hpp"
#include "tools/rds_analyze/members.hpp"
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

  /// The call graph / summaries / race model of the last run() (for
  /// --emit-callgraph, --emit-accesses and the tests); empty before the
  /// first run.
  [[nodiscard]] const CallGraph& callgraph() const { return cg_; }
  [[nodiscard]] const Summaries& summaries() const { return sums_; }
  [[nodiscard]] const RaceModel& race_model() const { return race_; }

 private:
  std::vector<std::string> paths_;
  std::vector<std::string> texts_;
  std::vector<std::string> io_errors_;
  std::vector<FileModel> files_;  ///< stable: cg_ points into it
  CallGraph cg_;
  Summaries sums_;
  RaceModel race_;
};

/// One-shot single-file convenience used by the fixture tests.
[[nodiscard]] std::vector<Finding> analyze_text(const std::string& path,
                                                std::string_view text,
                                                const Options& opts = {});

}  // namespace rds::analyze
