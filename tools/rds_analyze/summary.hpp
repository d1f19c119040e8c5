#pragma once

/// Per-function summaries for rds_analyze, propagated bottom-up over the
/// call graph's SCC condensation (docs/static_analysis.md).
///
/// A summary is what a caller needs to know about a callee without seeing
/// its body: the locks it (transitively) acquires, the locks it requires
/// on entry, whether it reaches a blocking operation with no lock of its
/// own (so a caller holding one creates the lock-held-across-call
/// pairing), whether it appends to the journal, whether it hands back an
/// RCU epoch/snapshot pointer, and whether it consumes its Result
/// parameters.  SCCs are processed callee-first with a fixpoint iteration
/// inside each component, so mutual recursion converges.

#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/rds_analyze/callgraph.hpp"

namespace rds::analyze {

struct FnSummary {
  std::set<std::string> locks;        ///< transitively acquired lock nodes
  std::vector<std::string> required;  ///< entry-held lock nodes
  bool appends_journal = false;       ///< reaches a journal append
  /// Reaches a blocking op (journal append, fsync, sleep, join) with no
  /// lock held anywhere inside the callee subtree.  A caller holding a
  /// lock across such a call creates the pairing, so the call site is
  /// the reporting point; guarded callees report internally instead.
  bool blocking_unguarded = false;
  std::string blocking_desc;  ///< first cause, for messages
  bool returns_epoch = false;  ///< returns an RCU epoch/snapshot handle
  bool has_result_params = false;
  bool consumes_result_params = false;  ///< every Result param inspected
};

class Summaries {
 public:
  [[nodiscard]] static Summaries compute(const CallGraph& cg);

  /// Summary for a method key; a shared empty summary when unknown.
  [[nodiscard]] const FnSummary& of(const MethodKey& key) const;
  [[nodiscard]] const std::map<MethodKey, FnSummary>& all() const {
    return sums_;
  }

 private:
  std::map<MethodKey, FnSummary> sums_;
};

/// True when [from,to) contains an epoch-handle source: an RcuCell member
/// load()/read(), or a call to a function in `epoch_fns` (names whose
/// summaries return an epoch handle).
[[nodiscard]] bool epoch_source_in(const std::vector<Tok>& b,
                                   std::size_t from, std::size_t to,
                                   const std::set<std::string>& rcu_members,
                                   const std::set<std::string>& epoch_fns);

/// Local variables of `fn` bound to an epoch-guarded snapshot: assigned
/// from an RcuCell member load()/read(), from placement_snapshot, from a
/// callee whose summary returns_epoch, or copied from another epoch
/// variable.
[[nodiscard]] std::set<std::string> collect_epoch_vars(const Function& fn,
                                                       const CallGraph& cg,
                                                       const Summaries& sums);

}  // namespace rds::analyze
