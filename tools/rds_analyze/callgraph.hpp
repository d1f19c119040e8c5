#pragma once

/// Whole-program call graph for rds_analyze (docs/static_analysis.md).
///
/// Builds on the per-file models from cfg.hpp: a method registry keyed by
/// (class, name), per-function lock/call/blocking facts from a token-linear
/// walk, and a resolved call graph whose edges cover three resolution forms:
///   - direct:  unqualified / receiver-typed / `Q::f` calls,
///   - factory: a local assigned from a `make_*` factory carries the
///     factory's declared interface type, so calls through it resolve,
///   - virtual: a call through an interface type fans out to every class
///     derived from it that declares the method.
/// The graph is condensed into SCCs (Tarjan) listed callee-first, which is
/// the propagation order the summary layer (summary.hpp) runs in.

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tools/rds_analyze/cfg.hpp"

namespace rds::analyze {

using MethodKey = std::pair<std::string, std::string>;  // (class, name)

/// One direct lock acquisition with the set already held at that point.
struct LockAcq {
  std::string node;
  int line = 0;
  std::vector<std::string> held;
};

/// One call site with enough shape to resolve it later.
struct CallSite {
  std::string name;
  std::string recv_type;   ///< resolved receiver type, "" if unknown
  bool has_recv = false;   ///< x.f() / x->f()
  bool qualified = false;  ///< Q::f()
  std::string qual;        ///< Q for qualified calls
  int line = 0;
  std::size_t tok = 0;  ///< index of the name token in Function::body
  std::vector<std::string> held;  ///< lock nodes held at the call
};

/// A directly blocking operation (journal append, fsync, sleep, join).
struct BlockingOp {
  std::string desc;
  int line = 0;
  std::size_t tok = 0;
  std::vector<std::string> held;
};

struct FnFacts {
  std::vector<LockAcq> acqs;
  std::vector<CallSite> calls;
  std::vector<BlockingOp> blocking;
};

enum class EdgeKind { kDirect, kFactory, kVirtual };

[[nodiscard]] std::string_view edge_kind_name(EdgeKind k);

struct CallEdge {
  MethodKey to;
  EdgeKind kind = EdgeKind::kDirect;
  int line = 0;
};

/// Everything the registry knows about one (class, name), merged over all
/// declarations and definitions seen anywhere in the tree.
struct MethodInfo {
  bool declared = false;
  bool defined = false;
  bool abstract = false;
  bool locking_ann = false;    ///< RDS_EXCLUDES on some declaration
  bool requires_lock = false;  ///< RDS_REQUIRES / *_locked
  bool returns_result = false;
  bool returns_raw = false;  ///< return type is a pointer/reference view
  bool is_lambda = false;
  std::vector<std::string> required_locks;  ///< resolved "Cls::mu_" nodes
  std::string ret_class;  ///< known class named in the return type, or ""
  std::vector<std::string> result_params;  ///< Result-typed parameter names
  std::set<std::string> direct_locks;      ///< lock nodes the body acquires
  std::vector<CallSite> calls;  ///< merged over all definitions
  std::vector<const Function*> defs;  ///< bodies (overloads merge here)
  std::vector<const FileModel*> def_files;  ///< parallel to defs
};

/// Generic iterative Tarjan over an int-indexed adjacency.  Component ids
/// number SCCs in reverse topological order: every edge u -> v outside a
/// component has comp[v] < comp[u], so ascending id order is callee-first.
struct SccResult {
  std::vector<int> comp;
  int count = 0;
};

[[nodiscard]] SccResult tarjan_scc(std::size_t n,
                                   const std::vector<std::vector<int>>& adj);

class CallGraph {
 public:
  /// Builds the registry, facts, resolved edges, and SCC condensation.
  /// The FileModels must outlive the graph (MethodInfo points into them).
  [[nodiscard]] static CallGraph build(const std::vector<FileModel>& files);

  /// All resolution forms (direct + factory + virtual).  Kinds
  /// are reported per target; unresolvable calls return empty.
  [[nodiscard]] std::vector<std::pair<MethodKey, EdgeKind>> resolve(
      const CallSite& c, const std::string& enclosing) const;

  /// Target keys only, for callers that do not care about the edge kind.
  [[nodiscard]] std::vector<MethodKey> resolve_keys(
      const CallSite& c, const std::string& enclosing) const;

  [[nodiscard]] const MethodInfo* find(const std::string& cls,
                                       const std::string& name) const;
  [[nodiscard]] const std::map<MethodKey, MethodInfo>& methods() const {
    return methods_;
  }
  [[nodiscard]] const std::map<MethodKey, std::vector<CallEdge>>& edges()
      const {
    return edges_;
  }
  /// SCCs of the method graph, callee-first (reverse topological).
  [[nodiscard]] const std::vector<std::vector<MethodKey>>& sccs() const {
    return sccs_;
  }
  [[nodiscard]] const std::set<std::string>& classes() const {
    return classes_;
  }
  /// base -> transitively derived classes.
  [[nodiscard]] const std::map<std::string, std::set<std::string>>& derived()
      const {
    return derived_;
  }
  /// Member names declared with an RcuCell type (e.g. "published_").
  [[nodiscard]] const std::set<std::string>& rcu_members() const {
    return rcu_members_;
  }
  /// Per-definition facts (lambdas included), keyed by body identity.
  [[nodiscard]] const FnFacts& facts_of(const Function* fn) const;

 private:
  [[nodiscard]] bool vetoed(const std::string& name,
                            const std::string& enclosing) const;

  std::map<MethodKey, MethodInfo> methods_;
  std::map<MethodKey, std::vector<CallEdge>> edges_;
  std::vector<std::vector<MethodKey>> sccs_;
  std::set<std::string> classes_;
  std::map<std::string, std::vector<std::string>> bases_;  ///< direct bases
  std::map<std::string, std::set<std::string>> derived_;
  std::set<std::string> rcu_members_;
  std::set<std::string> types_via_factory_;  ///< interface classes factories
                                             ///< hand out (edge labeling)
  std::map<const Function*, FnFacts> facts_;
};

// ---- shared token-pattern helpers (used by the summary and rule layers) ----

[[nodiscard]] std::string lower(std::string s);
[[nodiscard]] std::size_t fwd_match(const std::vector<Tok>& t, std::size_t i,
                                    const char* open, const char* close);

/// Index of the first member-state mutation in [b,e) (trailing-underscore
/// member assigned or mutated through a container call), or npos.
[[nodiscard]] std::size_t find_member_mutation(const std::vector<Tok>& t,
                                               std::size_t b, std::size_t e);

/// Position of a journal append inside [b,e): `x->append(` with a
/// journal/sink/wal receiver, or a *journal*_locked / journal_append
/// helper call (`helper_name` receives the helper, "" for direct
/// appends).  Returns npos when the span has none.
[[nodiscard]] std::size_t find_append_call(const std::vector<Tok>& t,
                                           std::size_t b, std::size_t e,
                                           std::string* helper_name);

/// Whether a journal append inside `callee` is the commit point of a
/// caller in class `caller_cls`: the callee is a helper of that class, or
/// a `*_locked` helper, which runs inside the caller's critical section
/// (a device set's append, edit and fail bodies).  A call into another
/// object's public API commits that object, not the caller.
[[nodiscard]] bool commits_for(const std::string& caller_cls,
                               const MethodKey& callee);

}  // namespace rds::analyze
