#pragma once

/// Function extraction and per-function control-flow graphs for rds_analyze
/// (docs/static_analysis.md).
///
/// This is deliberately NOT a C++ parse.  A scope walker finds function
/// bodies (free functions, in-class methods, out-of-class `Cls::method`
/// definitions, lambdas); each body becomes a statement/branch CFG with
/// `if`/loop/`switch`/`try`-`catch` edges plus exception edges from every
/// node that can throw (a call or an explicit `throw`) to the innermost
/// enclosing catch handler, or to EXIT when there is none.  Lambdas become
/// full `Function`s with their own CFGs; the enclosing function keeps the
/// capture intro in its token stream, so a statement that runs later (a
/// callback body) is never mistaken for an inline one, and a `throw` in a
/// lambda belongs to the lambda.
///
/// Class scopes additionally yield a `MemberDecl` per data member (the
/// trailing-underscore convention): how the member is shared, for the
/// guarded-member rule.

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "tools/rds_analyze/lexer.hpp"

namespace rds::analyze {

/// One extracted function body.
struct Function {
  std::string cls;      ///< enclosing class ("" for free functions)
  std::string name;     ///< method name; lambdas are "<fn>::lambda@<line>"
  std::string display;  ///< "Cls::name" or just "name"
  int line = 0;         ///< line of the declaration
  bool is_lambda = false;
  std::string bound_to;   ///< lambdas: the variable `auto v = [...]` sets
  std::vector<Tok> decl;  ///< signature tokens (return type .. before '{');
                          ///< for lambdas: capture list + parameters
  std::vector<Tok> body;  ///< code tokens inside '{ }'; nested lambda bodies
                          ///< live in their own Function, intro kept here
};

/// A method or free-function declaration harvested while scope-walking.
/// Definitions contribute one too, so the whole-program registry sees
/// every signature whether or not the header was scanned first.
struct Declaration {
  std::string cls;  ///< "" for free functions
  std::string name;
  bool abstract = false;       ///< pure virtual (`= 0`)
  bool locking = false;        ///< RDS_EXCLUDES(...) on the declaration
  bool requires_lock = false;  ///< RDS_REQUIRES(...) or a *_locked name
  bool returns_result = false;  ///< return type mentions Result
  bool returns_raw = false;  ///< return type has * or & (non-owning view)
  std::vector<std::string> required_locks;  ///< RDS_REQUIRES(...) arguments
  std::vector<std::string> ret_idents;  ///< identifiers in the return type
  std::vector<std::string> result_params;  ///< names of Result-typed params
};

/// A class data member harvested from a class-scope declaration, keyed by
/// the trailing-underscore naming convention (`hits_`, never `hits`).
struct MemberDecl {
  std::string cls;
  std::string name;
  int line = 0;
  bool is_atomic = false;  ///< std::atomic<...> -- lock-free by design
  bool is_mutex = false;   ///< Mutex / CondVar (a sync primitive itself)
  bool is_rcu = false;     ///< RcuCell<...> -- epoch-published
  bool is_const = false;   ///< the member itself is const / constexpr
  bool is_static = false;
  bool guarded = false;    ///< declared RDS_GUARDED_BY(...)
};

/// Everything rds_analyze keeps per translation unit.
struct FileModel {
  std::string path;
  std::vector<Tok> toks;  ///< full token stream (comments included)
  Suppressions sup;
  std::vector<Function> functions;
  std::vector<Declaration> decls;
  std::vector<MemberDecl> members;   ///< class data members (see MemberDecl)
  std::vector<std::string> classes;  ///< class/struct names seen in this file
  /// class -> direct base classes (`class D : public B` base clauses).
  std::map<std::string, std::vector<std::string>> bases;
};

[[nodiscard]] FileModel build_file_model(std::string path,
                                         std::string_view text);

/// CFG node: one statement (or branch condition).  `succ` are normal
/// control-flow successors; `esucc` are exception successors (populated
/// when the node contains a call or a `throw`).
struct CfgNode {
  int line = 0;
  std::size_t begin = 0;  ///< token span [begin,end) into Function::body
  std::size_t end = 0;
  bool has_call = false;
  bool is_throw = false;
  bool is_branch = false;  ///< if/loop/switch condition node
  std::vector<int> succ;
  std::vector<int> esucc;
};

struct Cfg {
  static constexpr int kEntry = 0;
  static constexpr int kExit = 1;
  std::vector<CfgNode> nodes;  ///< nodes[0] = ENTRY, nodes[1] = EXIT
};

[[nodiscard]] Cfg build_cfg(const Function& fn);

/// True when EXIT is reachable from `start` without passing through a
/// node for which `barrier` returns true.  `use_esucc` follows exception
/// edges too; `start_esucc` additionally seeds the walk with `start`'s
/// own exception successors (the statement itself may throw).
[[nodiscard]] bool reaches_exit(const Cfg& cfg, int start, bool use_esucc,
                                bool start_esucc,
                                const std::function<bool(int)>& barrier);

/// Every node reachable strictly after `start` (successors onward).
[[nodiscard]] std::vector<int> reachable_after(const Cfg& cfg, int start,
                                               bool use_esucc);

}  // namespace rds::analyze
