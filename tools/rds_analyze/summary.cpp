#include "tools/rds_analyze/summary.hpp"

namespace rds::analyze {
namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

std::string display_of(const MethodKey& key) {
  return key.first.empty() ? key.second : key.first + "::" + key.second;
}

/// Inspection members that count as consuming a Result.
bool is_inspect_member(const Tok& t) {
  static const std::set<std::string> kInspect = {
      "ok",       "code",          "error",    "value",
      "value_or", "value_or_throw", "has_value"};
  return t.kind == Kind::kIdent && kInspect.contains(t.text);
}

/// Locals bound to an epoch handle: direct sources, plus handle copies
/// (`auto b = snap;`), raw extractions (`snap.get()`, `&snap`, `*snap`).
std::set<std::string> epoch_vars_impl(
    const Function& fn, const std::set<std::string>& rcu_members,
    const std::set<std::string>& epoch_fns) {
  const std::vector<Tok>& b = fn.body;
  std::set<std::string> vars;
  bool grew = true;
  while (grew) {
    grew = false;
    for (std::size_t i = 0; i + 1 < b.size(); ++i) {
      if (b[i].kind != Kind::kIdent || !is_punct(b[i + 1], "=")) continue;
      if (vars.contains(b[i].text) || b[i].text.ends_with("_")) continue;
      std::size_t stmt_end = i + 2;
      while (stmt_end < b.size() && !is_punct(b[stmt_end], ";")) ++stmt_end;
      bool epoch = epoch_source_in(b, i + 2, stmt_end, rcu_members, epoch_fns);
      if (!epoch) {
        // Handle/raw-pointer copies of an already-tainted variable.
        std::size_t j = i + 2;
        bool lead_addr = false;
        while (j < stmt_end &&
               (is_punct(b[j], "*") || is_punct(b[j], "&"))) {
          lead_addr = true;
          ++j;
        }
        if (j < stmt_end && b[j].kind == Kind::kIdent &&
            vars.contains(b[j].text)) {
          if (lead_addr || j + 1 >= stmt_end || is_punct(b[j + 1], ";")) {
            epoch = true;
          } else if ((is_punct(b[j + 1], ".") || is_punct(b[j + 1], "->")) &&
                     j + 2 < stmt_end && is_ident(b[j + 2], "get")) {
            epoch = true;
          }
        }
      }
      if (epoch && vars.insert(b[i].text).second) grew = true;
    }
  }
  return vars;
}

/// True when some `return` statement hands back the epoch handle itself
/// (a tainted variable not immediately dereferenced, or a direct source).
bool returns_epoch_handle(const std::vector<Tok>& b,
                          const std::set<std::string>& vars,
                          const std::set<std::string>& rcu_members,
                          const std::set<std::string>& epoch_fns) {
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (!is_ident(b[i], "return") && !is_ident(b[i], "co_return")) continue;
    std::size_t stmt_end = i + 1;
    while (stmt_end < b.size() && !is_punct(b[stmt_end], ";")) ++stmt_end;
    if (epoch_source_in(b, i + 1, stmt_end, rcu_members, epoch_fns)) {
      return true;
    }
    for (std::size_t j = i + 1; j < stmt_end; ++j) {
      if (b[j].kind != Kind::kIdent || !vars.contains(b[j].text)) continue;
      const bool derefed =
          j + 1 < stmt_end && (is_punct(b[j + 1], ".") ||
                               is_punct(b[j + 1], "->") ||
                               is_punct(b[j + 1], "["));
      if (!derefed) return true;
    }
  }
  return false;
}

/// Name of the call the mention at `i` is an argument of, skipping
/// through std::move/std::forward wrappers; "" when not inside a call.
std::string enclosing_callee(const std::vector<Tok>& b, std::size_t i) {
  std::size_t pos = i;
  for (int hops = 0; hops < 4; ++hops) {
    int depth = 0;
    std::size_t j = pos;
    std::string callee;
    while (j > 0) {
      --j;
      if (is_punct(b[j], ")")) ++depth;
      if (is_punct(b[j], "(")) {
        if (depth == 0) {
          if (j > 0 && b[j - 1].kind == Kind::kIdent) callee = b[j - 1].text;
          break;
        }
        --depth;
      }
      if (is_punct(b[j], ";") || is_punct(b[j], "{")) return {};
    }
    if (callee.empty()) return {};
    if (callee == "move" || callee == "forward") {
      pos = j;  // keep walking outward from the wrapper's '('
      continue;
    }
    return callee;
  }
  return {};
}

}  // namespace

bool epoch_source_in(const std::vector<Tok>& b, std::size_t from,
                     std::size_t to, const std::set<std::string>& rcu_members,
                     const std::set<std::string>& epoch_fns) {
  for (std::size_t j = from; j < to && j < b.size(); ++j) {
    if (b[j].kind != Kind::kIdent) continue;
    if (rcu_members.contains(b[j].text) && j + 2 < b.size() &&
        (is_punct(b[j + 1], ".") || is_punct(b[j + 1], "->")) &&
        (is_ident(b[j + 2], "load") || is_ident(b[j + 2], "read"))) {
      return true;
    }
    if (j + 1 < b.size() && is_punct(b[j + 1], "(") &&
        epoch_fns.contains(b[j].text)) {
      return true;
    }
  }
  return false;
}

const FnSummary& Summaries::of(const MethodKey& key) const {
  static const FnSummary kEmpty;
  const auto it = sums_.find(key);
  return it == sums_.end() ? kEmpty : it->second;
}

std::set<std::string> collect_epoch_vars(const Function& fn,
                                         const CallGraph& cg,
                                         const Summaries& sums) {
  std::set<std::string> epoch_fns = {"placement_snapshot"};
  for (const auto& [key, s] : sums.all()) {
    if (s.returns_epoch) epoch_fns.insert(key.second);
  }
  return epoch_vars_impl(fn, cg.rcu_members(), epoch_fns);
}

Summaries Summaries::compute(const CallGraph& cg) {
  Summaries out;
  const auto& methods = cg.methods();
  for (const auto& [key, m] : methods) {
    FnSummary s;
    s.required = m.required_locks;
    s.has_result_params = !m.result_params.empty();
    // A body we never saw gets the benefit of the doubt on consumption.
    if (s.has_result_params && m.defs.empty()) {
      s.consumes_result_params = true;
    }
    out.sums_.emplace(key, std::move(s));
  }

  // Resolution is summary-independent: do it once per call site.
  std::map<const CallSite*, std::vector<MethodKey>> resolved;
  for (const auto& [key, m] : methods) {
    for (const CallSite& c : m.calls) {
      resolved.emplace(&c, cg.resolve_keys(c, key.first));
    }
  }
  // Methods sharing a name, for the Result-param pass-through check.
  std::map<std::string, std::vector<MethodKey>> by_name;
  for (const auto& [key, m] : methods) by_name[key.second].push_back(key);

  std::set<std::string> epoch_fns = {"placement_snapshot"};

  const auto param_consumed = [&](const std::vector<Tok>& b,
                                  const std::string& p) {
    for (std::size_t i = 0; i < b.size(); ++i) {
      if (!is_ident(b[i], p)) continue;
      if (i + 1 < b.size() && is_punct(b[i + 1], "=")) continue;  // reassign
      if (i + 2 < b.size() &&
          (is_punct(b[i + 1], ".") || is_punct(b[i + 1], "->")) &&
          is_inspect_member(b[i + 2])) {
        return true;
      }
      if (i > 0 && is_punct(b[i - 1], "!")) return true;
      if (i > 0 && (is_ident(b[i - 1], "return") ||
                    is_ident(b[i - 1], "co_return"))) {
        return true;
      }
      // Passed along: consuming only if the callee consumes its Result
      // parameter; an unknown callee gets the benefit of the doubt.
      const std::string callee = enclosing_callee(b, i);
      if (callee.empty()) continue;
      const auto nit = by_name.find(callee);
      if (nit == by_name.end()) return true;  // unresolvable: assume consumed
      bool any_result_taking = false;
      for (const MethodKey& k : nit->second) {
        const FnSummary& ks = out.sums_.at(k);
        if (!ks.has_result_params) continue;
        any_result_taking = true;
        if (ks.consumes_result_params) return true;
      }
      if (!any_result_taking) return true;  // odd shape: stay conservative
    }
    return false;
  };

  const auto recompute = [&](const MethodKey& key) {
    const MethodInfo& m = methods.at(key);
    FnSummary next = out.sums_.at(key);

    std::set<std::string> locks = m.direct_locks;
    if (m.locking_ann && !m.defined && !key.first.empty()) {
      // Annotated but body unseen: assume it takes its class lock.
      locks.insert(key.first + "::mu_");
    }
    bool appends = false;
    bool unguarded = false;
    std::string desc = next.blocking_desc;
    for (const Function* fn : m.defs) {
      std::string helper;
      if (find_append_call(fn->body, 0, fn->body.size(), &helper) != kNpos) {
        appends = true;
      }
      for (const BlockingOp& op : cg.facts_of(fn).blocking) {
        if (op.held.empty() && !unguarded) {
          unguarded = true;
          desc = op.desc;
        }
      }
    }
    for (const CallSite& c : m.calls) {
      for (const MethodKey& t : resolved.at(&c)) {
        if (t == key) continue;
        const FnSummary& ts = out.sums_.at(t);
        locks.insert(ts.locks.begin(), ts.locks.end());
        if (ts.appends_journal && commits_for(key.first, t)) appends = true;
        if (c.held.empty() && ts.blocking_unguarded && !unguarded) {
          unguarded = true;
          desc = "call into " + display_of(t) + " (" + ts.blocking_desc + ")";
        }
      }
    }
    next.locks = std::move(locks);
    next.appends_journal = appends;
    next.blocking_unguarded = unguarded;
    if (unguarded) next.blocking_desc = desc;

    if (!next.returns_epoch) {
      for (const Function* fn : m.defs) {
        const std::set<std::string> vars =
            epoch_vars_impl(*fn, cg.rcu_members(), epoch_fns);
        if (returns_epoch_handle(fn->body, vars, cg.rcu_members(),
                                 epoch_fns)) {
          next.returns_epoch = true;
          break;
        }
      }
    }

    if (next.has_result_params && !next.consumes_result_params &&
        !m.defs.empty()) {
      bool all = true;
      for (const std::string& p : m.result_params) {
        bool one = false;
        for (const Function* fn : m.defs) {
          if (param_consumed(fn->body, p)) {
            one = true;
            break;
          }
        }
        if (!one) {
          all = false;
          break;
        }
      }
      next.consumes_result_params = all;
    }

    FnSummary& cur = out.sums_.at(key);
    const bool changed =
        next.locks != cur.locks ||
        next.appends_journal != cur.appends_journal ||
        next.blocking_unguarded != cur.blocking_unguarded ||
        next.blocking_desc != cur.blocking_desc ||
        next.returns_epoch != cur.returns_epoch ||
        next.consumes_result_params != cur.consumes_result_params;
    if (next.returns_epoch) epoch_fns.insert(key.second);
    cur = std::move(next);
    return changed;
  };

  for (const auto& scc : cg.sccs()) {
    bool changed = true;
    int guard = 0;
    while (changed && guard++ < 12) {
      changed = false;
      for (const MethodKey& key : scc) {
        if (recompute(key)) changed = true;
      }
    }
  }
  return out;
}

}  // namespace rds::analyze
