#include "tools/rds_analyze/analyze.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "tools/rds_analyze/cfg.hpp"
#include "tools/rds_analyze/conventions.hpp"
#include "tools/rds_analyze/lexer.hpp"
#include "tools/rds_analyze/report.hpp"

namespace rds::analyze {
namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

std::string display_of(const MethodKey& key) {
  return key.first.empty() ? key.second : key.first + "::" + key.second;
}

std::string join(const std::vector<std::string>& v) {
  std::string s;
  for (const std::string& x : v) {
    if (!s.empty()) s += ", ";
    s += x;
  }
  return s;
}

bool mentions(const std::vector<Tok>& t, std::size_t b, std::size_t e,
              const std::string& name, std::size_t skip) {
  for (std::size_t i = b; i < e && i < t.size(); ++i) {
    if (i == skip) continue;
    if (is_ident(t[i], name)) return true;
  }
  return false;
}

/// Member of *this* by naming convention: trailing '_', not preceded by
/// an access path (x.y_ / Cls::kConst_ are someone else's state).
bool member_ident(const std::vector<Tok>& b, std::size_t i) {
  return b[i].kind == Kind::kIdent && b[i].text.size() >= 2 &&
         b[i].text.ends_with("_") && !b[i].text.ends_with("__") &&
         (i == 0 || !(is_punct(b[i - 1], ".") || is_punct(b[i - 1], "->") ||
                      is_punct(b[i - 1], "::")));
}

/// The mention at `i` uses the handle itself (or extracts the raw
/// pointer), as opposed to reading a field through it.
bool handle_use(const std::vector<Tok>& b, std::size_t i) {
  if (i + 1 >= b.size()) return true;
  if (is_punct(b[i + 1], ".") || is_punct(b[i + 1], "->")) {
    return i + 2 < b.size() && is_ident(b[i + 2], "get");
  }
  return !is_punct(b[i + 1], "[");
}

// ---- lock graph ------------------------------------------------------------

struct EdgeWitness {
  std::string file;
  int line = 0;
  std::string fn;
};

using LockGraph = std::map<std::string, std::map<std::string, EdgeWitness>>;

void add_edge(LockGraph& g, const std::string& from, const std::string& to,
              const EdgeWitness& w) {
  if (from == to) return;  // re-entry on the same node is not an ordering
  g[from].try_emplace(to, w);
}

/// Component id per lock node, via the generic Tarjan from callgraph.hpp.
std::map<std::string, int> lock_scc(const LockGraph& g) {
  std::vector<std::string> names;
  for (const auto& [from, outs] : g) {
    names.push_back(from);
    for (const auto& [to, w] : outs) names.push_back(to);
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  std::map<std::string, int> id;
  for (std::size_t i = 0; i < names.size(); ++i) {
    id[names[i]] = static_cast<int>(i);
  }
  std::vector<std::vector<int>> adj(names.size());
  for (const auto& [from, outs] : g) {
    for (const auto& [to, w] : outs) adj[id[from]].push_back(id[to]);
  }
  const SccResult r = tarjan_scc(names.size(), adj);
  std::map<std::string, int> comp;
  for (const std::string& n : names) comp[n] = r.comp[id[n]];
  return comp;
}

/// Calls a lambda intro could escape through: thread pools, schedulers,
/// callbacks, std::thread -- anything that runs the closure after the
/// caller returns (rcu-escape).
bool escape_call(const std::string& name) {
  static const std::set<std::string> kEscape = {
      "submit",       "post",  "enqueue",     "dispatch", "defer",
      "schedule",     "async", "spawn",       "detach",   "start_thread",
      "set_callback", "then",  "on_complete", "add_task", "thread"};
  return kEscape.contains(lower(name));
}

}  // namespace

// ---- rule ids --------------------------------------------------------------

const std::vector<std::string>& rule_ids() {
  static const std::vector<std::string> kIds = {
      "lock-order",          "journal-protocol",
      "result-flow",         "capacity-arith",
      "rcu-escape",          "lock-held-across-call",
      "guarded-member",      "atomic-memory-order",
      "result-path-throw",   "placement-determinism",
      "header-hygiene",      "metrics-naming",
      "stale-suppression"};
  return kIds;
}

// ---- Analyzer --------------------------------------------------------------

void Analyzer::add_text(std::string path, std::string_view text) {
  paths_.push_back(std::move(path));
  texts_.emplace_back(text);
}

bool Analyzer::add_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    io_errors_.push_back("cannot open " + path);
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  paths_.push_back(path);
  texts_.push_back(std::move(ss).str());
  return true;
}

std::vector<Finding> Analyzer::run(const Options& opts) {
  // Deterministic whole-program order regardless of add order.
  std::vector<std::size_t> order(paths_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return paths_[a] < paths_[b];
  });

  files_.clear();
  files_.reserve(order.size());
  for (const std::size_t i : order) {
    files_.push_back(build_file_model(paths_[i], texts_[i]));
  }

  cg_ = CallGraph::build(files_);
  sums_ = Summaries::compute(cg_);

  // Functions known to hand back an epoch handle, for source matching.
  std::set<std::string> epoch_fns = {"placement_snapshot"};
  for (const auto& [key, s] : sums_.all()) {
    if (s.returns_epoch) epoch_fns.insert(key.second);
  }

  std::vector<Finding> findings;
  // Suppression lookup by file path, plus per-comment usage so the
  // stale-suppression pass can tell live allow() comments from dead ones.
  std::map<std::string, const Suppressions*> sup_of;
  for (const FileModel& fm : files_) sup_of[fm.path] = &fm.sup;
  std::set<std::tuple<std::string, int, std::string>> used_sups;
  const auto emit = [&](const std::string& file, int line,
                        const std::string& rule, std::string message) {
    const auto it = sup_of.find(file);
    if (it != sup_of.end() && it->second->allows(line, rule)) {
      used_sups.insert({file, it->second->origin_of(line, rule), rule});
      return;
    }
    findings.push_back({file, line, rule, std::move(message)});
  };

  // ---- lock graph: direct acquisitions + summary-propagated calls ----------
  LockGraph graph;
  for (const FileModel& fm : files_) {
    for (const Function& fn : fm.functions) {
      const FnFacts& facts = cg_.facts_of(&fn);
      for (const LockAcq& a : facts.acqs) {
        for (const std::string& h : a.held) {
          add_edge(graph, h, a.node, {fm.path, a.line, fn.display});
        }
      }
      for (const CallSite& c : facts.calls) {
        if (c.held.empty()) continue;
        for (const MethodKey& target : cg_.resolve_keys(c, fn.cls)) {
          for (const std::string& node : sums_.of(target).locks) {
            for (const std::string& h : c.held) {
              add_edge(graph, h, node, {fm.path, c.line, fn.display});
            }
          }
        }
      }
    }
  }

  // ---- lock-order findings -------------------------------------------------
  {
    const std::map<std::string, int> comp = lock_scc(graph);
    std::map<int, std::vector<std::string>> members;
    for (const auto& [node, c] : comp) members[c].push_back(node);
    std::set<int> reported;
    for (const auto& [from, outs] : graph) {
      for (const auto& [to, w] : outs) {
        const auto cf = comp.find(from);
        const auto ct = comp.find(to);
        if (cf == comp.end() || ct == comp.end() ||
            cf->second != ct->second) {
          continue;
        }
        if (!reported.insert(cf->second).second) continue;
        std::string cyc;
        for (const std::string& n : members[cf->second]) {
          if (!cyc.empty()) cyc += ", ";
          cyc += n;
        }
        emit(w.file, w.line, "lock-order",
             "acquiring " + to + " while holding " + from + " (in " + w.fn +
                 ") closes a lock cycle among {" + cyc +
                 "}; establish one order and stick to it");
      }
    }
  }

  // ---- per-function CFG rules ---------------------------------------------
  for (const FileModel& fm : files_) {
    check_conventions(fm, relative_to(fm.path, opts.root), cg_.rcu_members(),
                      [&](int line, const char* rule, std::string message) {
                        emit(fm.path, line, rule, std::move(message));
                      });

    for (const Function& fn : fm.functions) {
      const Cfg cfg = build_cfg(fn);
      const std::vector<Tok>& b = fn.body;
      const FnFacts& facts = cg_.facts_of(&fn);

      // A mention of a Result local that really consumes it: member
      // access, negation, return, or passing it to a callee that
      // consumes its Result parameters.  Handing it to a callee that
      // provably ignores it does not count.
      const auto consuming_mention = [&](std::size_t i) {
        if (i + 1 < b.size() &&
            (is_punct(b[i + 1], ".") || is_punct(b[i + 1], "->") ||
             is_punct(b[i + 1], "["))) {
          return true;
        }
        if (i > 0 && (is_punct(b[i - 1], "!") || is_ident(b[i - 1], "return") ||
                      is_ident(b[i - 1], "co_return"))) {
          return true;
        }
        std::size_t pos = i;
        for (int hops = 0; hops < 4; ++hops) {
          const CallSite* encl = nullptr;
          for (const CallSite& c : facts.calls) {
            if (c.tok >= pos || c.tok + 1 >= b.size() ||
                !is_punct(b[c.tok + 1], "(")) {
              continue;
            }
            const std::size_t cend = fwd_match(b, c.tok + 1, "(", ")");
            if (pos > c.tok + 1 && pos < cend &&
                (encl == nullptr || c.tok > encl->tok)) {
              encl = &c;
            }
          }
          if (encl == nullptr) return true;  // bare use in a condition etc.
          if (encl->name == "move" || encl->name == "forward") {
            pos = encl->tok;
            continue;
          }
          const std::vector<MethodKey> targets =
              cg_.resolve_keys(*encl, fn.cls);
          if (targets.empty()) return true;  // unknown callee: benefit of doubt
          bool any_result_taking = false;
          for (const MethodKey& t : targets) {
            const FnSummary& ts = sums_.of(t);
            if (!ts.has_result_params) continue;
            any_result_taking = true;
            if (ts.consumes_result_params) return true;
          }
          return !any_result_taking;
        }
        return true;
      };

      // ---- journal-protocol ----
      for (std::size_t n = 2; n < cfg.nodes.size(); ++n) {
        const CfgNode& node = cfg.nodes[n];
        std::string helper;
        std::size_t ap = find_append_call(b, node.begin, node.end, &helper);
        const MethodInfo* append_target = nullptr;
        if (ap == kNpos) {
          // Interprocedural: a helper whose summary reaches a journal
          // append is a commit point too, whatever its name, when it
          // commits for this class (commits_for).
          for (const CallSite& c : facts.calls) {
            if (c.tok < node.begin || c.tok >= node.end) continue;
            for (const MethodKey& t : cg_.resolve_keys(c, fn.cls)) {
              if (!commits_for(fn.cls, t)) continue;
              if (!sums_.of(t).appends_journal) continue;
              ap = c.tok;
              helper = c.name;
              append_target = cg_.find(t.first, t.second);
              break;
            }
            if (ap != kNpos) break;
          }
        }
        if (ap == kNpos) continue;
        // (a) The append's Result must be consumed.  Helpers that return
        // void (and throw internally) are exempt.
        bool needs_check = helper.empty();
        if (!helper.empty()) {
          const MethodInfo* hm = append_target;
          if (hm == nullptr) hm = cg_.find(fn.cls, helper);
          if (hm == nullptr) hm = cg_.find("", helper);
          needs_check = hm != nullptr && hm->returns_result;
        }
        if (needs_check && !node.is_branch) {
          bool consumed = false;
          std::string stored;
          for (std::size_t k = node.begin; k < ap; ++k) {
            if (is_punct(b[k], "=") && k > node.begin &&
                b[k - 1].kind == Kind::kIdent) {
              consumed = true;
              stored = b[k - 1].text;
            }
            if (is_ident(b[k], "return") || is_ident(b[k], "co_return")) {
              consumed = true;
            }
          }
          for (std::size_t k = ap; k < node.end && k < b.size(); ++k) {
            if (is_ident(b[k], "value_or_throw") || is_ident(b[k], "ok") ||
                is_ident(b[k], "code") || is_ident(b[k], "error")) {
              consumed = true;
              stored.clear();
            }
          }
          if (!consumed) {
            emit(fm.path, node.line, "journal-protocol",
                 "journal append result is ignored in " + fn.display +
                     "; the append is the commit point -- check it "
                     "(docs/persistence.md)");
          } else if (!stored.empty()) {
            const std::string var = stored;
            const bool inline_use = [&] {
              std::size_t eq = node.begin;
              for (std::size_t k = node.begin; k < ap; ++k) {
                if (is_punct(b[k], "=")) eq = k;
              }
              for (std::size_t k = eq + 1; k < node.end && k < b.size(); ++k) {
                if (is_ident(b[k], var)) return true;
              }
              return false;
            }();
            if (!inline_use &&
                reaches_exit(cfg, static_cast<int>(n), /*use_esucc=*/false,
                             /*start_esucc=*/false, [&](int m) {
                               const CfgNode& mm = cfg.nodes[m];
                               return mentions(b, mm.begin, mm.end, var,
                                               kNpos);
                             })) {
              emit(fm.path, node.line, "journal-protocol",
                   "journal append result '" + var + "' in " + fn.display +
                       " is not checked on every path (docs/persistence.md)");
            }
          }
        }
        // (b) No state mutation reachable after the append: the append is
        // the commit point, so journal order must equal commit order.
        for (const int m : reachable_after(cfg, static_cast<int>(n),
                                           /*use_esucc=*/true)) {
          if (m == Cfg::kExit || m == Cfg::kEntry) continue;
          const CfgNode& mn = cfg.nodes[m];
          const std::size_t mut =
              find_member_mutation(b, mn.begin, mn.end);
          if (mut == kNpos) continue;
          emit(fm.path, mn.line, "journal-protocol",
               "state mutation of '" + b[mut].text + "' in " + fn.display +
                   " is reachable after the journal append at line " +
                   std::to_string(node.line) +
                   "; mutate before journaling (journal order is commit "
                   "order, docs/persistence.md)");
        }
      }

      // ---- result-flow ----
      for (std::size_t n = 2; n < cfg.nodes.size(); ++n) {
        const CfgNode& node = cfg.nodes[n];
        std::size_t def = kNpos;
        std::string var;
        for (std::size_t k = node.begin; k + 1 < node.end && k + 1 < b.size();
             ++k) {
          if (b[k].kind != Kind::kIdent || !is_punct(b[k + 1], "=")) continue;
          if (b[k].text.ends_with("_")) continue;
          for (std::size_t j = k + 2; j + 1 < node.end && j + 1 < b.size();
               ++j) {
            if (b[j].kind == Kind::kIdent && b[j].text.starts_with("try_") &&
                is_punct(b[j + 1], "(")) {
              // `x = try_f(...).value_or_throw()` stores the value: the
              // member call inspects the Result in place.
              const std::size_t close = fwd_match(b, j + 1, "(", ")");
              if (close + 1 < b.size() && is_punct(b[close + 1], ".")) break;
              def = k;
              var = b[k].text;
              break;
            }
            if (is_punct(b[j], ";")) break;
          }
          if (def != kNpos) break;
        }
        if (def == kNpos) continue;
        // Inspected within the defining statement (if-init etc.)?
        if (mentions(b, def + 1, node.end, var, kNpos)) {
          continue;
        }
        const auto consuming_in = [&](std::size_t from, std::size_t to) {
          for (std::size_t k = from; k < to && k < b.size(); ++k) {
            if (is_ident(b[k], var) && consuming_mention(k)) return true;
          }
          return false;
        };
        if (reaches_exit(cfg, static_cast<int>(n), /*use_esucc=*/false,
                         /*start_esucc=*/false, [&](int m) {
                           const CfgNode& mm = cfg.nodes[m];
                           return consuming_in(mm.begin, mm.end);
                         })) {
          emit(fm.path, node.line, "result-flow",
               "Result from try_* stored in '" + var + "' in " + fn.display +
                   " is dropped on some path without being inspected");
        }
      }

      // ---- rcu-escape ----
      {
        const std::set<std::string> epoch_vars =
            collect_epoch_vars(fn, cg_, sums_);
        const auto epoch_handle_in = [&](std::size_t from,
                                         std::size_t to) -> std::string {
          for (std::size_t k = from; k < to && k < b.size(); ++k) {
            if (b[k].kind == Kind::kIdent && epoch_vars.contains(b[k].text) &&
                handle_use(b, k)) {
              return b[k].text;
            }
          }
          if (epoch_source_in(b, from, to, cg_.rcu_members(), epoch_fns)) {
            return "<rcu read>";
          }
          return {};
        };
        // Default-capture lambdas in [from,to) whose (excised) body uses
        // an epoch variable of this function.
        const auto lambda_capture_in = [&](std::size_t from,
                                           std::size_t to) -> std::string {
          for (std::size_t k = from; k < to && k < b.size(); ++k) {
            if (!is_punct(b[k], "[")) continue;
            const std::size_t cap_end = fwd_match(b, k, "[", "]");
            for (std::size_t j = k + 1; j < cap_end && j < b.size(); ++j) {
              if (b[j].kind == Kind::kIdent &&
                  epoch_vars.contains(b[j].text)) {
                return b[j].text;
              }
            }
            const bool default_cap =
                k + 1 < b.size() &&
                (is_punct(b[k + 1], "&") || is_punct(b[k + 1], "="));
            if (!default_cap) continue;
            for (const Function& l : fm.functions) {
              if (!l.is_lambda ||
                  !l.name.starts_with(fn.name + "::lambda@") ||
                  l.line < b[k].line) {
                continue;
              }
              for (const std::string& v : epoch_vars) {
                if (mentions(l.body, 0, l.body.size(), v, kNpos)) return v;
              }
            }
          }
          return {};
        };

        static const std::set<std::string> kStoreMutators = {
            "insert", "emplace", "emplace_back", "push_back",
            "push",   "assign",  "try_emplace",  "reset"};
        for (std::size_t k = 0; k + 1 < b.size(); ++k) {
          if (!member_ident(b, k)) continue;
          if (cg_.rcu_members().contains(b[k].text)) continue;  // publishing
          if (is_punct(b[k + 1], "=")) {
            std::size_t stmt_end = k + 2;
            while (stmt_end < b.size() && !is_punct(b[stmt_end], ";")) {
              ++stmt_end;
            }
            std::string v = epoch_handle_in(k + 2, stmt_end);
            if (v.empty()) v = lambda_capture_in(k + 2, stmt_end);
            if (!v.empty()) {
              emit(fm.path, b[k].line, "rcu-escape",
                   "epoch-guarded pointer '" + v + "' is stored in member '" +
                       b[k].text + "' in " + fn.display +
                       "; the member outlives the epoch -- copy the data or "
                       "re-read the snapshot where it is used");
            }
          } else if ((is_punct(b[k + 1], ".") || is_punct(b[k + 1], "->")) &&
                     k + 3 < b.size() && b[k + 2].kind == Kind::kIdent &&
                     kStoreMutators.contains(b[k + 2].text) &&
                     is_punct(b[k + 3], "(")) {
            const std::size_t close = fwd_match(b, k + 3, "(", ")");
            const std::string v = epoch_handle_in(k + 4, close);
            if (!v.empty()) {
              emit(fm.path, b[k].line, "rcu-escape",
                   "epoch-guarded pointer '" + v + "' is stored in member '" +
                       b[k].text + "' in " + fn.display +
                       "; the member outlives the epoch -- copy the data or "
                       "re-read the snapshot where it is used");
            }
          }
        }
        // Captured by a lambda handed to a scheduler/thread/callback slot.
        for (const CallSite& c : facts.calls) {
          if (!escape_call(c.name) || c.tok + 1 >= b.size() ||
              !is_punct(b[c.tok + 1], "(")) {
            continue;
          }
          const std::size_t close = fwd_match(b, c.tok + 1, "(", ")");
          std::string v;
          for (std::size_t k = c.tok + 2; k < close && k < b.size(); ++k) {
            if (!is_punct(b[k], "[")) continue;
            const std::size_t cap_end = fwd_match(b, k, "[", "]");
            for (std::size_t j = k + 1; j < cap_end && j < b.size(); ++j) {
              if (b[j].kind == Kind::kIdent &&
                  epoch_vars.contains(b[j].text)) {
                v = b[j].text;
                break;
              }
            }
            if (v.empty() && k + 1 < b.size() &&
                (is_punct(b[k + 1], "&") || is_punct(b[k + 1], "="))) {
              v = lambda_capture_in(k, cap_end + 1);
            }
            if (!v.empty()) break;
          }
          if (!v.empty()) {
            emit(fm.path, c.line, "rcu-escape",
                 "epoch-guarded pointer '" + v +
                     "' is captured by a lambda passed to '" + c.name +
                     "' in " + fn.display +
                     "; the closure may run after the epoch is retired");
          }
        }
        // Returned as a raw view past the guard scope.
        const MethodInfo* mi = cg_.find(fn.cls, fn.name);
        if (mi != nullptr && mi->returns_raw && !epoch_vars.empty()) {
          for (std::size_t k = 0; k < b.size(); ++k) {
            if (!is_ident(b[k], "return") && !is_ident(b[k], "co_return")) {
              continue;
            }
            std::size_t stmt_end = k + 1;
            while (stmt_end < b.size() && !is_punct(b[stmt_end], ";")) {
              ++stmt_end;
            }
            for (std::size_t j = k + 1; j < stmt_end; ++j) {
              if (b[j].kind == Kind::kIdent &&
                  epoch_vars.contains(b[j].text)) {
                emit(fm.path, b[j].line, "rcu-escape",
                     "returning a raw view into epoch-guarded snapshot '" +
                         b[j].text + "' from " + fn.display +
                         "; the epoch may be retired once the caller's "
                         "guard scope ends -- return a copy or the shared "
                         "handle");
                break;
              }
            }
          }
        }
      }

      // ---- lock-held-across-call ----
      for (const BlockingOp& op : facts.blocking) {
        if (op.held.empty()) continue;
        emit(fm.path, op.line, "lock-held-across-call",
             "blocking " + op.desc + " while holding " + join(op.held) +
                 " in " + fn.display +
                 "; every waiter on the mutex stalls behind the I/O -- "
                 "move the operation outside the critical section");
      }
      for (const CallSite& c : facts.calls) {
        if (c.held.empty()) continue;
        for (const MethodKey& t : cg_.resolve_keys(c, fn.cls)) {
          const FnSummary& ts = sums_.of(t);
          if (!ts.blocking_unguarded || !ts.required.empty()) continue;
          emit(fm.path, c.line, "lock-held-across-call",
               "call into " + display_of(t) + " (" + ts.blocking_desc +
                   ") while holding " + join(c.held) + " in " + fn.display +
                   "; the callee blocks with the caller's lock held");
        }
      }
    }

    // ---- capacity-arith (token level, per file) ----
    if (!fm.path.ends_with("checked_math.hpp")) {
      const std::vector<Tok>& t = fm.toks;
      std::vector<const Tok*> code;
      for (const Tok& tok : t) {
        if (tok.kind != Kind::kComment && tok.kind != Kind::kPreproc) {
          code.push_back(&tok);
        }
      }
      const auto is_capacity_ident = [](const Tok* tok) {
        if (tok->kind != Kind::kIdent) return false;
        const std::string low = lower(tok->text);
        return low.find("capacity") != std::string::npos ||
               low == "b_max" || low == "bmax";
      };
      for (std::size_t i = 0; i < code.size(); ++i) {
        const Tok* op = code[i];
        if (op->kind != Kind::kPunct) continue;
        const bool additive = op->text == "+" || op->text == "+=";
        const bool multiplicative = op->text == "*" || op->text == "*=";
        if (!additive && !multiplicative) continue;
        if (i == 0 || i + 1 >= code.size()) continue;
        // Binary use only: the left neighbour must be a value.
        const Tok* lhs = code[i - 1];
        if (!(lhs->kind == Kind::kIdent || lhs->kind == Kind::kNumber ||
              lhs->text == ")" || lhs->text == "]")) {
          continue;
        }
        // Operand chains on both sides.
        bool capacity = false;
        {
          std::size_t j = i;
          while (j > 0) {
            --j;
            const Tok* tk = code[j];
            if (tk->text == ")" || tk->text == "]") {
              const char* open = tk->text == ")" ? "(" : "[";
              int depth = 0;
              while (true) {
                if (code[j]->text == tk->text) ++depth;
                if (code[j]->text == open && --depth == 0) break;
                if (j == 0) break;
                --j;
              }
              continue;
            }
            if (tk->kind == Kind::kIdent) {
              if (is_capacity_ident(tk)) capacity = true;
            } else if (tk->text != "." && tk->text != "->" &&
                       tk->text != "::") {
              break;
            }
          }
        }
        {
          std::size_t j = i + 1;
          while (j < code.size()) {
            const Tok* tk = code[j];
            if (tk->text == "(" || tk->text == "[") {
              const char* close = tk->text == "(" ? ")" : "]";
              j = [&] {
                int depth = 0;
                for (std::size_t k = j; k < code.size(); ++k) {
                  if (code[k]->text == tk->text) ++depth;
                  if (code[k]->text == close && --depth == 0) return k;
                }
                return code.size();
              }();
              ++j;
              continue;
            }
            if (tk->kind == Kind::kIdent || tk->kind == Kind::kNumber) {
              if (is_capacity_ident(tk)) capacity = true;
              ++j;
              continue;
            }
            if (tk->text == "." || tk->text == "->" || tk->text == "::") {
              ++j;
              continue;
            }
            break;
          }
        }
        if (!capacity) continue;
        // Floating-point statements are the double-precision analysis
        // path (Lemma 2.1/2.2 math) -- overflow is not the failure mode.
        bool fp = false;
        {
          std::size_t lo = i;
          while (lo > 0 && code[lo]->text != ";" && code[lo]->text != "{" &&
                 code[lo]->text != "}") {
            --lo;
          }
          std::size_t hi = i;
          while (hi + 1 < code.size() && code[hi]->text != ";" &&
                 code[hi]->text != "}") {
            ++hi;
          }
          for (std::size_t k = lo; k <= hi && k < code.size(); ++k) {
            if (is_ident(*code[k], "double") || is_ident(*code[k], "float")) {
              fp = true;
              break;
            }
          }
        }
        if (fp) continue;
        emit(fm.path, op->line, "capacity-arith",
             std::string("unchecked '") + op->text +
                 "' on capacity values; route through rds::checked_add/"
                 "checked_mul (src/util/checked_math.hpp)");
      }
    }
  }

  // ---- result-flow: Result parameters a callee never consumes --------------
  for (const auto& [key, m] : cg_.methods()) {
    if (m.result_params.empty() || m.defs.empty() || m.is_lambda) continue;
    const FnSummary& s = sums_.of(key);
    if (!s.has_result_params || s.consumes_result_params) continue;
    emit(m.def_files.front()->path, m.defs.front()->line, "result-flow",
         "Result parameter(s) " + join(m.result_params) + " of " +
             display_of(key) +
             " are not inspected on every path; consume or propagate them");
  }

  // ---- guarded-member ------------------------------------------------------
  // The thread-safety contract is declarative: in a class that owns a
  // mutex, every data member says how it is shared, and clang's
  // -Wthread-safety checks each access against RDS_GUARDED_BY.
  {
    std::set<std::string> mutex_classes;
    for (const FileModel& fm : files_) {
      for (const MemberDecl& d : fm.members) {
        if (d.is_mutex) mutex_classes.insert(d.cls);
      }
    }
    for (const FileModel& fm : files_) {
      for (const MemberDecl& d : fm.members) {
        if (!mutex_classes.contains(d.cls) || d.guarded || d.is_const ||
            d.is_static || d.is_atomic || d.is_rcu || d.is_mutex) {
          continue;
        }
        emit(fm.path, d.line, "guarded-member",
             "member '" + d.name + "' of '" + d.cls +
                 "', which owns a mutex, is not RDS_GUARDED_BY, const, "
                 "static, atomic, an RcuCell or a sync primitive; annotate "
                 "it so clang -Wthread-safety checks every access");
      }
    }
  }

  // ---- stale-suppression ---------------------------------------------------
  // Needs every family's verdict, so it only runs without a rule filter.
  if (opts.only_rules.empty()) {
    std::set<std::string> ours(rule_ids().begin(), rule_ids().end());
    ours.erase("stale-suppression");
    for (const FileModel& fm : files_) {
      for (const auto& [cline, rules] : fm.sup.declared) {
        for (const std::string& rule : rules) {
          if (!ours.contains(rule)) continue;  // not a rule id (prose)
          if (used_sups.contains({fm.path, cline, rule})) continue;
          emit(fm.path, cline, "stale-suppression",
               "suppression 'allow(" + rule +
                   ")' matches no " + rule + " finding; remove it");
        }
      }
    }
  }

  // ---- filtering + ordering -------------------------------------------------
  std::vector<Finding> out;
  for (Finding& f : findings) {
    if (!opts.only_rules.empty() &&
        std::find(opts.only_rules.begin(), opts.only_rules.end(), f.rule) ==
            opts.only_rules.end()) {
      continue;
    }
    out.push_back(std::move(f));
  }
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule, a.message) <
           std::tie(b.file, b.line, b.rule, b.message);
  });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Finding& a, const Finding& b) {
                          return a.file == b.file && a.line == b.line &&
                                 a.rule == b.rule && a.message == b.message;
                        }),
            out.end());
  return out;
}

std::vector<Finding> analyze_text(const std::string& path,
                                  std::string_view text, const Options& opts) {
  Analyzer a;
  a.add_text(path, text);
  return a.run(opts);
}

}  // namespace rds::analyze
