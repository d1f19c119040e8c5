#include "tools/rds_analyze/callgraph.hpp"

#include <algorithm>
#include <cctype>
#include <deque>

namespace rds::analyze {

// ---- shared token-pattern helpers ------------------------------------------

std::string lower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

std::size_t fwd_match(const std::vector<Tok>& t, std::size_t i,
                      const char* open, const char* close) {
  int depth = 0;
  for (std::size_t j = i; j < t.size(); ++j) {
    if (t[j].text == open) ++depth;
    if (t[j].text == close && --depth == 0) return j;
  }
  return t.size();
}

std::size_t find_member_mutation(const std::vector<Tok>& t, std::size_t b,
                                 std::size_t e) {
  static const std::set<std::string> kMutators = {
      "insert", "erase",   "emplace", "emplace_back", "push_back",
      "pop_back", "clear", "reset",   "assign",       "push",
      "pop",    "resize",  "try_emplace"};
  static const std::set<std::string> kAssign = {
      "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--"};
  for (std::size_t i = b; i < e && i < t.size(); ++i) {
    const Tok& tok = t[i];
    if (tok.kind != Kind::kIdent || tok.text.size() < 2 ||
        !tok.text.ends_with("_") || tok.text.ends_with("__")) {
      continue;
    }
    if (i > b && t[i - 1].kind == Kind::kPunct &&
        (t[i - 1].text == "++" || t[i - 1].text == "--")) {
      return i - 1;
    }
    if (i > b && (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->") ||
                  is_punct(t[i - 1], "::"))) {
      continue;  // x.y_ / Cls::kConst_ -- not a member of *this*
    }
    if (i + 1 >= e) continue;
    const Tok& nx = t[i + 1];
    if (nx.kind == Kind::kPunct && kAssign.contains(nx.text)) return i;
    if ((is_punct(nx, ".") || is_punct(nx, "->")) && i + 3 < e &&
        t[i + 2].kind == Kind::kIdent && is_punct(t[i + 3], "(") &&
        kMutators.contains(t[i + 2].text)) {
      return i;
    }
    if ((is_punct(nx, ".") || is_punct(nx, "->")) && i + 3 < e &&
        t[i + 2].kind == Kind::kIdent && t[i + 3].kind == Kind::kPunct &&
        kAssign.contains(t[i + 3].text)) {
      return i;
    }
  }
  return static_cast<std::size_t>(-1);
}

std::size_t find_append_call(const std::vector<Tok>& t, std::size_t b,
                             std::size_t e, std::string* helper_name) {
  for (std::size_t i = b; i + 1 < e && i + 1 < t.size(); ++i) {
    if (t[i].kind != Kind::kIdent || !is_punct(t[i + 1], "(")) continue;
    if (t[i].text == "append" && i >= 2 &&
        (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->")) &&
        t[i - 2].kind == Kind::kIdent) {
      const std::string recv = lower(t[i - 2].text);
      if (recv.find("journal") != std::string::npos ||
          recv.find("sink") != std::string::npos ||
          recv.find("wal") != std::string::npos) {
        helper_name->clear();
        return i;
      }
    }
    const std::string name = lower(t[i].text);
    if ((name.find("journal") != std::string::npos &&
         (name.ends_with("_locked") || name.find("append") !=
                                           std::string::npos)) &&
        (i < 2 || !(is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->")))) {
      *helper_name = t[i].text;
      return i;
    }
  }
  return static_cast<std::size_t>(-1);
}

bool commits_for(const std::string& caller_cls, const MethodKey& callee) {
  return (!caller_cls.empty() && callee.first == caller_cls) ||
         callee.second.ends_with("_locked");
}

std::string_view edge_kind_name(EdgeKind k) {
  switch (k) {
    case EdgeKind::kDirect:
      return "direct";
    case EdgeKind::kFactory:
      return "factory";
    case EdgeKind::kVirtual:
      return "virtual";
  }
  return "direct";
}

// ---- generic Tarjan --------------------------------------------------------

SccResult tarjan_scc(std::size_t n, const std::vector<std::vector<int>>& adj) {
  SccResult r;
  r.comp.assign(n, -1);
  std::vector<int> index(n, -1);
  std::vector<int> low(n, 0);
  std::vector<char> on_stack(n, 0);
  std::vector<int> stack;
  int next_index = 0;
  struct Frame {
    int v = 0;
    std::size_t next = 0;
  };
  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] != -1) continue;
    std::vector<Frame> call_stack;
    const auto open = [&](int v) {
      index[v] = low[v] = next_index++;
      stack.push_back(v);
      on_stack[v] = 1;
      call_stack.push_back({v, 0});
    };
    open(static_cast<int>(root));
    while (!call_stack.empty()) {
      Frame& f = call_stack.back();
      if (f.next < adj[f.v].size()) {
        const int w = adj[f.v][f.next++];
        if (index[w] == -1) {
          open(w);
        } else if (on_stack[w] != 0) {
          low[f.v] = std::min(low[f.v], index[w]);
        }
      } else {
        if (low[f.v] == index[f.v]) {
          while (true) {
            const int v = stack.back();
            stack.pop_back();
            on_stack[v] = 0;
            r.comp[v] = r.count;
            if (v == f.v) break;
          }
          ++r.count;
        }
        const int done = f.v;
        call_stack.pop_back();
        if (!call_stack.empty()) {
          low[call_stack.back().v] =
              std::min(low[call_stack.back().v], low[done]);
        }
      }
    }
  }
  return r;
}

// ---- fact collection -------------------------------------------------------

namespace {

/// Parameter and local types, best effort: `Type[&*] name` where Type is
/// a known class name, plus `var = make_*(...)`-style locals typed by the
/// called factory's declared interface class.
std::map<std::string, std::string> collect_types(
    const Function& fn, const std::set<std::string>& classes,
    const std::map<MethodKey, MethodInfo>& methods) {
  std::map<std::string, std::string> types;
  const auto scan = [&](const std::vector<Tok>& toks) {
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != Kind::kIdent || !classes.contains(toks[i].text)) {
        continue;
      }
      std::size_t j = i + 1;
      while (j < toks.size() &&
             (is_punct(toks[j], "&") || is_punct(toks[j], "*") ||
              is_ident(toks[j], "const"))) {
        ++j;
      }
      if (j < toks.size() && toks[j].kind == Kind::kIdent) {
        types[toks[j].text] = toks[i].text;
      }
    }
  };
  scan(fn.decl);
  scan(fn.body);

  // Factory-typed locals: `auto s = make_widget(...)` gives `s` the
  // factory's declared return class, so calls through it resolve.
  const auto ret_class_of = [&](const std::string& g) -> std::string {
    const auto free_it = methods.find({"", g});
    if (free_it != methods.end() && !free_it->second.ret_class.empty()) {
      return free_it->second.ret_class;
    }
    const auto self_it = methods.find({fn.cls, g});
    if (self_it != methods.end() && !self_it->second.ret_class.empty()) {
      return self_it->second.ret_class;
    }
    return {};
  };
  const std::vector<Tok>& b = fn.body;
  for (std::size_t i = 0; i + 2 < b.size(); ++i) {
    if (b[i].kind != Kind::kIdent || !is_punct(b[i + 1], "=")) continue;
    if (types.contains(b[i].text)) continue;
    for (std::size_t j = i + 2; j + 1 < b.size(); ++j) {
      if (is_punct(b[j], ";")) break;
      if (b[j].kind == Kind::kIdent && is_punct(b[j + 1], "(")) {
        const std::string rc = ret_class_of(b[j].text);
        if (!rc.empty()) types[b[i].text] = rc;
        break;  // only the outermost call types the variable
      }
    }
  }
  return types;
}

std::set<std::string> collect_local_mutexes(const Function& fn) {
  std::set<std::string> out;
  const std::vector<Tok>& b = fn.body;
  for (std::size_t i = 0; i + 1 < b.size(); ++i) {
    if (is_ident(b[i], "Mutex") && b[i + 1].kind == Kind::kIdent) {
      out.insert(b[i + 1].text);
    }
  }
  return out;
}

bool call_excluded(const std::string& name) {
  static const std::set<std::string> kNotCalls = {
      "if",     "while",    "for",     "switch",   "catch",   "sizeof",
      "alignof", "decltype", "noexcept", "static_assert", "alignas",
      "return", "throw",    "new",     "delete",   "MutexLock"};
  return kNotCalls.contains(name) || name.starts_with("RDS_");
}

/// Token-linear walk with brace scoping.  Locks are RAII in this
/// codebase, so scope tracking (plus explicit lock()/unlock() toggles,
/// which BatchPlacer::worker_loop relies on) is an accurate model.
FnFacts collect_fn_facts(const Function& fn, const std::string& cls_prefix,
                         const std::vector<std::string>& entry_locks,
                         const std::map<std::string, std::string>& types,
                         const std::set<std::string>& local_mutexes) {
  FnFacts facts;
  struct Active {
    std::string var;
    std::string node;
    int depth = 0;
    bool live = true;
  };
  std::vector<Active> locks;
  for (const std::string& node : entry_locks) {
    locks.push_back({"<entry>", node, -1, true});
  }
  const auto held = [&]() {
    std::vector<std::string> h;
    for (const Active& a : locks) {
      if (a.live) h.push_back(a.node);
    }
    return h;
  };

  const std::vector<Tok>& b = fn.body;
  int depth = 0;
  const std::string self = fn.display;
  const auto resolve_lock_expr = [&](std::size_t abeg,
                                     std::size_t aend) -> std::string {
    const std::size_t n = aend - abeg;
    if (n == 1 && b[abeg].kind == Kind::kIdent) {
      const std::string& v = b[abeg].text;
      if (local_mutexes.contains(v)) return self + "." + v;
      return cls_prefix + "::" + v;
    }
    if (n == 3 && b[abeg].kind == Kind::kIdent &&
        (is_punct(b[abeg + 1], ".") || is_punct(b[abeg + 1], "->")) &&
        b[abeg + 2].kind == Kind::kIdent) {
      const auto it = types.find(b[abeg].text);
      if (it != types.end()) return it->second + "::" + b[abeg + 2].text;
      return "?" + self + "::" + b[abeg].text + "." + b[abeg + 2].text;
    }
    if (n >= 2 && b[abeg].kind == Kind::kIdent && is_punct(b[abeg + 1], "(")) {
      // Lock-returning helper, e.g. lock_of(uid): one node per helper.
      return cls_prefix + "::" + b[abeg].text + "()";
    }
    std::string joined = "?" + self + "::";
    for (std::size_t k = abeg; k < aend; ++k) joined += b[k].text;
    return joined;
  };

  std::size_t i = 0;
  while (i < b.size()) {
    const Tok& t = b[i];
    if (is_punct(t, "{")) {
      ++depth;
      ++i;
      continue;
    }
    if (is_punct(t, "}")) {
      std::erase_if(locks, [&](const Active& a) { return a.depth >= depth; });
      --depth;
      ++i;
      continue;
    }
    if (is_ident(t, "MutexLock")) {
      std::size_t j = i + 1;
      std::string var;
      if (j < b.size() && b[j].kind == Kind::kIdent) {
        var = b[j].text;
        ++j;
      }
      if (j < b.size() && (is_punct(b[j], "(") || is_punct(b[j], "{"))) {
        const char* open = b[j].text == "(" ? "(" : "{";
        const char* close = b[j].text == "(" ? ")" : "}";
        const std::size_t cend = fwd_match(b, j, open, close);
        const std::string node = resolve_lock_expr(j + 1, cend);
        facts.acqs.push_back({node, t.line, held()});
        locks.push_back({var, node, depth, true});
        i = std::min(cend + 1, b.size());
        continue;
      }
      ++i;
      continue;
    }
    // `lock.unlock()` / `lock.lock()` on a tracked guard variable.
    if (t.kind == Kind::kIdent && i + 3 < b.size() && is_punct(b[i + 1], ".") &&
        (is_ident(b[i + 2], "unlock") || is_ident(b[i + 2], "lock")) &&
        is_punct(b[i + 3], "(")) {
      bool toggled = false;
      for (Active& a : locks) {
        if (a.var == t.text) {
          const bool want = b[i + 2].text == "lock";
          if (want && !a.live) {
            a.live = false;  // exclude self from held() below
            std::vector<std::string> h = held();
            facts.acqs.push_back({a.node, t.line, std::move(h)});
          }
          a.live = want;
          toggled = true;
        }
      }
      if (toggled) {
        i += 4;
        continue;
      }
    }
    // Directly blocking operations, recorded with the held set.
    if (t.kind == Kind::kIdent && i + 1 < b.size() && is_punct(b[i + 1], "(")) {
      std::string desc;
      const bool has_recv =
          i >= 2 && (is_punct(b[i - 1], ".") || is_punct(b[i - 1], "->")) &&
          b[i - 2].kind == Kind::kIdent;
      if (t.text == "append" && has_recv) {
        const std::string recv = lower(b[i - 2].text);
        if (recv.find("journal") != std::string::npos ||
            recv.find("sink") != std::string::npos ||
            recv.find("wal") != std::string::npos) {
          desc = "journal append via '" + b[i - 2].text + "'";
        }
      } else if (t.text == "fsync") {
        desc = "fsync";
      } else if (t.text == "sleep_for" || t.text == "sleep_until") {
        desc = "sleep";
      } else if (t.text == "join" && has_recv) {
        desc = "thread join";
      }
      if (!desc.empty()) {
        facts.blocking.push_back({std::move(desc), t.line, i, held()});
      }
    }
    // Call sites.
    if (t.kind == Kind::kIdent && i + 1 < b.size() && is_punct(b[i + 1], "(") &&
        !call_excluded(t.text)) {
      CallSite c;
      c.name = t.text;
      c.line = t.line;
      c.tok = i;
      c.held = held();
      if (i >= 2 && (is_punct(b[i - 1], ".") || is_punct(b[i - 1], "->"))) {
        c.has_recv = true;
        if (b[i - 2].kind == Kind::kIdent) {
          const auto it = types.find(b[i - 2].text);
          if (it != types.end()) c.recv_type = it->second;
        }
      } else if (i >= 2 && is_punct(b[i - 1], "::") &&
                 b[i - 2].kind == Kind::kIdent) {
        c.qualified = true;
        c.qual = b[i - 2].text;
      }
      facts.calls.push_back(std::move(c));
      ++i;
      continue;
    }
    ++i;
  }
  return facts;
}

}  // namespace

// ---- CallGraph -------------------------------------------------------------

const MethodInfo* CallGraph::find(const std::string& cls,
                                  const std::string& name) const {
  const auto it = methods_.find({cls, name});
  return it == methods_.end() ? nullptr : &it->second;
}

const FnFacts& CallGraph::facts_of(const Function* fn) const {
  static const FnFacts kEmpty;
  const auto it = facts_.find(fn);
  return it == facts_.end() ? kEmpty : it->second;
}

bool CallGraph::vetoed(const std::string& name,
                       const std::string& enclosing) const {
  for (const auto& [key, m] : methods_) {
    if (key.second != name || key.first.empty() || key.first == enclosing) {
      continue;
    }
    if (!m.abstract && !m.locking_ann && !m.requires_lock &&
        m.direct_locks.empty()) {
      return true;
    }
  }
  return false;
}

std::vector<std::pair<MethodKey, EdgeKind>> CallGraph::resolve(
    const CallSite& c, const std::string& enclosing) const {
  std::vector<std::pair<MethodKey, EdgeKind>> out;
  const auto add = [&](MethodKey k, EdgeKind kind) {
    for (const auto& [have, hk] : out) {
      if (have == k) return;
    }
    out.emplace_back(std::move(k), kind);
  };
  // Walk the class hierarchy upward for an inherited method.
  const auto find_in_hierarchy =
      [&](const std::string& cls,
          const std::string& name) -> std::vector<MethodKey> {
    std::deque<std::string> q{cls};
    std::set<std::string> seen{cls};
    while (!q.empty()) {
      const std::string cur = q.front();
      q.pop_front();
      if (find(cur, name) != nullptr) return {{cur, name}};
      const auto bit = bases_.find(cur);
      if (bit == bases_.end()) continue;
      for (const std::string& base : bit->second) {
        if (seen.insert(base).second) q.push_back(base);
      }
    }
    return {};
  };
  const auto expand = [&](const MethodKey& k) {
    add(k, c.recv_type.empty() && !c.qualified && !c.has_recv
               ? EdgeKind::kDirect
               : (types_via_factory_.contains(c.recv_type)
                      ? EdgeKind::kFactory
                      : EdgeKind::kDirect));
    // Virtual fan-out: every derived class overriding the method.
    const auto dit = derived_.find(k.first);
    if (dit != derived_.end()) {
      for (const std::string& d : dit->second) {
        if (find(d, k.second) != nullptr) {
          add({d, k.second}, EdgeKind::kVirtual);
        }
      }
    }
  };

  if (c.qualified) {
    if (find(c.qual, c.name) != nullptr) {
      expand({c.qual, c.name});
      return out;
    }
    if (find("", c.name) != nullptr) expand({"", c.name});
    return out;
  }
  if (!c.has_recv) {
    if (!enclosing.empty()) {
      const auto hit = find_in_hierarchy(enclosing, c.name);
      if (!hit.empty()) {
        expand(hit.front());
        return out;
      }
    }
    if (find("", c.name) != nullptr) expand({"", c.name});
    return out;
  }
  if (!c.recv_type.empty()) {
    const auto hit = find_in_hierarchy(c.recv_type, c.name);
    if (!hit.empty()) expand(hit.front());
    return out;
  }
  // Unknown receiver: candidates are lock-relevant definers elsewhere,
  // unless a plain definer makes the name ambiguous.
  if (vetoed(c.name, enclosing)) return out;
  for (const auto& [key, m] : methods_) {
    if (key.second != c.name || key.first.empty() || key.first == enclosing) {
      continue;
    }
    if (m.locking_ann || m.requires_lock || !m.direct_locks.empty() ||
        m.defined) {
      add(key, EdgeKind::kDirect);
    }
  }
  return out;
}

std::vector<MethodKey> CallGraph::resolve_keys(
    const CallSite& c, const std::string& enclosing) const {
  std::vector<MethodKey> keys;
  for (auto& [key, kind] : resolve(c, enclosing)) keys.push_back(key);
  return keys;
}

CallGraph CallGraph::build(const std::vector<FileModel>& files) {
  CallGraph g;
  // Classes, inheritance, RcuCell-typed members.
  std::map<std::string, std::set<std::string>> children;
  for (const FileModel& fm : files) {
    for (const std::string& c : fm.classes) g.classes_.insert(c);
    for (const auto& [cls, bases] : fm.bases) {
      for (const std::string& base : bases) {
        g.bases_[cls].push_back(base);
        children[base].insert(cls);
      }
    }
    const std::vector<Tok>& t = fm.toks;
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
      if (!is_ident(t[i], "RcuCell") || !is_punct(t[i + 1], "<")) continue;
      int angle = 0;
      std::size_t j = i + 1;
      for (; j < t.size(); ++j) {
        if (t[j].text == "<") ++angle;
        if (t[j].text == ">") --angle;
        if (t[j].text == ">>") angle -= 2;
        if (angle <= 0) break;
      }
      if (j + 1 < t.size() && t[j + 1].kind == Kind::kIdent &&
          t[j + 1].text.ends_with("_")) {
        g.rcu_members_.insert(t[j + 1].text);
      }
    }
  }
  for (auto& [cls, bases] : g.bases_) {
    std::sort(bases.begin(), bases.end());
    bases.erase(std::unique(bases.begin(), bases.end()), bases.end());
  }
  // Transitive derived-of closure.
  for (const auto& [base, kids] : children) {
    std::deque<std::string> q(kids.begin(), kids.end());
    std::set<std::string>& all = g.derived_[base];
    while (!q.empty()) {
      const std::string cur = q.front();
      q.pop_front();
      if (!all.insert(cur).second) continue;
      const auto it = children.find(cur);
      if (it != children.end()) {
        for (const std::string& k : it->second) q.push_back(k);
      }
    }
  }

  // Registry pass: declarations first.
  for (const FileModel& fm : files) {
    for (const Declaration& d : fm.decls) {
      MethodInfo& m = g.methods_[{d.cls, d.name}];
      m.declared = true;
      m.abstract = m.abstract || d.abstract;
      m.locking_ann = m.locking_ann || d.locking;
      m.requires_lock = m.requires_lock || d.requires_lock;
      m.returns_result = m.returns_result || d.returns_result;
      m.returns_raw = m.returns_raw || d.returns_raw;
      for (const std::string& lk : d.required_locks) {
        const std::string node = d.cls.empty() ? lk : d.cls + "::" + lk;
        if (std::find(m.required_locks.begin(), m.required_locks.end(),
                      node) == m.required_locks.end()) {
          m.required_locks.push_back(node);
        }
      }
      if (m.ret_class.empty()) {
        for (const std::string& ri : d.ret_idents) {
          if (g.classes_.contains(ri)) {
            m.ret_class = ri;
            break;
          }
        }
      }
      if (d.result_params.size() > m.result_params.size()) {
        m.result_params = d.result_params;
      }
    }
  }
  // `*_locked` naming without an explicit RDS_REQUIRES defaults to the
  // class mutex.
  for (auto& [key, m] : g.methods_) {
    if (m.requires_lock && m.required_locks.empty() && !key.first.empty()) {
      m.required_locks.push_back(key.first + "::mu_");
    }
  }
  // Interface classes reachable through factories, for edge labeling.
  for (const auto& [key, m] : g.methods_) {
    if (!m.ret_class.empty() && key.second.find("make_") != std::string::npos) {
      g.types_via_factory_.insert(m.ret_class);
    }
  }

  // Facts pass: per-definition lock/call/blocking facts.
  for (const FileModel& fm : files) {
    for (const Function& fn : fm.functions) {
      MethodInfo& m = g.methods_[{fn.cls, fn.name}];
      m.defined = true;
      m.is_lambda = m.is_lambda || fn.is_lambda;
      if (fn.name.ends_with("_locked")) {
        m.requires_lock = true;
        if (m.required_locks.empty() && !fn.cls.empty()) {
          m.required_locks.push_back(fn.cls + "::mu_");
        }
      }
      std::vector<std::string> entry_locks = m.required_locks;
      if (entry_locks.empty() && m.requires_lock && !fn.cls.empty()) {
        entry_locks.push_back(fn.cls + "::mu_");
      }
      const auto types = collect_types(fn, g.classes_, g.methods_);
      const auto local_mutexes = collect_local_mutexes(fn);
      FnFacts facts =
          collect_fn_facts(fn, fn.cls, entry_locks, types, local_mutexes);
      for (const LockAcq& a : facts.acqs) m.direct_locks.insert(a.node);
      // Lambda bodies contribute their call sites too: the lambda's own
      // MethodInfo gets outgoing edges, so summaries (transitive locks,
      // blocking ops, journal appends) propagate through deferred code
      // the same way they do through named helpers.  Calls *into* a
      // lambda are still not resolvable by name; nothing targets these
      // keys, they only fan out.
      for (const CallSite& c : facts.calls) m.calls.push_back(c);
      m.defs.push_back(&fn);
      m.def_files.push_back(&fm);
      g.facts_.emplace(&fn, std::move(facts));
    }
  }

  // Resolved edges, deduplicated per (from, to, kind).
  for (const auto& [key, m] : g.methods_) {
    std::set<std::pair<MethodKey, EdgeKind>> seen;
    for (const CallSite& c : m.calls) {
      for (const auto& [target, kind] : g.resolve(c, key.first)) {
        if (target == key) continue;
        if (!seen.insert({target, kind}).second) continue;
        g.edges_[key].push_back({target, kind, c.line});
      }
    }
  }

  // SCC condensation, callee-first.
  std::vector<MethodKey> keys;
  keys.reserve(g.methods_.size());
  std::map<MethodKey, int> id;
  for (const auto& [key, m] : g.methods_) {
    id[key] = static_cast<int>(keys.size());
    keys.push_back(key);
  }
  std::vector<std::vector<int>> adj(keys.size());
  for (const auto& [from, outs] : g.edges_) {
    for (const CallEdge& e : outs) {
      adj[id[from]].push_back(id[e.to]);
    }
  }
  const SccResult scc = tarjan_scc(keys.size(), adj);
  g.sccs_.assign(static_cast<std::size_t>(scc.count), {});
  for (std::size_t i = 0; i < keys.size(); ++i) {
    g.sccs_[static_cast<std::size_t>(scc.comp[i])].push_back(keys[i]);
  }
  return g;
}

}  // namespace rds::analyze
