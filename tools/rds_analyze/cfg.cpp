#include "tools/rds_analyze/cfg.hpp"

#include <algorithm>
#include <deque>
#include <set>
#include <utility>

namespace rds::analyze {
namespace {

bool is_code(const Tok& t) {
  return t.kind != Kind::kComment && t.kind != Kind::kPreproc;
}

bool is_kw(const std::string& s) {
  static const std::set<std::string> kKw = {
      "if",       "while",   "for",      "switch",  "catch",
      "sizeof",   "alignof", "decltype", "noexcept", "static_assert",
      "alignas",  "return",  "co_return", "unsigned", "signed",
      "int",      "char",    "bool",     "float",   "double",
      "void",     "auto",    "new",      "delete",  "throw"};
  return kKw.contains(s);
}

/// Index of the matching closer for the opener at `i` (same depth), or
/// `toks.size()` when unbalanced.  Works for {} () [] over code tokens.
std::size_t match(const std::vector<Tok>& toks, std::size_t i,
                  const char* open, const char* close) {
  int depth = 0;
  for (std::size_t j = i; j < toks.size(); ++j) {
    if (toks[j].text == open) ++depth;
    if (toks[j].text == close && --depth == 0) return j;
  }
  return toks.size();
}

// ---- function extraction ---------------------------------------------------

struct ScopeEnt {
  enum K { kNs, kClass };
  K k;
  std::string name;
};

/// What a `{` at namespace/class scope opens, from the declaration tokens
/// collected since the last boundary.
enum class DeclKind { kNamespace, kClass, kFunction, kOther };

DeclKind classify(const std::vector<const Tok*>& decl) {
  for (std::size_t i = 0; i < decl.size(); ++i) {
    const Tok& t = *decl[i];
    if (t.kind == Kind::kPunct && t.text == "(") break;
    if (t.kind != Kind::kIdent) continue;
    if (t.text == "template") {
      // Skip the parameter list so `template <class T>` does not read as
      // a class definition.
      int depth = 0;
      while (i + 1 < decl.size()) {
        ++i;
        if (decl[i]->text == "<") ++depth;
        if (decl[i]->text == ">" && --depth <= 0) break;
      }
      continue;
    }
    if (t.text == "namespace") return DeclKind::kNamespace;
    if (t.text == "class" || t.text == "struct" || t.text == "enum" ||
        t.text == "union") {
      return DeclKind::kClass;
    }
  }
  for (const Tok* t : decl) {
    if (t->kind == Kind::kPunct && t->text == "(") return DeclKind::kFunction;
  }
  return DeclKind::kOther;
}

std::string class_name_of(const std::vector<const Tok*>& decl) {
  std::size_t i = 0;
  while (i < decl.size() && !(decl[i]->kind == Kind::kIdent &&
                              (decl[i]->text == "class" ||
                               decl[i]->text == "struct" ||
                               decl[i]->text == "enum" ||
                               decl[i]->text == "union"))) {
    ++i;
  }
  ++i;
  while (i < decl.size()) {
    const Tok& t = *decl[i];
    if (t.text == ":") break;  // base clause
    if (t.kind == Kind::kIdent) {
      if (t.text == "class" || t.text == "final" || t.text == "alignas") {
        ++i;
        continue;
      }
      // Macro attribute like RDS_CAPABILITY("mutex"): skip its argument
      // list and keep looking for the real name.
      if (i + 1 < decl.size() && decl[i + 1]->text == "(") {
        int depth = 0;
        ++i;
        while (i < decl.size()) {
          if (decl[i]->text == "(") ++depth;
          if (decl[i]->text == ")" && --depth == 0) break;
          ++i;
        }
        ++i;
        continue;
      }
      return t.text;
    }
    if (t.text == "[") {  // [[attribute]]
      int depth = 0;
      while (i < decl.size()) {
        if (decl[i]->text == "[") ++depth;
        if (decl[i]->text == "]" && --depth == 0) break;
        ++i;
      }
    }
    ++i;
  }
  return {};
}

/// Locates the parameter-list '(' in a function declaration and reports
/// the name before it plus an optional `Cls::` qualifier.
struct FnSig {
  std::string cls;
  std::string name;
  std::size_t paren = 0;  ///< index of '(' in decl
};

FnSig fn_signature(const std::vector<const Tok*>& decl) {
  FnSig sig;
  for (std::size_t i = 0; i < decl.size(); ++i) {
    if (decl[i]->text != "(") continue;
    sig.paren = i;
    if (i == 0) return sig;
    const Tok& prev = *decl[i - 1];
    if (prev.kind == Kind::kIdent) {
      sig.name = prev.text;
      if (i >= 3 && decl[i - 2]->text == "::" &&
          decl[i - 3]->kind == Kind::kIdent) {
        sig.cls = decl[i - 3]->text;
      }
    } else if (i >= 2 && decl[i - 2]->kind == Kind::kIdent &&
               decl[i - 2]->text == "operator") {
      sig.name = "operator" + prev.text;
    }
    return sig;
  }
  return sig;
}

bool has_ident(const std::vector<const Tok*>& decl, std::string_view name) {
  return std::any_of(decl.begin(), decl.end(), [&](const Tok* t) {
    return t->kind == Kind::kIdent && t->text == name;
  });
}

/// Identifiers never naming a class in a return type position.
bool is_type_noise(const std::string& s) {
  static const std::set<std::string> kNoise = {
      "const",    "static",   "inline",    "virtual", "explicit",
      "friend",   "nodiscard", "constexpr", "noexcept", "unsigned",
      "signed",   "long",     "short",     "int",     "bool",
      "void",     "auto",     "double",    "float",   "char",
      "typename", "template", "class",     "struct",  "std",
      "override", "final",    "operator",  "maybe_unused"};
  return kNoise.contains(s);
}

/// Names of `Result`-typed parameters in decl's parameter list: for each
/// top-level comma-separated parameter mentioning `Result`, the last
/// identifier is the parameter name (`const Result<T>& r` -> "r").
std::vector<std::string> collect_result_params(
    const std::vector<const Tok*>& decl, std::size_t paren) {
  std::vector<std::string> out;
  if (paren >= decl.size()) return out;
  int par = 0;
  int angle = 0;
  bool has_result = false;
  std::string last_ident;
  for (std::size_t i = paren; i < decl.size(); ++i) {
    const Tok& t = *decl[i];
    if (t.text == "(") ++par;
    if (t.text == "<") ++angle;
    if (t.text == ">") --angle;
    if (t.text == ">>") angle -= 2;
    const bool param_end =
        (t.text == "," && par == 1 && angle <= 0) ||
        (t.text == ")" && par == 1);
    if (param_end) {
      if (has_result && !last_ident.empty() && last_ident != "Result") {
        out.push_back(last_ident);
      }
      has_result = false;
      last_ident.clear();
      if (t.text == ")") break;
      continue;
    }
    if (t.text == ")") --par;
    if (t.kind == Kind::kIdent && par >= 1) {
      if (t.text == "Result") has_result = true;
      if (angle <= 0 && !is_type_noise(t.text)) last_ident = t.text;
    }
  }
  return out;
}

Declaration make_declaration(const std::vector<const Tok*>& decl,
                             const std::string& enclosing_cls) {
  const FnSig sig = fn_signature(decl);
  Declaration d;
  d.name = sig.name;
  d.cls = sig.cls.empty() ? enclosing_cls : sig.cls;
  // A friend declaration inside a class declares a free function.
  if (has_ident(decl, "friend")) d.cls.clear();
  const std::size_t n = decl.size();
  d.abstract = n >= 2 && decl[n - 2]->text == "=" && decl[n - 1]->text == "0";
  d.locking = has_ident(decl, "RDS_EXCLUDES");
  d.requires_lock =
      has_ident(decl, "RDS_REQUIRES") || d.name.ends_with("_locked");
  for (std::size_t i = 0; i < sig.paren && i < decl.size(); ++i) {
    const Tok& t = *decl[i];
    if (t.kind == Kind::kIdent && t.text == "Result") d.returns_result = true;
    if (t.kind == Kind::kPunct && (t.text == "*" || t.text == "&")) {
      d.returns_raw = true;
    }
    if (t.kind == Kind::kIdent && !is_type_noise(t.text) &&
        t.text != d.name && t.text != d.cls) {
      d.ret_idents.push_back(t.text);
    }
  }
  if (has_ident(decl, "shared_ptr") || has_ident(decl, "unique_ptr")) {
    d.returns_raw = false;  // owning smart pointer, not a borrowed view
  }
  // RDS_REQUIRES(mu_, other_mu_): capture the named locks.
  for (std::size_t i = 0; i + 1 < decl.size(); ++i) {
    if (decl[i]->kind != Kind::kIdent || decl[i]->text != "RDS_REQUIRES" ||
        decl[i + 1]->text != "(") {
      continue;
    }
    for (std::size_t j = i + 2; j < decl.size() && decl[j]->text != ")"; ++j) {
      if (decl[j]->kind == Kind::kIdent) {
        d.required_locks.push_back(decl[j]->text);
      }
    }
  }
  d.result_params = collect_result_params(decl, sig.paren);
  return d;
}

/// Parses a class-scope member declaration into a MemberDecl:
/// `std::atomic<std::uint64_t> hits_{0};`, `Mutex mu_;`,
/// `ClusterConfig config_ RDS_GUARDED_BY(mu_);`, `int slots_[4];`.
/// Returns an empty name when the tokens do not look like a data member
/// (no trailing-underscore declarator, or a parameter list before it).
MemberDecl parse_member_decl(const std::vector<const Tok*>& decl,
                             const std::string& cls) {
  MemberDecl m;
  m.cls = cls;
  int par = 0;
  int angle = 0;
  bool paren_before = false;  // '(' outside template args before the name
  std::size_t name_at = decl.size();
  for (std::size_t i = 0; i < decl.size(); ++i) {
    const Tok& t = *decl[i];
    if (t.text == "(") {
      if (angle <= 0 && par == 0) paren_before = true;
      ++par;
    }
    if (t.text == ")") --par;
    if (t.text == "<") ++angle;
    if (t.text == ">") --angle;
    if (t.text == ">>") angle -= 2;
    if (par > 0 || angle > 0) continue;
    if (t.kind != Kind::kIdent || t.text.size() < 2 ||
        !t.text.ends_with("_") || t.text.ends_with("__")) {
      continue;
    }
    const std::string next =
        i + 1 < decl.size() ? decl[i + 1]->text : std::string{};
    if (next.empty() || next == "=" || next == "[" ||
        next.starts_with("RDS_")) {
      name_at = i;
      break;
    }
  }
  if (name_at >= decl.size() || paren_before) return m;
  m.name = decl[name_at]->text;
  m.line = decl[name_at]->line;
  angle = 0;
  bool constexpr_seen = false;
  for (std::size_t i = 0; i < name_at; ++i) {
    const std::string& s = decl[i]->text;
    if (s == "<") ++angle;
    if (s == ">") --angle;
    if (s == ">>") angle -= 2;
    if (s == "atomic") m.is_atomic = true;
    if (s == "Mutex" || s == "CondVar" || s == "mutex" ||
        s == "condition_variable" || s == "condition_variable_any") {
      m.is_mutex = true;
    }
    if (s == "RcuCell") m.is_rcu = true;
    if (s == "static") m.is_static = true;
    // `const T* p_` is a mutable pointer to const data: only a const after
    // the last top-level '*' (or with no '*' at all) binds the member
    // itself.  A reference member is never reseated.
    if (angle <= 0 && (s == "const" || s == "&")) m.is_const = true;
    if (angle <= 0 && s == "*") m.is_const = false;
    constexpr_seen = constexpr_seen || s == "constexpr";
  }
  m.is_const = m.is_const || constexpr_seen;
  for (std::size_t i = name_at + 1; i < decl.size(); ++i) {
    if (is_ident(*decl[i], "RDS_GUARDED_BY")) m.guarded = true;
  }
  return m;
}

/// Direct base-class names from a class-head declaration: the identifier
/// ending each base-specifier in the clause after ':'.
std::vector<std::string> base_classes_of(const std::vector<const Tok*>& decl) {
  std::vector<std::string> bases;
  std::size_t i = 0;
  while (i < decl.size() && decl[i]->text != ":") ++i;
  if (i >= decl.size()) return bases;
  int angle = 0;
  std::string last_ident;
  for (++i; i < decl.size(); ++i) {
    const Tok& t = *decl[i];
    if (t.text == "<") ++angle;
    if (t.text == ">") --angle;
    if (t.text == ">>") angle -= 2;
    if (angle > 0) continue;
    if (t.text == ",") {
      if (!last_ident.empty()) bases.push_back(last_ident);
      last_ident.clear();
      continue;
    }
    if (t.kind == Kind::kIdent && t.text != "public" &&
        t.text != "protected" && t.text != "private" &&
        t.text != "virtual" && t.text != "std") {
      last_ident = t.text;
    }
  }
  if (!last_ident.empty()) bases.push_back(last_ident);
  return bases;
}

/// Copies the code tokens of [begin, end) into a flat body, extracting
/// every lambda as its own Function (body excised, intro kept) so flow
/// rules never treat deferred statements as inline ones.
std::vector<Tok> extract_body(const std::vector<Tok>& toks, std::size_t begin,
                              std::size_t end, const Function& parent,
                              std::vector<Function>& out);

Function make_lambda(const std::vector<Tok>& toks, std::size_t intro,
                     std::size_t body_open, std::size_t body_close,
                     const Function& parent, std::vector<Function>& out) {
  Function fn;
  fn.cls = parent.cls;
  fn.is_lambda = true;
  fn.line = toks[body_open].line;
  fn.name = parent.name + "::lambda@" + std::to_string(fn.line);
  fn.display = parent.display + "::lambda@" + std::to_string(fn.line);
  for (std::size_t k = intro; k < body_open; ++k) {
    if (is_code(toks[k])) fn.decl.push_back(toks[k]);
  }
  fn.body = extract_body(toks, body_open + 1, body_close, fn, out);
  return fn;
}

std::vector<Tok> extract_body(const std::vector<Tok>& toks, std::size_t begin,
                              std::size_t end, const Function& parent,
                              std::vector<Function>& out) {
  std::vector<Tok> body;
  std::size_t i = begin;
  while (i < end) {
    const Tok& t = toks[i];
    if (!is_code(t)) {
      ++i;
      continue;
    }
    if (t.text == "[") {
      // [[attribute]]: copy as a unit, no lambda detection inside.
      if (i + 1 < end && toks[i + 1].text == "[") {
        const std::size_t close = match(toks, i, "[", "]");
        for (std::size_t k = i; k <= close && k < end; ++k) {
          if (is_code(toks[k])) body.push_back(toks[k]);
        }
        i = std::min(close + 1, end);
        continue;
      }
      // Lambda intro vs. subscript: a subscript follows a value (ident,
      // number, ')' or ']'); a capture list cannot.
      const bool after_value =
          !body.empty() &&
          ((body.back().kind == Kind::kIdent && body.back().text != "return" &&
            body.back().text != "co_return") ||
           body.back().kind == Kind::kNumber || body.back().text == ")" ||
           body.back().text == "]");
      if (!after_value) {
        const std::size_t intro_close = match(toks, i, "[", "]");
        std::size_t k = intro_close + 1;
        if (k < end && toks[k].text == "(") k = match(toks, k, "(", ")") + 1;
        // Skip trailing specifiers (mutable, noexcept, -> Ret) up to the
        // body; anything unexpected means this was not a lambda after all.
        std::size_t guard = 0;
        while (k < end && toks[k].text != "{" && guard++ < 16 &&
               (toks[k].kind == Kind::kIdent || toks[k].text == "->" ||
                toks[k].text == "::" || toks[k].text == "<" ||
                toks[k].text == ">" || toks[k].text == "*" ||
                toks[k].text == "&")) {
          ++k;
        }
        if (k < end && toks[k].text == "{") {
          const std::size_t body_close = match(toks, k, "{", "}");
          Function lam = make_lambda(toks, i, k, body_close, parent, out);
          if (body.size() >= 2 && body.back().text == "=" &&
              body[body.size() - 2].kind == Kind::kIdent) {
            lam.bound_to = body[body.size() - 2].text;
          }
          out.push_back(std::move(lam));
          for (std::size_t c = i; c < k; ++c) {
            if (is_code(toks[c])) body.push_back(toks[c]);
          }
          i = std::min(body_close + 1, end);
          continue;
        }
      }
    }
    body.push_back(t);
    ++i;
  }
  return body;
}

}  // namespace

FileModel build_file_model(std::string path, std::string_view text) {
  FileModel fm;
  fm.path = std::move(path);
  fm.toks = tokenize(text);
  fm.sup = collect_suppressions(fm.toks);

  std::vector<ScopeEnt> scopes;
  std::vector<const Tok*> decl;
  const std::vector<Tok>& toks = fm.toks;

  const auto enclosing_class = [&]() -> std::string {
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
      if (it->k == ScopeEnt::kClass) return it->name;
    }
    return {};
  };

  std::size_t i = 0;
  while (i < toks.size()) {
    const Tok& t = toks[i];
    if (!is_code(t)) {
      ++i;
      continue;
    }
    if (t.text == "{") {
      switch (classify(decl)) {
        case DeclKind::kNamespace:
          scopes.push_back({ScopeEnt::kNs, {}});
          break;
        case DeclKind::kClass: {
          std::string name = class_name_of(decl);
          if (!name.empty()) {
            fm.classes.push_back(name);
            std::vector<std::string> bases = base_classes_of(decl);
            if (!bases.empty()) fm.bases[name] = std::move(bases);
          }
          scopes.push_back({ScopeEnt::kClass, std::move(name)});
          break;
        }
        case DeclKind::kFunction: {
          const std::size_t close = match(toks, i, "{", "}");
          const FnSig sig = fn_signature(decl);
          Function fn;
          fn.cls = sig.cls.empty() ? enclosing_class() : sig.cls;
          if (has_ident(decl, "friend")) fn.cls.clear();
          fn.name = sig.name;
          fn.display = fn.cls.empty() ? fn.name : fn.cls + "::" + fn.name;
          fn.line = decl.empty() ? t.line : decl.front()->line;
          for (const Tok* d : decl) fn.decl.push_back(*d);
          fn.body = extract_body(toks, i + 1, close, fn, fm.functions);
          if (!fn.name.empty()) {
            Declaration d = make_declaration(decl, enclosing_class());
            fm.decls.push_back(std::move(d));
            fm.functions.push_back(std::move(fn));
          }
          i = std::min(close + 1, toks.size());
          decl.clear();
          continue;
        }
        case DeclKind::kOther: {
          // Initializer braces at namespace/class scope (`= { ... }`):
          // skip the aggregate, keep collecting the declaration.
          const std::size_t close = match(toks, i, "{", "}");
          i = std::min(close + 1, toks.size());
          continue;
        }
      }
      decl.clear();
      ++i;
      continue;
    }
    if (t.text == "}") {
      if (!scopes.empty()) scopes.pop_back();
      decl.clear();
      ++i;
      continue;
    }
    if (t.text == ";") {
      const bool in_class =
          !scopes.empty() && scopes.back().k == ScopeEnt::kClass;
      const bool at_ns = scopes.empty() || scopes.back().k == ScopeEnt::kNs;
      // Data members first: `cfg_ RDS_GUARDED_BY(mu_);` contains a '('
      // but is not a function declaration.
      MemberDecl member;
      if (in_class) {
        member = parse_member_decl(decl, scopes.back().name);
        if (!member.name.empty()) fm.members.push_back(member);
      }
      if (member.name.empty() && (in_class || at_ns) &&
          std::any_of(decl.begin(), decl.end(),
                      [](const Tok* d) { return d->text == "("; })) {
        Declaration d = make_declaration(decl, in_class ? scopes.back().name
                                                        : std::string{});
        if (!d.name.empty() && d.name != "static_assert") {
          fm.decls.push_back(std::move(d));
        }
      }
      decl.clear();
      ++i;
      continue;
    }
    if (t.text == ":" && decl.size() == 1 && decl[0]->kind == Kind::kIdent &&
        (decl[0]->text == "public" || decl[0]->text == "private" ||
         decl[0]->text == "protected")) {
      decl.clear();
      ++i;
      continue;
    }
    decl.push_back(&t);
    ++i;
  }
  return fm;
}

// ---- CFG construction ------------------------------------------------------

namespace {

class Builder {
 public:
  explicit Builder(const std::vector<Tok>& body) : t_(body) {
    cfg_.nodes.resize(2);  // ENTRY, EXIT
    frontier_ = {Cfg::kEntry};
  }

  Cfg build() {
    std::size_t i = 0;
    parse_list(i, t_.size());
    for (const int f : frontier_) cfg_.nodes[f].succ.push_back(Cfg::kExit);
    return std::move(cfg_);
  }

 private:
  const std::vector<Tok>& t_;
  Cfg cfg_;
  std::vector<int> frontier_;
  int handler_ = Cfg::kExit;
  std::vector<int>* break_sink_ = nullptr;
  int continue_target_ = -1;
  int switch_cond_ = -1;

  [[nodiscard]] const std::string& txt(std::size_t i) const {
    static const std::string kEmpty;
    return i < t_.size() ? t_[i].text : kEmpty;
  }

  int new_node(std::size_t b, std::size_t e, bool branch, bool link) {
    CfgNode n;
    n.begin = b;
    n.end = std::min(e, t_.size());
    n.line = b < t_.size() ? t_[b].line
                           : (t_.empty() ? 0 : t_.back().line);
    n.is_branch = branch;
    for (std::size_t k = n.begin; k < n.end; ++k) {
      if (t_[k].kind == Kind::kIdent && t_[k].text == "throw") {
        n.is_throw = true;
      }
      if (t_[k].kind == Kind::kIdent && !is_kw(t_[k].text) &&
          k + 1 < n.end && t_[k + 1].text == "(") {
        n.has_call = true;
      }
    }
    const int id = static_cast<int>(cfg_.nodes.size());
    if (n.has_call || n.is_throw) n.esucc.push_back(handler_);
    cfg_.nodes.push_back(std::move(n));
    if (link) {
      for (const int f : frontier_) cfg_.nodes[f].succ.push_back(id);
      frontier_ = {id};
    }
    return id;
  }

  int mk(std::size_t b, std::size_t e, bool branch = false) {
    return new_node(b, e, branch, /*link=*/true);
  }

  /// End of a simple statement: the ';' at paren depth 0, skipping
  /// balanced braces (aggregate inits).  Stops before an unbalanced '}'.
  std::size_t stmt_end(std::size_t i, std::size_t end) const {
    int par = 0;
    std::size_t j = i;
    while (j < end) {
      const std::string& s = t_[j].text;
      if (s == "(") ++par;
      if (s == ")") --par;
      if (s == "{") {
        j = match(t_, j, "{", "}");
        if (j >= end) return end;
      }
      if (s == ";" && par <= 0) return j;
      if (s == "}" && par <= 0) return j > i ? j - 1 : i;
      ++j;
    }
    return end - 1;
  }

  void parse_list(std::size_t& i, std::size_t end) {
    while (i < end) {
      const std::size_t before = i;
      parse_stmt(i, end);
      if (i == before) ++i;  // malformed input: never stall
    }
  }

  void add_succs(const std::vector<int>& from, int to) {
    for (const int f : from) cfg_.nodes[f].succ.push_back(to);
  }

  void parse_stmt(std::size_t& i, std::size_t end) {  // NOLINT(misc-no-recursion)
    const std::string& s = txt(i);
    if (s == ";") {
      ++i;
      return;
    }
    if (s == "{") {
      const std::size_t close = std::min(match(t_, i, "{", "}"), end);
      std::size_t j = i + 1;
      parse_list(j, close);
      i = std::min(close + 1, end);
      return;
    }
    if (s == "if") {
      ++i;
      if (txt(i) == "constexpr") ++i;
      const std::size_t close = match(t_, i, "(", ")");
      const int cond = mk(i, std::min(close + 1, end), /*branch=*/true);
      i = std::min(close + 1, end);
      parse_stmt(i, end);
      std::vector<int> exits = frontier_;
      if (txt(i) == "else") {
        ++i;
        frontier_ = {cond};
        parse_stmt(i, end);
        exits.insert(exits.end(), frontier_.begin(), frontier_.end());
      } else {
        exits.push_back(cond);
      }
      frontier_ = std::move(exits);
      return;
    }
    if (s == "while") {
      ++i;
      const std::size_t close = match(t_, i, "(", ")");
      const int cond = mk(i, std::min(close + 1, end), /*branch=*/true);
      i = std::min(close + 1, end);
      parse_loop_body(i, end, cond, cond);
      return;
    }
    if (s == "for") {
      ++i;
      const std::size_t close = match(t_, i, "(", ")");
      const int head = mk(i, std::min(close + 1, end), /*branch=*/true);
      i = std::min(close + 1, end);
      parse_loop_body(i, end, head, head);
      return;
    }
    if (s == "do") {
      ++i;
      const int head = mk(i, i, /*branch=*/false);  // loop re-entry point
      std::vector<int> breaks;
      auto* const save_sink = break_sink_;
      const int save_cont = continue_target_;
      break_sink_ = &breaks;
      continue_target_ = head;
      parse_stmt(i, end);
      break_sink_ = save_sink;
      continue_target_ = save_cont;
      if (txt(i) == "while") {
        ++i;
        const std::size_t close = match(t_, i, "(", ")");
        const int cond = mk(i, std::min(close + 1, end), /*branch=*/true);
        i = std::min(close + 1, end);
        if (txt(i) == ";") ++i;
        cfg_.nodes[cond].succ.push_back(head);
        frontier_ = {cond};
      }
      frontier_.insert(frontier_.end(), breaks.begin(), breaks.end());
      return;
    }
    if (s == "switch") {
      ++i;
      const std::size_t close = match(t_, i, "(", ")");
      const int cond = mk(i, std::min(close + 1, end), /*branch=*/true);
      i = std::min(close + 1, end);
      std::vector<int> breaks;
      auto* const save_sink = break_sink_;
      const int save_cond = switch_cond_;
      break_sink_ = &breaks;
      switch_cond_ = cond;
      parse_stmt(i, end);  // the '{ ... }' body
      break_sink_ = save_sink;
      switch_cond_ = save_cond;
      frontier_.insert(frontier_.end(), breaks.begin(), breaks.end());
      frontier_.push_back(cond);  // no-default fallthrough
      return;
    }
    if ((s == "case" || s == "default") && switch_cond_ >= 0) {
      std::size_t colon = i;
      while (colon < end && txt(colon) != ":") ++colon;
      const int label = mk(i, std::min(colon + 1, end));
      cfg_.nodes[switch_cond_].succ.push_back(label);
      i = std::min(colon + 1, end);
      return;
    }
    if (s == "try") {
      ++i;
      const int h = new_node(i, i, /*branch=*/false, /*link=*/false);
      const int save_handler = handler_;
      handler_ = h;
      parse_stmt(i, end);  // the try block
      handler_ = save_handler;
      std::vector<int> exits = frontier_;
      while (txt(i) == "catch") {
        ++i;
        const std::size_t close = match(t_, i, "(", ")");
        i = std::min(close + 1, end);
        frontier_ = {h};
        parse_stmt(i, end);  // the handler block
        exits.insert(exits.end(), frontier_.begin(), frontier_.end());
      }
      frontier_ = std::move(exits);
      return;
    }
    if (s == "return" || s == "co_return") {
      const std::size_t e = stmt_end(i, end);
      const int n = mk(i, e + 1);
      cfg_.nodes[n].succ.push_back(Cfg::kExit);
      frontier_.clear();
      i = std::min(e + 1, end);
      return;
    }
    if (s == "throw") {
      const std::size_t e = stmt_end(i, end);
      mk(i, e + 1);  // is_throw wires the exception edge
      frontier_.clear();
      i = std::min(e + 1, end);
      return;
    }
    if (s == "break" || s == "continue") {
      const std::size_t e = stmt_end(i, end);
      const int n = mk(i, e + 1);
      if (s == "break") {
        if (break_sink_ != nullptr) {
          break_sink_->push_back(n);
        } else {
          cfg_.nodes[n].succ.push_back(Cfg::kExit);
        }
      } else if (continue_target_ >= 0) {
        cfg_.nodes[n].succ.push_back(continue_target_);
      }
      frontier_.clear();
      i = std::min(e + 1, end);
      return;
    }
    const std::size_t e = stmt_end(i, end);
    mk(i, e + 1);
    i = std::min(e + 1, end);
  }

  void parse_loop_body(std::size_t& i, std::size_t end, int cond,
                       int back_to) {  // NOLINT(misc-no-recursion)
    std::vector<int> breaks;
    auto* const save_sink = break_sink_;
    const int save_cont = continue_target_;
    break_sink_ = &breaks;
    continue_target_ = back_to;
    frontier_ = {cond};
    parse_stmt(i, end);
    break_sink_ = save_sink;
    continue_target_ = save_cont;
    add_succs(frontier_, back_to);
    frontier_ = {cond};
    frontier_.insert(frontier_.end(), breaks.begin(), breaks.end());
  }
};

}  // namespace

Cfg build_cfg(const Function& fn) { return Builder(fn.body).build(); }

// ---- CFG reachability ------------------------------------------------------

bool reaches_exit(const Cfg& cfg, int start, bool use_esucc, bool start_esucc,
                  const std::function<bool(int)>& barrier) {
  std::deque<int> q;
  std::set<int> seen;
  const auto push = [&](int n) {
    if (seen.insert(n).second) q.push_back(n);
  };
  for (const int s : cfg.nodes[start].succ) push(s);
  if (start_esucc) {
    for (const int s : cfg.nodes[start].esucc) push(s);
  }
  while (!q.empty()) {
    const int n = q.front();
    q.pop_front();
    if (n == Cfg::kExit) return true;
    if (barrier(n)) continue;
    for (const int s : cfg.nodes[n].succ) push(s);
    if (use_esucc) {
      for (const int s : cfg.nodes[n].esucc) push(s);
    }
  }
  return false;
}

std::vector<int> reachable_after(const Cfg& cfg, int start, bool use_esucc) {
  std::deque<int> q;
  std::set<int> seen;
  const auto push = [&](int n) {
    if (seen.insert(n).second) q.push_back(n);
  };
  for (const int s : cfg.nodes[start].succ) push(s);
  if (use_esucc) {
    for (const int s : cfg.nodes[start].esucc) push(s);
  }
  std::vector<int> out;
  while (!q.empty()) {
    const int n = q.front();
    q.pop_front();
    out.push_back(n);
    for (const int s : cfg.nodes[n].succ) push(s);
    if (use_esucc) {
      for (const int s : cfg.nodes[n].esucc) push(s);
    }
  }
  return out;
}

}  // namespace rds::analyze
