#include "tools/rds_lint/lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace rds::lint {
namespace {

// ---- tokens ----------------------------------------------------------------

enum class Kind { kIdent, kNumber, kString, kChar, kPunct, kComment, kPreproc };

struct Tok {
  Kind kind;
  std::string text;
  int line = 0;
};

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_digit(char c) {
  return std::isdigit(static_cast<unsigned char>(c)) != 0;
}

/// A loose C++ lexer: good enough to tell identifiers, literals, comments,
/// and preprocessor lines apart.  Deliberately NOT a full grammar -- the
/// rules below only need token streams, and staying token-level keeps the
/// checker independent of compiler internals.
std::vector<Tok> tokenize(std::string_view s) {
  std::vector<Tok> toks;
  const std::size_t n = s.size();
  std::size_t i = 0;
  int line = 1;
  bool line_start = true;  // nothing but whitespace seen on this line
  const auto peek = [&](std::size_t k) { return i + k < n ? s[i + k] : '\0'; };

  while (i < n) {
    const char c = s[i];
    if (c == '\n') {
      ++line;
      line_start = true;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v') {
      ++i;
      continue;
    }
    if (c == '#' && line_start) {
      // Whole preprocessor directive as one token (continuations folded).
      const int start = line;
      std::string text;
      while (i < n) {
        if (s[i] == '\\' && peek(1) == '\n') {
          text += ' ';
          i += 2;
          ++line;
          continue;
        }
        if (s[i] == '\n') break;
        text += s[i];
        ++i;
      }
      toks.push_back({Kind::kPreproc, std::move(text), start});
      continue;
    }
    line_start = false;
    if (c == '/' && peek(1) == '/') {
      std::string text;
      while (i < n && s[i] != '\n') {
        text += s[i];
        ++i;
      }
      toks.push_back({Kind::kComment, std::move(text), line});
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      const int start = line;
      std::string text = "/*";
      i += 2;
      while (i < n && !(s[i] == '*' && peek(1) == '/')) {
        if (s[i] == '\n') ++line;
        text += s[i];
        ++i;
      }
      if (i < n) {
        text += "*/";
        i += 2;
      }
      toks.push_back({Kind::kComment, std::move(text), start});
      continue;
    }
    if (c == 'R' && peek(1) == '"') {
      // Raw string literal R"delim( ... )delim".
      const int start = line;
      std::size_t j = i + 2;
      std::string delim;
      while (j < n && s[j] != '(') {
        delim += s[j];
        ++j;
      }
      const std::string closer = ")" + delim + "\"";
      std::size_t end = s.find(closer, j);
      end = end == std::string_view::npos ? n : end + closer.size();
      std::string text(s.substr(i, end - i));
      line += static_cast<int>(std::count(text.begin(), text.end(), '\n'));
      i = end;
      toks.push_back({Kind::kString, std::move(text), start});
      continue;
    }
    if (c == '"' || c == '\'') {
      const char q = c;
      const int start = line;
      std::string text(1, q);
      ++i;
      while (i < n) {
        const char d = s[i];
        text += d;
        ++i;
        if (d == '\\' && i < n) {
          text += s[i];
          ++i;
          continue;
        }
        if (d == q) break;
        if (d == '\n') ++line;  // unterminated literal: keep lexing
      }
      toks.push_back(
          {q == '"' ? Kind::kString : Kind::kChar, std::move(text), start});
      continue;
    }
    if (is_ident_start(c)) {
      std::string text;
      while (i < n && is_ident_char(s[i])) {
        text += s[i];
        ++i;
      }
      toks.push_back({Kind::kIdent, std::move(text), line});
      continue;
    }
    if (is_digit(c) || (c == '.' && is_digit(peek(1)))) {
      std::string text;
      while (i < n) {
        const char d = s[i];
        if (is_ident_char(d) || d == '.' || d == '\'') {
          text += d;
          ++i;
          continue;
        }
        if ((d == '+' || d == '-') && !text.empty() &&
            (text.back() == 'e' || text.back() == 'E' || text.back() == 'p' ||
             text.back() == 'P')) {
          text += d;
          ++i;
          continue;
        }
        break;
      }
      toks.push_back({Kind::kNumber, std::move(text), line});
      continue;
    }
    static constexpr std::array<std::string_view, 20> kTwoChar = {
        "::", "->", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
        "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--"};
    std::string text(1, c);
    if (i + 1 < n) {
      const std::string_view pair = s.substr(i, 2);
      for (const std::string_view t : kTwoChar) {
        if (pair == t) {
          text = std::string(t);
          break;
        }
      }
    }
    i += text.size();
    toks.push_back({Kind::kPunct, std::move(text), line});
  }
  return toks;
}

// ---- suppressions ----------------------------------------------------------

/// `// rds_lint: allow(rule) -- reason` comments.  A suppression applies to
/// its own line; when the comment stands alone, also to the next line that
/// holds code (skipping blank and comment-only lines).
struct Suppressions {
  std::map<int, std::set<std::string>> by_line;
  /// (covered line, rule) -> line of the granting comment, so a match on
  /// any covered line marks the whole comment as used.
  std::map<std::pair<int, std::string>, int> origin;
  /// comment line -> rules it names; the stale-suppression pass walks
  /// this to find allow() comments that no longer match any finding.
  std::map<int, std::set<std::string>> declared;

  [[nodiscard]] bool allows(int line, const std::string& rule) const {
    const auto it = by_line.find(line);
    return it != by_line.end() && it->second.contains(rule);
  }

  /// Comment line that makes `allows(line, rule)` true, or -1.
  [[nodiscard]] int origin_of(int line, const std::string& rule) const {
    const auto it = origin.find({line, rule});
    return it == origin.end() ? -1 : it->second;
  }
};

Suppressions collect_suppressions(const std::vector<Tok>& toks) {
  std::set<int> code_lines;
  for (const Tok& t : toks) {
    if (t.kind != Kind::kComment) code_lines.insert(t.line);
  }
  Suppressions sup;
  for (const Tok& t : toks) {
    if (t.kind != Kind::kComment) continue;
    if (t.text.find("rds_lint:") == std::string::npos) continue;
    // The reason is mandatory: a bare allow() keeps the finding alive.
    const std::size_t dashes = t.text.find("--");
    const bool has_reason =
        dashes != std::string::npos &&
        t.text.find_first_not_of(" \t", dashes + 2) != std::string::npos;
    if (!has_reason) continue;
    std::size_t pos = 0;
    while ((pos = t.text.find("allow(", pos)) != std::string::npos) {
      const std::size_t open = pos + 6;
      const std::size_t close = t.text.find(')', open);
      pos = open;
      if (close == std::string::npos) break;
      std::string rule = t.text.substr(open, close - open);
      const auto strip = [](std::string& v) {
        while (!v.empty() && (v.front() == ' ' || v.front() == '\t')) {
          v.erase(v.begin());
        }
        while (!v.empty() && (v.back() == ' ' || v.back() == '\t')) {
          v.pop_back();
        }
      };
      strip(rule);
      if (rule.empty()) continue;
      sup.by_line[t.line].insert(rule);
      sup.declared[t.line].insert(rule);
      sup.origin[{t.line, rule}] = t.line;
      if (!code_lines.contains(t.line)) {
        const auto next = code_lines.upper_bound(t.line);
        if (next != code_lines.end()) {
          sup.by_line[*next].insert(rule);
          sup.origin[{*next, rule}] = t.line;
        }
      }
    }
  }
  return sup;
}

// ---- scope tracking --------------------------------------------------------

struct Scope {
  enum K { kNamespace, kType, kFunction, kOther };
  K kind = kOther;
  bool fn_try = false;       ///< function named try_*
  bool fn_noexcept = false;  ///< function declared noexcept
  std::string fn_name{};
};

/// Decides what a `{` opens from the declaration tokens collected since the
/// last `;` / `{` / `}`.  Only consulted outside function bodies; inside a
/// function every nested brace is an ordinary block.
Scope classify(const std::vector<const Tok*>& decl) {
  for (const Tok* t : decl) {
    if (t->kind == Kind::kPunct && t->text == "(") break;
    if (t->kind != Kind::kIdent) continue;
    if (t->text == "namespace") return {Scope::kNamespace};
    if (t->text == "class" || t->text == "struct" || t->text == "enum" ||
        t->text == "union") {
      return {Scope::kType};
    }
  }
  for (std::size_t i = 0; i < decl.size(); ++i) {
    if (decl[i]->kind != Kind::kPunct || decl[i]->text != "(") continue;
    Scope s;
    s.kind = Scope::kFunction;
    if (i > 0) {
      s.fn_name = decl[i - 1]->text;
      s.fn_try = decl[i - 1]->kind == Kind::kIdent &&
                 s.fn_name.starts_with("try_");
    }
    for (std::size_t j = i; j < decl.size(); ++j) {
      if (decl[j]->kind != Kind::kIdent || decl[j]->text != "noexcept") {
        continue;
      }
      const bool conditional_false = j + 2 < decl.size() &&
                                     decl[j + 1]->text == "(" &&
                                     decl[j + 2]->text == "false";
      if (!conditional_false) s.fn_noexcept = true;
    }
    return s;
  }
  return {Scope::kOther};
}

/// Inside a function body: decides whether a `{` opens a lambda (a new
/// function scope of its own) or an ordinary block.  A capture introducer
/// is a `[` whose previous token is not value-like -- an identifier,
/// number, `)` or `]` before it would make it a subscript, and a second
/// `[` makes it an attribute.  `return` counts as non-value so a returned
/// lambda is still recognized.  This matters for result-path-throw: a
/// throw inside a lambda belongs to the lambda, not to the enclosing
/// try_* / noexcept function, and a noexcept lambda's own throws are
/// flagged wherever it is defined.
Scope classify_lambda(const std::vector<const Tok*>& decl) {
  for (std::size_t i = 0; i < decl.size(); ++i) {
    if (decl[i]->kind != Kind::kPunct || decl[i]->text != "[") continue;
    if (i + 1 < decl.size() && decl[i + 1]->kind == Kind::kPunct &&
        decl[i + 1]->text == "[") {
      ++i;  // [[attribute]]
      continue;
    }
    if (i > 0 && decl[i - 1]->text == "[") continue;
    if (i > 0) {
      const Tok* p = decl[i - 1];
      const bool value_like =
          (p->kind == Kind::kIdent && p->text != "return") ||
          p->kind == Kind::kNumber ||
          (p->kind == Kind::kPunct && (p->text == ")" || p->text == "]"));
      if (value_like) continue;
    }
    Scope s;
    s.kind = Scope::kFunction;
    s.fn_name = "(lambda)";
    // `auto try_x = [..]` inherits the variable's name, so a lambda that
    // is itself a try_* path keeps the no-throw obligation.
    if (i >= 2 && decl[i - 1]->kind == Kind::kPunct &&
        decl[i - 1]->text == "=" && decl[i - 2]->kind == Kind::kIdent) {
      s.fn_name = decl[i - 2]->text;
      s.fn_try = s.fn_name.starts_with("try_");
    }
    for (std::size_t j = i; j < decl.size(); ++j) {
      if (decl[j]->kind != Kind::kIdent || decl[j]->text != "noexcept") {
        continue;
      }
      const bool conditional_false = j + 2 < decl.size() &&
                                     decl[j + 1]->text == "(" &&
                                     decl[j + 2]->text == "false";
      if (!conditional_false) s.fn_noexcept = true;
    }
    return s;
  }
  return {Scope::kOther};
}

// ---- rules -----------------------------------------------------------------

constexpr std::array<std::string_view, 10> kAtomicOps = {
    "load",      "store",    "exchange",    "fetch_add",
    "fetch_sub", "fetch_and", "fetch_or",   "fetch_xor",
    "compare_exchange_weak", "compare_exchange_strong"};

constexpr std::array<std::string_view, 6> kNondeterministic = {
    "random_device", "srand", "rand",
    "system_clock",  "high_resolution_clock", "time"};

constexpr std::array<std::string_view, 3> kMetricFactories = {
    "counter", "gauge", "histogram"};

template <std::size_t N>
bool in_set(const std::array<std::string_view, N>& set,
            const std::string& word) {
  return std::find(set.begin(), set.end(), word) != set.end();
}

bool ends_with_any(const std::string& path,
                   std::initializer_list<std::string_view> exts) {
  for (const std::string_view e : exts) {
    if (path.size() >= e.size() &&
        path.compare(path.size() - e.size(), e.size(), e) == 0) {
      return true;
    }
  }
  return false;
}

}  // namespace

const std::vector<std::string>& rule_ids() {
  static const std::vector<std::string> kIds = {
      "atomic-memory-order",   "result-path-throw", "placement-determinism",
      "header-hygiene",        "metrics-naming",    "stale-suppression"};
  return kIds;
}

std::vector<Finding> lint_text(const std::string& path, std::string_view text,
                               const Options& opts) {
  const std::vector<Tok> toks = tokenize(text);
  const Suppressions sup = collect_suppressions(toks);

  const auto enabled = [&](std::string_view rule) {
    if (opts.only_rules.empty()) return true;
    return std::find(opts.only_rules.begin(), opts.only_rules.end(), rule) !=
           opts.only_rules.end();
  };

  std::vector<Finding> out;
  // (comment line, rule) pairs that actually shielded a finding, so the
  // stale-suppression pass can tell live allow() comments from dead ones.
  std::set<std::pair<int, std::string>> used_sups;
  const auto emit = [&](int line, const char* rule, std::string msg) {
    if (!enabled(rule)) return;
    if (sup.allows(line, rule)) {
      used_sups.insert({sup.origin_of(line, rule), rule});
      return;
    }
    out.push_back({path, line, rule, std::move(msg)});
  };

  const bool is_header = ends_with_any(path, {".hpp", ".h", ".hh"});
  const bool is_placement = path.find("placement/") != std::string::npos;

  if (is_header) {
    bool pragma_once = false;
    for (const Tok& t : toks) {
      if (t.kind == Kind::kPreproc &&
          t.text.find("pragma") != std::string::npos &&
          t.text.find("once") != std::string::npos) {
        pragma_once = true;
        break;
      }
    }
    if (!pragma_once) {
      emit(1, "header-hygiene", "header is missing #pragma once");
    }
  }

  // Code tokens only (comments and preprocessor lines play no scope role).
  std::vector<const Tok*> code;
  code.reserve(toks.size());
  for (const Tok& t : toks) {
    if (t.kind != Kind::kComment && t.kind != Kind::kPreproc) {
      code.push_back(&t);
    }
  }
  const auto at = [&](std::size_t k) -> const Tok* {
    return k < code.size() ? code[k] : nullptr;
  };

  std::vector<Scope> stack;
  std::vector<const Tok*> decl;
  const auto nearest_function = [&]() -> const Scope* {
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (it->kind == Scope::kFunction) return &*it;
    }
    return nullptr;
  };

  for (std::size_t k = 0; k < code.size(); ++k) {
    const Tok& t = *code[k];

    if (t.kind == Kind::kPunct) {
      if (t.text == "{") {
        // Inside a function most braces are ordinary blocks -- except a
        // lambda introducer, which opens a function scope of its own.
        // Declaration classification only matters at namespace/class scope.
        stack.push_back(nearest_function() != nullptr ? classify_lambda(decl)
                                                      : classify(decl));
        decl.clear();
        continue;
      }
      if (t.text == "}") {
        if (!stack.empty()) stack.pop_back();
        decl.clear();
        continue;
      }
      if (t.text == ";") {
        decl.clear();
        continue;
      }
    }

    if (t.kind == Kind::kIdent) {
      if (t.text == "throw") {
        const Scope* fn = nearest_function();
        if (fn != nullptr && (fn->fn_try || fn->fn_noexcept)) {
          emit(t.line, "result-path-throw",
               "'" + fn->fn_name + "' is a " +
                   (fn->fn_try ? std::string("Result-returning try_* path")
                               : std::string("noexcept function")) +
                   "; report the error, do not throw");
        }
      }

      if (is_header && t.text == "using" && nearest_function() == nullptr) {
        const Tok* n1 = at(k + 1);
        if (n1 != nullptr && n1->kind == Kind::kIdent &&
            n1->text == "namespace") {
          emit(t.line, "header-hygiene",
               "'using namespace' at namespace scope in a header leaks "
               "names into every includer");
        }
      }

      if (is_placement && in_set(kNondeterministic, t.text)) {
        emit(t.line, "placement-determinism",
             "'" + t.text +
                 "' in src/placement/: placement must be a deterministic "
                 "function of (input, config)");
      }

      if (in_set(kAtomicOps, t.text)) {
        const Tok* p = k > 0 ? code[k - 1] : nullptr;
        const Tok* n1 = at(k + 1);
        if (p != nullptr && (p->text == "." || p->text == "->") &&
            n1 != nullptr && n1->text == "(") {
          int depth = 0;
          int orders = 0;
          for (std::size_t j = k + 1; j < code.size() && j < k + 512; ++j) {
            const Tok& a = *code[j];
            if (a.kind == Kind::kPunct && a.text == "(") ++depth;
            if (a.kind == Kind::kPunct && a.text == ")" && --depth == 0) break;
            if (a.kind == Kind::kIdent &&
                a.text.find("memory_order") != std::string::npos) {
              ++orders;
            }
          }
          const bool is_cas = t.text.starts_with("compare_exchange");
          const int required = is_cas ? 2 : 1;
          if (orders < required) {
            emit(t.line, "atomic-memory-order",
                 "atomic " + t.text + "() without " +
                     (is_cas ? "explicit success AND failure memory orders"
                             : "an explicit memory order") +
                     "; spell out the weakest order that is correct");
          }
        }
      }

      if (in_set(kMetricFactories, t.text)) {
        const Tok* n1 = at(k + 1);
        const Tok* n2 = at(k + 2);
        if (n1 != nullptr && n1->text == "(" && n2 != nullptr &&
            n2->kind == Kind::kString && !n2->text.starts_with("\"rds_")) {
          emit(n2->line, "metrics-naming",
               "metric family " + n2->text +
                   " does not follow the rds_* naming scheme "
                   "(docs/metrics.md)");
        }
      }

    }

    // Bounded: giant table initializers would otherwise balloon the span.
    if (decl.size() < 4096) decl.push_back(&t);
  }

  // Stale suppressions: an allow() naming one of OUR rules that shielded
  // nothing is dead weight (or worse, hides that the code was fixed but
  // the comment lies).  Needs every rule's verdict, so it only runs with
  // an empty rule filter; rule ids belonging to other tools (rds_analyze)
  // are left alone.
  if (opts.only_rules.empty()) {
    std::set<std::string> ours(rule_ids().begin(), rule_ids().end());
    ours.erase("stale-suppression");
    for (const auto& [cline, rules] : sup.declared) {
      for (const std::string& rule : rules) {
        if (!ours.contains(rule)) continue;
        if (used_sups.contains({cline, rule})) continue;
        emit(cline, "stale-suppression",
             "suppression 'allow(" + rule + ")' matches no " + rule +
                 " finding; remove it");
      }
    }
  }

  std::stable_sort(out.begin(), out.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
  return out;
}

bool lint_file(const std::string& path, std::vector<Finding>& out,
               std::string& error, const Options& opts) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    error = "read error on " + path;
    return false;
  }
  const std::vector<Finding> findings = lint_text(path, buf.str(), opts);
  out.insert(out.end(), findings.begin(), findings.end());
  return true;
}

}  // namespace rds::lint
