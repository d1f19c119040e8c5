#pragma once

/// Token layer for rds_analyze (docs/static_analysis.md).
///
/// A loose C++ lexer: tell identifiers, literals, comments and
/// preprocessor lines apart, fold continuations, survive raw strings --
/// and nothing more.  The rules are built from token streams plus a
/// per-function CFG (cfg.hpp), never a real parse, so the analyzer stays
/// independent of compiler internals.

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rds::analyze {

enum class Kind { kIdent, kNumber, kString, kChar, kPunct, kComment, kPreproc };

struct Tok {
  Kind kind;
  std::string text;
  int line = 0;
};

/// Lex `s` into tokens.  Never fails: malformed input produces best-effort
/// tokens, which at worst costs a rule some precision, never a crash.
[[nodiscard]] std::vector<Tok> tokenize(std::string_view s);

[[nodiscard]] bool is_ident(const Tok& t, std::string_view s);
[[nodiscard]] bool is_punct(const Tok& t, std::string_view s);

/// `// rds_analyze: allow(rule) -- reason` comments.  The reason is
/// mandatory; a standalone comment also covers the next code line.
struct Suppressions {
  std::map<int, std::set<std::string>> by_line;
  /// (covered line, rule) -> line of the comment that granted it, so a
  /// match on any covered line marks the whole comment as used.
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

[[nodiscard]] Suppressions collect_suppressions(const std::vector<Tok>& toks);

}  // namespace rds::analyze
