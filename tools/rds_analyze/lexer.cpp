#include "tools/rds_analyze/lexer.hpp"

#include <algorithm>
#include <array>
#include <cctype>

namespace rds::analyze {
namespace {

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_digit(char c) {
  return std::isdigit(static_cast<unsigned char>(c)) != 0;
}

}  // namespace

bool is_ident(const Tok& t, std::string_view s) {
  return t.kind == Kind::kIdent && t.text == s;
}

bool is_punct(const Tok& t, std::string_view s) {
  return t.kind == Kind::kPunct && t.text == s;
}

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

Suppressions collect_suppressions(const std::vector<Tok>& toks) {
  std::set<int> code_lines;
  for (const Tok& t : toks) {
    if (t.kind != Kind::kComment) code_lines.insert(t.line);
  }
  Suppressions sup;
  for (const Tok& t : toks) {
    if (t.kind != Kind::kComment) continue;
    if (t.text.find("rds_analyze:") == std::string::npos) continue;
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
      sup.declared[t.line].insert(rule);
      sup.by_line[t.line].insert(rule);
      sup.origin.emplace(std::pair<int, std::string>{t.line, rule}, t.line);
      if (!code_lines.contains(t.line)) {
        const auto next = code_lines.upper_bound(t.line);
        if (next != code_lines.end()) {
          sup.by_line[*next].insert(rule);
          sup.origin.emplace(std::pair<int, std::string>{*next, rule},
                             t.line);
        }
      }
    }
  }
  return sup;
}

}  // namespace rds::analyze
