#include "tools/rds_analyze/report.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <utility>

namespace rds::analyze {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// No line number: a finding keeps its key when edits above it move it.
std::string baseline_key(const Finding& f, const std::string& root) {
  return relative_to(f.file, root) + "|" + f.rule + "|" + f.message;
}

}  // namespace

std::string relative_to(const std::string& path, const std::string& root) {
  if (root.empty()) return path;
  std::error_code ec;
  const std::filesystem::path p =
      std::filesystem::weakly_canonical(path, ec);
  const std::filesystem::path r =
      std::filesystem::weakly_canonical(root, ec);
  if (ec) return path;
  const auto rel = std::filesystem::relative(p, r, ec);
  if (ec) return path;
  const std::string s = rel.generic_string();
  if (s.empty() || s == "." || s.starts_with("..")) return path;
  return s;
}

std::string to_sarif(const std::vector<Finding>& findings,
                     const std::string& root) {
  std::ostringstream out;
  out << "{\n"
      << "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [{\n"
      << "    \"tool\": {\"driver\": {\n"
      << "      \"name\": \"rds_analyze\",\n"
      << "      \"informationUri\": \"docs/static_analysis.md\",\n"
      << "      \"rules\": [";
  bool first = true;
  for (const std::string& id : rule_ids()) {
    out << (first ? "" : ", ") << "{\"id\": \"" << id << "\"}";
    first = false;
  }
  out << "]\n    }},\n    \"results\": [";
  first = true;
  for (const Finding& f : findings) {
    out << (first ? "\n" : ",\n")
        << "      {\"ruleId\": \"" << json_escape(f.rule)
        << "\", \"level\": \"error\", \"message\": {\"text\": \""
        << json_escape(f.message)
        << "\"}, \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": \""
        << json_escape(relative_to(f.file, root))
        << "\"}, \"region\": {\"startLine\": " << (f.line > 0 ? f.line : 1)
        << "}}}]}";
    first = false;
  }
  out << "\n    ]\n  }]\n}\n";
  return out.str();
}

std::string format_baseline(const std::vector<Finding>& findings,
                            const std::string& root) {
  std::vector<std::string> keys;
  keys.reserve(findings.size());
  for (const Finding& f : findings) keys.push_back(baseline_key(f, root));
  std::sort(keys.begin(), keys.end());
  std::string out =
      "# rds_analyze baseline: one `file|rule|message` per finding.\n"
      "# Findings listed here are tolerated (ratchet); anything new fails.\n"
      "# Regenerate with: rds_analyze --emit-baseline <this file> ...\n";
  for (const std::string& k : keys) {
    out += k;
    out += '\n';
  }
  return out;
}

std::vector<std::string> parse_baseline(const std::string& text) {
  std::vector<std::string> keys;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    if (line.empty() || line.front() == '#') continue;
    keys.push_back(line);
  }
  return keys;
}

std::vector<Finding> new_findings(const std::vector<Finding>& findings,
                                  const std::vector<std::string>& baseline,
                                  const std::string& root) {
  // Each baseline line tolerates one finding, so a second copy is new.
  std::map<std::string, std::size_t> tolerated;
  for (const std::string& key : baseline) ++tolerated[key];
  std::vector<Finding> out;
  for (const Finding& f : findings) {
    std::size_t& left = tolerated[baseline_key(f, root)];
    if (left > 0) {
      --left;
    } else {
      out.push_back(f);
    }
  }
  return out;
}

std::string callgraph_to_dot(const CallGraph& cg, const Summaries& sums) {
  const auto display = [](const MethodKey& k) {
    return k.first.empty() ? k.second : k.first + "::" + k.second;
  };
  std::ostringstream out;
  out << "digraph rds_callgraph {\n"
      << "  rankdir=LR;\n"
      << "  node [shape=box, fontsize=10];\n";
  for (const auto& [key, m] : cg.methods()) {
    const FnSummary& s = sums.of(key);
    std::string attrs;
    if (!s.locks.empty()) {
      attrs += "\\nlocks:";
      for (const std::string& l : s.locks) attrs += " " + l;
    }
    if (s.appends_journal) attrs += "\\njournal";
    if (s.returns_epoch) attrs += "\\nepoch";
    if (s.blocking_unguarded) attrs += "\\nblocking";
    out << "  \"" << display(key) << "\" [label=\"" << display(key) << attrs
        << "\"";
    if (!m.defined) out << ", style=dotted";
    out << "];\n";
  }
  for (const auto& [from, outs] : cg.edges()) {
    for (const CallEdge& e : outs) {
      out << "  \"" << display(from) << "\" -> \"" << display(e.to) << "\"";
      if (e.kind != EdgeKind::kDirect) {
        out << " [style=dashed, label=\"" << edge_kind_name(e.kind) << "\"]";
      }
      out << ";\n";
    }
  }
  out << "}\n";
  return out.str();
}

std::string callgraph_to_json(const CallGraph& cg, const Summaries& sums) {
  const auto display = [](const MethodKey& k) {
    return k.first.empty() ? k.second : k.first + "::" + k.second;
  };
  std::ostringstream out;
  out << "{\n  \"methods\": [";
  bool first = true;
  for (const auto& [key, m] : cg.methods()) {
    const FnSummary& s = sums.of(key);
    out << (first ? "\n" : ",\n") << "    {\"name\": \""
        << json_escape(display(key)) << "\", \"defined\": "
        << (m.defined ? "true" : "false") << ", \"locks\": [";
    bool f2 = true;
    for (const std::string& l : s.locks) {
      out << (f2 ? "" : ", ") << "\"" << json_escape(l) << "\"";
      f2 = false;
    }
    out << "], \"appends_journal\": " << (s.appends_journal ? "true" : "false")
        << ", \"returns_epoch\": " << (s.returns_epoch ? "true" : "false")
        << ", \"blocking_unguarded\": "
        << (s.blocking_unguarded ? "true" : "false") << "}";
    first = false;
  }
  out << "\n  ],\n  \"edges\": [";
  first = true;
  for (const auto& [from, outs] : cg.edges()) {
    for (const CallEdge& e : outs) {
      out << (first ? "\n" : ",\n") << "    {\"from\": \""
          << json_escape(display(from)) << "\", \"to\": \""
          << json_escape(display(e.to)) << "\", \"kind\": \""
          << edge_kind_name(e.kind) << "\", \"line\": " << e.line << "}";
      first = false;
    }
  }
  out << "\n  ],\n  \"sccs\": [";
  first = true;
  for (const auto& scc : cg.sccs()) {
    out << (first ? "\n" : ",\n") << "    [";
    bool f2 = true;
    for (const MethodKey& k : scc) {
      out << (f2 ? "" : ", ") << "\"" << json_escape(display(k)) << "\"";
      f2 = false;
    }
    out << "]";
    first = false;
  }
  out << "\n  ]\n}\n";
  return out.str();
}

std::vector<std::string> collect_sources(
    const std::vector<std::string>& paths) {
  const auto analyzable = [](const std::filesystem::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".cc";
  };
  std::set<std::string> out;
  for (const std::string& path : paths) {
    std::error_code ec;
    if (std::filesystem::is_directory(path, ec)) {
      auto it = std::filesystem::recursive_directory_iterator(
          path, std::filesystem::directory_options::skip_permission_denied,
          ec);
      const auto end = std::filesystem::recursive_directory_iterator{};
      while (it != end) {
        const std::filesystem::path& p = it->path();
        const std::string name = p.filename().string();
        if (it->is_directory(ec) &&
            (name == "build" || (!name.empty() && name.front() == '.'))) {
          it.disable_recursion_pending();
        } else if (it->is_regular_file(ec) && analyzable(p)) {
          out.insert(p.string());
        }
        it.increment(ec);
        if (ec) break;
      }
    } else {
      out.insert(path);
    }
  }
  return {out.begin(), out.end()};
}

std::vector<std::string> with_project_headers(
    const std::vector<std::string>& sources, const std::string& root) {
  namespace fs = std::filesystem;
  const auto canonical = [](const fs::path& p) {
    std::error_code ec;
    const fs::path c = fs::weakly_canonical(p, ec);
    return (ec ? p : c).generic_string();
  };
  std::set<std::string> seen;
  std::vector<std::string> todo;
  for (const std::string& s : sources) todo.push_back(canonical(s));
  while (!todo.empty()) {
    std::string file = std::move(todo.back());
    todo.pop_back();
    if (!seen.insert(file).second) continue;
    std::ifstream in(file);
    std::string line;
    while (std::getline(in, line)) {
      // `#include "path"` names a project header; <path> a system one.
      const std::size_t hash = line.find_first_not_of(" \t");
      const std::size_t open = line.find('"');
      const std::size_t close = line.find('"', open + 1);
      if (hash == std::string::npos || line[hash] != '#' ||
          line.find("include", hash) == std::string::npos ||
          close == std::string::npos) {
        continue;
      }
      const std::string name = line.substr(open + 1, close - open - 1);
      for (const fs::path& base :
           {fs::path(root), fs::path(file).parent_path()}) {
        std::error_code ec;
        if (fs::is_regular_file(base / name, ec)) {
          todo.push_back(canonical(base / name));
          break;
        }
      }
    }
  }
  return {seen.begin(), seen.end()};
}

std::vector<std::string> compile_commands_files(const std::string& json_text) {
  std::set<std::string> out;
  const std::string key = "\"file\"";
  std::size_t pos = 0;
  while ((pos = json_text.find(key, pos)) != std::string::npos) {
    pos += key.size();
    pos = json_text.find_first_not_of(" \t\r\n", pos);
    if (pos == std::string::npos || json_text[pos] != ':') continue;
    pos = json_text.find_first_not_of(" \t\r\n", pos + 1);
    if (pos == std::string::npos || json_text[pos] != '"') continue;
    ++pos;
    std::string value;
    while (pos < json_text.size() && json_text[pos] != '"') {
      if (json_text[pos] == '\\' && pos + 1 < json_text.size()) {
        ++pos;  // minimal unescape: \" and \\ (CMake emits plain paths)
      }
      value += json_text[pos];
      ++pos;
    }
    const std::filesystem::path p(value);
    const std::string ext = p.extension().string();
    if (ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".cc") {
      out.insert(value);
    }
  }
  return {out.begin(), out.end()};
}

}  // namespace rds::analyze
