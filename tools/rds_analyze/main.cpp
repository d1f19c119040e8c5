// rds_analyze CLI (docs/static_analysis.md).
//
//   rds_analyze [options] [path...]
//     --rule <id>            run only this rule (repeatable; an unknown
//                            id is a usage error)
//     --list-rules           print rule ids and exit
//     --root <dir>           root for relative paths (default: cwd)
//     -p <compile_commands>  analyze the files of a compilation database
//     --baseline <file>      tolerate findings listed in <file> (ratchet)
//     --emit-baseline <file> write the current findings as the baseline
//     --sarif <file>         also write SARIF 2.1.0 to <file>
//     --emit-callgraph <f>   dump the resolved call graph to <f>
//                            (Graphviz DOT when <f> ends in .dot,
//                            JSON otherwise)
//
// Paths may be files or directories (recursed, skipping build/ and
// hidden directories); the project headers they include join the run.
// Exit codes: 0 clean (or fully baselined), 1 non-baselined findings,
// 2 usage or I/O error.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/rds_analyze/analyze.hpp"
#include "tools/rds_analyze/report.hpp"

namespace {

int usage() {
  std::cerr
      << "usage: rds_analyze [--rule id]... [--root dir] [-p compile_db]\n"
         "                   [--baseline file] [--emit-baseline file]\n"
         "                   [--sarif file] [--emit-callgraph file]\n"
         "                   [--list-rules] [path...]\n";
  return 2;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = std::move(ss).str();
  return true;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << text;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  using rds::analyze::Analyzer;
  using rds::analyze::Finding;
  using rds::analyze::Options;

  Options opts;
  std::vector<std::string> paths;
  std::string root = std::filesystem::current_path().string();
  std::string compile_db;
  std::string baseline_path;
  std::string emit_baseline_path;
  std::string sarif_path;
  std::string callgraph_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--list-rules") {
      for (const std::string& id : rds::analyze::rule_ids()) {
        std::cout << id << "\n";
      }
      return 0;
    }
    if (arg == "--rule") {
      const char* v = value();
      if (v == nullptr) return usage();
      const auto& ids = rds::analyze::rule_ids();
      if (std::find(ids.begin(), ids.end(), v) == ids.end()) {
        std::cerr << "rds_analyze: unknown rule '" << v
                  << "' (see --list-rules)\n";
        return 2;
      }
      opts.only_rules.emplace_back(v);
      continue;
    }
    if (arg == "--root") {
      const char* v = value();
      if (v == nullptr) return usage();
      root = v;
      continue;
    }
    if (arg == "-p") {
      const char* v = value();
      if (v == nullptr) return usage();
      compile_db = v;
      continue;
    }
    if (arg == "--baseline") {
      const char* v = value();
      if (v == nullptr) return usage();
      baseline_path = v;
      continue;
    }
    if (arg == "--emit-baseline") {
      const char* v = value();
      if (v == nullptr) return usage();
      emit_baseline_path = v;
      continue;
    }
    if (arg == "--sarif") {
      const char* v = value();
      if (v == nullptr) return usage();
      sarif_path = v;
      continue;
    }
    if (arg == "--emit-callgraph") {
      const char* v = value();
      if (v == nullptr) return usage();
      callgraph_path = v;
      continue;
    }
    if (!arg.empty() && arg.front() == '-') return usage();
    paths.push_back(arg);
  }

  std::vector<std::string> sources;
  if (!compile_db.empty()) {
    std::string text;
    if (!read_file(compile_db, text)) {
      std::cerr << "rds_analyze: cannot open " << compile_db << "\n";
      return 2;
    }
    sources = rds::analyze::compile_commands_files(text);
  }
  const std::vector<std::string> walked =
      rds::analyze::collect_sources(paths);
  sources.insert(sources.end(), walked.begin(), walked.end());
  if (sources.empty()) return usage();
  sources = rds::analyze::with_project_headers(sources, root);

  Analyzer analyzer;
  for (const std::string& s : sources) analyzer.add_file(s);
  if (!analyzer.io_errors().empty()) {
    for (const std::string& e : analyzer.io_errors()) {
      std::cerr << "rds_analyze: " << e << "\n";
    }
    return 2;
  }

  opts.root = root;
  const std::vector<Finding> findings = analyzer.run(opts);

  if (!callgraph_path.empty()) {
    const bool dot = callgraph_path.ends_with(".dot");
    const std::string text =
        dot ? rds::analyze::callgraph_to_dot(analyzer.callgraph(),
                                             analyzer.summaries())
            : rds::analyze::callgraph_to_json(analyzer.callgraph(),
                                              analyzer.summaries());
    if (!write_file(callgraph_path, text)) {
      std::cerr << "rds_analyze: cannot write " << callgraph_path << "\n";
      return 2;
    }
    std::size_t edge_count = 0;
    for (const auto& [from, outs] : analyzer.callgraph().edges()) {
      edge_count += outs.size();
    }
    std::cout << "rds_analyze: callgraph with "
              << analyzer.callgraph().methods().size() << " method(s), "
              << edge_count << " edge(s) written to " << callgraph_path
              << "\n";
  }

  if (!emit_baseline_path.empty()) {
    const std::string text = rds::analyze::format_baseline(findings, root);
    if (!write_file(emit_baseline_path, text)) {
      std::cerr << "rds_analyze: cannot write " << emit_baseline_path << "\n";
      return 2;
    }
    std::cout << "rds_analyze: baseline with " << findings.size()
              << " finding(s) written to " << emit_baseline_path << "\n";
    return 0;
  }

  std::vector<Finding> to_report = findings;
  std::size_t baselined = 0;
  if (!baseline_path.empty()) {
    std::string text;
    if (!read_file(baseline_path, text)) {
      std::cerr << "rds_analyze: cannot open " << baseline_path << "\n";
      return 2;
    }
    to_report = rds::analyze::new_findings(
        findings, rds::analyze::parse_baseline(text), root);
    baselined = findings.size() - to_report.size();
  }

  if (!sarif_path.empty()) {
    if (!write_file(sarif_path, rds::analyze::to_sarif(to_report, root))) {
      std::cerr << "rds_analyze: cannot write " << sarif_path << "\n";
      return 2;
    }
  }

  for (const Finding& f : to_report) {
    std::cout << rds::analyze::relative_to(f.file, root) << ":" << f.line
              << ": [" << f.rule << "] " << f.message << "\n";
  }
  std::cout << "rds_analyze: " << sources.size() << " file(s), "
            << to_report.size() << " new finding(s)";
  if (baselined > 0) std::cout << ", " << baselined << " baselined";
  std::cout << "\n";
  return to_report.empty() ? 0 : 1;
}
