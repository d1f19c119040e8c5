// perf_ratchet CLI: `check` compares a benchmark run against the committed
// baseline (exit 1 on regression / debug build / broken same-run rule),
// `stamp` rewrites a run's build-type context so the committed artifact
// describes the code under test.  See docs/benchmarks.md for the workflow.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/perf_ratchet/ratchet.hpp"

namespace {

using namespace rds::ratchet;

int usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "perf_ratchet: " << error << "\n";
  std::cerr
      << "usage:\n"
         "  perf_ratchet check --baseline FILE --current FILE\n"
         "               [--rule VALUE:LOW:HIGH:RATIO] ...\n"
         "      Fails (exit 1) when the current run was not an NDEBUG\n"
         "      build, a baseline row is missing or slower than 60% of\n"
         "      baseline, or a rule's LOW row has a VALUE above HIGH's\n"
         "      VALUE x RATIO (VALUE is `rate` or a custom counter;\n"
         "      bench/ratchet_rules.txt lists the committed rules).\n"
         "  perf_ratchet stamp --in FILE --out FILE\n"
         "      Rewrites library_build_type from rds_build_type so the\n"
         "      committed JSON reports the build type of the code under\n"
         "      test; refuses runs not stamped `release`.\n";
  return 2;
}

bool read_file(const std::string& path, std::string& out,
               std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

bool next_value(const std::vector<std::string>& args, std::size_t& i,
                std::string& out) {
  if (i + 1 >= args.size()) return false;
  out = args[++i];
  return true;
}

int run_check(const std::vector<std::string>& args) {
  std::string baseline_path;
  std::string current_path;
  std::vector<Rule> rules;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--baseline") {
      if (!next_value(args, i, baseline_path)) return usage("--baseline needs a file");
    } else if (arg == "--current") {
      if (!next_value(args, i, current_path)) return usage("--current needs a file");
    } else if (arg == "--rule") {
      std::string spec;
      if (!next_value(args, i, spec)) return usage("--rule needs VALUE:LOW:HIGH:RATIO");
      const auto rule = parse_rule(spec);
      if (!rule) return usage("bad --rule spec: " + spec);
      rules.push_back(*rule);
    } else {
      return usage("unknown check option: " + arg);
    }
  }
  if (baseline_path.empty() || current_path.empty()) {
    return usage("check requires --baseline and --current");
  }

  std::string baseline_text;
  std::string current_text;
  std::string error;
  if (!read_file(baseline_path, baseline_text, error) ||
      !read_file(current_path, current_text, error)) {
    std::cerr << "perf_ratchet: " << error << "\n";
    return 2;
  }

  Report report;
  try {
    const BenchRun baseline = extract_run(parse_json(baseline_text));
    const BenchRun current = extract_run(parse_json(current_text));
    check_build_type(current, report);
    compare_runs(baseline, current, report);
    for (const Rule& rule : rules) check_rule(current, rule, report);
  } catch (const std::exception& e) {
    std::cerr << "perf_ratchet: " << e.what() << "\n";
    return 2;
  }

  for (const std::string& note : report.notes) {
    std::cout << "note: " << note << "\n";
  }
  for (const std::string& failure : report.failures) {
    std::cout << "FAIL: " << failure << "\n";
  }
  if (!report.ok()) {
    std::cout << "perf_ratchet: FAIL (" << report.failures.size()
              << " finding(s), tolerance " << kTolerance << ")\n";
    return 1;
  }
  std::cout << "perf_ratchet: OK (tolerance " << kTolerance << ", "
            << rules.size() << " rule(s))\n";
  return 0;
}

int run_stamp(const std::vector<std::string>& args) {
  std::string in_path;
  std::string out_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--in") {
      if (!next_value(args, i, in_path)) return usage("--in needs a file");
    } else if (arg == "--out") {
      if (!next_value(args, i, out_path)) return usage("--out needs a file");
    } else {
      return usage("unknown stamp option: " + arg);
    }
  }
  if (in_path.empty() || out_path.empty()) {
    return usage("stamp requires --in and --out");
  }

  std::string text;
  std::string error;
  if (!read_file(in_path, text, error)) {
    std::cerr << "perf_ratchet: " << error << "\n";
    return 2;
  }
  try {
    Json doc = parse_json(text);
    stamp_build_type(doc);
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::cerr << "perf_ratchet: cannot write " << out_path << "\n";
      return 2;
    }
    out << to_json(doc);
  } catch (const std::exception& e) {
    std::cerr << "perf_ratchet: " << e.what() << "\n";
    return 1;
  }
  std::cout << "perf_ratchet: stamped " << out_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "check") return run_check(args);
  if (command == "stamp") return run_stamp(args);
  return usage("unknown command: " + command);
}
