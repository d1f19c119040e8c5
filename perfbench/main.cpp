// rds_perfbench: runs one workload of the repository benchmark and prints
// its metrics.  Normally started through run.py, which builds it first:
//
//   rds_perfbench --workload disk-mirror|files-erasure|reconfig --seed N
//                 --seconds S --trace 0|1 [--ops N] [--out DIR]
//
// Lines before the last are for people: every metric with its unit and
// sample count, per-set-up and per-window values, the build type and a
// reference-loop time.  The last line is one JSON object with the keys
// correct, attempted, failed and metrics (end-to-end metrics untraced,
// per-layer metrics traced).
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "perfbench/inputs.hpp"
#include "perfbench/trace.hpp"
#include "perfbench/workloads.hpp"

namespace {

#ifndef RDS_PERFBENCH_BUILD_TYPE
#define RDS_PERFBENCH_BUILD_TYPE "unknown"
#endif

constexpr const char* kUsage =
    "usage: rds_perfbench --workload disk-mirror|files-erasure|reconfig "
    "--seed N --seconds S --trace 0|1 [--ops N] [--out DIR]\n";

[[noreturn]] void usage_error(const std::string& what) {
  std::fprintf(stderr, "rds_perfbench: %s\n%s", what.c_str(), kUsage);
  std::exit(2);
}

std::uint64_t parse_uint(std::string_view flag, std::string_view text) {
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    usage_error("bad value for " + std::string(flag) + ": " + std::string(text));
  }
  return v;
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + std::string(flag));
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = parse_uint(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_uint(flag, value));
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_uint(flag, value);
      if (t > 1) usage_error("--trace takes 0 or 1");
      o.trace = t == 1;
    } else if (flag == "--ops") {
      o.ops = parse_uint(flag, value);
    } else if (flag == "--out") {
      o.out_dir = value;
    } else {
      usage_error("unknown flag " + std::string(flag));
    }
  }
  if (!have_seed) usage_error("--seed is required");
  if (o.seconds <= 0 && o.ops == 0) usage_error("--seconds must be positive");
  return o;
}

/// Keeps the reference loop from being optimized away.
volatile std::uint64_t g_reference_sink = 0;

/// A fixed integer loop, timed: printed beside the metrics so drift of the
/// host between runs can be told apart from a change in the program.
double reference_loop_ms() {
  std::uint64_t x = 1;
  const std::uint64_t t0 = perfbench::now_ns();
  for (std::uint32_t i = 0; i < (1u << 24); ++i) {
    x = perfbench::mix64(x + i);
  }
  const std::uint64_t t1 = perfbench::now_ns();
  g_reference_sink = x;
  return static_cast<double>(t1 - t0) / 1e6;
}

void print_metric(const char* kind, const perfbench::Metric& m) {
  std::printf("%s %s = %.6g %s (n=%llu)\n", kind, m.name.c_str(), m.value,
              m.unit.c_str(), static_cast<unsigned long long>(m.samples));
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opt = parse(argc, argv);
  perfbench::Report (*run)(const perfbench::Options&) = nullptr;
  if (opt.workload == "disk-mirror") {
    run = perfbench::run_disk_mirror;
  } else if (opt.workload == "files-erasure") {
    run = perfbench::run_files_erasure;
  } else if (opt.workload == "reconfig") {
    run = perfbench::run_reconfig;
  } else {
    usage_error("unknown workload '" + opt.workload + "'");
  }
#ifndef NDEBUG
  // The debug-build trap of docs/benchmarks.md: numbers from an unoptimized
  // build look plausible and mean nothing.  Refuse to report them.
  std::fprintf(stderr,
               "rds_perfbench: built without NDEBUG (build type %s); "
               "refusing to report numbers -- configure with "
               "-DCMAKE_BUILD_TYPE=Release\n",
               RDS_PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d ops=%llu\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0,
              static_cast<unsigned long long>(opt.ops));
  std::printf("# build: %s, NDEBUG\n", RDS_PERFBENCH_BUILD_TYPE);
  std::printf("# reference_loop_ms = %.3f (host-drift diagnostic, not a metric)\n",
              reference_loop_ms());
  std::fflush(stdout);

  perfbench::Report report;
  try {
    report = run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rds_perfbench: %s failed: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }
  std::printf("# reference_loop_ms = %.3f (after the run)\n",
              reference_loop_ms());
  for (const std::string& note : report.notes) std::printf("# %s\n", note.c_str());
  std::printf("# sequence_digest = %016llx\n",
              static_cast<unsigned long long>(report.sequence_digest));
  const auto& metrics = opt.trace ? report.per_layer : report.end_to_end;
  bool finite = true;
  for (const perfbench::Metric& m : metrics) {
    print_metric(opt.trace ? "layer" : "metric", m);
    finite = finite && std::isfinite(m.value);
  }
  for (const perfbench::Metric& m : report.workload_only) {
    print_metric("workload-metric", m);
  }
  std::printf("workload-metric error_rate = %.6g ratio (failed %llu of %llu)\n",
              report.attempted > 0 ? static_cast<double>(report.failed) /
                                         static_cast<double>(report.attempted)
                                   : 1.0,
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));

  const bool correct = report.failed == 0 && report.attempted > 0 &&
                       report.checks_passed && finite;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
