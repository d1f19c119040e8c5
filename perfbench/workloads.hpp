// The benchmark's three workloads, each one client in a closed loop against
// the library's public API (README.md in this directory says why each
// exists and which layer it stresses).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// When > 0, run exactly this many operations (reconfig: rounds) instead
  /// of `seconds`, so two runs with one seed do identical work.
  std::uint64_t ops = 0;
  /// Working files (journal, checkpoint) and the span dump go here.
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::uint64_t samples = 0;
};

struct Report {
  /// Metrics every workload measures, in BENCHMARK.json order (untraced
  /// runs only).
  std::vector<Metric> end_to_end;
  /// End-to-end metrics only this workload measures (printed, not gated).
  std::vector<Metric> workload_only;
  /// Traced runs only, in BENCHMARK.json order.
  std::vector<Metric> per_layer;
  /// Human-readable lines: per-set-up values, per-window percentiles,
  /// policies, digests.
  std::vector<std::string> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Checks outside `failed` that must hold (the span dump, and every
  /// traced operation holding the child spans its class requires).
  bool checks_passed = true;
  /// Digest of the generated operation sequence (same seed, same digest).
  std::uint64_t sequence_digest = 0;
};

[[nodiscard]] Report run_disk_mirror(const Options& options);
[[nodiscard]] Report run_files_erasure(const Options& options);
[[nodiscard]] Report run_reconfig(const Options& options);

}  // namespace perfbench
