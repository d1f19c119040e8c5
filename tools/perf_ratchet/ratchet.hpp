// perf_ratchet -- compares a google-benchmark JSON run against a committed
// baseline and fails on regression (docs/benchmarks.md).
//
// The committed BENCH_placement.json doubles as the baseline: CI reruns the
// harness, compares row by row with a documented noise tolerance, enforces
// relative speedup invariants (which are machine-independent, unlike
// absolute rates), and refuses any run whose context says the code under
// test was built without NDEBUG.  Like the rds_analyze baseline, the file
// only ratchets upward: improvements beyond tolerance are reported so the
// baseline can be regenerated, never silently absorbed.
//
// The core is a library (this header) so tests can drive parsing,
// comparison and stamping on in-memory fixtures; main.cpp is a thin CLI.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rds::ratchet {

// ---------- Minimal JSON document model ----------
//
// Dependency-free, order-preserving (objects keep insertion order so a
// stamped file diffs cleanly against its input).  Only what benchmark JSON
// needs; parse errors carry the byte offset.

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(std::string_view key) const noexcept;
  [[nodiscard]] Json* find(std::string_view key) noexcept;

  /// Sets (or appends) an object member to a string value.
  void set_string(std::string_view key, std::string_view value);
};

/// Parses a JSON document.  Throws std::runtime_error with the byte offset
/// on malformed input.
[[nodiscard]] Json parse_json(std::string_view text);

/// Serializes with 2-space indentation.  Integral numbers in the exact
/// double range print without a fraction; others round-trip at full
/// precision.
[[nodiscard]] std::string to_json(const Json& value);

// ---------- Benchmark-run view ----------

struct BenchRow {
  std::string name;
  double rate = 0.0;  ///< items/s when reported, else iterations/s
  /// p99 response latency in us, from the row's `p99_us` custom counter
  /// (bench/perf_latency.cpp).  Unlike `rate` this is an output of the
  /// seeded queueing model, so rules over it are machine-independent.
  std::optional<double> p99_us;
  /// Every custom numeric counter on the row (google-benchmark surfaces
  /// them as extra top-level fields), e.g. the seeded durability counters
  /// loss_ppm / exp_loss_ppm / max_move_ratio from bench/perf_durability.
  /// Counter rules key on these by name.
  std::vector<std::pair<std::string, double>> counters{};

  /// Value of counter `name`, nullopt when the row does not carry it.
  [[nodiscard]] std::optional<double> counter(
      std::string_view name) const noexcept;
};

struct BenchRun {
  std::string library_build_type;  ///< context key, "" when absent
  std::string rds_build_type;      ///< our stamp (bench/perf_main.hpp)
  std::vector<BenchRow> rows;

  [[nodiscard]] const BenchRow* find(std::string_view name) const noexcept;
};

/// Extracts the comparable view of a benchmark JSON document: context build
/// types plus one row per per-iteration benchmark entry (aggregates are
/// skipped).  Throws std::runtime_error when `benchmarks` is missing or a
/// row has no name or no usable rate.
[[nodiscard]] BenchRun extract_run(const Json& doc);

// ---------- Comparison ----------

struct RatchetOptions {
  /// Relative throughput loss tolerated before a row fails, e.g. 0.40
  /// allows a drop to 60% of baseline.  Rationale: docs/benchmarks.md --
  /// shared CI runners routinely jitter tens of percent; the ratchet is a
  /// tripwire for order-of-magnitude truths, not a microscope.
  double tolerance = 0.40;
};

/// A machine-independent invariant: `fast` must beat `slow` by at least
/// `min_ratio` within one run.  Spec form "FAST:SLOW:RATIO".
struct SpeedupRule {
  std::string fast;
  std::string slow;
  double min_ratio = 1.0;
};

[[nodiscard]] std::optional<SpeedupRule> parse_speedup_rule(
    std::string_view spec);

/// A machine-independent SLO invariant over the seeded queueing model:
/// `fast`'s p99_us must be STRICTLY below `slow`'s p99_us * max_ratio.
/// Spec form "FAST:SLOW:RATIO"; ratio 1.0 says "strictly better".
struct LatencyRule {
  std::string fast;
  std::string slow;
  double max_ratio = 1.0;
};

[[nodiscard]] std::optional<LatencyRule> parse_latency_rule(
    std::string_view spec);

/// A machine-independent ordering invariant over a seeded simulation
/// counter: LOW's COUNTER must be <= HIGH's COUNTER * max_ratio.  Spec form
/// "COUNTER:LOW:HIGH:RATIO".  Unlike the latency rule the comparison is
/// NON-strict -- durability orderings legitimately tie (both sides lose
/// zero objects at benign parameters), while "k=3 must lose strictly less
/// than k=2" would fail exactly when the system is at its best.
struct CounterRule {
  std::string counter;
  std::string low;
  std::string high;
  double max_ratio = 1.0;
};

[[nodiscard]] std::optional<CounterRule> parse_counter_rule(
    std::string_view spec);

struct Report {
  std::vector<std::string> failures;
  std::vector<std::string> notes;

  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
};

/// Fails when the code under test was not built with NDEBUG: rds_build_type
/// must say "release"; files without the stamp fall back to the stock
/// library_build_type key (which is what old debug captures carried).
void check_build_type(const BenchRun& current, Report& report);

/// Row-by-row rate comparison: every baseline row must exist in `current`
/// at >= (1 - tolerance) of its baseline rate.  Improvements beyond
/// tolerance and rows missing from the baseline become notes.
void compare_runs(const BenchRun& baseline, const BenchRun& current,
                  const RatchetOptions& options, Report& report);

/// Enforces one relative speedup invariant within `current`.
void check_speedup(const BenchRun& current, const SpeedupRule& rule,
                   Report& report);

/// Enforces one p99 latency-ordering invariant within `current`: fails
/// when either row or its p99_us counter is missing, or when
/// fast.p99_us >= slow.p99_us * max_ratio (the comparison is strict --
/// the SLO counters are deterministic, so a tie is a real finding).
void check_latency(const BenchRun& current, const LatencyRule& rule,
                   Report& report);

/// Enforces one counter-ordering invariant within `current`: fails when
/// either row or its named counter is missing, or when
/// low.counter > high.counter * max_ratio (non-strict, see CounterRule).
void check_counter(const BenchRun& current, const CounterRule& rule,
                   Report& report);

// ---------- Stamping ----------

/// Rewrites `context.library_build_type` from `context.rds_build_type` so
/// the committed artifact reports the build type of the code under test
/// (the stock key reports how the google-benchmark *library* was compiled
/// -- misleading on split builds; see bench/perf_main.hpp).  The library's
/// own mode is preserved as `benchmark_library_assertions`.  Throws
/// std::runtime_error unless rds_build_type is "release".
void stamp_build_type(Json& doc);

}  // namespace rds::ratchet
