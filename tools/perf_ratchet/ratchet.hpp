// perf_ratchet -- compares a google-benchmark JSON run against a committed
// baseline and fails on regression (docs/benchmarks.md).
//
// Each committed BENCH_*.json doubles as the baseline: CI reruns the
// harness, compares row by row with a documented noise tolerance, enforces
// same-run rules (which are machine-independent, unlike absolute rates;
// bench/ratchet_rules.txt lists them), and refuses any run whose context
// says the code under test was built without NDEBUG.  Like the rds_analyze
// baseline, the file only ratchets upward: improvements beyond tolerance
// are reported so the baseline can be regenerated, never silently
// absorbed.
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
  /// Every custom numeric counter on the row (google-benchmark surfaces
  /// them as extra top-level fields), e.g. the SLO counter p99_us from
  /// bench/perf_latency.cpp or the seeded durability counters loss_ppm /
  /// exp_loss_ppm / max_move_ratio from bench/perf_durability.cpp.
  std::vector<std::pair<std::string, double>> counters{};

  /// `rate` for "rate", otherwise the custom counter `name`; nullopt when
  /// the row does not carry it.  Rules key on these names.
  [[nodiscard]] std::optional<double> value(
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
/// row has no name or no positive rate.
[[nodiscard]] BenchRun extract_run(const Json& doc);

// ---------- Comparison ----------

/// Relative throughput loss tolerated before a row fails: a row may drop to
/// 60% of its baseline rate.  Rationale: docs/benchmarks.md -- shared CI
/// runners routinely jitter tens of percent; the absolute comparison is a
/// tripwire for order-of-magnitude accidents, not a microscope.
inline constexpr double kTolerance = 0.40;

/// A machine-independent same-run invariant: LOW's VALUE must be at most
/// HIGH's VALUE x ratio, both rows from one run.  Spec form
/// "VALUE:LOW:HIGH:RATIO", where VALUE is `rate` or a custom counter.
///
/// The comparison is non-strict, because seeded orderings legitimately tie
/// (both sides of a durability rule lose zero objects at benign
/// parameters).  The other shapes follow from the ratio: "FAST is at least
/// 10x SLOW" is `rate:SLOW:FAST:0.1`, and "A is strictly below B" over a
/// deterministic counter is a ratio just under 1, so a tie fails.
struct Rule {
  std::string value;
  std::string low;
  std::string high;
  double ratio = 1.0;
};

/// nullopt unless `spec` has four non-empty ':'-separated fields (value and
/// row names never contain ':') and the ratio is a finite positive number.
[[nodiscard]] std::optional<Rule> parse_rule(std::string_view spec);

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
/// at >= (1 - kTolerance) of its baseline rate.  Improvements beyond the
/// tolerance and rows missing from the baseline become notes.
void compare_runs(const BenchRun& baseline, const BenchRun& current,
                  Report& report);

/// Enforces one rule within `current`: fails when either row or its VALUE
/// is missing, or when low.VALUE > high.VALUE x ratio.
void check_rule(const BenchRun& current, const Rule& rule, Report& report);

// ---------- Stamping ----------

/// Rewrites `context.library_build_type` from `context.rds_build_type` so
/// the committed artifact reports the build type of the code under test
/// (the stock key reports how the google-benchmark *library* was compiled
/// -- misleading on split builds; see bench/perf_main.hpp).  The library's
/// own mode is preserved as `benchmark_library_assertions`.  Throws
/// std::runtime_error unless rds_build_type is "release".
void stamp_build_type(Json& doc);

}  // namespace rds::ratchet
