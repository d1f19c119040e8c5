// Unit tests for the perf-ratchet core: JSON round trip, benchmark-run
// extraction, tolerance comparison, speedup rules, and the build-type
// stamp.  The CLI-level pass/fail contracts run as ctest commands on the
// committed fixtures (tools/CMakeLists.txt, label `ratchet`).
#include "tools/perf_ratchet/ratchet.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace rds::ratchet {
namespace {

constexpr char kRun[] = R"({
  "context": {
    "library_build_type": "debug",
    "rds_build_type": "release"
  },
  "benchmarks": [
    {"name": "a", "run_type": "iteration", "items_per_second": 100.0},
    {"name": "a_mean", "run_type": "aggregate", "items_per_second": 1.0},
    {"name": "b", "real_time": 500.0, "time_unit": "ns"}
  ]
})";

TEST(PerfRatchetJson, ParsesAndFindsMembers) {
  const Json doc = parse_json(kRun);
  ASSERT_EQ(doc.kind, Json::Kind::kObject);
  const Json* context = doc.find("context");
  ASSERT_NE(context, nullptr);
  const Json* rds = context->find("rds_build_type");
  ASSERT_NE(rds, nullptr);
  EXPECT_EQ(rds->string, "release");
  EXPECT_EQ(context->find("nope"), nullptr);
}

TEST(PerfRatchetJson, RoundTripsThroughSerializer) {
  const Json doc = parse_json(kRun);
  const std::string text = to_json(doc);
  const Json again = parse_json(text);
  EXPECT_EQ(to_json(again), text);
  // Key order survives, so stamped files diff minimally.
  EXPECT_LT(text.find("library_build_type"), text.find("rds_build_type"));
}

TEST(PerfRatchetJson, HandlesEscapesAndNumbers) {
  const Json doc = parse_json(
      R"({"s": "a\"b\\c\ndA", "i": 42, "f": -2.5e-1, "t": true, "z": null})");
  EXPECT_EQ(doc.find("s")->string, "a\"b\\c\ndA");
  EXPECT_EQ(doc.find("i")->number, 42.0);
  EXPECT_DOUBLE_EQ(doc.find("f")->number, -0.25);
  EXPECT_TRUE(doc.find("t")->boolean);
  EXPECT_EQ(doc.find("z")->kind, Json::Kind::kNull);
  const std::string text = to_json(doc);
  EXPECT_NE(text.find("\"i\": 42"), std::string::npos);
}

TEST(PerfRatchetJson, RejectsMalformedInputWithOffset) {
  for (const char* bad : {"{", "[1,]", "{\"a\" 1}", "tru", "\"unterminated",
                          "{\"a\": 1} trailing", "nonsense"}) {
    try {
      (void)parse_json(bad);
      FAIL() << "accepted: " << bad;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("json error at offset"),
                std::string::npos)
          << bad;
    }
  }
}

TEST(PerfRatchetExtract, ReadsContextAndRows) {
  const BenchRun run = extract_run(parse_json(kRun));
  EXPECT_EQ(run.rds_build_type, "release");
  EXPECT_EQ(run.library_build_type, "debug");
  // The aggregate row is skipped; `b` falls back to 1e9 / real_time(ns).
  ASSERT_EQ(run.rows.size(), 2u);
  EXPECT_EQ(run.rows[0].name, "a");
  EXPECT_DOUBLE_EQ(run.rows[0].rate, 100.0);
  ASSERT_NE(run.find("b"), nullptr);
  EXPECT_DOUBLE_EQ(run.find("b")->rate, 2e6);
  EXPECT_EQ(run.find("a_mean"), nullptr);
}

TEST(PerfRatchetExtract, RejectsNonBenchmarkJson) {
  EXPECT_THROW(extract_run(parse_json("{}")), std::runtime_error);
  EXPECT_THROW(extract_run(parse_json(R"({"benchmarks": [{"x": 1}]})")),
               std::runtime_error);
}

BenchRun run_with(std::initializer_list<BenchRow> rows,
                  std::string build = "release") {
  BenchRun run;
  run.rds_build_type = std::move(build);
  run.rows = rows;
  return run;
}

TEST(PerfRatchetCompare, PassesWithinTolerance) {
  Report report;
  compare_runs(run_with({{"a", 100.0, {}}, {"b", 1000.0, {}}}),
               run_with({{"a", 70.0, {}}, {"b", 1300.0, {}}}), {.tolerance = 0.40},
               report);
  EXPECT_TRUE(report.ok()) << report.failures.front();
}

TEST(PerfRatchetCompare, FailsBeyondTolerance) {
  Report report;
  compare_runs(run_with({{"a", 100.0, {}}}), run_with({{"a", 59.0, {}}}),
               {.tolerance = 0.40}, report);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_NE(report.failures[0].find("regression"), std::string::npos);
  EXPECT_NE(report.failures[0].find("`a`"), std::string::npos);
}

TEST(PerfRatchetCompare, FailsOnMissingBaselineRow) {
  Report report;
  compare_runs(run_with({{"a", 100.0, {}}, {"gone", 5.0, {}}}),
               run_with({{"a", 100.0, {}}, {"fresh", 1.0, {}}}), {}, report);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_NE(report.failures[0].find("`gone`"), std::string::npos);
  // The row the baseline lacks is a note (candidate for ratcheting in).
  ASSERT_FALSE(report.notes.empty());
}

TEST(PerfRatchetCompare, NotesLargeImprovements) {
  Report report;
  compare_runs(run_with({{"a", 100.0, {}}}), run_with({{"a", 250.0, {}}}),
               {.tolerance = 0.40}, report);
  EXPECT_TRUE(report.ok());
  ASSERT_EQ(report.notes.size(), 1u);
  EXPECT_NE(report.notes[0].find("improved"), std::string::npos);
}

TEST(PerfRatchetBuildType, PrefersRdsStampOverLibraryKey) {
  Report report;
  BenchRun run = run_with({});
  run.library_build_type = "debug";  // Debian libbenchmark always says this
  check_build_type(run, report);
  EXPECT_TRUE(report.ok());
}

TEST(PerfRatchetBuildType, FailsDebugAndUnstampedRuns) {
  {
    Report report;
    check_build_type(run_with({}, "debug"), report);
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_NE(report.failures[0].find("rds_build_type"), std::string::npos);
  }
  {
    Report report;
    BenchRun run;  // neither key: e.g. a hand-made file
    check_build_type(run, report);
    EXPECT_FALSE(report.ok());
  }
}

TEST(PerfRatchetSpeedup, ParsesRuleSpecs) {
  const auto rule = parse_speedup_rule("fast/1000/4:slow/1000/4:10");
  ASSERT_TRUE(rule.has_value());
  EXPECT_EQ(rule->fast, "fast/1000/4");
  EXPECT_EQ(rule->slow, "slow/1000/4");
  EXPECT_DOUBLE_EQ(rule->min_ratio, 10.0);
  EXPECT_FALSE(parse_speedup_rule("no-colons").has_value());
  EXPECT_FALSE(parse_speedup_rule("a:b:").has_value());
  EXPECT_FALSE(parse_speedup_rule("a:b:zero").has_value());
  EXPECT_FALSE(parse_speedup_rule("a:b:-2").has_value());
}

TEST(PerfRatchetSpeedup, EnforcesMinimumRatio) {
  const BenchRun run = run_with({{"fast", 500.0, {}}, {"slow", 100.0, {}}});
  {
    Report report;
    check_speedup(run, {"fast", "slow", 4.0}, report);
    EXPECT_TRUE(report.ok());
    ASSERT_EQ(report.notes.size(), 1u);
  }
  {
    Report report;
    check_speedup(run, {"fast", "slow", 10.0}, report);
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_NE(report.failures[0].find("speedup"), std::string::npos);
  }
  {
    Report report;
    check_speedup(run, {"fast", "absent", 2.0}, report);
    EXPECT_FALSE(report.ok());
  }
}

TEST(PerfRatchetLatency, ExtractsP99Counter) {
  const BenchRun run = extract_run(parse_json(R"({
    "context": {"rds_build_type": "release"},
    "benchmarks": [
      {"name": "slo", "run_type": "iteration", "items_per_second": 5.0,
       "p99_us": 340.5},
      {"name": "plain", "run_type": "iteration", "items_per_second": 5.0}
    ]
  })"));
  ASSERT_NE(run.find("slo"), nullptr);
  ASSERT_TRUE(run.find("slo")->p99_us.has_value());
  EXPECT_DOUBLE_EQ(*run.find("slo")->p99_us, 340.5);
  EXPECT_FALSE(run.find("plain")->p99_us.has_value());
}

TEST(PerfRatchetLatency, ParsesRuleSpecs) {
  const auto rule = parse_latency_rule("bm/zipf09/p2c:bm/zipf09/random:1.0");
  ASSERT_TRUE(rule.has_value());
  EXPECT_EQ(rule->fast, "bm/zipf09/p2c");
  EXPECT_EQ(rule->slow, "bm/zipf09/random");
  EXPECT_DOUBLE_EQ(rule->max_ratio, 1.0);
  EXPECT_FALSE(parse_latency_rule("no-colons").has_value());
  EXPECT_FALSE(parse_latency_rule("a:b:-1").has_value());
}

BenchRow slo_row(std::string name, double p99) {
  BenchRow row;
  row.name = std::move(name);
  row.rate = 100.0;
  row.p99_us = p99;
  return row;
}

TEST(PerfRatchetLatency, EnforcesStrictOrdering) {
  const BenchRun run =
      run_with({slo_row("p2c", 340.0), slo_row("random", 980.0)});
  {
    Report report;
    check_latency(run, {"p2c", "random", 1.0}, report);
    EXPECT_TRUE(report.ok()) << report.failures.front();
    ASSERT_EQ(report.notes.size(), 1u);
    EXPECT_NE(report.notes[0].find("latency ok"), std::string::npos);
  }
  {
    // Inverted direction: random is NOT below p2c.
    Report report;
    check_latency(run, {"random", "p2c", 1.0}, report);
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_NE(report.failures[0].find("latency"), std::string::npos);
  }
  {
    // A tie fails too -- the SLO counters are deterministic, so the
    // comparison is strict.
    Report report;
    const BenchRun tied =
        run_with({slo_row("p2c", 500.0), slo_row("random", 500.0)});
    check_latency(tied, {"p2c", "random", 1.0}, report);
    EXPECT_FALSE(report.ok());
  }
  {
    // A looser ratio relaxes the bound: 340 < 980 * 0.5.
    Report report;
    check_latency(run, {"p2c", "random", 0.5}, report);
    EXPECT_TRUE(report.ok());
  }
}

TEST(PerfRatchetLatency, FailsOnMissingRowsOrCounters) {
  {
    Report report;
    check_latency(run_with({slo_row("p2c", 340.0)}),
                  {"p2c", "absent", 1.0}, report);
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_NE(report.failures[0].find("`absent`"), std::string::npos);
  }
  {
    // Row exists but carries no p99_us counter (not an SLO benchmark).
    Report report;
    check_latency(run_with({slo_row("p2c", 340.0), {"plain", 5.0, {}}}),
                  {"p2c", "plain", 1.0}, report);
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_NE(report.failures[0].find("p99_us"), std::string::npos);
  }
}

TEST(PerfRatchetCounter, ExtractsCustomCountersAndStripsConfigSuffix) {
  const BenchRun run = extract_run(parse_json(R"({
    "context": {"rds_build_type": "release"},
    "benchmarks": [
      {"name": "bm_churnsim/k3/iterations:1", "run_type": "iteration",
       "items_per_second": 5.0, "iterations": 1, "real_time": 2.0,
       "loss_ppm": 2740.0, "exp_loss_ppm": 6997.0},
      {"name": "bm/args/8/16", "run_type": "iteration",
       "items_per_second": 5.0}
    ]
  })"));
  // The run-config suffix is stripped; plain argument segments are not.
  const BenchRow* row = run.find("bm_churnsim/k3");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(run.find("bm_churnsim/k3/iterations:1"), nullptr);
  ASSERT_NE(run.find("bm/args/8/16"), nullptr);
  // Stock fields are not counters; custom numeric fields are.
  EXPECT_FALSE(row->counter("iterations").has_value());
  EXPECT_FALSE(row->counter("real_time").has_value());
  ASSERT_TRUE(row->counter("loss_ppm").has_value());
  EXPECT_DOUBLE_EQ(*row->counter("loss_ppm"), 2740.0);
  EXPECT_DOUBLE_EQ(*row->counter("exp_loss_ppm"), 6997.0);
  EXPECT_FALSE(row->counter("absent").has_value());
}

TEST(PerfRatchetCounter, ParsesRuleSpecs) {
  const auto rule =
      parse_counter_rule("exp_loss_ppm:bm/k3:bm/k2:1.0");
  ASSERT_TRUE(rule.has_value());
  EXPECT_EQ(rule->counter, "exp_loss_ppm");
  EXPECT_EQ(rule->low, "bm/k3");
  EXPECT_EQ(rule->high, "bm/k2");
  EXPECT_DOUBLE_EQ(rule->max_ratio, 1.0);
  EXPECT_FALSE(parse_counter_rule("no-colons").has_value());
  EXPECT_FALSE(parse_counter_rule("c:a:b:").has_value());
  EXPECT_FALSE(parse_counter_rule("c:a:b:-1").has_value());
  EXPECT_FALSE(parse_counter_rule(":a:b:1").has_value());
}

BenchRow counter_row(std::string name,
                     std::initializer_list<std::pair<std::string, double>>
                         counters) {
  BenchRow row;
  row.name = std::move(name);
  row.rate = 100.0;
  row.counters = counters;
  return row;
}

TEST(PerfRatchetCounter, EnforcesNonStrictOrdering) {
  const BenchRun run = run_with({counter_row("k3", {{"exp_loss_ppm", 7e3}}),
                                 counter_row("k2", {{"exp_loss_ppm", 2e4}})});
  {
    Report report;
    check_counter(run, {"exp_loss_ppm", "k3", "k2", 1.0}, report);
    EXPECT_TRUE(report.ok()) << report.failures.front();
    ASSERT_EQ(report.notes.size(), 1u);
    EXPECT_NE(report.notes[0].find("counter ok"), std::string::npos);
  }
  {
    // Inverted direction: k2 loses more than k3 allows.
    Report report;
    check_counter(run, {"exp_loss_ppm", "k2", "k3", 1.0}, report);
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_NE(report.failures[0].find("counter"), std::string::npos);
  }
  {
    // A tie passes: unlike the latency rule the comparison is non-strict
    // (both sides legitimately lose zero at benign parameters).
    Report report;
    const BenchRun tied = run_with({counter_row("k3", {{"loss_ppm", 0.0}}),
                                    counter_row("k2", {{"loss_ppm", 0.0}})});
    check_counter(tied, {"loss_ppm", "k3", "k2", 1.0}, report);
    EXPECT_TRUE(report.ok()) << report.failures.front();
  }
  {
    // A looser ratio relaxes the bound: 2e4 <= 7e3 * 3.
    Report report;
    check_counter(run, {"exp_loss_ppm", "k2", "k3", 3.0}, report);
    EXPECT_TRUE(report.ok());
  }
}

TEST(PerfRatchetCounter, FailsOnMissingRowsOrCounters) {
  {
    Report report;
    check_counter(run_with({counter_row("k3", {{"loss_ppm", 1.0}})}),
                  {"loss_ppm", "k3", "absent", 1.0}, report);
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_NE(report.failures[0].find("`absent`"), std::string::npos);
  }
  {
    // Row exists but carries no such counter.
    Report report;
    check_counter(run_with({counter_row("k3", {{"loss_ppm", 1.0}}),
                            {"plain", 5.0, {}}}),
                  {"loss_ppm", "k3", "plain", 1.0}, report);
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_NE(report.failures[0].find("loss_ppm"), std::string::npos);
  }
}

TEST(PerfRatchetStamp, RewritesLibraryBuildType) {
  Json doc = parse_json(kRun);
  stamp_build_type(doc);
  const Json* context = doc.find("context");
  EXPECT_EQ(context->find("library_build_type")->string, "release");
  EXPECT_EQ(context->find("benchmark_library_assertions")->string, "enabled");
  // Idempotent: a second stamp sees library "release" but must keep the
  // assertions record from the first pass truthful.
  stamp_build_type(doc);
  EXPECT_EQ(context->find("benchmark_library_assertions")->string,
            "enabled");
}

TEST(PerfRatchetStamp, RefusesNonReleaseRuns) {
  Json debug_doc = parse_json(
      R"({"context": {"rds_build_type": "debug"}, "benchmarks": []})");
  EXPECT_THROW(stamp_build_type(debug_doc), std::runtime_error);
  Json unstamped = parse_json(R"({"context": {}, "benchmarks": []})");
  EXPECT_THROW(stamp_build_type(unstamped), std::runtime_error);
  Json no_context = parse_json(R"({"benchmarks": []})");
  EXPECT_THROW(stamp_build_type(no_context), std::runtime_error);
}

}  // namespace
}  // namespace rds::ratchet
