// Unit tests for the perf-ratchet core: JSON round trip, benchmark-run
// extraction, tolerance comparison, same-run rules, and the build-type
// stamp.  The CLI-level pass/fail contracts run as ctest commands on the
// committed fixtures (tools/CMakeLists.txt, label `ratchet`).
#include "tools/perf_ratchet/ratchet.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>

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
  // A row must carry a positive rate, so no rule divides by a zero one.
  EXPECT_THROW(extract_run(parse_json(
                   R"({"benchmarks": [{"name": "z", "items_per_second": 0}]})")),
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
               run_with({{"a", 70.0, {}}, {"b", 1300.0, {}}}),
               report);
  EXPECT_TRUE(report.ok()) << report.failures.front();
}

TEST(PerfRatchetCompare, FailsBeyondTolerance) {
  Report report;
  compare_runs(run_with({{"a", 100.0, {}}}), run_with({{"a", 59.0, {}}}),
               report);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_NE(report.failures[0].find("regression"), std::string::npos);
  EXPECT_NE(report.failures[0].find("`a`"), std::string::npos);
}

TEST(PerfRatchetCompare, FailsOnMissingBaselineRow) {
  Report report;
  compare_runs(run_with({{"a", 100.0, {}}, {"gone", 5.0, {}}}),
               run_with({{"a", 100.0, {}}, {"fresh", 1.0, {}}}), report);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_NE(report.failures[0].find("`gone`"), std::string::npos);
  // The row the baseline lacks is a note (candidate for ratcheting in).
  ASSERT_FALSE(report.notes.empty());
}

TEST(PerfRatchetCompare, NotesLargeImprovements) {
  Report report;
  compare_runs(run_with({{"a", 100.0, {}}}), run_with({{"a", 250.0, {}}}),
               report);
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

// A row named `name` whose `value` is `v`: its rate, or a custom counter.
BenchRow row(std::string name, std::string_view value, double v) {
  BenchRow r{std::move(name), 100.0, {}};
  if (value == "rate") {
    r.rate = v;
  } else {
    r.counters = {{std::string(value), v}};
  }
  return r;
}

// Rows `low` and `high` whose `value` is `low_value` and `high_value`.
BenchRun two_rows(std::string_view value, double low_value,
                  double high_value) {
  return run_with(
      {row("low", value, low_value), row("high", value, high_value)});
}

Report checked(const BenchRun& run, const Rule& rule) {
  Report report;
  check_rule(run, rule, report);
  return report;
}

void expect_parses(std::string_view spec, const Rule& want) {
  const auto rule = parse_rule(spec);
  ASSERT_TRUE(rule.has_value()) << spec;
  EXPECT_EQ(rule->value, want.value);
  EXPECT_EQ(rule->low, want.low);
  EXPECT_EQ(rule->high, want.high);
  EXPECT_DOUBLE_EQ(rule->ratio, want.ratio);
}

// A rule over `value` fails, and names what it lacks, when a row is absent
// or carries no `value`.
void expect_fails_on_missing(const std::string& value) {
  const BenchRun run = two_rows(value, 300.0, 1000.0);
  const Report no_row = checked(run, {value, "low", "absent", 1.0});
  ASSERT_EQ(no_row.failures.size(), 1u);
  EXPECT_NE(no_row.failures[0].find("`absent`"), std::string::npos);
  BenchRun partial = run;
  partial.rows.push_back({"plain", 5.0, {}});
  const Report no_value = checked(partial, {value, "low", "plain", 1.0});
  ASSERT_EQ(no_value.failures.size(), 1u);
  EXPECT_NE(no_value.failures[0].find("`plain` carries no `" + value + "`"),
            std::string::npos);
}

TEST(PerfRatchetRule, RejectsMalformedSpecs) {
  for (const char* bad :
       {"no-colons", "rate:a:b", "rate:a:b:", ":a:b:1", "rate::b:1",
        "rate:a::1", "rate:a:b:1:2", "rate:a:b:zero", "rate:a:b:1x",
        "rate:a:b: 1", "rate:a:b:0", "rate:a:b:-2", "rate:a:b:inf",
        "rate:a:b:nan", "rate:a:b:1e999"}) {
    EXPECT_FALSE(parse_rule(bad).has_value()) << bad;
  }
}

TEST(PerfRatchetRule, TieAtRatioOnePasses) {
  // The committed rules read three kinds of value: the rate, the seeded SLO
  // counter p99_us, and seeded durability counters.
  for (const char* value : {"rate", "p99_us", "exp_loss_ppm"}) {
    SCOPED_TRACE(value);
    const BenchRun tied = two_rows(value, 500.0, 500.0);
    const Report at_one = checked(tied, {value, "low", "high", 1.0});
    EXPECT_TRUE(at_one.ok()) << at_one.failures.front();
    // A ratio just under 1 makes the tie fail: how the p99 rule asks for a
    // strict win over a deterministic counter.
    EXPECT_FALSE(checked(tied, {value, "low", "high", 0.99}).ok());
  }
}

// "FAST is at least RATIO x SLOW" is the one rule over `rate` with the rows
// swapped and the ratio inverted.
TEST(PerfRatchetSpeedup, ParsesRuleSpecs) {
  expect_parses("rate:slow/1000/4:fast/1000/4:0.1",
                {"rate", "slow/1000/4", "fast/1000/4", 0.1});
  // The retired FAST:SLOW:RATIO form is refused, not misread.
  EXPECT_FALSE(parse_rule("fast/1000/4:slow/1000/4:10").has_value());
}

TEST(PerfRatchetSpeedup, EnforcesMinimumRatio) {
  const BenchRun run = run_with({{"fast", 500.0, {}}, {"slow", 100.0, {}}});
  const Report four_x = checked(run, {"rate", "slow", "fast", 0.25});
  EXPECT_TRUE(four_x.ok()) << four_x.failures.front();
  ASSERT_EQ(four_x.notes.size(), 1u);
  EXPECT_NE(four_x.notes[0].find("rule ok"), std::string::npos);
  const Report ten_x = checked(run, {"rate", "slow", "fast", 0.1});
  ASSERT_EQ(ten_x.failures.size(), 1u);
  EXPECT_NE(ten_x.failures[0].find("rule: `slow`"), std::string::npos);
  EXPECT_FALSE(checked(run, {"rate", "slow", "absent", 0.5}).ok());
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
  EXPECT_EQ(run.find("slo")->value("p99_us"), 340.5);
  ASSERT_NE(run.find("plain"), nullptr);
  EXPECT_FALSE(run.find("plain")->value("p99_us").has_value());
}

TEST(PerfRatchetLatency, ParsesRuleSpecs) {
  expect_parses("p99_us:bm/zipf09/p2c:bm/zipf09/random:0.99",
                {"p99_us", "bm/zipf09/p2c", "bm/zipf09/random", 0.99});
  // The retired FAST:SLOW:RATIO form is refused, not misread.
  EXPECT_FALSE(parse_rule("bm/zipf09/p2c:bm/zipf09/random:1.0").has_value());
}

TEST(PerfRatchetLatency, EnforcesStrictOrdering) {
  const BenchRun run = run_with(
      {row("p2c", "p99_us", 340.0), row("random", "p99_us", 980.0)});
  const Report ok = checked(run, {"p99_us", "p2c", "random", 0.99});
  EXPECT_TRUE(ok.ok()) << ok.failures.front();
  ASSERT_EQ(ok.notes.size(), 1u);
  EXPECT_NE(ok.notes[0].find("rule ok"), std::string::npos);
  // Inverted direction: random is NOT below p2c.
  EXPECT_FALSE(checked(run, {"p99_us", "random", "p2c", 0.99}).ok());
  // A tie fails too: the SLO counters are deterministic, so the committed
  // rule asks for a strict win through its ratio under 1.
  const BenchRun tied = run_with(
      {row("p2c", "p99_us", 500.0), row("random", "p99_us", 500.0)});
  EXPECT_FALSE(checked(tied, {"p99_us", "p2c", "random", 0.99}).ok());
  // A lower ratio asks for more: 340 <= 980 x 0.5 passes, x 0.3 fails.
  EXPECT_TRUE(checked(run, {"p99_us", "p2c", "random", 0.5}).ok());
  EXPECT_FALSE(checked(run, {"p99_us", "p2c", "random", 0.3}).ok());
}

TEST(PerfRatchetLatency, FailsOnMissingRowsOrCounters) {
  expect_fails_on_missing("p99_us");
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
  const BenchRow* k3 = run.find("bm_churnsim/k3");
  ASSERT_NE(k3, nullptr);
  EXPECT_EQ(run.find("bm_churnsim/k3/iterations:1"), nullptr);
  ASSERT_NE(run.find("bm/args/8/16"), nullptr);
  // Stock fields are not values; `rate` and custom numeric fields are.
  EXPECT_FALSE(k3->value("iterations").has_value());
  EXPECT_FALSE(k3->value("real_time").has_value());
  EXPECT_EQ(k3->value("rate"), 5.0);
  EXPECT_EQ(k3->value("loss_ppm"), 2740.0);
  EXPECT_EQ(k3->value("exp_loss_ppm"), 6997.0);
  EXPECT_FALSE(k3->value("absent").has_value());
}

TEST(PerfRatchetCounter, ParsesRuleSpecs) {
  // The durability rules kept their text when the other kinds joined them.
  expect_parses("exp_loss_ppm:bm/k3:bm/k2:1.0",
                {"exp_loss_ppm", "bm/k3", "bm/k2", 1.0});
  expect_parses("loss_ppm:bm/k3:bm/k2:2", {"loss_ppm", "bm/k3", "bm/k2", 2.0});
}

TEST(PerfRatchetCounter, EnforcesNonStrictOrdering) {
  const BenchRun run = run_with(
      {row("k3", "exp_loss_ppm", 7e3), row("k2", "exp_loss_ppm", 2e4)});
  const Report ok = checked(run, {"exp_loss_ppm", "k3", "k2", 1.0});
  EXPECT_TRUE(ok.ok()) << ok.failures.front();
  ASSERT_EQ(ok.notes.size(), 1u);
  EXPECT_NE(ok.notes[0].find("rule ok"), std::string::npos);
  // Inverted direction: k2 loses more than k3 allows.
  const Report inverted = checked(run, {"exp_loss_ppm", "k2", "k3", 1.0});
  ASSERT_EQ(inverted.failures.size(), 1u);
  EXPECT_NE(inverted.failures[0].find("rule: `k2`"), std::string::npos);
  // A tie passes: both sides legitimately lose zero at benign parameters.
  const BenchRun tied =
      run_with({row("k3", "loss_ppm", 0.0), row("k2", "loss_ppm", 0.0)});
  const Report zero = checked(tied, {"loss_ppm", "k3", "k2", 1.0});
  EXPECT_TRUE(zero.ok()) << zero.failures.front();
  // A looser ratio relaxes the bound: 2e4 <= 7e3 x 3.
  EXPECT_TRUE(checked(run, {"exp_loss_ppm", "k2", "k3", 3.0}).ok());
}

TEST(PerfRatchetCounter, FailsOnMissingRowsOrCounters) {
  expect_fails_on_missing("exp_loss_ppm");
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
