// Unit tests for the metrics primitives: Counter, Gauge, LatencyHistogram,
// ScopedTimer, Registry and the JSON/text exporters.
#include "src/metrics/registry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/metrics/scoped_timer.hpp"
#include "src/util/gauge_guard.hpp"

namespace rds::metrics {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, ConcurrentIncrementsAreLossless) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Gauge, SetAddSub) {
  // add()/sub() are reachable only through GaugeGuard: the level rises by
  // n for the guard's scope and falls back on every exit, unwinding too.
  Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.set(10);
  {
    const GaugeGuard guard(g, 5);
    EXPECT_EQ(g.value(), 15);
    {
      const GaugeGuard inner(g);
      EXPECT_EQ(g.value(), 16);
    }
    EXPECT_EQ(g.value(), 15);
  }
  EXPECT_EQ(g.value(), 10);
  EXPECT_THROW(
      {
        const GaugeGuard guard(g, 7);
        EXPECT_EQ(g.value(), 17);
        throw std::runtime_error("placement failed");
      },
      std::runtime_error);
  EXPECT_EQ(g.value(), 10);
  g.set(-3);
  EXPECT_EQ(g.value(), -3);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(Gauge, SetMaxIsMonotone) {
  Gauge g;
  g.set_max(5);
  g.set_max(3);  // lower value must not win
  EXPECT_EQ(g.value(), 5);
  g.set_max(9);
  EXPECT_EQ(g.value(), 9);
}

TEST(Gauge, ConcurrentSetMaxKeepsTheMaximum) {
  Gauge g;
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&g, t] {
      for (std::int64_t i = 0; i < 10'000; ++i) {
        g.set_max(t * 10'000 + i);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(g.value(), (kThreads - 1) * 10'000 + 9'999);
}

TEST(LatencyHistogram, CountSumMinMax) {
  LatencyHistogram h;
  h.record(10);
  h.record(20);
  h.record(30);
  const HistogramData d = h.snapshot();
  EXPECT_EQ(d.count, 3u);
  EXPECT_EQ(d.sum, 60u);
  EXPECT_EQ(d.min, 10u);
  EXPECT_EQ(d.max, 30u);
  EXPECT_DOUBLE_EQ(d.mean(), 20.0);
}

TEST(LatencyHistogram, EmptySnapshotIsSane) {
  LatencyHistogram h;
  const HistogramData d = h.snapshot();
  EXPECT_EQ(d.count, 0u);
  EXPECT_EQ(d.sum, 0u);
  EXPECT_TRUE(d.buckets.empty());
  EXPECT_DOUBLE_EQ(d.mean(), 0.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.5), 0.0);
}

TEST(LatencyHistogram, SmallValuesAreExact) {
  // Values below 32 get their own unit-wide bucket: quantiles are exact.
  LatencyHistogram h;
  for (std::uint64_t v = 0; v < 32; ++v) h.record(v);
  const HistogramData d = h.snapshot();
  EXPECT_EQ(d.count, 32u);
  EXPECT_EQ(d.buckets.size(), 32u);
  for (const HistogramBucket& b : d.buckets) EXPECT_EQ(b.count, 1u);
  EXPECT_LE(d.quantile(0.5), 16.0);
}

TEST(LatencyHistogram, RelativeErrorBounded) {
  // With 32 sub-buckets per octave the bucket upper bound overestimates a
  // recorded value by at most 1/32 ~ 3.2%.
  LatencyHistogram h;
  const std::vector<std::uint64_t> values = {100,     1'000,      12'345,
                                             777'777, 10'000'000, 123'456'789};
  for (const std::uint64_t v : values) h.record(v);
  const HistogramData d = h.snapshot();
  ASSERT_EQ(d.count, values.size());
  ASSERT_EQ(d.buckets.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double le = static_cast<double>(d.buckets[i].le);
    const double v = static_cast<double>(values[i]);
    EXPECT_GE(le, v);
    EXPECT_LE(le, v * (1.0 + 1.0 / 32.0) + 1.0)
        << "bucket upper bound too loose for " << values[i];
  }
}

TEST(LatencyHistogram, QuantilesAreOrdered) {
  LatencyHistogram h;
  for (std::uint64_t i = 1; i <= 10'000; ++i) h.record(i);
  const HistogramData d = h.snapshot();
  const double p50 = d.quantile(0.50);
  const double p90 = d.quantile(0.90);
  const double p99 = d.quantile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // 2^-5 relative resolution: p50 of 1..10000 is near 5000.
  EXPECT_NEAR(p50, 5000.0, 5000.0 * 0.05);
  EXPECT_NEAR(p99, 9900.0, 9900.0 * 0.05);
}

TEST(LatencyHistogram, ConcurrentRecordsAreLossless) {
  LatencyHistogram h;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.record(t * 1'000 + (i % 997));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const HistogramData d = h.snapshot();
  EXPECT_EQ(d.count, kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (const HistogramBucket& b : d.buckets) bucket_total += b.count;
  EXPECT_EQ(bucket_total, d.count);
}

TEST(ScopedTimer, RecordsPositiveDuration) {
  LatencyHistogram h;
  {
    ScopedTimer timer(h);
    volatile int sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + i;
  }
  EXPECT_EQ(h.snapshot().count, 1u);
}

TEST(ScopedTimer, CancelSuppressesRecording) {
  LatencyHistogram h;
  {
    ScopedTimer timer(h);
    timer.cancel();
  }
  EXPECT_EQ(h.snapshot().count, 0u);
}

TEST(ScopedTimer, StopIsIdempotent) {
  LatencyHistogram h;
  {
    ScopedTimer timer(h);
    timer.stop();
    timer.stop();  // second stop must not record again
  }
  EXPECT_EQ(h.snapshot().count, 1u);
}

TEST(Registry, SameNameAndLabelsYieldSameInstrument) {
  Registry reg;
  Counter& a = reg.counter("test_total", {{"x", "1"}});
  Counter& b = reg.counter("test_total", {{"x", "1"}});
  EXPECT_EQ(&a, &b);
  Counter& c = reg.counter("test_total", {{"x", "2"}});
  EXPECT_NE(&a, &c);
}

TEST(Registry, LabelOrderDoesNotMatter) {
  Registry reg;
  Counter& a = reg.counter("t_total", {{"a", "1"}, {"b", "2"}});
  Counter& b = reg.counter("t_total", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
}

TEST(Registry, TypeMismatchThrows) {
  Registry reg;
  (void)reg.counter("thing_total");
  EXPECT_THROW((void)reg.gauge("thing_total"), std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("thing_total"), std::invalid_argument);
}

TEST(Registry, SnapshotContainsAllInstruments) {
  Registry reg;
  reg.counter("c_total").inc(3);
  reg.gauge("g").set(-7);
  reg.histogram("h_ns").record(100);
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.samples.size(), 3u);

  const Sample* c = snap.find("c_total");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->type, MetricType::kCounter);
  EXPECT_EQ(c->counter_value, 3u);

  const Sample* g = snap.find("g");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->gauge_value, -7);

  const Sample* h = snap.find("h_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->histogram.count, 1u);

  EXPECT_EQ(snap.find("missing"), nullptr);
  EXPECT_EQ(snap.find("c_total", {{"no", "such"}}), nullptr);
}

TEST(Registry, ResetZeroesButKeepsReferencesValid) {
  Registry reg;
  Counter& c = reg.counter("r_total");
  c.inc(5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  EXPECT_EQ(reg.snapshot().find("r_total")->counter_value, 1u);
}

TEST(Registry, ConcurrentRegistrationAndIncrement) {
  Registry reg;
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg] {
      for (int i = 0; i < 1'000; ++i) {
        reg.counter("shared_total").inc();
        reg.counter("labeled_total", {{"i", std::to_string(i % 4)}}).inc();
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.find("shared_total")->counter_value, kThreads * 1'000u);
  std::uint64_t labeled = 0;
  for (const Sample& s : snap.samples) {
    if (s.name == "labeled_total") labeled += s.counter_value;
  }
  EXPECT_EQ(labeled, kThreads * 1'000u);
}

TEST(Registry, GlobalIsASingleton) {
  Registry& a = Registry::global();
  Registry& b = Registry::global();
  EXPECT_EQ(&a, &b);
}

TEST(Export, JsonContainsEveryFamilyAndParses) {
  Registry reg;
  reg.counter("j_total", {{"kind", "x"}}).inc(2);
  reg.gauge("j_gauge").set(9);
  reg.histogram("j_ns").record(1'000);
  const std::string json = to_json(reg.snapshot());
  EXPECT_NE(json.find("\"version\""), std::string::npos);
  EXPECT_NE(json.find("\"j_total\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\""), std::string::npos);
  EXPECT_NE(json.find("\"j_gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"j_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
  // Balanced braces/brackets -- cheap structural sanity check.
  std::int64_t braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (ch == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    if (ch == '{') ++braces;
    if (ch == '}') --braces;
    if (ch == '[') ++brackets;
    if (ch == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(Export, JsonEscapesSpecialCharacters) {
  Registry reg;
  reg.counter("esc_total", {{"path", "a\"b\\c"}}).inc();
  const std::string json = to_json(reg.snapshot());
  EXPECT_NE(json.find("a\\\"b\\\\c"), std::string::npos);
}

TEST(Export, TextFormatListsMetricsWithLabels) {
  Registry reg;
  reg.counter("t_total", {{"device", "3"}}).inc(7);
  reg.gauge("t_gauge").set(11);
  reg.histogram("t_ns").record(50);
  const std::string text = to_text(reg.snapshot());
  EXPECT_NE(text.find("t_total{device=\"3\"} 7"), std::string::npos);
  EXPECT_NE(text.find("t_gauge 11"), std::string::npos);
  EXPECT_NE(text.find("t_ns"), std::string::npos);
  EXPECT_NE(text.find("count="), std::string::npos);
}

TEST(Export, WriteJsonFileThrowsOnBadPath) {
  Registry reg;
  EXPECT_THROW(
      write_json_file(reg.snapshot(), "/nonexistent-dir-xyz/metrics.json"),
      std::runtime_error);
}

}  // namespace
}  // namespace rds::metrics
