// Fleet-scale durability simulator (src/sim/churn_sim.hpp): distributional
// correctness of the event model (chi-square on exponential inter-event
// times), deterministic replay, loss-accounting invariants, the paper's
// movement bound as an enforced invariant, and cross-checks against the
// real storage layer.
#include "src/sim/churn_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/storage/redundancy_scheme.hpp"
#include "src/storage/virtual_disk.hpp"
#include "src/util/random.hpp"
#include "src/util/stats.hpp"

namespace rds {
namespace {

ClusterConfig uniform_fleet(std::uint64_t devices, std::uint64_t capacity) {
  std::vector<Device> out;
  for (std::uint64_t i = 0; i < devices; ++i) {
    out.push_back({i, capacity, "disk-" + std::to_string(i)});
  }
  return ClusterConfig(std::move(out));
}

ChurnSimConfig small_config() {
  ChurnSimConfig c;
  c.initial = uniform_fleet(24, 100);
  c.k = 3;
  c.objects = 2'000;
  c.years = 4.0;
  c.seed = 7;
  c.afr = 0.30;
  return c;
}

/// Bins `samples` into `bins` equal-probability exponential bins around
/// `mean` and returns the Pearson chi-square statistic vs the uniform
/// expectation.  Bin edges are the exponential quantiles, so the test is
/// scale-correct for any positive mean.
double exponential_chi_square(const std::vector<double>& samples,
                              double mean, std::size_t bins) {
  std::vector<std::uint64_t> observed(bins, 0);
  for (const double x : samples) {
    // F(x) = 1 - exp(-x / mean) in [0, 1) maps to a uniform bin index.
    const double u = -std::expm1(-x / mean);
    std::size_t b = static_cast<std::size_t>(u * static_cast<double>(bins));
    if (b >= bins) b = bins - 1;
    ++observed[b];
  }
  const std::vector<double> expected(
      bins, static_cast<double>(samples.size()) / static_cast<double>(bins));
  return chi_square(observed, expected);
}

TEST(ChurnExponential, DrawsMatchTheDistribution) {
  Xoshiro256 rng(99);
  constexpr double kMean = 3.0;
  constexpr std::size_t kN = 200'000;
  std::vector<double> samples;
  samples.reserve(kN);
  OnlineStats stats;
  for (std::size_t i = 0; i < kN; ++i) {
    const double x = churn_exponential(rng, kMean);
    ASSERT_GE(x, 0.0);
    samples.push_back(x);
    stats.add(x);
  }
  // Mean and stddev of Exp(mean) are both `mean`.
  EXPECT_NEAR(stats.mean(), kMean, 0.05);
  EXPECT_NEAR(stats.stddev(), kMean, 0.05);
  constexpr std::size_t kBins = 16;
  EXPECT_LT(exponential_chi_square(samples, kMean, kBins),
            chi_square_critical_999(kBins - 1));
}

TEST(ChurnSim, FleetInterFailureTimesAreExponential) {
  // Homogeneous rates (spread 1) and no churn: the fleet failure process is
  // a superposition of per-slot Poisson processes (failed devices are
  // replaced in place), so inter-failure gaps are exponential.  The mean is
  // estimated from the sample, hence one fewer degree of freedom.
  ChurnSimConfig c;
  c.initial = uniform_fleet(50, 100);
  c.k = 2;
  c.objects = 50;
  c.years = 40.0;
  c.seed = 11;
  c.afr = 1.0;
  c.rate_spread = 1.0;
  c.repair_mbps = 0.0;
  c.churn_per_year = 0.0;
  c.record_event_log = true;
  const ChurnResult r = run_churn(c);
  ASSERT_GT(r.failures, 1'000u);

  std::vector<double> gaps;
  OnlineStats stats;
  double last = 0.0;
  std::istringstream log(r.event_log);
  std::string line;
  while (std::getline(log, line)) {
    if (line.empty() || line[0] != 'F') continue;
    const double t = std::stod(line.substr(2));
    ASSERT_GE(t, last);
    gaps.push_back(t - last);
    stats.add(t - last);
    last = t;
  }
  ASSERT_EQ(gaps.size(), r.failures);
  constexpr std::size_t kBins = 10;
  EXPECT_LT(exponential_chi_square(gaps, stats.mean(), kBins),
            chi_square_critical_999(kBins - 2));
}

TEST(ChurnSim, ReplayIsByteIdentical) {
  ChurnSimConfig c = small_config();
  c.record_event_log = true;
  const ChurnResult a = run_churn(c);
  const ChurnResult b = run_churn(c);
  ASSERT_FALSE(a.event_log.empty());
  EXPECT_EQ(a.event_log, b.event_log);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.objects_lost, b.objects_lost);
  EXPECT_EQ(a.moved_copies, b.moved_copies);
  EXPECT_DOUBLE_EQ(a.expected_objects_lost, b.expected_objects_lost);

  c.seed = 8;
  const ChurnResult other = run_churn(c);
  EXPECT_NE(a.event_log, other.event_log);
}

TEST(ChurnSim, LossAccountingInvariants) {
  // Repair off at a harsh failure rate: every object eventually dies, and
  // each object walks the histogram 1..k exactly in order.
  ChurnSimConfig c;
  c.initial = uniform_fleet(20, 100);
  c.k = 2;
  c.objects = 2'000;
  c.years = 6.0;
  c.seed = 3;
  c.afr = 1.0;
  c.repair_mbps = 0.0;
  c.churn_per_year = 0.0;
  const ChurnResult r = run_churn(c);

  ASSERT_EQ(r.copies_lost_histogram.size(), c.k + 1u);
  EXPECT_EQ(r.copies_lost_histogram[0], 0u);
  // With repair off a copy never returns, so deaths are exactly the objects
  // that reached k lost copies, and reaching i requires reaching i - 1.
  EXPECT_EQ(r.copies_lost_histogram[c.k], r.objects_lost);
  for (std::size_t i = 2; i <= c.k; ++i) {
    EXPECT_LE(r.copies_lost_histogram[i], r.copies_lost_histogram[i - 1]);
  }
  EXPECT_GT(r.objects_lost, 0u);
  EXPECT_DOUBLE_EQ(
      r.loss_probability,
      static_cast<double>(r.objects_lost) / static_cast<double>(c.objects));
  EXPECT_GT(r.expected_objects_lost, 0.0);
  EXPECT_TRUE(std::isfinite(r.expected_objects_lost));
  EXPECT_EQ(r.repairs_completed, 0u);
  EXPECT_EQ(r.peak_repair_queue, 0u);
  EXPECT_GE(r.events, r.failures);
  EXPECT_EQ(r.final_devices, 20u);
  EXPECT_DOUBLE_EQ(r.simulated_years, c.years);
  EXPECT_LE(r.peak_objects_at_risk, c.objects);
}

TEST(ChurnSim, RepairAndReplicationBothReduceLoss) {
  ChurnSimConfig base = small_config();
  base.afr = 0.8;           // harsh enough for strictly positive signal
  base.repair_mbps = 2.0;   // thin pipe: repair races loss and often loses
  base.churn_per_year = 0.0;

  ChurnSimConfig off = base;
  off.repair_mbps = 0.0;
  const ChurnResult with_repair = run_churn(base);
  const ChurnResult without = run_churn(off);
  EXPECT_LE(with_repair.objects_lost, without.objects_lost);
  EXPECT_LE(with_repair.expected_objects_lost,
            without.expected_objects_lost);
  EXPECT_GT(without.expected_objects_lost, 0.0);

  ChurnSimConfig k2 = base;
  k2.k = 2;
  const ChurnResult low = run_churn(k2);
  EXPECT_LE(with_repair.objects_lost, low.objects_lost);
  EXPECT_LE(with_repair.expected_objects_lost, low.expected_objects_lost);
}

TEST(ChurnSim, ExactRedundantShareHonorsThePaperBound) {
  // The k^2 adaptivity bound is installed automatically for exact Redundant
  // Share and asserted on every add/remove edit: completing the run IS the
  // invariant check.
  ChurnSimConfig c = small_config();
  c.strategy = PlacementKind::kRedundantShare;
  c.objects = 1'000;
  c.churn_per_year = 12.0;
  const ChurnResult r = run_churn(c);
  EXPECT_GT(r.churn_events, 0u);
  EXPECT_DOUBLE_EQ(r.movement_bound, 9.0);
  EXPECT_GT(r.max_move_ratio, 0.0);
  EXPECT_LE(r.max_move_ratio, 9.0);
  EXPECT_GE(r.moved_copies, r.optimal_moves > 0 ? 1u : 0u);
}

TEST(ChurnSim, MovementBoundViolationThrows) {
  // Round-robin striping reshuffles nearly everything on any topology
  // change, so an explicit bound of 1.0 must trip on the first add/remove
  // edit.
  ChurnSimConfig c = small_config();
  c.strategy = PlacementKind::kRoundRobin;
  c.objects = 500;
  c.years = 2.0;
  c.churn_per_year = 24.0;
  c.movement_bound = 1.0;
  EXPECT_THROW((void)run_churn(c), std::logic_error);
}

TEST(ChurnSim, ReportOnlyStrategiesDoNotAssert) {
  // fast-redundant-share exceeds k^2 in measured worst cases, so no bound
  // is installed by default: the run completes and reports the ratio.
  ChurnSimConfig c = small_config();
  c.objects = 500;
  c.years = 2.0;
  c.churn_per_year = 24.0;
  const ChurnResult r = run_churn(c);
  EXPECT_DOUBLE_EQ(r.movement_bound, 0.0);
  EXPECT_GT(r.churn_events, 0u);
}

TEST(ChurnSim, ValidatesConfiguration) {
  const ChurnSimConfig good = small_config();
  {
    ChurnSimConfig c = good;
    c.k = 0;
    EXPECT_THROW((void)run_churn(c), std::invalid_argument);
  }
  {
    ChurnSimConfig c = good;
    c.k = 25;  // more copies than devices
    EXPECT_THROW((void)run_churn(c), std::invalid_argument);
  }
  {
    ChurnSimConfig c = good;
    c.years = 0.0;
    EXPECT_THROW((void)run_churn(c), std::invalid_argument);
  }
  {
    ChurnSimConfig c = good;
    c.objects = 0;
    EXPECT_THROW((void)run_churn(c), std::invalid_argument);
  }
  {
    ChurnSimConfig c = good;
    c.afr = 0.0;
    EXPECT_THROW((void)run_churn(c), std::invalid_argument);
  }
}

TEST(ChurnSim, MirrorCrossCheckAgreesWithVirtualDisk) {
  // The mirror VirtualDisk follows the same one-device churn edits as
  // records; any placement divergence throws std::logic_error, so a
  // clean return is the placement cross-check.  Blocks written beforehand
  // move with every edit, so the storage side is checked too: afterwards
  // every block is fully redundant, where placement says, and reads back.
  ChurnSimConfig c;
  c.initial = uniform_fleet(12, 100);
  c.k = 3;
  c.strategy = PlacementKind::kRedundantShare;
  c.objects = 400;
  c.years = 3.0;
  c.seed = 21;
  c.churn_per_year = 8.0;
  VirtualDisk mirror(c.initial, std::make_shared<MirroringScheme>(c.k),
                     c.strategy);
  constexpr std::uint64_t kBlocks = 100;
  const auto content = [](std::uint64_t block) {
    std::vector<std::uint8_t> data(32);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::uint8_t>(block * 31 + i);
    }
    return data;
  };
  for (std::uint64_t b = 0; b < kBlocks; ++b) {
    ASSERT_TRUE(mirror.try_write(b, content(b)).ok());
  }

  const ChurnResult r = run_churn(c, &mirror);
  EXPECT_GT(r.churn_events, 0u);
  EXPECT_GT(mirror.stats().fragments_moved, 0u);
  EXPECT_TRUE(mirror.scrub().clean());
  for (std::uint64_t b = 0; b < kBlocks; ++b) {
    const Result<Bytes> got = mirror.try_read(b);
    ASSERT_TRUE(got.ok()) << "block " << b << ": " << got.error().message;
    EXPECT_EQ(got.value(), content(b)) << "block " << b;
  }
}

}  // namespace
}  // namespace rds
