#include "src/sim/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/util/stats.hpp"

namespace rds {
namespace {

/// Chi-square goodness-of-fit of `generator` (sampled at fixed `now_us`)
/// against a Zipf(s) law over `n` items whose rank-0 item sits at ball
/// `offset` (rank r -> ball (r + offset) mod n).  Significance 0.001, the
/// test_cross_consistency idiom.
void expect_matches_zipf_law(const WorkloadGenerator& generator,
                             double now_us, std::uint64_t n, double s,
                             std::uint64_t offset, std::uint64_t seed) {
  std::vector<double> expected(n, 0.0);
  double h = 0.0;
  for (std::uint64_t r = 1; r <= n; ++r) h += 1.0 / std::pow(r, s);
  constexpr int kN = 250'000;
  for (std::uint64_t r = 1; r <= n; ++r) {
    expected[r - 1] = kN / (std::pow(static_cast<double>(r), s) * h);
  }

  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> observed(n, 0);
  for (int i = 0; i < kN; ++i) {
    const std::uint64_t ball = generator.sample(rng, now_us);
    ASSERT_LT(ball, n);
    ++observed[(ball + n - offset) % n];
  }
  const double stat = chi_square(observed, expected);
  EXPECT_LT(stat, chi_square_critical_999(n - 1))
      << generator.name() << " at t=" << now_us;
}

TEST(Workload, SequentialAddresses) {
  const auto addrs = sequential_addresses(5, 100);
  EXPECT_EQ(addrs, (std::vector<std::uint64_t>{100, 101, 102, 103, 104}));
  EXPECT_TRUE(sequential_addresses(0).empty());
}

TEST(Workload, RandomAddressesAreDistinct) {
  Xoshiro256 rng(5);
  const auto addrs = random_addresses(10'000, rng);
  EXPECT_EQ(addrs.size(), 10'000u);
  const std::unordered_set<std::uint64_t> set(addrs.begin(), addrs.end());
  EXPECT_EQ(set.size(), addrs.size());
}

TEST(Zipf, RejectsBadArguments) {
  // The generators built on a Zipf base reject its bad arguments too.
  EXPECT_THROW(FlashCrowdGenerator(0, 1.0), std::invalid_argument);
  EXPECT_THROW(DiurnalGenerator(10, -0.1), std::invalid_argument);
  EXPECT_THROW(HotspotShiftGenerator(10, std::nan("")),
               std::invalid_argument);
}

TEST(Zipf, SamplesInRange) {
  const ZipfGenerator z = ZipfGenerator::try_make(100, 0.99).value_or_throw();
  Xoshiro256 rng(17);
  for (int i = 0; i < 20'000; ++i) {
    EXPECT_LT(z.sample(rng), 100u);
  }
}

TEST(Zipf, ZeroSkewIsUniform) {
  const ZipfGenerator z = ZipfGenerator::try_make(10, 0.0).value_or_throw();
  Xoshiro256 rng(3);
  std::vector<int> counts(10, 0);
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) ++counts[z.sample(rng)];
  for (const int c : counts) {
    EXPECT_NEAR(c, kN / 10, 5 * std::sqrt(kN / 10.0));
  }
}

TEST(Zipf, FrequenciesFollowPowerLaw) {
  const double s = 1.0;
  const ZipfGenerator z = ZipfGenerator::try_make(1000, s).value_or_throw();
  Xoshiro256 rng(11);
  std::vector<std::uint64_t> counts(1000, 0);
  constexpr int kN = 400'000;
  for (int i = 0; i < kN; ++i) ++counts[z.sample(rng)];

  // Harmonic normalization: P(item r) = (1/(r+1)^s) / H_n.
  double h = 0.0;
  for (int r = 1; r <= 1000; ++r) h += 1.0 / std::pow(r, s);
  for (const int r : {1, 2, 5, 10, 50}) {
    const double expected = kN / (std::pow(r, s) * h);
    EXPECT_NEAR(static_cast<double>(counts[r - 1]), expected,
                0.1 * expected + 5 * std::sqrt(expected))
        << "rank " << r;
  }
  // Monotone head: item 0 is sampled most.
  EXPECT_EQ(std::max_element(counts.begin(), counts.end()) - counts.begin(),
            0);
}

TEST(Zipf, SkewCloseToOneIsStable) {
  // s = 1 is the harmonic singularity of the naive formula; the
  // rejection-inversion implementation must stay finite and correct.
  const ZipfGenerator z = ZipfGenerator::try_make(100, 1.0).value_or_throw();
  Xoshiro256 rng(23);
  std::uint64_t head = 0;
  constexpr int kN = 50'000;
  for (int i = 0; i < kN; ++i) {
    if (z.sample(rng) == 0) ++head;
  }
  double h = 0.0;
  for (int r = 1; r <= 100; ++r) h += 1.0 / r;
  EXPECT_NEAR(static_cast<double>(head) / kN, 1.0 / h, 0.02);
}

TEST(Zipf, TryMakeValidatesInputs) {
  EXPECT_EQ(ZipfGenerator::try_make(0, 1.0).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(ZipfGenerator::try_make(10, -0.1).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(ZipfGenerator::try_make(10, std::nan("")).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(
      ZipfGenerator::try_make(10, std::numeric_limits<double>::infinity())
          .code(),
      ErrorCode::kInvalidArgument);
  const Result<ZipfGenerator> ok = ZipfGenerator::try_make(10, 0.9);
  ASSERT_TRUE(ok.ok()) << ok.error().message;
  EXPECT_EQ(ok.value().universe(), 10u);
  EXPECT_DOUBLE_EQ(ok.value().skew(), 0.9);
}

TEST(WorkloadFactory, EveryKindConstructsWithMatchingName) {
  for (const WorkloadKind kind : all_workload_kinds()) {
    const std::string spec =
        kind == WorkloadKind::kUniform
            ? std::string(to_string(kind))
            : std::string(to_string(kind)) + ":0.9";
    const auto generator = try_make_workload(spec, 1000).value_or_throw();
    ASSERT_NE(generator, nullptr) << spec;
    EXPECT_EQ(generator->name(), to_string(kind));
    EXPECT_EQ(generator->universe(), 1000u);
    EXPECT_GE(generator->max_rate_factor(), 1.0);
    // Samples stay in range for time-varying and static kinds alike.
    Xoshiro256 rng(3);
    for (const double now : {0.0, 1e5, 7e5, 3e6, 9e6}) {
      EXPECT_LT(generator->sample(rng, now), 1000u);
    }
  }
}

TEST(WorkloadFactory, AliasesAndDefaultsResolve) {
  EXPECT_EQ(try_make_workload("flash:0.8", 100).value_or_throw()->name(),
            "flash-crowd");
  EXPECT_EQ(try_make_workload("hotspot:0.8", 100).value_or_throw()->name(),
            "hotspot-shift");
  // Bare "zipf" takes the documented default skew 0.9.
  const auto zipf = try_make_workload("zipf", 100).value_or_throw();
  const auto* typed = dynamic_cast<const ZipfGenerator*>(zipf.get());
  ASSERT_NE(typed, nullptr);
  EXPECT_DOUBLE_EQ(typed->skew(), 0.9);
}

TEST(WorkloadFactory, UnknownNameEnumeratesAllSpellings) {
  const Result<std::unique_ptr<WorkloadGenerator>> r =
      try_make_workload("pareto:1.5", 100);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kInvalidArgument);
  const std::string& message = r.error().message;
  EXPECT_NE(message.find("pareto"), std::string::npos);
  for (const WorkloadKind kind : all_workload_kinds()) {
    EXPECT_NE(message.find(std::string(to_string(kind))), std::string::npos)
        << "missing " << to_string(kind);
  }
  EXPECT_NE(message.find("flash"), std::string::npos);  // aliases listed
}

TEST(WorkloadFactory, RejectsMalformedSpecs) {
  const std::string_view bad[] = {
      "zipf:abc",            // unparsable parameter
      "zipf:",               // empty parameter
      "zipf:0.9,1.0",        // too many parameters
      "zipf:nan",            // non-finite skew
      "zipf:-1",             // negative skew
      "uniform:0.5",         // uniform takes no parameters
      "flash-crowd:0.9,2.0", // fraction outside [0, 1]
      "flash-crowd:0.9,0.5,-1",  // non-positive period
      "diurnal:0.9,1.5",     // amplitude outside [0, 1)
      "hotspot-shift:0.9,0", // non-positive period
  };
  for (const std::string_view spec : bad) {
    const Result<std::unique_ptr<WorkloadGenerator>> r =
        try_make_workload(spec, 100);
    EXPECT_FALSE(r.ok()) << spec;
    EXPECT_EQ(r.code(), ErrorCode::kInvalidArgument) << spec;
  }
  EXPECT_EQ(try_make_workload("zipf:0.9", 0).code(),
            ErrorCode::kInvalidArgument);
}

TEST(Uniform, MatchesUniformLaw) {
  const UniformGenerator uniform(20);
  // Zipf with s = 0 IS uniform, so the shared chi-square harness applies.
  expect_matches_zipf_law(uniform, 0.0, 20, 0.0, 0, 19);
}

TEST(FlashCrowd, OutsideTheCrowdIsPlainZipf) {
  const FlashCrowdGenerator flash(50, 0.9, /*crowd_fraction=*/0.5,
                                  /*period_us=*/2e6, /*duty=*/0.25,
                                  /*surge=*/2.0);
  ASSERT_FALSE(flash.in_crowd(1.5e6));
  expect_matches_zipf_law(flash, 1.5e6, 50, 0.9, 0, 23);
}

TEST(FlashCrowd, InsideTheCrowdConcentratesOnTheCrowdBall) {
  const FlashCrowdGenerator flash(100'000, 0.9, /*crowd_fraction=*/0.5,
                                  /*period_us=*/2e6, /*duty=*/0.25,
                                  /*surge=*/2.0);
  ASSERT_TRUE(flash.in_crowd(1e5));
  const std::uint64_t hot = flash.crowd_ball(1e5);
  Xoshiro256 rng(31);
  int hits = 0;
  constexpr int kN = 50'000;
  for (int i = 0; i < kN; ++i) {
    if (flash.sample(rng, 1e5) == hot) ++hits;
  }
  // crowd_fraction of the traffic goes to one ball (plus a sliver of
  // organic Zipf mass on it).
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.5, 0.02);
  // Rate surges only inside the crowd window.
  EXPECT_DOUBLE_EQ(flash.rate_factor(1e5), 2.0);
  EXPECT_DOUBLE_EQ(flash.rate_factor(1.5e6), 1.0);
  EXPECT_DOUBLE_EQ(flash.max_rate_factor(), 2.0);
}

TEST(FlashCrowd, CrowdBallMovesBetweenWindows) {
  const FlashCrowdGenerator flash(1'000'000, 0.9);
  const std::uint64_t w0 = flash.crowd_ball(0.0);
  const std::uint64_t w1 = flash.crowd_ball(2e6);
  const std::uint64_t w2 = flash.crowd_ball(4e6);
  EXPECT_NE(w0, w1);
  EXPECT_NE(w1, w2);
  // Stable within one window.
  EXPECT_EQ(flash.crowd_ball(0.0), flash.crowd_ball(4.9e5));
}

TEST(Diurnal, RateFactorStaysInBand) {
  const DiurnalGenerator diurnal(100, 0.9, /*amplitude=*/0.8,
                                 /*period_us=*/1e6);
  double low = 10.0;
  double high = -10.0;
  for (int i = 0; i <= 100; ++i) {
    const double f = diurnal.rate_factor(1e4 * i);
    EXPECT_GE(f, 1.0 - 0.8 - 1e-9);
    EXPECT_LE(f, 1.0 + 0.8 + 1e-9);
    low = std::min(low, f);
    high = std::max(high, f);
  }
  // The sweep actually reaches both extremes of the band.
  EXPECT_NEAR(low, 0.2, 0.01);
  EXPECT_NEAR(high, 1.8, 0.01);
  EXPECT_DOUBLE_EQ(diurnal.max_rate_factor(), 1.8);
  // Popularity itself does not move with the clock.
  expect_matches_zipf_law(diurnal, 7.7e5, 100, 0.9, 0, 37);
}

TEST(HotspotShift, RotatedZipfWithinAnEpoch) {
  const HotspotShiftGenerator hotspot(50, 0.9, /*period_us=*/1e6);
  const double now = 3.5e5;  // mid-epoch 0
  expect_matches_zipf_law(hotspot, now, 50, 0.9, hotspot.offset_at(now),
                          41);
}

TEST(HotspotShift, HotSetMovesBetweenEpochs) {
  const HotspotShiftGenerator hotspot(1'000'000, 0.9, /*period_us=*/1e6);
  const std::uint64_t e0 = hotspot.offset_at(5e5);
  const std::uint64_t e1 = hotspot.offset_at(1.5e6);
  const std::uint64_t e2 = hotspot.offset_at(2.5e6);
  EXPECT_NE(e0, e1);
  EXPECT_NE(e1, e2);
  EXPECT_EQ(hotspot.offset_at(0.0), hotspot.offset_at(9.9e5));
  EXPECT_LT(e0, 1'000'000u);
}

}  // namespace
}  // namespace rds
