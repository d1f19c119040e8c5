#include "src/placement/rendezvous.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "src/core/redundant_share.hpp"
#include "src/util/stats.hpp"

namespace rds {
namespace {

ClusterConfig make_cluster() {
  return ClusterConfig({{1, 100, ""}, {2, 200, ""}, {3, 300, ""}, {4, 400, ""}});
}

TEST(Rendezvous, Deterministic) {
  const WeightedRendezvous s(make_cluster());
  for (std::uint64_t a = 0; a < 100; ++a) {
    EXPECT_EQ(s.place(a), s.place(a));
  }
}

TEST(Rendezvous, SaltsAreIndependent) {
  const WeightedRendezvous s0(make_cluster(), 0);
  const WeightedRendezvous s1(make_cluster(), 1);
  int same = 0;
  for (std::uint64_t a = 0; a < 1000; ++a) {
    if (s0.place(a) == s1.place(a)) ++same;
  }
  // P(same) = sum c_i^2 = 0.3 for weights 1:2:3:4.
  EXPECT_NEAR(same, 300, 60);
}

TEST(Rendezvous, ExactFairnessChiSquare) {
  const ClusterConfig config = make_cluster();
  const WeightedRendezvous s(config);
  constexpr std::uint64_t kBalls = 200'000;
  std::vector<std::uint64_t> counts(config.size(), 0);
  for (std::uint64_t a = 0; a < kBalls; ++a) {
    const DeviceId uid = s.place(a);
    ++counts[config.index_of(uid).value()];
  }
  std::vector<double> expected;
  for (std::size_t i = 0; i < config.size(); ++i) {
    expected.push_back(static_cast<double>(kBalls) * config.relative_capacity(i));
  }
  EXPECT_LT(chi_square(counts, expected),
            chi_square_critical_999(config.size() - 1));
}

TEST(Rendezvous, MinimalDisruptionOnAdd) {
  // 1-competitive adaptivity: adding a device moves exactly the balls the
  // new device wins; nothing reshuffles between old devices.
  ClusterConfig before = make_cluster();
  ClusterConfig after = before;
  after.add_device({5, 500, ""});
  const WeightedRendezvous sb(before);
  const WeightedRendezvous sa(after);
  constexpr std::uint64_t kBalls = 20'000;
  std::uint64_t moved = 0, to_new = 0;
  for (std::uint64_t a = 0; a < kBalls; ++a) {
    const DeviceId db = sb.place(a);
    const DeviceId da = sa.place(a);
    if (db != da) {
      ++moved;
      EXPECT_EQ(da, 5u) << "ball moved between two old devices";
      ++to_new;
    }
  }
  EXPECT_EQ(moved, to_new);
  // New device share = 500/1500 = 1/3.
  EXPECT_NEAR(static_cast<double>(to_new), kBalls / 3.0, 0.05 * kBalls);
}

TEST(Rendezvous, MinimalDisruptionOnRemove) {
  ClusterConfig before = make_cluster();
  ClusterConfig after = before;
  after.remove_device(4);
  const WeightedRendezvous sb(before);
  const WeightedRendezvous sa(after);
  for (std::uint64_t a = 0; a < 20'000; ++a) {
    const DeviceId db = sb.place(a);
    if (db != 4) {
      EXPECT_EQ(sa.place(a), db) << "ball not on the removed device moved";
    }
  }
}

TEST(RendezvousDraw, IgnoresNonPositiveWeights) {
  const std::vector<Candidate> cands{{1, 0.0}, {2, -3.0}, {3, 5.0}};
  for (std::uint64_t a = 0; a < 100; ++a) {
    EXPECT_EQ(rendezvous_draw(a, 0, cands), 3u);
  }
}

TEST(RendezvousDraw, EmptyMeansNoDevice) {
  EXPECT_EQ(rendezvous_draw(1, 0, std::vector<Candidate>{}), kNoDevice);
  EXPECT_EQ(rendezvous_draw(1, 0, std::vector<Candidate>{{1, 0.0}}),
            kNoDevice);
}

// The full race: every positive candidate scored, strict > keeps the first
// of equal scores.  rendezvous_draw skips the logarithm of candidates that
// cannot win, and must pick the same device.
DeviceId full_race(std::uint64_t address, std::uint64_t salt,
                   std::span<const Candidate> candidates) {
  DeviceId best = kNoDevice;
  double best_score = -std::numeric_limits<double>::infinity();
  for (const Candidate& c : candidates) {
    if (c.weight <= 0.0) continue;
    const double s = rendezvous_score(address, c.uid, salt, c.weight);
    if (s > best_score) {
      best_score = s;
      best = c.uid;
    }
  }
  return best;
}

TEST(RendezvousDraw, PrunedRaceMatchesFullRace) {
  std::vector<std::vector<Candidate>> sets;
  // Redundant Share's last-copy weights (survive * f) on three capacity
  // tiers of 64 devices, raced from the head of the chain and from its
  // middle.
  std::vector<Device> devices;
  for (DeviceId uid = 1; uid <= 64; ++uid) {
    devices.push_back({uid, uid <= 24 ? 1536u : uid <= 48 ? 2304u : 3072u,
                       ""});
  }
  const RedundantShare rs(ClusterConfig(std::move(devices)), 3);
  const detail::RsTables& t = rs.tables();
  for (const std::size_t start : {std::size_t{0}, t.size() / 2}) {
    std::vector<Candidate>& tail = sets.emplace_back();
    double survive = 1.0;
    for (std::size_t l = start; l < t.size(); ++l) {
      tail.push_back({t.uids[l], survive * t.f(1, l)});
      if (t.f(1, l) >= 1.0) break;
      survive *= 1.0 - t.f(1, l);
    }
  }
  // Weights spanning 1e-9 to 1e9, shuffled so the leader changes often.
  std::vector<Candidate>& wide = sets.emplace_back();
  for (DeviceId uid = 0; uid < 19; ++uid) {
    wide.push_back({uid, std::pow(10.0, static_cast<double>(
                                            (uid * 7) % 19) - 9.0)});
  }
  // All-equal weights: ties between equal scores go to the earlier one.
  sets.emplace_back();
  for (DeviceId uid = 0; uid < 16; ++uid) sets.back().push_back({uid, 2.5});
  // A single positive weight among zeros and negatives.
  sets.push_back({{1, 0.0}, {2, -1.0}, {3, 0.0}, {4, 1e-3}, {5, -7.0},
                  {6, 0.0}});

  for (const std::vector<Candidate>& set : sets) {
    for (std::uint64_t a = 0; a < 200'000; ++a) {
      ASSERT_EQ(rendezvous_draw(a, 1, set), full_race(a, 1, set))
          << "address " << a << ", " << set.size() << " candidates";
    }
  }
}

TEST(RendezvousTopK, DistinctAndConsistentWithSingleDraw) {
  const std::vector<Candidate> cands{{1, 10}, {2, 20}, {3, 30}, {4, 40}};
  std::vector<DeviceId> out(3);
  for (std::uint64_t a = 0; a < 500; ++a) {
    rendezvous_top_k(a, 0, cands, out);
    EXPECT_NE(out[0], out[1]);
    EXPECT_NE(out[0], out[2]);
    EXPECT_NE(out[1], out[2]);
    // The first of the top-k is the single-draw winner.
    EXPECT_EQ(out[0], rendezvous_draw(a, 0, cands));
  }
}

TEST(RendezvousTopK, ThrowsWhenTooFewCandidates) {
  const std::vector<Candidate> cands{{1, 10}, {2, 0.0}};
  std::vector<DeviceId> out(2);
  EXPECT_THROW(rendezvous_top_k(7, 0, cands, out), std::invalid_argument);
}

TEST(RendezvousTopK, SequentialDrawDistribution) {
  // Second winner given first == successive weighted draw without
  // replacement: for weights {60, 30, 10}, P(second = B | first = A)
  // = 30/40 = 0.75.
  const std::vector<Candidate> cands{{1, 60}, {2, 30}, {3, 10}};
  std::vector<DeviceId> out(2);
  std::uint64_t first_a = 0, second_b_given_a = 0;
  for (std::uint64_t a = 0; a < 100'000; ++a) {
    rendezvous_top_k(a, 0, cands, out);
    if (out[0] == 1) {
      ++first_a;
      if (out[1] == 2) ++second_b_given_a;
    }
  }
  const double p = static_cast<double>(second_b_given_a) /
                   static_cast<double>(first_a);
  EXPECT_NEAR(p, 0.75, 0.02);
}

}  // namespace
}  // namespace rds
