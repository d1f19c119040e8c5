#include "src/placement/rendezvous.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/util/hash.hpp"

namespace rds {

namespace {

// -w / ln(u) for the candidate's uniform u.  u in [2^-53, 1): ln(u) < 0, so
// the score is positive and finite.  Guard u == 0 anyway (belt and braces
// against future hash changes).
double score_of(double u, double weight) noexcept {
  return -weight / std::log(u > 0.0 ? u : 0x1.0p-53);
}

}  // namespace

double rendezvous_score(std::uint64_t address, DeviceId uid,
                        std::uint64_t salt, double weight) noexcept {
  return score_of(unit_value(address, uid, salt), weight);
}

DeviceId rendezvous_draw(std::uint64_t address, std::uint64_t salt,
                         std::span<const Candidate> candidates) {
  DeviceId best = kNoDevice;
  double best_score = -std::numeric_limits<double>::infinity();
  for (const Candidate& c : candidates) {
    if (c.weight <= 0.0) continue;
    const double u = unit_value(address, c.uid, salt);
    // -ln u >= 1 - u, so the score is at most w / (1 - u).  1 - u is exact
    // (u is a multiple of 2^-53), and the 2^-40 margin covers the rounding
    // of the log and of both divisions.  A candidate whose bound cannot
    // beat the leader would fail the strict > below, so its log is skipped
    // and the winner is the one the full race picks.
    if (c.weight / (1.0 - u) * (1.0 + 0x1.0p-40) <= best_score) continue;
    const double s = score_of(u, c.weight);
    if (s > best_score) {
      best_score = s;
      best = c.uid;
    }
  }
  return best;
}

void rendezvous_top_k(std::uint64_t address, std::uint64_t salt,
                      std::span<const Candidate> candidates,
                      std::span<DeviceId> out) {
  struct Scored {
    double score;
    DeviceId uid;
  };
  std::vector<Scored> scored;
  scored.reserve(candidates.size());
  for (const Candidate& c : candidates) {
    if (c.weight <= 0.0) continue;
    scored.push_back({rendezvous_score(address, c.uid, salt, c.weight), c.uid});
  }
  if (scored.size() < out.size()) {
    throw std::invalid_argument("rendezvous_top_k: fewer candidates than k");
  }
  const auto mid = scored.begin() + static_cast<std::ptrdiff_t>(out.size());
  std::partial_sort(scored.begin(), mid, scored.end(),
                    [](const Scored& a, const Scored& b) {
                      return a.score > b.score;
                    });
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = scored[i].uid;
}

WeightedRendezvous::WeightedRendezvous(const ClusterConfig& config,
                                       std::uint64_t salt)
    : salt_(salt) {
  candidates_.reserve(config.size());
  for (const Device& d : config.devices()) {
    candidates_.push_back({d.uid, static_cast<double>(d.capacity)});
  }
}

DeviceId WeightedRendezvous::place(std::uint64_t address) const {
  return rendezvous_draw(address, salt_, candidates_);
}

std::string WeightedRendezvous::name() const { return "rendezvous"; }

}  // namespace rds
