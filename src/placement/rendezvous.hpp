// Weighted rendezvous (highest-random-weight) hashing.
//
// Every (ball, device, salt) pair gets an independent uniform value u; the
// device maximizing the score  -w / ln(u)  wins.  Because -ln(u)/w is an
// exponential with rate w, the winner is device i with probability exactly
// w_i / sum w_j ("exponential race"), for *arbitrary* weights -- no virtual
// node approximation.  Removing or adding a device only moves the balls that
// device wins/loses, so the scheme is 1-competitive for adaptivity.
//
// This is the library's default `placeonecopy` for Redundant Share: the
// paper requires a perfectly fair single-copy scheme whose randomness per
// bin depends only on (address, bin), and weighted rendezvous is the
// simplest scheme with that exact property.
//
// The free function `rendezvous_draw` ranks an arbitrary candidate list (the
// per-call suffixes Redundant Share needs); the `WeightedRendezvous` class
// adapts it to the SingleStrategy interface over a whole cluster.
#pragma once

#include <cstdint>
#include <span>

#include "src/placement/strategy.hpp"

namespace rds {

/// Rendezvous score of one candidate: -w / ln(u(address, uid, salt)).
/// Strictly increasing in w; u == 0 is impossible by construction of
/// unit_value (top 53 bits of a hash), so the score is finite.
[[nodiscard]] double rendezvous_score(std::uint64_t address, DeviceId uid,
                                      std::uint64_t salt,
                                      double weight) noexcept;

/// Winner of a weighted rendezvous race over `candidates`.  Candidates with
/// non-positive weight never win.  Returns kNoDevice when no candidate has
/// positive weight.  O(|candidates|) hashes; the logarithm is skipped for
/// every candidate whose score bound w / (1 - u) cannot beat the leader,
/// which leaves the winner bit-identical to scoring every candidate with
/// rendezvous_score() for weights that are normal doubles.
[[nodiscard]] DeviceId rendezvous_draw(std::uint64_t address,
                                       std::uint64_t salt,
                                       std::span<const Candidate> candidates);

/// Top-`k` distinct winners, best first.  Equivalent in distribution to k
/// successive weighted draws without replacement (used by the trivial
/// replication baseline).  Writes the winners to `out` (size k); throws
/// std::invalid_argument if fewer than k candidates have positive weight.
void rendezvous_top_k(std::uint64_t address, std::uint64_t salt,
                      std::span<const Candidate> candidates,
                      std::span<DeviceId> out);

/// SingleStrategy adapter: fair weighted placement over a full cluster.
class WeightedRendezvous final : public SingleStrategy {
 public:
  /// `salt` decorrelates multiple independent instances over the same
  /// cluster (e.g. the per-level hash functions of Section 3.3).
  explicit WeightedRendezvous(const ClusterConfig& config,
                              std::uint64_t salt = 0);

  [[nodiscard]] DeviceId place(std::uint64_t address) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t device_count() const override {
    return candidates_.size();
  }

 private:
  std::vector<Candidate> candidates_;
  std::uint64_t salt_;
};

}  // namespace rds
