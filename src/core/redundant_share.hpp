// Redundant Share (Section 3 of the paper): LinMirror (k = 2) and its
// generalization to k-fold replication in O(n) time per ball.
//
// The algorithm walks the bins in descending capacity order, carrying the
// number m of copies still to place.  In state (m, j) -- m copies needed,
// standing at bin j -- bin j is selected with probability
//
//     f(m, j) = min(1, m * b_j / B_j),        B_j = sum_{l >= j} b_l,
//
// where the b_j are the *adjusted* capacities of Algorithm 1 (optimal
// weights).  Without the min-clamp this is exactly fair: the expected number
// of copies still needed when reaching bin j telescopes to k * B_j / B, so
// bin j receives k * b_j / B of the copies.  The random experiment of bin j
// at state m depends only on (ball address, bin uid, m), which is what
// bounds the data movement when devices come and go (Lemmas 3.2/3.5).
//
// Inhomogeneity adjustment: where the clamp bites (m * b_j > B_j -- bin j is
// too big for its suffix), bin j falls short of its fair share.  The paper
// compensates with the b-tilde weight boost of equations (2)-(5); we
// implement the same compensation in its general form: a per-column
// moment-matching pass that raises the selection probabilities of the
// lower-m states at column j until the column's marginal equals the fair
// share k * b_j / B exactly.  For k = 2 this reproduces the paper's b-tilde
// value; for k >= 3 it also repairs *cascaded* clamps (an infeasible suffix
// inside an infeasible suffix) that a single weight boost cannot reach --
// see DESIGN.md for the worked {3,2,2,2,1} example.  The state probabilities
// pi(m, j) and the fix-up are computed once per configuration in O(k * n).
//
// Copy identification: out[0] is the first selection (the primary), out[i]
// the i-th -- deterministic, as erasure codes require.
#pragma once

#include <cstdint>
#include <vector>

#include "src/cluster/cluster_config.hpp"
#include "src/placement/strategy.hpp"

namespace rds {

namespace metrics {
class Counter;
}  // namespace metrics

namespace detail {

/// Shared precomputed tables for RedundantShare and FastRedundantShare.
/// Bins are in canonical (descending) order; `caps` holds the adjusted
/// capacities and `suffix[i] = sum caps[i..n-1]`.
struct RsTables {
  std::vector<DeviceId> uids;
  std::vector<double> caps;
  std::vector<double> suffix;  // size n+1
  unsigned k = 0;

  /// select_prob[m-1][j] = P(select bin j | m copies still needed at j).
  std::vector<std::vector<double>> select_prob;

  /// Largest column deficit the moment-matching pass could not place (0 for
  /// every configuration we have ever generated; recorded for diagnostics).
  double fairness_residual = 0.0;

  [[nodiscard]] std::size_t size() const noexcept { return uids.size(); }

  [[nodiscard]] double f(unsigned m, std::size_t j) const noexcept {
    return select_prob[m - 1][j];
  }

  /// Builds the tables from a cluster snapshot.  Runs Algorithm 1 on the
  /// capacities unless `apply_optimal_weights` is false; skips the
  /// moment-matching compensation when `apply_adjustment` is false (the
  /// ablation configuration -- fairness then breaks on inhomogeneous
  /// systems exactly as Section 3.1 predicts).
  static RsTables build(const ClusterConfig& config, unsigned k,
                        bool apply_optimal_weights, bool apply_adjustment);

  /// Builds directly from pre-adjusted weights in canonical (descending)
  /// order -- the back half of build(), exposed so callers with their own
  /// weight pipeline (and tests for degenerate inputs that ClusterConfig
  /// validation would reject) share one hardened implementation.  Throws
  /// std::invalid_argument when a weight is non-finite or a capacity
  /// suffix B_j is not strictly positive (a zero-capacity tail would
  /// otherwise turn f(m, j) = m * b_j / B_j into NaN).
  static RsTables build_from_weights(std::vector<DeviceId> uids,
                                     std::vector<double> weights_desc,
                                     unsigned k, bool apply_adjustment);
};

}  // namespace detail

class RedundantShare final : public ReplicationStrategy {
 public:
  struct Options {
    /// Run Algorithm 1 (optimalWeights) on the capacities first.  Disable
    /// only to study what goes wrong without it.
    bool apply_optimal_weights = true;
    /// Apply the inhomogeneity compensation (the paper's b-tilde,
    /// equations (2)-(5), in generalized form).  Disable only for the
    /// ablation benchmark.
    bool apply_adjustment = true;
  };

  /// Strategy over a cluster snapshot with replication degree k >= 1
  /// (k == 2 is the paper's LinMirror).  Throws if k > cluster size.
  RedundantShare(const ClusterConfig& config, unsigned k);
  RedundantShare(const ClusterConfig& config, unsigned k, Options opt);

  /// out[0] is the primary copy, out[i] the i-th copy.  O(n).  The same
  /// as place_many() over one address.
  void place(std::uint64_t address, std::span<DeviceId> out) const override;
  using ReplicationStrategy::place;

  /// Places every address (row-major, as ReplicationStrategy::place_many)
  /// and bumps each placement counter once for the whole call.
  void place_many(std::span<const std::uint64_t> addresses,
                  std::span<DeviceId> out) const override;

  [[nodiscard]] unsigned replication() const override { return tables_.k; }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t device_count() const override {
    return tables_.size();
  }

  /// Adjusted capacities, canonical order (for tests and reports).
  [[nodiscard]] std::span<const double> adjusted_capacities() const noexcept {
    return tables_.caps;
  }
  /// Device uids in canonical order.
  [[nodiscard]] std::span<const DeviceId> canonical_uids() const noexcept {
    return tables_.uids;
  }

  /// Exact expected number of copies each bin receives per ball (canonical
  /// order), from the state-occupancy recursion of the selection chain --
  /// the exact law of place(), computed in O(k * n).  Perfect fairness
  /// means entry i equals k * b'_i / sum b'.
  [[nodiscard]] std::vector<double> exact_expected_copies() const;

  /// Exact law of each copy index: entry [r][i] = P(copy r lands on bin i).
  /// Rows are probability distributions.  Copy 0 (the primary) concentrates
  /// on the big bins and the last copy on the tail -- relevant when the
  /// fragments are not interchangeable (erasure codes): parity fragments
  /// systematically live on the smaller devices.  O(k * n).
  [[nodiscard]] std::vector<std::vector<double>> exact_copy_index_law() const;

  [[nodiscard]] const detail::RsTables& tables() const noexcept {
    return tables_;
  }

 private:
  /// One placement into `out`; adds the chain columns it walked and the
  /// last-copy candidates it raced to the caller's tallies.
  void place_one(std::uint64_t address, std::span<DeviceId> out,
                 std::uint64_t& columns, std::uint64_t& candidates) const;

  /// Last copy via `placeonecopy`: a rendezvous race over the exact
  /// conditional law of the chain from state (1, start).  Adds the race's
  /// size to `candidates_raced`.
  [[nodiscard]] DeviceId place_last(std::uint64_t address, std::size_t start,
                                    std::uint64_t& candidates_raced) const;

  detail::RsTables tables_;

  // Registry-owned instruments (see src/metrics/): placements served, chain
  // columns walked, and last-copy rendezvous sizes.  Bumped once per
  // place_many() call (place() is a call over one address) with the call's
  // summed tallies; never null after construction.
  metrics::Counter* placements_total_ = nullptr;
  metrics::Counter* chain_columns_total_ = nullptr;
  metrics::Counter* last_copy_candidates_total_ = nullptr;
};

}  // namespace rds
