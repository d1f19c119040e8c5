// Fleet-scale durability simulation: years of churn over the real
// placement strategies (ROADMAP item 4).
//
// The mean-field replication analysis (arXiv:1701.00335, PAPERS.md) studies
// exactly this regime: devices fail at exponential rates while a
// bandwidth-limited repair process races data loss.  This simulator is the
// empirical counterpart over the *actual* strategies: an event-driven loop
// (binary-heap event queue, simulated seconds, no wall-clock) that tracks a
// sample of `objects` balls with k copies each, placed by
// make_replication_strategy() and re-placed on every topology change.
//
// Event model
//   - Device failures: each device slot carries an exponential failure
//     clock; per-device rates are log-uniform in [afr/spread, afr*spread]
//     (heterogeneous reliabilities).  A failed device is immediately
//     replaced by an empty unit with the same uid, so failures never
//     change the placement -- they only destroy the copies stored on the
//     device, which become repair work.
//   - Repair: lost copies queue FIFO on one shared repair server whose
//     aggregate bandwidth is repair_mbps * min(devices, repair_fanout)
//     (declustered repair: every survivor contributes, up to a fanout cap).
//     Service time per copy is object_mb / aggregate, deterministic by
//     default or exponential with that mean.  repair_mbps == 0 switches
//     repair off entirely (the mean-field "no repair" baseline).
//   - Churn: topology edits arrive as a Poisson process (churn_per_year):
//     a deterministic rotation of add / remove / resize edits built on the
//     scenario machinery (apply_edit).  Every edit constructs a fresh
//     strategy, re-places all objects, and accounts movement against the
//     optimal lower bound; the bulk copy traffic shares the repair server,
//     so heavy churn honestly delays repairs.
//
// Loss accounting
//   An object dies when all k copies are simultaneously lost (empirical
//   `objects_lost`).  Because empirical losses are rare at k >= 3, the
//   simulator also integrates a smooth analytic estimator: at every copy
//   loss it adds the probability that all remaining copies fail before the
//   lost one is repaired (window = repair ETA, or end-of-horizon with
//   repair off).  `expected_objects_lost` is seeded-deterministic, which is
//   what the machine-independent ratchet rules key on (docs/durability.md).
//
// Movement competitiveness
//   Per churn event the simulator diffs old vs new homes of live objects
//   (set semantics, src/sim/movement.hpp) against the optimal lower bound
//   sum_d max(0, count_after - count_before).  For exact Redundant Share
//   the paper's adaptivity bound (<= k^2) is asserted as an invariant on
//   every add/remove edit: exceeding `movement_bound` throws
//   std::logic_error.  Two measured caveats shape the defaults
//   (docs/durability.md): capacity *resizes* are outside the paper's
//   insert/remove lemma (even exact RS reaches ~15-27x there, so resize
//   ratios are reported separately and never asserted), and the fast
//   variant trades adaptivity for lookup speed (measured up to ~4.6x --
//   above k^2 at k = 2), so it is report-only unless the caller sets an
//   explicit bound.
//
// Cross-checks against the storage layer
//   run_churn(config, &mirror) drives a real VirtualDisk through the same
//   one-device churn edits (try_add_device, try_remove_device,
//   try_resize_device) and verifies sampled placements agree.
//   Blocks written into the mirror beforehand move with every edit, so the
//   disk's reshape -- the one engine that moves stored fragments -- is
//   exercised by the same edit sequence.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/cluster/cluster_config.hpp"
#include "src/placement/strategy_factory.hpp"

namespace rds {

class VirtualDisk;
class Xoshiro256;

/// One exponential draw with the given mean -- the sampler behind both the
/// failure clocks and the (optional) exponential repair service times, so
/// the distributional tests exercise exactly what the simulator consumes.
[[nodiscard]] double churn_exponential(Xoshiro256& rng, double mean);

struct ChurnSimConfig {
  ClusterConfig initial;  ///< starting topology (devices and capacities)
  unsigned k = 3;         ///< replication degree
  PlacementKind strategy = PlacementKind::kFastRedundantShare;

  std::uint64_t objects = 200'000;  ///< tracked sample of balls
  double years = 10.0;              ///< simulated horizon
  std::uint64_t seed = 42;          ///< drives every random draw

  // --- failure process ---
  double afr = 0.04;         ///< geometric-mean annual failure rate
  double rate_spread = 4.0;  ///< per-device rates log-uniform in
                             ///< [afr/spread, afr*spread]; 1 = homogeneous

  // --- repair process ---
  double repair_mbps = 50.0;   ///< per-survivor bandwidth; 0 = repair off
  unsigned repair_fanout = 64; ///< survivors contributing to one repair
  double object_mb = 4096.0;   ///< data re-created per lost copy
  bool exponential_repair = false;  ///< exp service times (mean unchanged)

  // --- churn process ---
  double churn_per_year = 12.0;  ///< Poisson rate of topology edits; 0 = none

  /// Movement-ratio invariant asserted on every add/remove churn edit
  /// (resizes are always report-only; see the header comment).  Unset: k^2
  /// for kRedundantShare, unchecked for every other strategy.  Tests
  /// override it to prove the assertion fires.
  std::optional<double> movement_bound;

  bool record_event_log = false;  ///< fill ChurnResult::event_log
};

struct ChurnResult {
  // --- event volume ---
  std::uint64_t events = 0;          ///< events processed (all kinds)
  std::uint64_t failures = 0;        ///< device failures
  std::uint64_t churn_events = 0;    ///< topology edits applied
  std::uint64_t churn_skipped = 0;   ///< edits skipped (infeasible for k)
  std::uint64_t repairs_completed = 0;
  std::uint64_t repairs_preempted = 0;  ///< object died before its repair

  // --- durability ---
  std::uint64_t copies_lost = 0;   ///< copy-loss events (incl. re-losses)
  std::uint64_t objects_lost = 0;  ///< objects with all k copies gone
  double loss_probability = 0.0;   ///< objects_lost / objects
  /// Analytic expected losses integrated over every degradation window
  /// (smooth, seeded-deterministic -- the ratchet signal).
  double expected_objects_lost = 0.0;
  /// copies_lost_histogram[i]: times an object reached i simultaneously
  /// lost copies (index 0 unused, index k = deaths).  Size k + 1.
  std::vector<std::uint64_t> copies_lost_histogram;
  std::uint64_t peak_objects_at_risk = 0;  ///< degraded objects high-water

  // --- repair queue ---
  std::uint64_t peak_repair_queue = 0;  ///< jobs (repairs + bulk moves)
  double mean_repair_queue = 0.0;       ///< time-weighted over the horizon

  // --- movement (cumulative over churn events) ---
  std::uint64_t moved_copies = 0;    ///< set semantics (mirrored data)
  std::uint64_t moved_indexed = 0;   ///< per-slot (erasure semantics)
  std::uint64_t optimal_moves = 0;   ///< sum of per-event lower bounds
  double max_move_ratio = 0.0;    ///< worst add/remove-edit moved/optimal
  double max_resize_ratio = 0.0;  ///< worst resize-edit ratio (unasserted)
  double movement_bound = 0.0;    ///< the asserted bound; 0 = unchecked

  // --- run facts ---
  std::size_t final_devices = 0;
  double simulated_years = 0.0;
  std::string event_log;  ///< deterministic replay log ("" unless recorded)
};

/// Runs the simulation.  Throws std::invalid_argument for unusable
/// parameters (k = 0 or > devices, non-positive years/objects/afr, initial
/// config infeasible for k) and std::logic_error when the movement
/// invariant is violated or a cross-check against the storage layer fails.
[[nodiscard]] ChurnResult run_churn(const ChurnSimConfig& config);

/// Mirror form: `mirror` must be a VirtualDisk over the same initial
/// config / strategy kind / k.  Every churn edit is also applied to it as
/// the same one-device edit, and sampled placements are cross-checked
/// (std::logic_error on divergence).  Failures are NOT forwarded -- the
/// mirror validates the placement/movement path, not the loss path.
[[nodiscard]] ChurnResult run_churn(const ChurnSimConfig& config,
                                    VirtualDisk* mirror);

}  // namespace rds
