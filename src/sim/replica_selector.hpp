// Replica selection: which of a ball's k copies serves a read.
//
// The paper's copy-identification property gives every address k known
// replica locations (VirtualDisk::try_copy_locations); capacity fairness
// says the *data* is spread in proportion to device size, but under skewed
// request traffic the *load* can still pile onto whichever copy clients
// happen to pick.  A ReplicaSelector is that client-side pick, pluggable so
// the load simulator and benchmarks can compare policies.  Selectors are
// constructed through try_make_replica_selector() from a name ("p2c",
// "least-loaded", ...) exactly like placement strategies and workloads --
// unknown names are rejected with an error that enumerates every accepted
// spelling.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/result.hpp"
#include "src/util/random.hpp"

namespace rds {

/// Read-only view of the per-device queue state a selector may consult.
/// Devices are canonical config indices; the simulator owns the state and
/// exposes it through this interface so selectors stay decoupled from the
/// queueing model (and tests can hand selectors adversarial states).
class QueueView {
 public:
  virtual ~QueueView() = default;

  /// Outstanding work at device `dev`: microseconds of service still queued
  /// ahead of a request arriving now (0 for an idle device).
  [[nodiscard]] virtual double backlog_us(std::size_t dev) const = 0;

  /// Expected service time of one request at `dev` (the device-speed
  /// signal; heterogeneous pools differ here).
  [[nodiscard]] virtual double mean_service_us(std::size_t dev) const = 0;

  [[nodiscard]] virtual std::size_t device_count() const = 0;

  /// Whether `dev` can serve reads right now.  Failed or rebuilding
  /// devices report false and every selector skips their copies, falling
  /// back to the full replica set only when *no* copy is available
  /// (liveness is cheap gossip a real client has even when queue depths are
  /// not).  Defaults to true so existing QueueViews stay healthy-only.
  [[nodiscard]] virtual bool available(std::size_t /*dev*/) const {
    return true;
  }
};

/// Picks which copy serves a read.  `replicas` holds the canonical device
/// indices of copies 0..k-1 (never empty, pairwise distinct); the return
/// value is a POSITION in `replicas`, not a device index.  Selectors may
/// keep internal state (round-robin cursor, water-filling levels), so one
/// instance models one client and calls are not thread-safe.
///
/// Degraded devices: every policy consults QueueView::available and serves
/// from a healthy copy when one exists; only when ALL copies are degraded
/// does it fall back to its usual pick over the full set (a read against a
/// rebuilding device beats failing the request).
class ReplicaSelector {
 public:
  virtual ~ReplicaSelector() = default;

  [[nodiscard]] virtual std::size_t select(
      std::span<const std::size_t> replicas, const QueueView& queues,
      Xoshiro256& rng) = 0;

  /// Canonical policy name (for reports and error messages).
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
};

/// Copy (cursor++ mod k): oblivious to queue state, perfectly even over
/// copy indices -- the baseline that ignores device speed.
class RoundRobinSelector final : public ReplicaSelector {
 public:
  [[nodiscard]] std::size_t select(std::span<const std::size_t> replicas,
                                   const QueueView& queues,
                                   Xoshiro256& rng) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "round-robin";
  }

 private:
  std::size_t cursor_ = 0;
};

/// A uniformly random copy: stateless, the classical baseline P2C is
/// measured against.
class RandomSelector final : public ReplicaSelector {
 public:
  [[nodiscard]] std::size_t select(std::span<const std::size_t> replicas,
                                   const QueueView& queues,
                                   Xoshiro256& rng) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "random";
  }
};

/// The copy whose device has the smallest backlog (full queue information;
/// ties break toward the lowest copy index).  The omniscient upper bound a
/// real client can only approximate.
class LeastLoadedSelector final : public ReplicaSelector {
 public:
  [[nodiscard]] std::size_t select(std::span<const std::size_t> replicas,
                                   const QueueView& queues,
                                   Xoshiro256& rng) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "least-loaded";
  }
};

/// Power of two choices (Mitzenmacher): probe two distinct random copies,
/// take the one with the smaller backlog.  Two probes instead of k buy an
/// exponential improvement over random in the max queue length.
class PowerOfTwoSelector final : public ReplicaSelector {
 public:
  [[nodiscard]] std::size_t select(std::span<const std::size_t> replicas,
                                   const QueueView& queues,
                                   Xoshiro256& rng) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "power-of-two";
  }
};

/// Water-filling over expected work: tracks the cumulative service time it
/// has assigned to every device and sends each request where
/// assigned + mean_service is smallest.  Unlike least-loaded it never reads
/// the actual queues -- it balances on its own bookkeeping plus the device
/// speeds, the information a client-side dispatcher really has.
class WaterFillingSelector final : public ReplicaSelector {
 public:
  [[nodiscard]] std::size_t select(std::span<const std::size_t> replicas,
                                   const QueueView& queues,
                                   Xoshiro256& rng) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "water-filling";
  }

  /// Work (us) this selector has routed to device `dev` so far.
  [[nodiscard]] double assigned_us(std::size_t dev) const noexcept {
    return dev < assigned_us_.size() ? assigned_us_[dev] : 0.0;
  }

 private:
  std::vector<double> assigned_us_;  // indexed by canonical device index
};

// ---------- The selector factory ----------

/// Which replica-selection policy a simulation / CLI run uses.
enum class SelectorKind {
  kRoundRobin,    ///< cursor++ mod k
  kRandom,        ///< uniformly random copy
  kLeastLoaded,   ///< argmin backlog (full information)
  kPowerOfTwo,    ///< best of two random probes
  kWaterFilling,  ///< argmin of self-assigned work + mean service
};

/// Every kind, in declaration order -- the one list consumers (tests, CLI
/// usage text, error messages) iterate so a new policy cannot be forgotten.
[[nodiscard]] std::span<const SelectorKind> all_selector_kinds() noexcept;

/// Comma-separated list of every accepted spelling, canonical names first
/// with aliases in parentheses, for usage text and unknown-name errors.
[[nodiscard]] std::string replica_selector_names();

/// Canonical spelling of `kind`.
[[nodiscard]] std::string_view to_string(SelectorKind kind) noexcept;

/// Builds a fresh selector from a policy name: "round-robin" (alias "rr"),
/// "random", "least-loaded" ("ll"), "power-of-two" ("p2c"),
/// "water-filling" ("wf").  kInvalidArgument for unknown names; the message
/// enumerates every accepted spelling, like the strategy factory.
[[nodiscard]] Result<std::unique_ptr<ReplicaSelector>>
try_make_replica_selector(std::string_view name);

/// The selector for an enum kind (always succeeds; used by sweep loops).
[[nodiscard]] std::unique_ptr<ReplicaSelector> make_replica_selector(
    SelectorKind kind);

}  // namespace rds
