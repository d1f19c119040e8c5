// Ball-address and request workload generators.
//
// Every request-level simulation draws from one WorkloadGenerator: a
// (possibly time-varying) popularity distribution over `universe` balls
// plus an arrival-rate modulation.  Generators are constructed through
// try_make_workload() from a spec string ("zipf:0.9",
// "flash-crowd:0.9,0.5", ...) exactly like placement strategies go through
// make_replication_strategy() -- adding a generator means one enum value
// and one case in the factory, and every consumer (CLI, benches, tests)
// picks it up, with unknown names rejected by an error that enumerates
// every accepted spelling.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/result.hpp"
#include "src/util/random.hpp"

namespace rds {

/// A request workload: which ball a request arriving at `now_us` asks for,
/// and how the arrival rate is modulated over time.  Implementations are
/// immutable and cheap to share; all sampling state lives in the caller's
/// RNG, so one generator can feed any number of independent traces.
class WorkloadGenerator {
 public:
  virtual ~WorkloadGenerator() = default;

  /// Ball index in [0, universe()) for a request arriving at `now_us`.
  [[nodiscard]] virtual std::uint64_t sample(Xoshiro256& rng,
                                             double now_us) const = 0;

  /// Arrival-rate multiplier at `now_us` (1.0 = the trace's base rate).
  /// Time-varying workloads (diurnal, flash crowds) modulate here; the
  /// trace builder thins a Poisson process against it.
  [[nodiscard]] virtual double rate_factor(double /*now_us*/) const noexcept {
    return 1.0;
  }

  /// Upper bound of rate_factor() over all times (the thinning majorant).
  [[nodiscard]] virtual double max_rate_factor() const noexcept { return 1.0; }

  [[nodiscard]] virtual std::uint64_t universe() const noexcept = 0;

  /// Canonical spec-string kind (for reports and error messages).
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
};

/// Addresses base, base+1, ..., base+m-1 (virtual block numbers of a volume;
/// the hash layer decorrelates them, so sequential addresses are the normal
/// case, as in the paper's simulations).
[[nodiscard]] std::vector<std::uint64_t> sequential_addresses(
    std::uint64_t count, std::uint64_t base = 0);

/// `count` distinct pseudo-random 64-bit addresses.
[[nodiscard]] std::vector<std::uint64_t> random_addresses(std::uint64_t count,
                                                          Xoshiro256& rng);

/// Uniform requests over `universe` balls -- the no-skew baseline.
class UniformGenerator final : public WorkloadGenerator {
 public:
  explicit UniformGenerator(std::uint64_t universe);

  [[nodiscard]] std::uint64_t sample(Xoshiro256& rng,
                                     double now_us) const override;
  [[nodiscard]] std::uint64_t universe() const noexcept override {
    return n_;
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "uniform";
  }

 private:
  std::uint64_t n_;
};

/// Zipf-distributed request sampler over `universe` items with skew `s`
/// (s = 0 is uniform; s ~ 0.99 models hot-spot storage traffic).  Uses the
/// rejection-inversion method of Hörmann & Derflinger -- O(1) per sample,
/// no O(universe) table.  The three normalization constants are computed
/// once at construction and cached for the generator's lifetime.
class ZipfGenerator final : public WorkloadGenerator {
 public:
  /// The one constructor: kInvalidArgument for universe == 0 or a skew
  /// that is negative or not finite.
  [[nodiscard]] static Result<ZipfGenerator> try_make(std::uint64_t universe,
                                                      double skew);

  /// Item index in [0, universe), item 0 hottest.
  [[nodiscard]] std::uint64_t sample(Xoshiro256& rng) const;

  [[nodiscard]] std::uint64_t sample(Xoshiro256& rng,
                                     double /*now_us*/) const override {
    return sample(rng);
  }

  [[nodiscard]] std::uint64_t universe() const noexcept override {
    return n_;
  }
  [[nodiscard]] double skew() const noexcept { return s_; }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "zipf";
  }

 private:
  struct Validated {};  // tag: parameters already checked by try_make
  ZipfGenerator(Validated, std::uint64_t universe, double skew) noexcept;

  [[nodiscard]] double h(double x) const;
  [[nodiscard]] double h_integral(double x) const;
  [[nodiscard]] double h_integral_inverse(double x) const;

  std::uint64_t n_;
  double s_;
  // Cached normalization constants (rejection-inversion sampling bounds).
  double h_integral_x1_ = 0.0;
  double h_integral_num_elements_ = 0.0;
  double h_x1_ = 0.0;
};

/// Zipf base traffic with periodic flash crowds: during the first
/// `duty` fraction of every `period_us` window, `crowd_fraction` of the
/// requests all hit ONE ball (a different one each window -- yesterday's
/// viral object is not today's), and the arrival rate surges by `surge`.
/// Outside the crowd the workload is plain Zipf(skew).
class FlashCrowdGenerator final : public WorkloadGenerator {
 public:
  FlashCrowdGenerator(std::uint64_t universe, double skew,
                      double crowd_fraction = 0.5, double period_us = 2e6,
                      double duty = 0.25, double surge = 2.0);

  [[nodiscard]] std::uint64_t sample(Xoshiro256& rng,
                                     double now_us) const override;
  [[nodiscard]] double rate_factor(double now_us) const noexcept override;
  [[nodiscard]] double max_rate_factor() const noexcept override {
    return surge_;
  }
  [[nodiscard]] std::uint64_t universe() const noexcept override {
    return base_.universe();
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "flash-crowd";
  }

  /// The crowd object of the window containing `now_us` (deterministic, so
  /// tests can predict it).
  [[nodiscard]] std::uint64_t crowd_ball(double now_us) const noexcept;
  [[nodiscard]] bool in_crowd(double now_us) const noexcept;

 private:
  ZipfGenerator base_;
  double crowd_fraction_;
  double period_us_;
  double duty_;
  double surge_;
};

/// Zipf popularity under a sinusoidal day curve: the arrival rate swings
/// between (1 - amplitude) and (1 + amplitude) of the base rate with period
/// `period_us`.  What is hot does not change -- only how hard it is hit.
class DiurnalGenerator final : public WorkloadGenerator {
 public:
  DiurnalGenerator(std::uint64_t universe, double skew,
                   double amplitude = 0.8, double period_us = 10e6);

  [[nodiscard]] std::uint64_t sample(Xoshiro256& rng,
                                     double now_us) const override;
  [[nodiscard]] double rate_factor(double now_us) const noexcept override;
  [[nodiscard]] double max_rate_factor() const noexcept override {
    return 1.0 + amplitude_;
  }
  [[nodiscard]] std::uint64_t universe() const noexcept override {
    return base_.universe();
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "diurnal";
  }

 private:
  ZipfGenerator base_;
  double amplitude_;
  double period_us_;
};

/// Zipf popularity whose hot SET moves: every `period_us` the identity
/// mapping rank -> ball rotates to a fresh (deterministic) offset, so a
/// selector or cache tuned to the last epoch's hot balls is wrong in the
/// next one.  Within one epoch the distribution is exactly Zipf(skew) over
/// the rotated universe.
class HotspotShiftGenerator final : public WorkloadGenerator {
 public:
  HotspotShiftGenerator(std::uint64_t universe, double skew,
                        double period_us = 1e6);

  [[nodiscard]] std::uint64_t sample(Xoshiro256& rng,
                                     double now_us) const override;
  [[nodiscard]] std::uint64_t universe() const noexcept override {
    return base_.universe();
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "hotspot-shift";
  }

  /// The rotation offset in effect at `now_us` (deterministic, for tests).
  [[nodiscard]] std::uint64_t offset_at(double now_us) const noexcept;

 private:
  ZipfGenerator base_;
  double period_us_;
};

// ---------- The workload factory ----------

/// Which workload generator backs a simulation / CLI run.
enum class WorkloadKind {
  kUniform,       ///< uniform over the universe
  kZipf,          ///< zipf:SKEW
  kFlashCrowd,    ///< flash-crowd:SKEW[,FRAC[,PERIOD_US]]
  kDiurnal,       ///< diurnal:SKEW[,AMPLITUDE[,PERIOD_US]]
  kHotspotShift,  ///< hotspot-shift:SKEW[,PERIOD_US]
};

/// Every kind, in declaration order -- the one list consumers (tests, CLI
/// usage text, error messages) iterate so a new kind cannot be forgotten.
[[nodiscard]] std::span<const WorkloadKind> all_workload_kinds() noexcept;

/// Comma-separated list of every accepted spelling with its parameter
/// shape, canonical names first, for usage text and unknown-name errors.
[[nodiscard]] std::string workload_kind_names();

/// Canonical spelling of `kind` (the spec-string prefix).
[[nodiscard]] std::string_view to_string(WorkloadKind kind) noexcept;

/// Builds a generator over `universe` balls from a spec string
/// `kind[:param[,param...]]` -- e.g. "uniform", "zipf:0.9",
/// "flash-crowd:0.9,0.5", "diurnal:0.9,0.8", "hotspot-shift:0.9".
/// Omitted parameters take the defaults documented in
/// docs/load_balancing.md.  kInvalidArgument for an unknown kind (the
/// message enumerates every accepted spelling, like the strategy factory),
/// malformed or out-of-range parameters, or universe == 0.
[[nodiscard]] Result<std::unique_ptr<WorkloadGenerator>> try_make_workload(
    std::string_view spec, std::uint64_t universe);

}  // namespace rds
