#include "src/sim/replica_selector.hpp"

#include <algorithm>

namespace rds {

namespace {

/// Healthy copies of `replicas` (0 when every copy is degraded -- the
/// caller then falls back to the full set).
[[nodiscard]] std::size_t count_available(
    std::span<const std::size_t> replicas, const QueueView& queues) {
  std::size_t n = 0;
  for (const std::size_t dev : replicas) {
    if (queues.available(dev)) ++n;
  }
  return n;
}

}  // namespace

std::size_t RoundRobinSelector::select(std::span<const std::size_t> replicas,
                                       const QueueView& queues,
                                       Xoshiro256& /*rng*/) {
  const std::size_t n = replicas.size();
  // Advance past degraded copies; after n probes the cursor is back in
  // phase and every copy is degraded, so rotate over the full set.
  for (std::size_t probe = 0; probe < n; ++probe) {
    const std::size_t pos = cursor_++ % n;
    if (queues.available(replicas[pos])) return pos;
  }
  return cursor_++ % n;
}

std::size_t RandomSelector::select(std::span<const std::size_t> replicas,
                                   const QueueView& queues,
                                   Xoshiro256& rng) {
  const std::size_t healthy = count_available(replicas, queues);
  if (healthy == 0) {
    return static_cast<std::size_t>(rng.next_below(replicas.size()));
  }
  std::size_t pick = static_cast<std::size_t>(rng.next_below(healthy));
  for (std::size_t c = 0; c < replicas.size(); ++c) {
    if (queues.available(replicas[c]) && pick-- == 0) return c;
  }
  return 0;  // unreachable
}

std::size_t LeastLoadedSelector::select(std::span<const std::size_t> replicas,
                                        const QueueView& queues,
                                        Xoshiro256& /*rng*/) {
  // Argmin backlog over healthy copies; all-degraded falls back to the
  // argmin over everything (ties break toward the lowest copy index).
  std::size_t best = replicas.size();
  double best_backlog = 0.0;
  std::size_t best_any = 0;
  double best_any_backlog = queues.backlog_us(replicas[0]);
  for (std::size_t c = 0; c < replicas.size(); ++c) {
    const double backlog = queues.backlog_us(replicas[c]);
    if (c > 0 && backlog < best_any_backlog) {
      best_any_backlog = backlog;
      best_any = c;
    }
    if (queues.available(replicas[c]) &&
        (best == replicas.size() || backlog < best_backlog)) {
      best_backlog = backlog;
      best = c;
    }
  }
  return best != replicas.size() ? best : best_any;
}

std::size_t PowerOfTwoSelector::select(std::span<const std::size_t> replicas,
                                       const QueueView& queues,
                                       Xoshiro256& rng) {
  // Probe two distinct copies drawn from the healthy subset; one healthy
  // copy is returned outright and zero falls back to plain p2c over the
  // full set.
  const std::size_t healthy = count_available(replicas, queues);
  const auto nth = [&](std::size_t want, bool healthy_only) {
    for (std::size_t c = 0; c < replicas.size(); ++c) {
      if (healthy_only && !queues.available(replicas[c])) continue;
      if (want-- == 0) return c;
    }
    return std::size_t{0};  // unreachable
  };
  const std::size_t pool = healthy >= 2 ? healthy : replicas.size();
  const bool healthy_only = healthy >= 2;
  if (healthy == 1) return nth(0, true);
  if (pool == 1) return 0;
  const std::size_t a = static_cast<std::size_t>(rng.next_below(pool));
  // Second probe distinct from the first: draw from the other pool-1 slots.
  std::size_t b = static_cast<std::size_t>(rng.next_below(pool - 1));
  if (b >= a) ++b;
  const std::size_t pos_a = nth(a, healthy_only);
  const std::size_t pos_b = nth(b, healthy_only);
  return queues.backlog_us(replicas[pos_b]) <
                 queues.backlog_us(replicas[pos_a])
             ? pos_b
             : pos_a;
}

std::size_t WaterFillingSelector::select(std::span<const std::size_t> replicas,
                                         const QueueView& queues,
                                         Xoshiro256& /*rng*/) {
  if (assigned_us_.size() < queues.device_count()) {
    assigned_us_.resize(queues.device_count(), 0.0);
  }
  const bool any_healthy = count_available(replicas, queues) > 0;
  std::size_t best = replicas.size();
  double best_level = 0.0;
  for (std::size_t c = 0; c < replicas.size(); ++c) {
    if (any_healthy && !queues.available(replicas[c])) continue;
    const double level =
        assigned_us_[replicas[c]] + queues.mean_service_us(replicas[c]);
    if (best == replicas.size() || level < best_level) {
      best_level = level;
      best = c;
    }
  }
  assigned_us_[replicas[best]] += queues.mean_service_us(replicas[best]);
  return best;
}

// ---------- The selector factory ----------

namespace {

/// Accepted spellings per kind (canonical first).
struct SelectorNames {
  SelectorKind kind;
  std::string_view canonical;
  std::string_view alias;  // empty when the kind has no short form
};

constexpr SelectorKind kAllSelectorKinds[] = {
    SelectorKind::kRoundRobin,  SelectorKind::kRandom,
    SelectorKind::kLeastLoaded, SelectorKind::kPowerOfTwo,
    SelectorKind::kWaterFilling,
};

constexpr SelectorNames kSelectorNames[] = {
    {SelectorKind::kRoundRobin, "round-robin", "rr"},
    {SelectorKind::kRandom, "random", ""},
    {SelectorKind::kLeastLoaded, "least-loaded", "ll"},
    {SelectorKind::kPowerOfTwo, "power-of-two", "p2c"},
    {SelectorKind::kWaterFilling, "water-filling", "wf"},
};

}  // namespace

std::span<const SelectorKind> all_selector_kinds() noexcept {
  return kAllSelectorKinds;
}

std::string replica_selector_names() {
  std::string out;
  for (const SelectorNames& entry : kSelectorNames) {
    if (!out.empty()) out += ", ";
    out += entry.canonical;
    if (!entry.alias.empty()) {
      out += " (";
      out += entry.alias;
      out += ")";
    }
  }
  return out;
}

std::string_view to_string(SelectorKind kind) noexcept {
  for (const SelectorNames& entry : kSelectorNames) {
    if (entry.kind == kind) return entry.canonical;
  }
  return "?";
}

std::unique_ptr<ReplicaSelector> make_replica_selector(SelectorKind kind) {
  switch (kind) {
    case SelectorKind::kRoundRobin:
      return std::make_unique<RoundRobinSelector>();
    case SelectorKind::kRandom:
      return std::make_unique<RandomSelector>();
    case SelectorKind::kLeastLoaded:
      return std::make_unique<LeastLoadedSelector>();
    case SelectorKind::kPowerOfTwo:
      return std::make_unique<PowerOfTwoSelector>();
    case SelectorKind::kWaterFilling:
      return std::make_unique<WaterFillingSelector>();
  }
  return std::make_unique<RandomSelector>();  // unreachable
}

Result<std::unique_ptr<ReplicaSelector>> try_make_replica_selector(
    std::string_view name) {
  for (const SelectorNames& entry : kSelectorNames) {
    if (name == entry.canonical ||
        (!entry.alias.empty() && name == entry.alias)) {
      return {make_replica_selector(entry.kind)};
    }
  }
  return {ErrorCode::kInvalidArgument,
          "try_make_replica_selector: unknown policy '" + std::string(name) +
              "'; valid: " + replica_selector_names()};
}

}  // namespace rds
