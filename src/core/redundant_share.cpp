#include "src/core/redundant_share.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "src/core/capacity.hpp"
#include "src/metrics/registry.hpp"
#include "src/placement/rendezvous.hpp"
#include "src/util/hash.hpp"

namespace rds {
namespace detail {

RsTables RsTables::build(const ClusterConfig& config, unsigned k,
                         bool apply_optimal_weights, bool apply_adjustment) {
  if (k == 0) throw std::invalid_argument("RedundantShare: k == 0");
  if (config.size() < k) {
    throw std::invalid_argument("RedundantShare: fewer devices than k");
  }
  std::vector<DeviceId> uids;
  uids.reserve(config.size());
  for (const Device& d : config.devices()) uids.push_back(d.uid);

  std::vector<double> caps = config.capacities();  // canonical: descending
  if (apply_optimal_weights) caps = optimal_weights(caps, k);
  return build_from_weights(std::move(uids), std::move(caps), k,
                            apply_adjustment);
}

RsTables RsTables::build_from_weights(std::vector<DeviceId> uids,
                                      std::vector<double> weights_desc,
                                      unsigned k, bool apply_adjustment) {
  if (k == 0) throw std::invalid_argument("RedundantShare: k == 0");
  if (uids.size() != weights_desc.size()) {
    throw std::invalid_argument("RedundantShare: uids/weights size mismatch");
  }
  if (weights_desc.size() < k) {
    throw std::invalid_argument("RedundantShare: fewer devices than k");
  }
  RsTables t;
  t.k = k;
  t.uids = std::move(uids);
  t.caps = std::move(weights_desc);

  const std::size_t n = t.caps.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(t.caps[i]) || t.caps[i] < 0.0) {
      throw std::invalid_argument(
          "RedundantShare: weight at canonical index " + std::to_string(i) +
          " is negative or not finite");
    }
  }
  t.suffix.assign(n + 1, 0.0);
  for (std::size_t i = n; i-- > 0;) t.suffix[i] = t.suffix[i + 1] + t.caps[i];

  // Defaults: f(m, j) = min(1, m * b_j / B_j).  Every suffix B_j (j < n)
  // must be strictly positive or the division poisons the whole chain with
  // NaN -- a zero-capacity tail can only arrive here through a config whose
  // validation was bypassed (or a future zero-weight device class), so fail
  // loudly instead of placing garbage.
  t.select_prob.assign(k, std::vector<double>(n, 0.0));
  for (std::size_t j = 0; j < n; ++j) {
    if (!(t.suffix[j] > 0.0)) {
      throw std::invalid_argument(
          "RedundantShare: capacity suffix B_j is zero at canonical index " +
          std::to_string(j) + " (zero-capacity tail device?)");
    }
    for (unsigned m = 1; m <= k; ++m) {
      t.select_prob[m - 1][j] =
          std::min(1.0, static_cast<double>(m) * t.caps[j] / t.suffix[j]);
    }
  }

  // Moment matching: walk the state occupancies pi(m, j) and, wherever the
  // clamp at 1 starves a column of its fair marginal k * b_j / B, raise the
  // selection probabilities of the still-unclamped (lower-m) states of that
  // column.  Highest m first: those are the paths that skipped the most
  // capacity, matching the paper's b-tilde, which compensates via the round
  // that just passed the oversized bin.
  std::vector<double> pi(k + 1, 0.0);  // pi[m] at the current column
  pi[k] = 1.0;
  const double total = t.suffix[0];
  for (std::size_t j = 0; j < n; ++j) {
    const double target = static_cast<double>(k) * t.caps[j] / total;
    if (apply_adjustment) {
      double achieved = 0.0;
      for (unsigned m = 1; m <= k; ++m) {
        achieved += pi[m] * t.select_prob[m - 1][j];
      }
      double deficit = target - achieved;
      for (unsigned m = k; m >= 1 && deficit > 1e-15; --m) {
        const double headroom = pi[m] * (1.0 - t.select_prob[m - 1][j]);
        if (headroom <= 0.0) continue;
        const double take = std::min(deficit, headroom);
        // In exact arithmetic take / pi[m] <= 1 - f, but with a tiny pi[m]
        // the quotient can round past the remaining headroom and push the
        // probability above 1 -- clamp so f stays a probability.
        double& f = t.select_prob[m - 1][j];
        f = std::min(1.0, f + take / pi[m]);
        assert(f >= 0.0 && f <= 1.0);
        deficit -= take;
      }
      if (deficit > 1e-12) {
        // Unreachable after optimal_weights (see tests); recorded so a
        // caller can notice rather than silently trusting fairness.
        t.fairness_residual = std::max(t.fairness_residual, deficit);
      }
    }
    // Advance the occupancies to column j + 1.
    std::vector<double> next(k + 1, 0.0);
    next[0] = pi[0];
    for (unsigned m = 1; m <= k; ++m) {
      const double f = t.select_prob[m - 1][j];
      next[m] += pi[m] * (1.0 - f);
      next[m - 1] += pi[m] * f;
    }
    pi = std::move(next);
  }
  return t;
}

}  // namespace detail

RedundantShare::RedundantShare(const ClusterConfig& config, unsigned k)
    : RedundantShare(config, k, Options{}) {}

RedundantShare::RedundantShare(const ClusterConfig& config, unsigned k,
                               Options opt)
    : tables_(detail::RsTables::build(config, k, opt.apply_optimal_weights,
                                      opt.apply_adjustment)) {
  metrics::Registry& reg = metrics::Registry::global();
  const metrics::Labels labels{{"strategy", "redundant-share"}};
  placements_total_ = &reg.counter("rds_placements_total", labels);
  chain_columns_total_ = &reg.counter("rds_placement_chain_columns_total",
                                      labels);
  last_copy_candidates_total_ =
      &reg.counter("rds_placement_last_copy_candidates_total", labels);
}

void RedundantShare::place(std::uint64_t address,
                           std::span<DeviceId> out) const {
  check_out_span(out, tables_.k);
  place_many({&address, 1}, out);
}

void RedundantShare::place_many(std::span<const std::uint64_t> addresses,
                                std::span<DeviceId> out) const {
  const unsigned k = tables_.k;
  if (out.size() != addresses.size() * k) {
    throw std::invalid_argument(
        "RedundantShare::place_many: output size != addresses * k");
  }
  // Tally locally and bump each shared counter once per call: on a
  // BatchPlacer's threads, per-placement increments contend on one line.
  std::uint64_t columns = 0;
  std::uint64_t candidates = 0;
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    place_one(addresses[i], out.subspan(i * k, k), columns, candidates);
  }
  placements_total_->inc(addresses.size());
  chain_columns_total_->inc(columns);
  last_copy_candidates_total_->inc(candidates);
}

void RedundantShare::place_one(std::uint64_t address, std::span<DeviceId> out,
                               std::uint64_t& columns,
                               std::uint64_t& candidates) const {
  const std::size_t n = tables_.size();
  unsigned m = tables_.k;
  std::size_t pos = 0;
  for (std::size_t j = 0; j < n; ++j) {
    if (m == 1) {
      // Last copy: the paper's `placeonecopy` -- a single fair weighted
      // draw over the remaining bins, realized as a rendezvous race on the
      // exact conditional distribution of the selection chain.  Same law
      // as walking the chain, but 1-competitive under device changes (one
      // independent experiment per bin instead of a positional cascade).
      // Without clamped columns the weights reduce to the plain adjusted
      // capacities, exactly the paper's placeonecopy input.
      out[pos] = place_last(address, j, candidates);
      columns += j;
      return;
    }
    const double f = tables_.f(m, j);
    if (f <= 0.0) continue;
    // unit_value < 1 always, so f >= 1 selects unconditionally.
    if (unit_value(address, tables_.uids[j], m) < f) {
      out[pos++] = tables_.uids[j];
      --m;
    }
  }
  // Unreachable: f(m, j) == 1 whenever only m bins remain.
  throw std::logic_error("RedundantShare: selection chain ran off the end");
}

DeviceId RedundantShare::place_last(std::uint64_t address, std::size_t start,
                                    std::uint64_t& candidates_raced) const {
  const std::size_t n = tables_.size();
  // Hot path: reuse one buffer per thread instead of allocating per ball.
  static thread_local std::vector<Candidate> candidates;
  candidates.clear();
  candidates.reserve(n - start);
  double survive = 1.0;
  for (std::size_t l = start; l < n; ++l) {
    const double f = tables_.f(1, l);
    // P(chain selects l | state (1, start)) = f(1, l) * prod (1 - f).
    candidates.push_back({tables_.uids[l], survive * f});
    if (f >= 1.0) break;  // absorbing: no mass beyond
    survive *= 1.0 - f;
  }
  candidates_raced += candidates.size();
  const DeviceId uid = rendezvous_draw(address, /*salt=*/1, candidates);
  if (uid == kNoDevice) {
    throw std::logic_error("RedundantShare: empty last-copy suffix");
  }
  return uid;
}

std::string RedundantShare::name() const {
  return tables_.k == 2 ? "redundant-share(LinMirror)" : "redundant-share";
}

}  // namespace rds
