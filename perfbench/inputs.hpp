// Input generation owned by the benchmark.
//
// Keys, sizes and payloads come from this file and never from the library's
// own generators (src/sim/workload, src/util/random), so a change to the
// program cannot change what the benchmark feeds it.  Everything here is
// deterministic: a pure function of the seed and the item.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <span>
#include <vector>

namespace perfbench {

/// SplitMix64 finalizer: a bijective 64-bit mix.
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic stream for one purpose (operation choice, sizes, ...).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : state_(mix64(seed)) {}

  [[nodiscard]] std::uint64_t next() noexcept {
    state_ += 0x9e3779b97f4a7c15ULL;
    return mix64(state_);
  }
  /// Uniform in [0, 1).
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  /// Uniform in [0, n); n > 0.
  [[nodiscard]] std::uint64_t below(std::uint64_t n) noexcept {
    return next() % n;
  }

 private:
  std::uint64_t state_;
};

/// Zipf(s) over n items: rank r is drawn with probability proportional to
/// 1 / (r + 1)^s, and ranks map to item ids through a seeded permutation
/// so the hot items are spread over the whole id space.
class Zipf {
 public:
  Zipf(std::size_t n, double s, std::uint64_t seed) : cdf_(n), ids_(n) {
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
    std::iota(ids_.begin(), ids_.end(), std::uint32_t{0});
    Rng shuffle(seed);
    for (std::size_t i = n; i > 1; --i) {
      std::swap(ids_[i - 1], ids_[shuffle.below(i)]);
    }
  }

  [[nodiscard]] std::uint32_t operator()(Rng& rng) const {
    const double u = rng.uniform();
    const auto rank = static_cast<std::size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return ids_[std::min(rank, ids_.size() - 1)];
  }

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> ids_;
};

/// Size of version `version` of item `item`, log-uniform over [lo, hi]
/// bytes.  The quantile walks a golden-ratio sequence instead of a seeded
/// stream: successive versions of one item and neighbouring items spread
/// evenly over the range, and the sizes the popular items take do not
/// depend on the seed, which would otherwise move the mean operation cost
/// from seed to seed.
[[nodiscard]] inline std::size_t log_uniform_size(std::uint64_t item,
                                                  std::uint64_t version,
                                                  std::size_t lo,
                                                  std::size_t hi) {
  constexpr double kGolden = 0.6180339887498949;
  const double x = 0.5 + static_cast<double>(item * 7 + version) * kGolden;
  const double u = x - std::floor(x);
  const double v = static_cast<double>(lo) *
                   std::pow(static_cast<double>(hi) / static_cast<double>(lo), u);
  return std::clamp(static_cast<std::size_t>(v), lo, hi);
}

/// Fills `out` with the payload named by `key` (a different key gives
/// different bytes).
inline void fill_payload(std::span<std::uint8_t> out, std::uint64_t key) {
  std::uint64_t x = mix64(key) | 1;
  std::size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::memcpy(out.data() + i, &x, 8);
  }
  for (; i < out.size(); ++i) out[i] = static_cast<std::uint8_t>(x >> (i % 8));
}

/// 64-bit content fingerprint used to check read-backs against the last
/// acknowledged write (length is part of it).
[[nodiscard]] inline std::uint64_t fingerprint(
    std::span<const std::uint8_t> data) noexcept {
  std::uint64_t h = 0x243f6a8885a308d3ULL ^ data.size();
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, data.data() + i, 8);
    h = (h ^ w) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
  }
  for (; i < data.size(); ++i) h = (h ^ data[i]) * 0x100000001b3ULL;
  return mix64(h);
}

/// Key of version `version` of item `item` under run seed `seed`.
[[nodiscard]] inline std::uint64_t payload_key(std::uint64_t seed,
                                               std::uint64_t item,
                                               std::uint64_t version) noexcept {
  return mix64(seed ^ mix64(item ^ mix64(version)));
}

}  // namespace perfbench
