// Lock-free log-bucketed histogram for latency-like values.
//
// Bucketing is HdrHistogram-style: values below 32 get exact unit buckets;
// above, each power-of-two octave is split into 32 linear sub-buckets, so
// the relative quantile error is bounded by 1/32 (~3%) over the full uint64
// range at a fixed 1920 buckets (~15 KB).  bucket_of() is two bit
// operations -- no std::log on the record path -- and every slot is a
// relaxed atomic, so record() is lock-free and safe from any thread.
//
// Unit convention: record() takes an integer; time series use nanoseconds
// (suffix the metric name `_ns`), sizes use bytes (`_bytes`).
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rds::metrics {

/// One exported bucket: `count` samples with value <= `le` (and greater
/// than the previous bucket's `le`).  Counts are per-bucket, not
/// cumulative.
struct HistogramBucket {
  std::uint64_t le = 0;  ///< inclusive upper bound of the bucket
  std::uint64_t count = 0;
};

/// Point-in-time copy of a histogram (what the registry exports).
struct HistogramData {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< 0 when empty
  std::uint64_t max = 0;
  std::vector<HistogramBucket> buckets;  ///< non-empty buckets, ascending le

  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Value at quantile q in [0, 1] (bucket upper bound); 0 when empty.
  [[nodiscard]] double quantile(double q) const noexcept {
    if (count == 0) return 0.0;
    const double target = q * static_cast<double>(count);
    std::uint64_t seen = 0;
    for (const HistogramBucket& b : buckets) {
      seen += b.count;
      if (static_cast<double>(seen) >= target) {
        return static_cast<double>(b.le);
      }
    }
    return static_cast<double>(max);
  }
};

class LatencyHistogram {
 public:
  static constexpr unsigned kSubBits = 5;  ///< 32 sub-buckets per octave
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBits;
  static constexpr std::size_t kBucketCount =
      kSubBuckets + (64 - kSubBits - 1) * kSubBuckets;

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void record(std::uint64_t value) noexcept {
    buckets_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    // Peak/floor tracking; the CAS loops exit on the first load except under
    // a genuinely new extreme.  Relaxed on success AND failure (spelled out
    // for rds_analyze): extremes are standalone scalars, nothing is published
    // through them, so no ordering stronger than atomicity is needed.
    std::uint64_t cur = min_.load(std::memory_order_relaxed);
    while (value < cur &&
           !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
    }
    cur = max_.load(std::memory_order_relaxed);
    while (value > cur &&
           !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t min() const noexcept {
    const std::uint64_t m = min_.load(std::memory_order_relaxed);
    return m == kEmptyMin ? 0 : m;
  }
  [[nodiscard]] std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const noexcept {
    const std::uint64_t c = count();
    return c == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(c);
  }

  /// Convenience live quantile (goes through snapshot()).
  [[nodiscard]] double quantile(double q) const { return snapshot().quantile(q); }

  /// Copies the non-empty buckets and summary stats.  Concurrent record()
  /// calls may tear count vs buckets by a sample or two -- fine for
  /// monitoring, which is the contract of the whole subsystem.
  [[nodiscard]] HistogramData snapshot() const {
    HistogramData d;
    d.count = count();
    d.sum = sum();
    d.min = min();
    d.max = max();
    for (std::size_t b = 0; b < kBucketCount; ++b) {
      const std::uint64_t c = buckets_[b].load(std::memory_order_relaxed);
      if (c > 0) d.buckets.push_back({upper_bound(b), c});
    }
    return d;
  }

  /// Zeroes everything.  Like Counter::reset(), not atomic with respect to
  /// concurrent record(); callers quiesce writers first.
  void reset() noexcept {
    for (std::size_t b = 0; b < kBucketCount; ++b) {
      buckets_[b].store(0, std::memory_order_relaxed);
    }
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(kEmptyMin, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

  [[nodiscard]] static std::size_t bucket_of(std::uint64_t value) noexcept {
    if (value < kSubBuckets) return static_cast<std::size_t>(value);
    const unsigned octave = static_cast<unsigned>(std::bit_width(value)) - 1;
    const unsigned shift = octave - kSubBits;
    const std::size_t sub =
        static_cast<std::size_t>(value >> shift) & (kSubBuckets - 1);
    return kSubBuckets + (octave - kSubBits) * kSubBuckets + sub;
  }

  /// Inclusive upper bound of bucket `index` (the exported `le`).
  [[nodiscard]] static std::uint64_t upper_bound(std::size_t index) noexcept {
    if (index < kSubBuckets) return index;
    const std::size_t rel = index - kSubBuckets;
    const unsigned shift = static_cast<unsigned>(rel / kSubBuckets);
    const std::uint64_t sub = rel % kSubBuckets;
    const std::uint64_t lower = (kSubBuckets + sub) << shift;
    return lower + ((std::uint64_t{1} << shift) - 1);
  }

 private:
  static constexpr std::uint64_t kEmptyMin = ~std::uint64_t{0};

  std::atomic<std::uint64_t> buckets_[kBucketCount]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{kEmptyMin};
  std::atomic<std::uint64_t> max_{0};
};

}  // namespace rds::metrics
