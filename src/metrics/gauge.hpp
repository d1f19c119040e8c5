// Lock-free instantaneous-value gauge (signed: levels can go up and down).
//
// Same discipline as Counter: relaxed atomics only, no locks anywhere, so
// set() is safe on hot paths.  set_max() keeps a running peak (queue depth
// high-water marks) via a CAS loop that normally exits on the first load.
//
// A level that goes up must come back down on every exit path, exceptions
// included, so add() and sub() are private: the only way to raise a gauge
// is a GaugeGuard (src/util/gauge_guard.hpp), whose destructor lowers it
// again.  An unpaired add() does not compile.
#pragma once

#include <atomic>
#include <cstdint>

namespace rds::metrics {

class GaugeGuard;

class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }

  /// Raises the gauge to `v` if it is currently below (peak tracking).
  void set_max(std::int64_t v) noexcept {
    // Both CAS orders relaxed, spelled out: a peak is a monotonic scalar
    // with no payload published alongside it, so no acquire/release pairing
    // exists to establish -- same discipline as every other op here.  The
    // failure order is named too so the intent (not an accidental seq_cst
    // default) is explicit and machine-checked by rds_analyze.
    std::int64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < v &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  friend class GaugeGuard;

  void add(std::int64_t n) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  void sub(std::int64_t n) noexcept {
    value_.fetch_sub(n, std::memory_order_relaxed);
  }

  std::atomic<std::int64_t> value_{0};
};

}  // namespace rds::metrics
