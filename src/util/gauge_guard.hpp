// RAII balance for metrics::Gauge: add(n) on construction, sub(n) on every
// exit path -- normal return, early return, or exception unwind.
//
// The guard is the only friend of Gauge's private add()/sub(), so the
// gauge-leak defect class (an in-flight gauge stuck high after a throwing
// placement or migration step) cannot be written (docs/static_analysis.md).
#pragma once

#include <cstdint>

#include "src/metrics/gauge.hpp"

namespace rds::metrics {

class GaugeGuard {
 public:
  explicit GaugeGuard(Gauge& gauge, std::int64_t n = 1) noexcept
      : gauge_(&gauge), n_(n) {
    gauge_->add(n_);
  }
  ~GaugeGuard() { gauge_->sub(n_); }

  GaugeGuard(const GaugeGuard&) = delete;
  GaugeGuard& operator=(const GaugeGuard&) = delete;
  GaugeGuard(GaugeGuard&&) = delete;
  GaugeGuard& operator=(GaugeGuard&&) = delete;

 private:
  Gauge* gauge_;
  std::int64_t n_;
};

}  // namespace rds::metrics
