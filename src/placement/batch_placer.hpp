// BatchPlacer: fans a span of block addresses across a persistent worker
// pool and fills a contiguous DeviceId output row-major (address i's copies
// at out[i*k .. i*k+k)).
//
// Strategies are immutable, so the only coordination a batch needs is chunk
// hand-out (one relaxed fetch_add per chunk) -- the workers never touch
// shared mutable state.  Metrics are flushed once per batch (latency
// histogram, placement counter), not once per placement, which is the point:
// a placement is tens of nanoseconds, a clock read is not.
//
// place() is safe from any number of threads: callers take turns on an
// internal mutex, so one batch runs at a time per BatchPlacer.  Different
// BatchPlacer instances are independent.  The calling thread participates
// in the batch, so `threads == 1` means "no extra threads" and runs
// entirely inline.  shared() is the process-wide instance VirtualDisk's
// reshapes place on.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "src/metrics/registry.hpp"
#include "src/placement/strategy.hpp"
#include "src/util/mutex.hpp"
#include "src/util/thread_annotations.hpp"

namespace rds {

class BatchPlacer {
 public:
  /// `threads` including the caller; 0 picks hardware_concurrency().
  explicit BatchPlacer(unsigned threads = 0);
  ~BatchPlacer();

  BatchPlacer(const BatchPlacer&) = delete;
  BatchPlacer& operator=(const BatchPlacer&) = delete;

  /// The process-wide placer at hardware_concurrency() threads.  Built on
  /// first use and never destroyed, like metrics::Registry::global(): its
  /// workers start once per process, and no caller ever joins them.
  [[nodiscard]] static BatchPlacer& shared();

  /// Worker threads plus the participating caller.
  [[nodiscard]] unsigned thread_count() const noexcept {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Places every address of the batch under `strategy`.  `out.size()`
  /// must equal `addresses.size() * strategy.replication()` (throws
  /// std::invalid_argument otherwise).  Identical output to a sequential
  /// place_many(); blocks until the batch is complete, and until batches
  /// other threads started on this placer are done.
  void place(const ReplicationStrategy& strategy,
             std::span<const std::uint64_t> addresses,
             std::span<DeviceId> out) RDS_EXCLUDES(turn_, mu_);

 private:
  struct Batch {
    const ReplicationStrategy* strategy = nullptr;
    const std::uint64_t* addresses = nullptr;
    DeviceId* out = nullptr;
    std::size_t count = 0;
    unsigned k = 0;
    std::size_t chunk = 0;        ///< addresses per hand-out unit
    std::size_t chunk_count = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
  };

  void worker_loop() RDS_EXCLUDES(mu_);
  void run_chunks(Batch& batch) RDS_EXCLUDES(mu_);

  Mutex turn_ RDS_ACQUIRED_BEFORE(mu_);  ///< held by the caller of a batch
  Mutex mu_;
  CondVar work_cv_;                   ///< workers wait for a new batch
  CondVar done_cv_;                   ///< caller waits for completion
  /// Non-null while a batch is running.
  std::shared_ptr<Batch> batch_ RDS_GUARDED_BY(mu_);
  std::uint64_t generation_ RDS_GUARDED_BY(mu_) = 0;
  bool stopping_ RDS_GUARDED_BY(mu_) = false;
  // rds_analyze: allow(guarded-member) -- filled by the constructor and
  // joined by the destructor, never touched while a batch can run.
  std::vector<std::thread> workers_;

  // Registry-owned instruments (docs/metrics.md), resolved once at
  // construction and internally thread-safe: `const`.
  metrics::Counter* const placements_total_ =
      &metrics::Registry::global().counter("rds_batch_placements_total");
  metrics::Counter* const batches_total_ =
      &metrics::Registry::global().counter("rds_batch_batches_total");
  metrics::Gauge* const inflight_ =
      &metrics::Registry::global().gauge("rds_batch_inflight");
  metrics::LatencyHistogram* const batch_latency_ns_ =
      &metrics::Registry::global().histogram(
          "rds_batch_placement_latency_ns");
};

}  // namespace rds
