#include "src/placement/batch_placer.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/metrics/scoped_timer.hpp"
#include "src/util/gauge_guard.hpp"

namespace rds {

BatchPlacer::BatchPlacer(unsigned threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads - 1);
  for (unsigned t = 1; t < threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

BatchPlacer& BatchPlacer::shared() {
  // Intentionally leaked (see the declaration): destroying it would join
  // its workers inside static destructors.
  static BatchPlacer* instance = new BatchPlacer();
  return *instance;
}

BatchPlacer::~BatchPlacer() {
  {
    const MutexLock lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void BatchPlacer::run_chunks(Batch& batch) {
  for (;;) {
    const std::size_t c = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= batch.chunk_count) return;
    const std::size_t begin = c * batch.chunk;
    const std::size_t end = std::min(batch.count, begin + batch.chunk);
    batch.strategy->place_many(
        {batch.addresses + begin, end - begin},
        {batch.out + begin * batch.k, (end - begin) * batch.k});
    if (batch.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        batch.chunk_count) {
      const MutexLock lock(mu_);
      done_cv_.notify_all();
    }
  }
}

void BatchPlacer::worker_loop() {
  std::uint64_t seen = 0;
  MutexLock lock(mu_);
  for (;;) {
    // Explicit wait loop (not a predicate lambda) so the thread-safety
    // analysis sees the guarded reads under the held lock.
    while (!stopping_ && !(batch_ != nullptr && generation_ != seen)) {
      work_cv_.wait(lock);
    }
    if (stopping_) return;
    seen = generation_;
    const std::shared_ptr<Batch> batch = batch_;
    lock.unlock();
    run_chunks(*batch);
    lock.lock();
  }
}

void BatchPlacer::place(const ReplicationStrategy& strategy,
                        std::span<const std::uint64_t> addresses,
                        std::span<DeviceId> out) {
  const unsigned k = strategy.replication();
  if (out.size() != addresses.size() * k) {
    throw std::invalid_argument(
        "BatchPlacer::place: output size != addresses * k");
  }
  if (addresses.empty()) return;

  const MutexLock turn(turn_);
  const metrics::GaugeGuard inflight_guard(*inflight_);
  metrics::ScopedTimer batch_span(*batch_latency_ns_);

  try {
    if (workers_.empty()) {
      strategy.place_many(addresses, out);
    } else {
      auto batch = std::make_shared<Batch>();
      batch->strategy = &strategy;
      batch->addresses = addresses.data();
      batch->out = out.data();
      batch->count = addresses.size();
      batch->k = k;
      // Chunks well past the thread count so a straggler core cannot stall
      // the batch, but large enough that the fetch_add is noise.
      batch->chunk = std::max<std::size_t>(
          256, addresses.size() / (std::size_t{thread_count()} * 8));
      batch->chunk_count =
          (batch->count + batch->chunk - 1) / batch->chunk;
      {
        const MutexLock lock(mu_);
        batch_ = batch;
        ++generation_;
      }
      work_cv_.notify_all();
      run_chunks(*batch);
      {
        MutexLock lock(mu_);
        while (batch->done.load(std::memory_order_acquire) !=
               batch->chunk_count) {
          done_cv_.wait(lock);
        }
        batch_.reset();
      }
    }
  } catch (...) {
    // A throwing strategy must not record a bogus latency sample for a
    // batch that never completed; the gauge guard handles the in-flight
    // count on unwind.
    batch_span.cancel();
    throw;
  }

  // One metrics flush per batch, not per placement.
  batch_span.stop();
  placements_total_->inc(addresses.size());
  batches_total_->inc();
}

}  // namespace rds
