// The traced run's instruments, all outside the program.
//
// Spans are recorded by the benchmark around its own calls into the
// library (operation spans) and by two decorators it passes in through the
// public interfaces: TracedScheme (RedundancyScheme: encode, decode,
// reconstruct) and TracedJournal (JournalSink: append).  Counts below
// VirtualDisk come from the metrics registry the program already exports,
// read at the same operation boundaries.  Nothing under src/ changes.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/journal/journal.hpp"
#include "src/metrics/registry.hpp"
#include "src/storage/redundancy_scheme.hpp"

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One recorded interval.  `parent` is the index + 1 of the enclosing span
/// (0 for an operation span); spans of one operation share `op`.
/// `attributed_ns` is set on operation spans only: placement time the
/// program's own registry timer measured inside the operation.
struct Span {
  std::uint32_t op = 0;
  std::uint32_t parent = 0;
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t attributed_ns = 0;
};

/// In-memory span recorder for one client thread.  Spans are opened only
/// while an operation is being traced (`active()`), so untraced operations
/// pay one branch per decorator call.
class Tracer {
 public:
  [[nodiscard]] bool active() const noexcept { return !stack_.empty(); }

  /// Opens an operation span and makes it the current parent.
  std::uint32_t begin_op(const char* name) {
    ++op_count_;
    return open(name);
  }
  /// Opens a child of the innermost open span (no-op when none is open).
  std::uint32_t begin(const char* name) {
    return active() ? open(name) : 0;
  }
  void end(std::uint32_t id) {
    if (id == 0) return;
    spans_[id - 1].end_ns = now_ns();
    stack_.pop_back();
  }
  void attribute(std::uint32_t id, std::uint64_t ns) {
    spans_[id - 1].attributed_ns = ns;
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Writes every span as CSV (op,id,parent,name,start_ns,end_ns,
  /// attributed_ns).  Returns false when the file cannot be written.
  bool write_csv(const std::string& path) const;

 private:
  std::uint32_t open(const char* name) {
    Span s;
    s.op = op_count_;
    s.parent = stack_.empty() ? 0 : stack_.back();
    s.name = name;
    s.start_ns = now_ns();
    spans_.push_back(s);
    stack_.push_back(static_cast<std::uint32_t>(spans_.size()));
    return stack_.back();
  }

  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  std::uint32_t op_count_ = 0;
};

/// Per-operation-class totals derived from the spans.  Self time is the
/// operation span minus its direct children and attributed placement time,
/// so self + children + placement account for every operation span.
struct SpanSummary {
  std::uint64_t ops = 0;
  std::uint64_t total_ns = 0;       ///< operation spans
  std::uint64_t self_ns = 0;        ///< operation span minus children/attributed
  std::uint64_t attributed_ns = 0;  ///< placement time from the registry
  std::map<std::string, std::uint64_t> child_ns;  ///< direct children by name
};

struct ChildSummary {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
};

/// Child spans every traced operation of a class must contain, by operation
/// name.  An operation without one means the library bypassed a decorator,
/// so the layer time it should have measured hides in self time.
using RequiredChildren = std::map<std::string, std::vector<std::string>>;

struct TraceAnalysis {
  std::map<std::string, SpanSummary> ops;
  std::map<std::string, ChildSummary> children;
  /// Operation spans lacking a child span their class requires.
  std::uint64_t ops_missing_children = 0;

  [[nodiscard]] SpanSummary op(const std::string& name) const;
  [[nodiscard]] ChildSummary child(const std::string& name) const;
};

[[nodiscard]] TraceAnalysis analyze(const std::vector<Span>& spans,
                                    const RequiredChildren& required);

/// RedundancyScheme decorator: times encode/decode/reconstruct as child
/// spans and counts every call.  name() passes through, so a checkpoint of
/// a disk built on it restores the real scheme.
class TracedScheme final : public rds::RedundancyScheme {
 public:
  TracedScheme(std::shared_ptr<rds::RedundancyScheme> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(&tracer) {}

  [[nodiscard]] unsigned fragment_count() const override {
    return inner_->fragment_count();
  }
  [[nodiscard]] unsigned min_fragments() const override {
    return inner_->min_fragments();
  }
  [[nodiscard]] std::vector<rds::Bytes> encode(
      std::span<const std::uint8_t> block) const override;
  [[nodiscard]] rds::Bytes decode(
      std::span<const std::optional<rds::Bytes>> fragments,
      std::size_t block_size) const override;
  [[nodiscard]] rds::Bytes reconstruct_fragment(
      std::span<const std::optional<rds::Bytes>> fragments,
      unsigned target) const override;
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  mutable std::uint64_t encode_calls = 0;
  mutable std::uint64_t decode_calls = 0;
  mutable std::uint64_t reconstruct_calls = 0;

 private:
  std::shared_ptr<rds::RedundancyScheme> inner_;
  Tracer* tracer_;
};

/// JournalSink decorator: times each append as a child span.
class TracedJournal final : public rds::journal::JournalSink {
 public:
  TracedJournal(std::shared_ptr<rds::journal::JournalSink> inner,
                Tracer& tracer)
      : inner_(std::move(inner)), tracer_(&tracer) {}

  [[nodiscard]] rds::Result<rds::journal::Lsn> append(
      const rds::journal::Record& record) override;

 private:
  std::shared_ptr<rds::journal::JournalSink> inner_;
  Tracer* tracer_;
};

/// Registry readings the traced run takes around each operation.
struct Counts {
  std::uint64_t placements = 0;
  std::uint64_t chain_columns = 0;
  std::uint64_t place_ns = 0;  ///< rds_placement_latency_ns sum
  std::uint64_t place_timed = 0;
  std::uint64_t step_ns = 0;  ///< rds_migration_step_latency_ns sum
  std::uint64_t steps = 0;
  std::uint64_t rebuilt = 0;
  std::uint64_t journal_records = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t replay_ns = 0;
  std::uint64_t degraded_reads = 0;
  std::uint64_t checksum_failures = 0;

  Counts& operator+=(const Counts& o);
  friend Counts operator-(const Counts& a, const Counts& b);
};

class RegistryProbe {
 public:
  RegistryProbe();
  [[nodiscard]] Counts read() const;

 private:
  rds::metrics::Counter* placements_;
  rds::metrics::Counter* chain_columns_;
  rds::metrics::LatencyHistogram* place_latency_;
  rds::metrics::LatencyHistogram* step_latency_;
  rds::metrics::Counter* rebuilt_;
  rds::metrics::Counter* journal_records_;
  rds::metrics::Counter* journal_bytes_;
  rds::metrics::LatencyHistogram* replay_latency_;
  rds::metrics::Counter* degraded_reads_;
  rds::metrics::Counter* checksum_failures_;
};

}  // namespace perfbench
