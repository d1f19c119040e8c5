#include "perfbench/workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "perfbench/inputs.hpp"
#include "perfbench/trace.hpp"
#include "src/journal/journal.hpp"
#include "src/journal/recovery.hpp"
#include "src/placement/strategy_factory.hpp"
#include "src/storage/file_store.hpp"
#include "src/storage/virtual_disk.hpp"

namespace perfbench {
namespace {

using rds::Bytes;
using rds::ClusterConfig;
using rds::Device;
using rds::DeviceId;
using rds::VirtualDisk;

constexpr std::size_t kBlockSize = 4096;
/// Time slices of the timed phase (reconfig: rounds).  Each throughput and
/// latency figure comes from the quietest tenth of its per-window values
/// (quietest_tenth), so contention from other tenants of the host, which
/// comes in bursts of a few seconds, does not move it.
constexpr unsigned kWindows = 40;
/// Set-ups per run; setup_s is their median, so one slow set-up cannot move
/// it.
constexpr unsigned kSetups = 5;
constexpr rds::PlacementKind kPlacement = rds::PlacementKind::kRedundantShare;

/// Keeps the replica placements from being optimized away.
volatile DeviceId g_replica_sink = 0;

[[nodiscard]] double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Nearest-rank quantile.
template <typename T>
[[nodiscard]] double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = std::min(
      v.size() - 1, static_cast<std::size_t>(std::max(
                        1.0, std::ceil(q * static_cast<double>(v.size())))) -
                        1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return static_cast<double>(v[rank]);
}

/// The first decile of per-window values, or the ninth where higher is
/// better.  Contention only ever adds time, so the quietest windows show the
/// program's own cost; the median moves with the share of disturbed windows.
[[nodiscard]] double quietest_tenth(std::vector<double> v,
                                    bool higher_is_better) {
  return quantile(std::move(v), higher_is_better ? 0.9 : 0.1);
}

/// Latency samples of one operation class, grouped by window.
class Latencies {
 public:
  void add(std::uint64_t ns, std::size_t window) {
    if (window >= by_window_.size()) by_window_.resize(window + 1);
    by_window_[window].push_back(ns);
    ++count_;
  }
  [[nodiscard]] std::size_t count() const noexcept { return count_; }

  /// Quantile q of each non-empty window, in µs.
  [[nodiscard]] std::vector<double> per_window_us(double q) const {
    std::vector<double> out;
    for (const auto& w : by_window_) {
      if (!w.empty()) out.push_back(quantile(w, q) / 1e3);
    }
    return out;
  }
  /// Quantile q over every sample, in ns.
  [[nodiscard]] double quantile_ns(double q) const {
    std::vector<std::uint64_t> all;
    for (const auto& w : by_window_) all.insert(all.end(), w.begin(), w.end());
    return quantile(std::move(all), q);
  }

 private:
  std::vector<std::vector<std::uint64_t>> by_window_;
  std::size_t count_ = 0;
};

[[nodiscard]] double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

[[nodiscard]] std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

/// Ends the timed phase after `seconds`, or after `ops` operations in a
/// fixed-work run.
class Loop {
 public:
  explicit Loop(const Options& o)
      : fixed_(o.ops), seconds_(o.seconds), start_(now_ns()) {}

  [[nodiscard]] bool more() const {
    return fixed_ > 0 ? done_ < fixed_ : elapsed_s() < seconds_;
  }
  void done() { ++done_; }
  [[nodiscard]] unsigned window() const {
    const double frac = fixed_ > 0 ? static_cast<double>(done_) /
                                         static_cast<double>(fixed_)
                                   : elapsed_s() / seconds_;
    return std::min(kWindows - 1, static_cast<unsigned>(frac * kWindows));
  }

 private:
  [[nodiscard]] double elapsed_s() const {
    return static_cast<double>(now_ns() - start_) * 1e-9;
  }
  std::uint64_t fixed_;
  double seconds_;
  std::uint64_t start_;
  std::uint64_t done_ = 0;
};

/// State one run shares across its phases: the tracer and registry probe of
/// a traced run, latency samples, the check tally and the set-up times.
class Bench {
 public:
  explicit Bench(const Options& o) : opt(o) {}

  /// Calls `call` as one measured operation and returns its result; `ns`
  /// receives the call's duration.  A traced run accumulates the registry
  /// deltas of every operation and records an operation span (with the
  /// decorators' spans as children) for every other one.
  template <typename F>
  auto op(const char* name, bool traced, std::uint64_t& ns, F&& call) {
    if (!opt.trace) {
      const std::uint64_t t0 = now_ns();
      auto result = call();
      ns = now_ns() - t0;
      account(ns);
      return result;
    }
    const Counts before = probe.read();
    const std::uint32_t span = traced ? tracer.begin_op(name) : 0;
    const std::uint64_t t0 = span ? tracer.spans()[span - 1].start_ns
                                  : now_ns();
    auto result = call();
    std::uint64_t t1 = 0;
    if (span) {
      tracer.end(span);
      t1 = tracer.spans()[span - 1].end_ns;
    } else {
      t1 = now_ns();
    }
    ns = t1 - t0;
    account(ns);
    const Counts delta = probe.read() - before;
    if (span) tracer.attribute(span, delta.place_ns);
    counts += delta;
    return result;
  }

  /// Whether the next I/O operation is traced: every other one in a traced
  /// run, so traced and untraced samples interleave.
  [[nodiscard]] bool next_traced() {
    return opt.trace && (io_index_++ % 2 == 0);
  }

  void record_read(std::uint64_t ns, bool traced) {
    reads[traced ? 1 : 0].add(ns, window);
  }
  void record_write(std::uint64_t ns, bool traced) {
    writes[traced ? 1 : 0].add(ns, window);
  }
  /// Operations per second of measured call time, one value per window.
  [[nodiscard]] std::vector<double> ops_per_s_by_window() const {
    std::vector<double> out;
    for (std::size_t w = 0; w < window_ops.size(); ++w) {
      if (window_busy_ns[w] > 0) {
        out.push_back(static_cast<double>(window_ops[w]) /
                      (static_cast<double>(window_busy_ns[w]) * 1e-9));
      }
    }
    return out;
  }
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void digest(std::uint64_t v) { sequence = mix64(sequence ^ v); }

  const Options& opt;
  Tracer tracer;
  RegistryProbe probe;
  Counts counts;              ///< registry deltas over timed operations
  /// Window the next operations fall in: a time slice of the timed phase
  /// (reconfig: a round).
  std::size_t window = 0;
  std::vector<std::uint64_t> window_ops;      ///< measured operations
  std::vector<std::uint64_t> window_busy_ns;  ///< their summed duration
  Latencies reads[2];         ///< [untraced, traced]
  Latencies writes[2];
  std::vector<double> setup_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t sequence = 0;

 private:
  void account(std::uint64_t ns) {
    if (window >= window_ops.size()) {
      window_ops.resize(window + 1);
      window_busy_ns.resize(window + 1);
    }
    ++window_ops[window];
    window_busy_ns[window] += ns;
  }

  std::uint64_t io_index_ = 0;
};

/// Zeroes the decorator's call counts so they cover the timed phase only.
void reset_calls(TracedScheme* scheme) {
  if (scheme == nullptr) return;
  scheme->encode_calls = scheme->decode_calls = scheme->reconstruct_calls = 0;
}

std::shared_ptr<rds::RedundancyScheme> maybe_traced(
    Bench& s, std::shared_ptr<rds::RedundancyScheme> scheme,
    TracedScheme** traced) {
  *traced = nullptr;
  if (!s.opt.trace) return scheme;
  auto wrapped = std::make_shared<TracedScheme>(std::move(scheme), s.tracer);
  *traced = wrapped.get();
  return wrapped;
}

/// Devices in three capacity tiers; `counts[t]` devices of `caps[t]`
/// fragments each, uids from 1.
ClusterConfig tiered(const std::size_t (&counts)[3],
                     const std::uint64_t (&caps)[3]) {
  std::vector<Device> devices;
  DeviceId uid = 1;
  for (int t = 0; t < 3; ++t) {
    for (std::size_t i = 0; i < counts[t]; ++i, ++uid) {
      devices.push_back({uid, caps[t], {}});
    }
  }
  return ClusterConfig(std::move(devices));
}

/// Inputs of the per-layer metrics; workloads leave what they do not
/// exercise at zero.
struct Layers {
  std::uint64_t io_ops = 0;
  std::uint64_t edits = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t encode_calls = 0;  ///< over the timed phase (take_calls)
  std::uint64_t decode_calls = 0;
  std::uint64_t reconstruct_calls = 0;
  double fragments_per_block = 0.0;
  double construct_ms = 0.0;  ///< sums over `replica_samples`
  double replace_ms = 0.0;
  std::uint64_t replica_samples = 0;
  std::uint64_t moved_add = 0, optimal_add = 0;
  std::uint64_t moved_resize = 0, optimal_resize = 0;
  std::uint64_t user_bytes_put = 0;
  double recovery_s = 0.0;
  std::uint64_t replay_ns = 0;
};

/// Copies the decorator's call counts; called as the timed phase ends, before
/// any untimed check reads through the scheme.
void take_calls(Layers& l, const TracedScheme* scheme) {
  if (scheme == nullptr) return;
  l.encode_calls = scheme->encode_calls;
  l.decode_calls = scheme->decode_calls;
  l.reconstruct_calls = scheme->reconstruct_calls;
}

[[nodiscard]] double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Child spans a traced block operation must hold on every workload.
const RequiredChildren kBlockOpChildren = {{"read", {"codec.decode"}},
                                           {"write", {"codec.encode"}}};

/// Per-layer metrics.  Counts from a timed phase are divided by the
/// operations that make them, so they do not grow with throughput.
void add_per_layer(Report& r, Bench& s, const Layers& l,
                   const RequiredChildren& required) {
  const TraceAnalysis t = analyze(s.tracer.spans(), required);
  if (t.ops_missing_children > 0) r.checks_passed = false;
  const std::string dump = s.opt.out_dir + "/spans-" + s.opt.workload + ".csv";
  if (!s.tracer.write_csv(dump)) r.checks_passed = false;
  r.notes.push_back("trace: " + std::to_string(s.tracer.spans().size()) +
                    " spans written to " + dump + "; " +
                    std::to_string(t.ops_missing_children) +
                    " operation spans lack a required child span");
  // Where each operation class spends its time, as shares of its spans.
  for (const auto& [name, o] : t.ops) {
    const auto share = [&](std::uint64_t ns) {
      return fmt(" %.1f%%", 100.0 * ratio(static_cast<double>(ns),
                                         static_cast<double>(o.total_ns)));
    };
    std::string line = "share of " + name + ": self" + share(o.self_ns) +
                       ", placement" + share(o.attributed_ns);
    for (const auto& [child, ns] : o.child_ns) line += ", " + child + share(ns);
    r.notes.push_back(line);
  }
  const Counts& c = s.counts;
  const auto self_per_op = [&](const char* name, double unit_ns) {
    const SpanSummary o = t.op(name);
    return ratio(static_cast<double>(o.self_ns), static_cast<double>(o.ops)) /
           unit_ns;
  };
  const auto child_mean = [&](const char* name, double unit_ns) {
    const ChildSummary ch = t.child(name);
    return ratio(static_cast<double>(ch.total_ns),
                 static_cast<double>(ch.count)) /
           unit_ns;
  };
  // trace.overhead_frac: traced against untraced operations of the same
  // run, p50 by class, weighted by each class's sample count.
  double traced_ns = 0.0, plain_ns = 0.0;
  for (const Latencies* cls : {s.reads, s.writes}) {
    if (cls[0].count() == 0 || cls[1].count() == 0) continue;
    const auto n = static_cast<double>(cls[0].count() + cls[1].count());
    traced_ns += n * cls[1].quantile_ns(0.5);
    plain_ns += n * cls[0].quantile_ns(0.5);
  }
  const double all_ops = static_cast<double>(l.io_ops + l.edits + l.rebuilds);
  const std::uint64_t reads = s.reads[0].count() + s.reads[1].count();
  const std::uint64_t writes = s.writes[0].count() + s.writes[1].count();
  const double replay_s = static_cast<double>(l.replay_ns) * 1e-9;
  r.per_layer = {
      {"storage.read_self_us", "us", self_per_op("read", 1e3), t.op("read").ops},
      {"storage.write_self_us", "us", self_per_op("write", 1e3),
       t.op("write").ops},
      {"storage.edit_self_ms", "ms", self_per_op("edit", 1e6), t.op("edit").ops},
      {"storage.rebuild_self_ms", "ms", self_per_op("rebuild", 1e6),
       t.op("rebuild").ops},
      {"storage.fragments_per_block", "count", l.fragments_per_block, 1},
      {"storage.degraded_reads", "count",
       static_cast<double>(c.degraded_reads), 1},
      {"storage.checksum_failures", "count",
       static_cast<double>(c.checksum_failures), 1},
      {"codec.encode_us", "us", child_mean("codec.encode", 1e3),
       t.child("codec.encode").count},
      {"codec.decode_us", "us", child_mean("codec.decode", 1e3),
       t.child("codec.decode").count},
      {"codec.reconstruct_us", "us", child_mean("codec.reconstruct", 1e3),
       t.child("codec.reconstruct").count},
      {"codec.encode_calls", "calls/op",
       ratio(static_cast<double>(l.encode_calls), static_cast<double>(writes)),
       writes},
      {"codec.decode_calls", "calls/op",
       ratio(static_cast<double>(l.decode_calls), static_cast<double>(reads)),
       reads},
      {"codec.reconstruct_calls", "calls/op",
       ratio(static_cast<double>(l.reconstruct_calls),
             static_cast<double>(l.rebuilds)),
       l.rebuilds},
      {"placement.place_ns", "ns",
       ratio(static_cast<double>(c.place_ns),
             static_cast<double>(c.place_timed)),
       c.place_timed},
      {"placement.places_per_op", "count",
       ratio(static_cast<double>(c.placements), all_ops),
       l.io_ops + l.edits + l.rebuilds},
      {"placement.chain_columns_per_place", "count",
       ratio(static_cast<double>(c.chain_columns),
             static_cast<double>(c.placements)),
       c.placements},
      {"placement.construct_ms", "ms",
       ratio(l.construct_ms, static_cast<double>(l.replica_samples)),
       l.replica_samples},
      {"placement.replace_ms", "ms",
       ratio(l.replace_ms, static_cast<double>(l.replica_samples)),
       l.replica_samples},
      {"placement.move_ratio_add", "ratio",
       ratio(static_cast<double>(l.moved_add),
             static_cast<double>(l.optimal_add)),
       l.edits / 2},
      {"placement.move_ratio_resize", "ratio",
       ratio(static_cast<double>(l.moved_resize),
             static_cast<double>(l.optimal_resize)),
       l.edits / 2},
      {"placement.moved_per_edit", "count",
       ratio(static_cast<double>(l.moved_add + l.moved_resize),
             static_cast<double>(l.edits)),
       l.edits},
      {"migration.step_ms", "ms",
       ratio(static_cast<double>(c.step_ns), static_cast<double>(c.steps)) /
           1e6,
       c.steps},
      {"migration.rebuilt_per_rebuild", "count",
       ratio(static_cast<double>(c.rebuilt), static_cast<double>(l.rebuilds)),
       l.rebuilds},
      {"journal.append_us", "us", child_mean("journal.append", 1e3),
       t.child("journal.append").count},
      {"journal.records", "records/op",
       ratio(static_cast<double>(c.journal_records),
             static_cast<double>(writes)),
       writes},
      {"journal.bytes_per_user_byte", "ratio",
       ratio(static_cast<double>(c.journal_bytes),
             static_cast<double>(l.user_bytes_put)),
       1},
      {"journal.replay_s", "s", replay_s, l.recovery_s > 0 ? 1u : 0u},
      {"journal.checkpoint_load_s", "s",
       l.recovery_s > 0 ? l.recovery_s - replay_s : 0.0,
       l.recovery_s > 0 ? 1u : 0u},
      {"trace.overhead_frac", "ratio",
       plain_ns > 0 ? traced_ns / plain_ns - 1.0 : 0.0,
       s.reads[1].count() + s.writes[1].count()},
  };
}

/// Prints `values` on one note line.
void note_values(Report& r, const std::string& label,
                 const std::vector<double>& values) {
  std::string line = label + ":";
  for (const double v : values) line += fmt(" %.4g", v);
  r.notes.push_back(line);
}

/// The metrics every workload reports.  Throughput and latency come from the
/// quietest tenth of their per-window values (printed too, so the spread
/// inside a run is visible); setup_s is the median of the set-ups.
void add_end_to_end(Report& r, const Bench& s) {
  const Latencies& rd = s.reads[0];
  const Latencies& wr = s.writes[0];
  std::uint64_t ops = 0;
  for (const std::uint64_t n : s.window_ops) ops += n;
  note_values(r, "setup_s per set-up", s.setup_s);
  const std::vector<double> tput = s.ops_per_s_by_window();
  note_values(r, "ops_per_s per window", tput);
  r.end_to_end = {{"setup_s", "s", median(s.setup_s), s.setup_s.size()},
                  {"ops_per_s", "1/s", quietest_tenth(tput, true), ops}};
  for (const auto& [label, lat] :
       {std::pair<std::string, const Latencies*>{"read", &rd}, {"write", &wr}}) {
    for (const auto& [suffix, q] :
         {std::pair<std::string, double>{"_p50_us", 0.5}, {"_p90_us", 0.9}}) {
      const std::vector<double> by_window = lat->per_window_us(q);
      note_values(r, label + suffix + " per window", by_window);
      r.end_to_end.push_back(
          {label + suffix, "us", quietest_tenth(by_window, false),
           lat->count()});
    }
  }
  r.end_to_end.push_back({"peak_rss_mb", "MiB", peak_rss_mb(), 1});
}

void finish(Report& r, const Bench& s) {
  r.attempted = s.attempted;
  r.failed = s.failed;
  r.sequence_digest = s.sequence;
}

[[nodiscard]] double fragments_per_block(const VirtualDisk& disk) {
  std::uint64_t stored = 0;
  for (const Device& d : disk.config().devices()) stored += disk.used_on(d.uid);
  return ratio(static_cast<double>(stored),
               static_cast<double>(disk.block_count()));
}

/// The block workloads' model of the disk: what each block must read back
/// as, and how many times it was overwritten.
struct Blocks {
  explicit Blocks(std::size_t n) : expect(n), version(n, 0) {}
  std::vector<std::uint64_t> expect;
  std::vector<std::uint64_t> version;
  Bytes buf = Bytes(kBlockSize);
};

/// Builds a mirror(k=3) disk over `config` and writes every block, once per
/// set-up (each replacing the last); setup_s counts library calls only.
std::unique_ptr<VirtualDisk> set_up_blocks(Bench& s,
                                           const ClusterConfig& config,
                                           Blocks& m,
                                           TracedScheme** traced) {
  std::unique_ptr<VirtualDisk> disk;
  for (unsigned rep = 0; rep < kSetups; ++rep) {
    disk.reset();  // release the previous set-up before building the next
    const std::uint64_t t0 = now_ns();
    auto scheme =
        maybe_traced(s, std::make_shared<rds::MirroringScheme>(3), traced);
    disk = std::make_unique<VirtualDisk>(config, std::move(scheme), kPlacement);
    std::uint64_t busy = now_ns() - t0;
    for (std::uint64_t b = 0; b < m.expect.size(); ++b) {
      fill_payload(m.buf, payload_key(s.opt.seed, b, 0));
      m.expect[b] = fingerprint(m.buf);
      const std::uint64_t w0 = now_ns();
      const rds::Result<void> w = disk->try_write(b, m.buf);
      busy += now_ns() - w0;
      s.check(w.ok());
    }
    s.setup_s.push_back(static_cast<double>(busy) * 1e-9);
  }
  reset_calls(*traced);
  return disk;
}

/// One block operation of the closed loop: a read checked against the last
/// acknowledged write, or an overwrite with the block's next version.
void block_op(Bench& s, VirtualDisk& disk, Blocks& m, std::uint32_t b,
              bool is_read) {
  s.digest((static_cast<std::uint64_t>(b) << 1) | (is_read ? 1 : 0));
  const bool traced = s.next_traced();
  std::uint64_t ns = 0;
  if (is_read) {
    const rds::Result<Bytes> got =
        s.op("read", traced, ns, [&] { return disk.try_read(b); });
    s.record_read(ns, traced);
    s.check(got.ok() && fingerprint(got.value()) == m.expect[b]);
  } else {
    fill_payload(m.buf, payload_key(s.opt.seed, b, ++m.version[b]));
    const rds::Result<void> w =
        s.op("write", traced, ns, [&] { return disk.try_write(b, m.buf); });
    s.record_write(ns, traced);
    s.check(w.ok());
    if (w.ok()) m.expect[b] = fingerprint(m.buf);
  }
}

/// Untimed end-of-run check: scrub() must come back clean.
void check_scrub(Bench& s, VirtualDisk& disk, std::size_t blocks) {
  const VirtualDisk::ScrubReport scrub = disk.scrub();
  s.check(scrub.clean() && scrub.blocks_checked == blocks);
}

}  // namespace

// ---- disk-mirror -----------------------------------------------------------

Report run_disk_mirror(const Options& opt) {
  constexpr std::size_t kBlocks = 32768;
  Bench s(opt);
  Report r;
  Blocks m(kBlocks);
  TracedScheme* traced_scheme = nullptr;
  const std::unique_ptr<VirtualDisk> disk = set_up_blocks(
      s, tiered({6, 6, 4}, {6144, 10240, 16384}), m, &traced_scheme);

  Rng rng(opt.seed ^ 0x6d6972726f72ULL);
  const Zipf zipf(kBlocks, 0.9, opt.seed ^ 0x7a697066ULL);
  Loop loop(opt);
  std::uint64_t ops = 0;
  while (loop.more()) {
    s.window = loop.window();
    const std::uint32_t b = zipf(rng);
    block_op(s, *disk, m, b, rng.uniform() < 0.7);
    ++ops;
    loop.done();
  }

  Layers l;
  l.io_ops = ops;
  take_calls(l, traced_scheme);
  check_scrub(s, *disk, kBlocks);
  if (opt.trace) {
    l.fragments_per_block = fragments_per_block(*disk);
    add_per_layer(r, s, l, kBlockOpChildren);
  } else {
    add_end_to_end(r, s);
  }
  finish(r, s);
  return r;
}

// ---- files-erasure ---------------------------------------------------------

Report run_files_erasure(const Options& opt) {
  constexpr std::size_t kFiles = 1000;
  constexpr std::size_t kMinSize = 4 * 1024;
  constexpr std::size_t kMaxSize = 128 * 1024;
  /// Rewrites of every file between the last checkpoint and the restart.
  constexpr std::uint64_t kTailRounds = 3;
  namespace fs = std::filesystem;
  Bench s(opt);
  Report r;
  const ClusterConfig config = tiered({4, 4, 4}, {4096, 8192, 16384});
  const fs::path dir(opt.out_dir);
  const fs::path setup_wal = dir / "files-erasure.setup.wal";
  const fs::path ckpt_path = dir / "files-erasure.ckpt";
  const fs::path wal_path = dir / "files-erasure.wal";
  const fs::path tail_path = dir / "files-erasure.tail.wal";

  std::vector<std::string> names(kFiles);
  for (std::size_t f = 0; f < kFiles; ++f) names[f] = "file-" + std::to_string(f);
  std::vector<std::uint64_t> expect(kFiles), sizes(kFiles), version(kFiles, 0);
  for (std::size_t f = 0; f < kFiles; ++f) {
    sizes[f] = log_uniform_size(f, 0, kMinSize, kMaxSize);
  }
  Bytes buf;
  const auto make_content = [&](std::size_t f) {
    buf.resize(sizes[f]);
    fill_payload(buf, payload_key(opt.seed, f, version[f]));
    expect[f] = fingerprint(buf);
  };

  std::unique_ptr<rds::FileStore> store;
  // FileStore::put reports failure by throwing.
  const auto put = [&](std::size_t f) {
    try {
      store->put(names[f], buf);
      return true;
    } catch (const std::exception&) {
      return false;
    }
  };
  std::shared_ptr<rds::journal::JournalWriter> writer;
  std::ofstream wal;
  TracedScheme* traced_scheme = nullptr;
  for (unsigned rep = 0; rep < kSetups; ++rep) {
    store.reset();
    writer.reset();
    if (wal.is_open()) wal.close();
    std::uint64_t busy = 0;
    std::uint64_t t0 = now_ns();
    auto scheme = maybe_traced(s, std::make_shared<rds::ReedSolomonScheme>(4, 2),
                               &traced_scheme);
    store = std::make_unique<rds::FileStore>(
        VirtualDisk(config, std::move(scheme), kPlacement), kBlockSize);
    std::ofstream setup_log(setup_wal, std::ios::binary | std::ios::trunc);
    writer = std::make_shared<rds::journal::JournalWriter>(setup_log);
    std::shared_ptr<rds::journal::JournalSink> sink = writer;
    if (opt.trace) sink = std::make_shared<TracedJournal>(writer, s.tracer);
    store->set_journal(sink);
    busy += now_ns() - t0;
    for (std::size_t f = 0; f < kFiles; ++f) {
      make_content(f);
      t0 = now_ns();
      const bool ok = put(f);
      busy += now_ns() - t0;
      s.check(ok);
    }
    // Checkpoint, then rotate the journal onto the file the timed phase
    // appends to (the set-up journal is dead after the rotation).
    t0 = now_ns();
    std::ofstream ckpt(ckpt_path, std::ios::binary | std::ios::trunc);
    wal.open(wal_path, std::ios::binary | std::ios::trunc);
    rds::journal::checkpoint(*store, *writer, ckpt, wal);
    ckpt.close();
    busy += now_ns() - t0;
    s.check(ckpt.good() && wal.good());
    s.setup_s.push_back(static_cast<double>(busy) * 1e-9);
  }
  fs::remove(setup_wal);
  reset_calls(traced_scheme);

  Rng rng(opt.seed ^ 0x66696c6573ULL);
  // Popularity ranks map to files the same way under every seed, so the
  // sizes of the hot files are seed-independent too (see log_uniform_size).
  const Zipf zipf(kFiles, 0.9, 0);
  Loop loop(opt);
  std::uint64_t ops = 0;
  std::uint64_t user_bytes = 0;
  while (loop.more()) {
    s.window = loop.window();
    const std::uint32_t f = zipf(rng);
    const bool is_get = rng.uniform() < 0.7;
    s.digest((static_cast<std::uint64_t>(f) << 1) | (is_get ? 1 : 0));
    const bool traced = s.next_traced();
    std::uint64_t ns = 0;
    if (is_get) {
      const rds::Result<std::optional<Bytes>> got =
          s.op("read", traced, ns, [&] { return store->try_get(names[f]); });
      s.record_read(ns, traced);
      s.check(got.ok() && got.value().has_value() &&
              got.value()->size() == sizes[f] &&
              fingerprint(*got.value()) == expect[f]);
    } else {
      ++version[f];
      sizes[f] = log_uniform_size(f, version[f], kMinSize, kMaxSize);
      make_content(f);
      const bool ok = s.op("write", traced, ns, [&] { return put(f); });
      s.record_write(ns, traced);
      s.check(ok);
      user_bytes += buf.size();
    }
    ++ops;
    loop.done();
  }

  Layers l;
  l.io_ops = ops;
  l.user_bytes_put = user_bytes;
  l.fragments_per_block = fragments_per_block(store->disk());
  take_calls(l, traced_scheme);

  // A fixed journal for the restart to replay: checkpoint the store as the
  // timed phase left it, rotating the journal onto a fresh file, then
  // rewrite every file kTailRounds times with sizes that depend on neither
  // the seed nor how many puts the timed phase managed.  Replaying the
  // timed phase's own journal would make a faster put path look like a
  // slower recovery.
  std::ofstream tail(tail_path, std::ios::binary | std::ios::trunc);
  {
    std::ofstream ckpt(ckpt_path, std::ios::binary | std::ios::trunc);
    rds::journal::checkpoint(*store, *writer, ckpt, tail);
    ckpt.close();
    s.check(ckpt.good() && tail.good());
  }
  wal.close();
  fs::remove(wal_path);
  for (std::uint64_t round = 1; round <= kTailRounds; ++round) {
    for (std::size_t f = 0; f < kFiles; ++f) {
      ++version[f];
      sizes[f] = log_uniform_size(f, round, kMinSize, kMaxSize);
      make_content(f);
      s.check(put(f));
    }
  }

  // Restart: keep only what the journal handed to the operating system
  // (JournalWriter flushes after every record), drop the store, recover
  // from the checkpoint and that journal, and check every file.
  const auto flushed = fs::file_size(tail_path);
  store.reset();
  writer.reset();
  tail.close();
  fs::resize_file(tail_path, flushed);
  const Counts before = s.probe.read();
  const std::uint64_t t0 = now_ns();
  std::ifstream ckpt_in(ckpt_path, std::ios::binary);
  std::ifstream tail_in(tail_path, std::ios::binary);
  auto recovered = rds::journal::Recovery::recover_file_store(ckpt_in, &tail_in);
  const double recovery_s = static_cast<double>(now_ns() - t0) * 1e-9;
  const std::uint64_t replay_ns = (s.probe.read() - before).replay_ns;
  s.check(recovered.ok() && !recovered.value().report.tail_corrupt);
  std::uint64_t replayed = 0;
  if (recovered.ok()) {
    replayed = recovered.value().report.records_applied;
    rds::FileStore& twin = recovered.value().store;
    s.check(twin.file_count() == kFiles);
    for (std::size_t f = 0; f < kFiles; ++f) {
      const rds::Result<std::optional<Bytes>> got = twin.try_get(names[f]);
      s.check(got.ok() && got.value().has_value() &&
              got.value()->size() == sizes[f] &&
              fingerprint(*got.value()) == expect[f]);
    }
  }
  ckpt_in.close();
  tail_in.close();
  fs::remove(ckpt_path);
  fs::remove(tail_path);

  r.notes.push_back(
      "journal policy: JournalWriter flushes the file after every record; "
      "no fsync hook is installed, so a put is durable once its record "
      "reaches the operating system");
  r.notes.push_back("restart: checkpoint after the timed phase, then " +
                    std::to_string(kTailRounds * kFiles) +
                    " puts; recovery replayed " + std::to_string(replayed) +
                    " records, " + std::to_string(flushed) + " journal bytes");
  if (opt.trace) {
    l.recovery_s = recovery_s;
    l.replay_ns = replay_ns;
    add_per_layer(r, s, l,
                  {{"read", {"codec.decode"}},
                   {"write", {"codec.encode", "journal.append"}}});
  } else {
    add_end_to_end(r, s);
    r.workload_only.push_back({"recovery_s", "s", recovery_s, 1});
  }
  finish(r, s);
  return r;
}

// ---- reconfig --------------------------------------------------------------

Report run_reconfig(const Options& opt) {
  constexpr std::size_t kBlocks = 16384;
  constexpr unsigned kIoPerRound = 300;
  constexpr std::uint64_t kTiers[3] = {1536, 2304, 3072};
  Bench s(opt);
  Report r;
  Blocks m(kBlocks);
  TracedScheme* traced_scheme = nullptr;
  const std::unique_ptr<VirtualDisk> disk =
      set_up_blocks(s, tiered({24, 24, 16}, kTiers), m, &traced_scheme);

  Rng rng(opt.seed ^ 0x7265636f6eULL);
  std::vector<double> edit_ms;
  std::vector<double> rebuild_ms;
  Layers l;
  // One planned edit, measured.  A traced run also counts the fragments it
  // moved against the optimum (the growth of every device that gained) and
  // times the benchmark's own replica of its placement work: constructing
  // the new strategy, then placing every block under the old and the new.
  const auto edit = [&](auto&& apply, std::uint64_t& moved,
                        std::uint64_t& optimal) {
    ClusterConfig before;
    std::unordered_map<DeviceId, std::uint64_t> used_before;
    const std::uint64_t moved_before = disk->stats().fragments_moved;
    if (opt.trace) {
      before = disk->config();
      for (const Device& d : before.devices()) {
        used_before[d.uid] = disk->used_on(d.uid);
      }
    }
    std::uint64_t ns = 0;
    s.check(s.op("edit", opt.trace, ns, apply).ok());
    edit_ms.push_back(static_cast<double>(ns) / 1e6);
    ++l.edits;
    if (!opt.trace) return;

    const ClusterConfig after = disk->config();
    moved += disk->stats().fragments_moved - moved_before;
    for (const Device& d : after.devices()) {
      const std::uint64_t now = disk->used_on(d.uid);
      if (now > used_before[d.uid]) optimal += now - used_before[d.uid];
    }
    std::uint64_t t0 = now_ns();
    const auto next = rds::make_replication_strategy(kPlacement, after, 3);
    l.construct_ms += static_cast<double>(now_ns() - t0) / 1e6;
    const auto prev = rds::make_replication_strategy(kPlacement, before, 3);
    DeviceId a[3], b[3];
    DeviceId sink = 0;
    t0 = now_ns();
    for (std::uint64_t blk = 0; blk < kBlocks; ++blk) {
      prev->place(blk, a);
      next->place(blk, b);
      sink ^= a[0] ^ b[2];
    }
    l.replace_ms += static_cast<double>(now_ns() - t0) / 1e6;
    ++l.replica_samples;
    g_replica_sink = sink;
  };

  Loop loop(opt);
  std::size_t round = 0;
  DeviceId next_uid = 1000;
  while (loop.more()) {
    s.window = round++;
    const DeviceId added = next_uid++;
    const std::uint64_t cap = kTiers[rng.below(3)];
    const auto devices = disk->config().devices();
    const Device target = devices[rng.below(devices.size())];
    std::uint64_t resized = kTiers[rng.below(3)];
    while (resized == target.capacity) resized = kTiers[rng.below(3)];
    s.digest(mix64(added ^ (cap << 20)) ^ (target.uid << 8) ^ resized);

    edit([&] { return disk->try_add_device({added, cap, "new"}); },
         l.moved_add, l.optimal_add);
    edit([&] { return disk->try_resize_device(target.uid, resized); },
         l.moved_resize, l.optimal_resize);

    for (unsigned i = 0; i < kIoPerRound; ++i) {
      const auto b = static_cast<std::uint32_t>(rng.below(kBlocks));
      block_op(s, *disk, m, b, rng.uniform() < 0.7);
      ++l.io_ops;
    }

    // Time from the failure of the added device to full redundancy.
    std::uint64_t ns = 0;
    const std::uint64_t rebuilt = s.op("rebuild", opt.trace, ns, [&] {
      disk->fail_device(added);
      return disk->rebuild();
    });
    s.check(rebuilt > 0);
    rebuild_ms.push_back(static_cast<double>(ns) / 1e6);
    ++l.rebuilds;
    loop.done();
  }

  take_calls(l, traced_scheme);
  // Every block must read back as its last acknowledged version after all
  // the migrations and rebuilds.
  check_scrub(s, *disk, kBlocks);
  for (std::uint64_t b = 0; b < kBlocks; ++b) {
    const rds::Result<Bytes> got = disk->try_read(b);
    s.check(got.ok() && fingerprint(got.value()) == m.expect[b]);
  }
  if (opt.trace) {
    l.fragments_per_block = fragments_per_block(*disk);
    RequiredChildren required = kBlockOpChildren;
    required["rebuild"] = {"codec.reconstruct"};
    add_per_layer(r, s, l, required);
  } else {
    add_end_to_end(r, s);
    r.workload_only.push_back(
        {"edit_p50_ms", "ms", median(edit_ms), edit_ms.size()});
    r.workload_only.push_back(
        {"rebuild_p50_ms", "ms", median(rebuild_ms), rebuild_ms.size()});
  }
  finish(r, s);
  return r;
}

}  // namespace perfbench
