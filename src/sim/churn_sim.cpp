#include "src/sim/churn_sim.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "src/metrics/registry.hpp"
#include "src/util/checked_math.hpp"
#include "src/sim/scenario.hpp"
#include "src/storage/virtual_disk.hpp"
#include "src/util/gauge_guard.hpp"
#include "src/util/random.hpp"

namespace rds {

double churn_exponential(Xoshiro256& rng, double mean) {
  // Inverse transform; log1p(-u) is exact near u = 0 (same form as the
  // load simulator's service sampler).
  return -mean * std::log1p(-rng.next_unit());
}

namespace {

constexpr double kSecondsPerYear = 365.25 * 24.0 * 3600.0;

// ---------- Event queue ----------

enum class EvKind : std::uint8_t {
  kFail,    ///< a = device uid
  kRepair,  ///< a = index into the job table
  kChurn,   ///< a unused
};

struct Ev {
  double t = 0.0;
  std::uint64_t seq = 0;  ///< push order; ties resolve deterministically
  EvKind kind = EvKind::kFail;
  std::uint64_t a = 0;
};

struct EvLater {
  [[nodiscard]] bool operator()(const Ev& x, const Ev& y) const noexcept {
    if (x.t != y.t) return x.t > y.t;
    return x.seq > y.seq;
  }
};

// ---------- Repair jobs ----------

struct Job {
  bool bulk = false;       ///< churn data movement, not a copy repair
  std::uint64_t cid = 0;   ///< object * k + slot (repair jobs)
  std::uint64_t copies = 0;  ///< copies carried (bulk jobs, for the log)
};

// ---------- The simulator ----------

class ChurnSim {
 public:
  ChurnSim(const ChurnSimConfig& config, VirtualDisk* mirror)
      : cfg_(config), rng_(config.seed), mirror_(mirror) {}

  ChurnResult run();

 private:
  using Clock = std::priority_queue<Ev, std::vector<Ev>, EvLater>;

  void validate() const;
  void push(double t, EvKind kind, std::uint64_t a) {
    heap_.push(Ev{t, seq_++, kind, a});
  }

  [[nodiscard]] double failure_rate_draw() {
    // Log-uniform over [afr/spread, afr*spread]: geometric mean stays at
    // afr, so the fleet-wide rate is comparable across spreads.
    const double u = 2.0 * rng_.next_unit() - 1.0;
    return cfg_.afr / kSecondsPerYear * std::pow(cfg_.rate_spread, u);
  }

  void admit_device(DeviceId uid, double now) {
    rate_of_[uid] = failure_rate_draw();
    push(now + churn_exponential(rng_, 1.0 / rate_of_[uid]), EvKind::kFail,
         uid);
  }

  [[nodiscard]] double aggregate_mbps() const {
    const auto survivors =
        std::min<std::size_t>(topology_.size(), cfg_.repair_fanout);
    return cfg_.repair_mbps * static_cast<double>(survivors);
  }

  /// Appends one job to the FIFO repair server and returns its completion
  /// time.  Service time is fixed at enqueue (current fleet bandwidth).
  double enqueue_job(double now, Job job, double megabytes) {
    double service = megabytes / aggregate_mbps();
    if (cfg_.exponential_repair) {
      service = churn_exponential(rng_, service);
    }
    busy_tail_ = std::max(busy_tail_, now) + service;
    jobs_.push_back(job);
    push(busy_tail_, EvKind::kRepair, jobs_.size() - 1);
    ++queue_depth_;
    result_.peak_repair_queue =
        std::max(result_.peak_repair_queue, queue_depth_);
    queue_depth_gauge_->set(static_cast<std::int64_t>(queue_depth_));
    return busy_tail_;
  }

  void place_all(std::vector<DeviceId>& out) const {
    out.resize(cfg_.objects * cfg_.k);
    strategy_->place_many(addresses_, out);
  }

  void rebuild_reverse_index() {
    reverse_.clear();
    for (std::uint64_t cid = 0; cid < homes_.size(); ++cid) {
      reverse_[homes_[cid]].push_back(cid);
    }
  }

  void on_failure(double now, DeviceId uid);
  void on_repair_done(double now, std::uint64_t job_index);
  void on_churn(double now);
  void accumulate_expected_loss(double now, std::uint64_t obj, double eta);

  void check_mirror(const char* when) const;

  template <typename... Args>
  void log(const char* fmt, Args... args) {
    if (!cfg_.record_event_log) return;
    char line[160];
    std::snprintf(line, sizeof line, fmt, args...);
    result_.event_log += line;
  }

  ChurnSimConfig cfg_;
  Xoshiro256 rng_;
  VirtualDisk* mirror_ = nullptr;

  ClusterConfig topology_;
  std::unique_ptr<ReplicationStrategy> strategy_;
  std::vector<std::uint64_t> addresses_;  ///< object i's ball address (= i)
  std::vector<DeviceId> homes_;           ///< objects * k, row-major
  std::vector<std::uint8_t> alive_;       ///< per copy (objects * k)
  std::vector<std::uint8_t> alive_count_; ///< per object, k..0 (0 = dead)
  std::unordered_map<DeviceId, std::vector<std::uint64_t>> reverse_;
  std::unordered_map<DeviceId, double> rate_of_;  ///< failures per second

  Clock heap_;
  std::uint64_t seq_ = 0;
  double t_end_ = 0.0;

  std::vector<Job> jobs_;
  double busy_tail_ = 0.0;
  std::uint64_t queue_depth_ = 0;
  double depth_integral_ = 0.0;
  double last_event_t_ = 0.0;

  std::uint64_t at_risk_ = 0;
  std::uint64_t churn_counter_ = 0;
  DeviceId next_uid_ = 0;
  std::uint64_t ladder_step_ = 0;
  std::size_t min_devices_ = 0;
  std::size_t max_devices_ = 0;
  double bound_ = 0.0;  ///< 0 = unchecked

  // Registry instruments, resolved once per run (docs/metrics.md).
  metrics::Counter* events_total_ = nullptr;
  metrics::Counter* failures_total_ = nullptr;
  metrics::Counter* repairs_completed_total_ = nullptr;
  metrics::Counter* repairs_preempted_total_ = nullptr;
  metrics::Counter* objects_lost_total_ = nullptr;
  metrics::Counter* moves_total_ = nullptr;
  metrics::Gauge* inflight_gauge_ = nullptr;
  metrics::Gauge* at_risk_gauge_ = nullptr;
  metrics::Gauge* queue_depth_gauge_ = nullptr;
  metrics::Gauge* queue_peak_gauge_ = nullptr;
  metrics::Gauge* move_ratio_milli_gauge_ = nullptr;

  ChurnResult result_;
};

void ChurnSim::validate() const {
  if (cfg_.initial.empty()) {
    throw std::invalid_argument("run_churn: initial config is empty");
  }
  if (cfg_.k == 0 || cfg_.k > cfg_.initial.size()) {
    throw std::invalid_argument("run_churn: k must be in [1, devices]");
  }
  if (cfg_.k > 64) {
    throw std::invalid_argument("run_churn: k > 64 is not supported");
  }
  if (cfg_.objects == 0) {
    throw std::invalid_argument("run_churn: objects must be positive");
  }
  if (!(cfg_.years > 0.0) || std::isinf(cfg_.years)) {
    throw std::invalid_argument("run_churn: years must be positive and "
                                "finite");
  }
  if (!(cfg_.afr > 0.0) || std::isinf(cfg_.afr)) {
    throw std::invalid_argument("run_churn: afr must be positive and finite");
  }
  if (!(cfg_.rate_spread >= 1.0) || std::isinf(cfg_.rate_spread)) {
    throw std::invalid_argument("run_churn: rate_spread must be >= 1");
  }
  if (cfg_.repair_mbps < 0.0 || cfg_.repair_fanout == 0 ||
      !(cfg_.object_mb > 0.0)) {
    throw std::invalid_argument("run_churn: bad repair parameters");
  }
  if (cfg_.churn_per_year < 0.0) {
    throw std::invalid_argument("run_churn: churn_per_year must be >= 0");
  }
  Result<bool> feasible = cfg_.initial.try_capacity_efficient(cfg_.k);
  if (!feasible.ok() || !feasible.value()) {
    throw std::invalid_argument(
        "run_churn: initial config cannot spread k copies over distinct "
        "devices (Lemma 2.1)");
  }
  if (cfg_.movement_bound && !(*cfg_.movement_bound > 0.0)) {
    throw std::invalid_argument("run_churn: movement_bound must be positive");
  }
}

void ChurnSim::accumulate_expected_loss(double now, std::uint64_t obj,
                                        double eta) {
  // Probability that every remaining copy's device fails inside the
  // degradation window -- the repair-races-loss integrand of the mean-field
  // model.  First-order: windows of successive degradations of one object
  // may overlap, so this over-counts slightly; it is a smooth, seeded-
  // deterministic risk integral, not an unbiased estimator
  // (docs/durability.md).
  const double window = std::max(0.0, eta - now);
  double p = 1.0;
  for (unsigned c = 0; c < cfg_.k; ++c) {
    const std::uint64_t cid = obj * cfg_.k + c;
    if (!alive_[cid]) continue;
    const double lambda = rate_of_.at(homes_[cid]);
    p *= -std::expm1(-lambda * window);
  }
  result_.expected_objects_lost += p;
}

void ChurnSim::on_failure(double now, DeviceId uid) {
  ++result_.failures;
  failures_total_->inc();

  std::uint64_t lost_here = 0;
  const auto it = reverse_.find(uid);
  if (it != reverse_.end()) {
    for (const std::uint64_t cid : it->second) {
      if (!alive_[cid]) continue;
      alive_[cid] = 0;
      ++lost_here;
      ++result_.copies_lost;
      const std::uint64_t obj = cid / cfg_.k;
      const std::uint8_t remaining = --alive_count_[obj];
      const unsigned lost_now = cfg_.k - remaining;
      result_.copies_lost_histogram[lost_now] += 1;
      if (remaining + 1u == cfg_.k) ++at_risk_;  // k -> k-1: newly at risk
      if (remaining == 0) {
        ++result_.objects_lost;
        objects_lost_total_->inc();
        --at_risk_;  // dead, no longer merely at risk
        log("L %.6f obj=%llu\n", now,
            static_cast<unsigned long long>(obj));
        continue;
      }
      if (cfg_.repair_mbps > 0.0) {
        const double eta =
            enqueue_job(now, Job{false, cid, 0}, cfg_.object_mb);
        accumulate_expected_loss(now, obj, eta);
      } else {
        accumulate_expected_loss(now, obj, t_end_);
      }
    }
  }
  result_.peak_objects_at_risk =
      std::max(result_.peak_objects_at_risk, at_risk_);
  at_risk_gauge_->set(static_cast<std::int64_t>(at_risk_));

  log("F %.6f dev=%llu lost=%llu\n", now,
      static_cast<unsigned long long>(uid),
      static_cast<unsigned long long>(lost_here));

  // The replacement slot inherits the uid and its reliability draw.
  push(now + churn_exponential(rng_, 1.0 / rate_of_.at(uid)), EvKind::kFail,
       uid);
}

void ChurnSim::on_repair_done(double now, std::uint64_t job_index) {
  const Job& job = jobs_[job_index];
  --queue_depth_;
  queue_depth_gauge_->set(static_cast<std::int64_t>(queue_depth_));
  if (job.bulk) {
    log("B %.6f copies=%llu\n", now,
        static_cast<unsigned long long>(job.copies));
    return;
  }
  const std::uint64_t obj = job.cid / cfg_.k;
  if (alive_count_[obj] == 0) {
    // The object died while this repair waited in the queue.
    ++result_.repairs_preempted;
    repairs_preempted_total_->inc();
    log("P %.6f obj=%llu\n", now, static_cast<unsigned long long>(obj));
    return;
  }
  alive_[job.cid] = 1;
  if (++alive_count_[obj] == cfg_.k) {
    --at_risk_;
    at_risk_gauge_->set(static_cast<std::int64_t>(at_risk_));
  }
  ++result_.repairs_completed;
  repairs_completed_total_->inc();
  log("R %.6f obj=%llu slot=%llu\n", now,
      static_cast<unsigned long long>(obj),
      static_cast<unsigned long long>(job.cid % cfg_.k));
}

void ChurnSim::on_churn(double now) {
  // Deterministic rotation of single-device edits; guards keep the fleet
  // inside [min_devices, max_devices] so a long horizon cannot drift the
  // topology into degeneracy.
  enum class Op { kAddBig, kRemoveSmall, kResizeGrow, kAddSmall, kRemoveBig };
  static constexpr Op kRotation[] = {Op::kAddBig, Op::kRemoveSmall,
                                     Op::kResizeGrow, Op::kAddSmall,
                                     Op::kRemoveBig};
  Op op = kRotation[churn_counter_++ % 5];
  if ((op == Op::kRemoveSmall || op == Op::kRemoveBig) &&
      topology_.size() <= min_devices_) {
    op = Op::kAddBig;
  }
  if ((op == Op::kAddBig || op == Op::kAddSmall) &&
      topology_.size() >= max_devices_) {
    op = Op::kRemoveSmall;
  }

  ClusterConfig cand;
  DeviceId affected = kNoDevice;
  const char* op_name = "";
  bool added = false;
  switch (op) {
    case Op::kAddBig:
    case Op::kAddSmall:
    case Op::kRemoveSmall:
    case Op::kRemoveBig: {
      const EditKind kind = op == Op::kAddBig      ? EditKind::kAddBiggest
                            : op == Op::kAddSmall  ? EditKind::kAddSmallest
                            : op == Op::kRemoveBig ? EditKind::kRemoveBiggest
                                                   : EditKind::kRemoveSmallest;
      EditResult edit = apply_edit(topology_, kind, next_uid_, ladder_step_);
      cand = std::move(edit.config);
      affected = edit.affected;
      added = op == Op::kAddBig || op == Op::kAddSmall;
      op_name = op == Op::kAddBig      ? "add-big"
                : op == Op::kAddSmall  ? "add-small"
                : op == Op::kRemoveBig ? "remove-big"
                                       : "remove-small";
      break;
    }
    case Op::kResizeGrow: {
      // Grow the smallest device by one ladder step (capacity churn).
      cand = topology_;
      const Device& smallest = topology_[topology_.size() - 1];
      affected = smallest.uid;
      const Result<std::uint64_t> grown = checked_add(
          smallest.capacity, std::max<std::uint64_t>(1, ladder_step_));
      if (!grown.ok()) {  // capacity would overflow uint64: skip the edit
        ++result_.churn_skipped;
        log("C %.6f op=resize-grow skipped\n", now);
        return;
      }
      cand.resize_device(smallest.uid, grown.value());
      op_name = "resize-grow";
      break;
    }
  }

  const Result<bool> feasible = cand.try_capacity_efficient(cfg_.k);
  if (!feasible.ok() || !feasible.value()) {
    ++result_.churn_skipped;
    log("C %.6f op=%s skipped\n", now, op_name);
    return;
  }
  std::unique_ptr<ReplicationStrategy> next_strategy;
  try {
    next_strategy = make_replication_strategy(cfg_.strategy, cand, cfg_.k);
  } catch (const std::invalid_argument&) {
    ++result_.churn_skipped;
    log("C %.6f op=%s skipped\n", now, op_name);
    return;
  }
  if (added) ++next_uid_;

  std::vector<DeviceId> next_homes(cfg_.objects * cfg_.k);
  next_strategy->place_many(addresses_, next_homes);

  // Movement accounting over live objects, set semantics against the
  // distribution lower bound (src/sim/movement.hpp semantics).
  std::uint64_t moved_set = 0;
  std::uint64_t moved_indexed = 0;
  std::unordered_map<DeviceId, std::int64_t> delta;
  for (std::uint64_t obj = 0; obj < cfg_.objects; ++obj) {
    if (alive_count_[obj] == 0) continue;
    const std::uint64_t base = obj * cfg_.k;
    for (unsigned c = 0; c < cfg_.k; ++c) {
      const DeviceId before = homes_[base + c];
      const DeviceId after = next_homes[base + c];
      --delta[before];
      ++delta[after];
      if (before != after) ++moved_indexed;
      bool present_before = false;
      for (unsigned d = 0; d < cfg_.k && !present_before; ++d) {
        present_before = homes_[base + d] == after;
      }
      if (!present_before) ++moved_set;
    }
  }
  std::uint64_t optimal = 0;
  for (const auto& [uid, d] : delta) {
    if (d > 0) optimal += static_cast<std::uint64_t>(d);
  }

  if (optimal > 0) {
    const double ratio =
        static_cast<double>(moved_set) / static_cast<double>(optimal);
    if (op == Op::kResizeGrow) {
      // Capacity resizes are outside the paper's insert/remove lemma (even
      // exact RS reaches ~15-27x here): tracked, never asserted.
      result_.max_resize_ratio = std::max(result_.max_resize_ratio, ratio);
    } else {
      result_.max_move_ratio = std::max(result_.max_move_ratio, ratio);
      if (bound_ > 0.0 && ratio > bound_) {
        throw std::logic_error(
            "run_churn: movement competitiveness violated: churn event " +
            std::to_string(result_.churn_events) + " (" + op_name +
            ") moved " + std::to_string(moved_set) + " copies vs optimal " +
            std::to_string(optimal) + " -- ratio " + std::to_string(ratio) +
            " exceeds bound " + std::to_string(bound_) + " for strategy " +
            std::string(to_string(cfg_.strategy)));
      }
    }
  }

  // Admit new devices (reliability draw + failure clock); removed devices
  // need nothing -- their pending failure event is skipped as stale.
  for (const Device& d : cand.devices()) {
    if (!rate_of_.contains(d.uid)) admit_device(d.uid, now);
  }

  topology_ = std::move(cand);
  strategy_ = std::move(next_strategy);
  homes_ = std::move(next_homes);
  rebuild_reverse_index();

  ++result_.churn_events;
  result_.moved_copies += moved_set;
  result_.moved_indexed += moved_indexed;
  result_.optimal_moves += optimal;
  moves_total_->inc(moved_set);
  move_ratio_milli_gauge_->set(
      static_cast<std::int64_t>(result_.max_move_ratio * 1000.0));

  // The copied data contends with repairs for the same fleet bandwidth.
  if (cfg_.repair_mbps > 0.0 && moved_set > 0) {
    (void)enqueue_job(now, Job{true, 0, moved_set},
                      static_cast<double>(moved_set) * cfg_.object_mb);
  }

  if (mirror_ != nullptr) {
    // The same one-device edit, as the record the disk journals.
    const std::optional<std::size_t> at = topology_.index_of(affected);
    const Result<void> mirrored =
        !at     ? mirror_->try_remove_device(affected)
        : added ? mirror_->try_add_device(topology_[*at])
                : mirror_->try_resize_device(affected, topology_[*at].capacity);
    mirrored.value_or_throw();
    check_mirror(op_name);
  }

  log("C %.6f op=%s dev=%llu moved=%llu opt=%llu ratio=%.3f\n", now, op_name,
      static_cast<unsigned long long>(affected),
      static_cast<unsigned long long>(moved_set),
      static_cast<unsigned long long>(optimal),
      optimal > 0 ? static_cast<double>(moved_set) /
                        static_cast<double>(optimal)
                  : 0.0);
}

void ChurnSim::check_mirror(const char* when) const {
  // Sampled equality: the disk's committed epoch must place exactly like
  // the fleet tier (same strategy kind, same config, same k).
  const std::uint64_t stride = std::max<std::uint64_t>(1, cfg_.objects / 64);
  std::vector<DeviceId> buf(cfg_.k);
  for (std::uint64_t obj = 0; obj < cfg_.objects; obj += stride) {
    (void)mirror_->try_copy_locations(obj, buf).value_or_throw();
    for (unsigned c = 0; c < cfg_.k; ++c) {
      if (buf[c] != homes_[obj * cfg_.k + c]) {
        throw std::logic_error(
            "run_churn: mirror placement diverged at object " +
            std::to_string(obj) + " copy " + std::to_string(c) + " (" +
            when + "): disk says " + std::to_string(buf[c]) +
            ", simulator says " +
            std::to_string(homes_[obj * cfg_.k + c]));
      }
    }
  }
}

ChurnResult ChurnSim::run() {
  validate();

  metrics::Registry& reg = metrics::Registry::global();
  events_total_ = &reg.counter("rds_churn_events_total");
  failures_total_ = &reg.counter("rds_churn_failures_total");
  repairs_completed_total_ = &reg.counter("rds_churn_repairs_completed_total");
  repairs_preempted_total_ = &reg.counter("rds_churn_repairs_preempted_total");
  objects_lost_total_ = &reg.counter("rds_churn_objects_lost_total");
  moves_total_ = &reg.counter("rds_churn_moves_total");
  inflight_gauge_ = &reg.gauge("rds_churn_events_inflight");
  at_risk_gauge_ = &reg.gauge("rds_churn_objects_at_risk");
  queue_depth_gauge_ = &reg.gauge("rds_churn_repair_queue_depth");
  queue_peak_gauge_ = &reg.gauge("rds_churn_repair_queue_peak");
  move_ratio_milli_gauge_ = &reg.gauge("rds_churn_move_ratio_milli");

  topology_ = cfg_.initial;
  strategy_ = make_replication_strategy(cfg_.strategy, topology_, cfg_.k);
  t_end_ = cfg_.years * kSecondsPerYear;

  addresses_.resize(cfg_.objects);
  for (std::uint64_t i = 0; i < cfg_.objects; ++i) addresses_[i] = i;
  place_all(homes_);
  alive_.assign(cfg_.objects * cfg_.k, 1);
  alive_count_.assign(cfg_.objects, static_cast<std::uint8_t>(cfg_.k));
  rebuild_reverse_index();
  result_.copies_lost_histogram.assign(cfg_.k + 1, 0);

  // The asserted adaptivity bound.  The paper's <= k^2 lemma is about the
  // exact algorithm's insert/remove handling, and measurement agrees:
  // exact RS stays within ~2.1x on add/remove edits at k = 2..4, while the
  // fast variant reaches 4.6x at k = 2 -- above k^2.  So k^2 is asserted
  // by default only for kRedundantShare; everything else is report-only
  // unless the caller sets an explicit bound (and resizes are never
  // asserted -- see on_churn).
  if (cfg_.movement_bound) {
    bound_ = *cfg_.movement_bound;
  } else if (cfg_.strategy == PlacementKind::kRedundantShare) {
    bound_ = static_cast<double>(cfg_.k) * static_cast<double>(cfg_.k);
  }
  result_.movement_bound = bound_;

  // Churn-edit bookkeeping: ladder step from the initial capacity range,
  // uids above every existing one, fleet-size guard rails.
  std::uint64_t cap_min = topology_[topology_.size() - 1].capacity;
  std::uint64_t cap_max = topology_[0].capacity;
  ladder_step_ = topology_.size() > 1
                     ? (cap_max - cap_min) / (topology_.size() - 1)
                     : cap_max / 8;
  if (ladder_step_ == 0) ladder_step_ = std::max<std::uint64_t>(1, cap_max / 8);
  for (const Device& d : topology_.devices()) {
    next_uid_ = std::max(next_uid_, d.uid + 1);
  }
  min_devices_ = std::max<std::size_t>(cfg_.k + 1, topology_.size() / 2);
  max_devices_ = std::max<std::size_t>(topology_.size() * 2,
                                       topology_.size() + 2);

  if (mirror_ != nullptr) {
    const auto epoch = mirror_->placement_snapshot();
    if (epoch->strategy->replication() != cfg_.k ||
        !(epoch->config == cfg_.initial)) {
      throw std::invalid_argument(
          "run_churn: mirror disk does not match the initial config / k");
    }
    check_mirror("initial");
  }

  // Seed the clocks: one failure timer per device (canonical order, so the
  // draw sequence is reproducible), one churn timer for the fleet.
  for (const Device& d : topology_.devices()) admit_device(d.uid, 0.0);
  const double churn_rate = cfg_.churn_per_year / kSecondsPerYear;
  if (churn_rate > 0.0) {
    push(churn_exponential(rng_, 1.0 / churn_rate), EvKind::kChurn, 0);
  }

  while (!heap_.empty()) {
    const Ev ev = heap_.top();
    if (ev.t > t_end_) break;
    heap_.pop();
    // Stale failure clock of a device churn removed: not a fleet event.
    if (ev.kind == EvKind::kFail && !topology_.contains(ev.a)) continue;

    depth_integral_ +=
        static_cast<double>(queue_depth_) * (ev.t - last_event_t_);
    last_event_t_ = ev.t;

    // One event in flight; the guard keeps the gauge balanced on every
    // exit path, including a movement-invariant throw.
    const metrics::GaugeGuard in_flight(*inflight_gauge_);
    ++result_.events;
    events_total_->inc();
    switch (ev.kind) {
      case EvKind::kFail:
        on_failure(ev.t, ev.a);
        break;
      case EvKind::kRepair:
        on_repair_done(ev.t, ev.a);
        break;
      case EvKind::kChurn:
        on_churn(ev.t);
        push(ev.t + churn_exponential(rng_, 1.0 / churn_rate), EvKind::kChurn,
             0);
        break;
    }
  }
  depth_integral_ +=
      static_cast<double>(queue_depth_) * (t_end_ - last_event_t_);

  result_.loss_probability = static_cast<double>(result_.objects_lost) /
                             static_cast<double>(cfg_.objects);
  result_.mean_repair_queue = depth_integral_ / t_end_;
  result_.peak_objects_at_risk =
      std::max(result_.peak_objects_at_risk, at_risk_);
  result_.final_devices = topology_.size();
  result_.simulated_years = cfg_.years;
  queue_peak_gauge_->set_max(
      static_cast<std::int64_t>(result_.peak_repair_queue));
  return result_;
}

}  // namespace

ChurnResult run_churn(const ChurnSimConfig& config) {
  return ChurnSim(config, nullptr).run();
}

ChurnResult run_churn(const ChurnSimConfig& config, VirtualDisk* mirror) {
  return ChurnSim(config, mirror).run();
}

}  // namespace rds
