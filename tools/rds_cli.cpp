// rds_cli -- command-line driver for the Redundant Share library.
//
//   rds_cli analyze  --caps 500,600,700 --k 2
//       Capacity feasibility (Lemma 2.1), adjusted weights (Algorithm 1)
//       and the maximum ball count (Lemma 2.2).
//
//   rds_cli place    --caps 500,600,700 --k 2 --address 42 [--count 10]
//       The device uids storing copies 0..k-1 of each ball.  Uids are the
//       0-based positions in the --caps list.
//
//   rds_cli fairness --caps 500,600,700 --k 2 [--balls 100000]
//       Materializes a placement and prints the per-device fill report.
//
//   rds_cli migrate  --caps 500,600,700 --to-caps 500,600,700,800 --k 2
//                    [--balls 100000]
//       Movement analysis between two configurations: replaced copies,
//       theoretical minimum, competitive ratio.
//
//   rds_cli loss     --caps 500,600,700 --k 2 --failed 0,1 [--need 1]
//       Exact probability that a block becomes unreadable when the listed
//       devices fail simultaneously (--need = fragments required to
//       reconstruct; 1 = mirroring).
//
//   rds_cli simulate --caps 500,600,700 --script ops.txt
//                    [--scheme mirror:2|rs:4+2|evenodd:5|rdp:5]
//       Runs an operation trace (see src/sim/op_trace.hpp for the command
//       language) against a virtual disk built on the pool.
//
//   rds_cli stats    --caps 500,600,700 --k 2 [--balls 100000]
//       Materializes a placement and dumps the metrics registry (see
//       docs/metrics.md) in text form: placement counters, chain depths,
//       per-device load gauges.
//
//   rds_cli loadsim  --caps 500,600,700 --k 2 [--workload zipf:0.9]
//                    [--policy all] [--requests 100000] [--rate 0.05]
//                    [--service exponential] [--seed 42] [--balls 100000]
//       Read-path SLO benchmark: replays a synthetic open-loop read trace
//       against the k copy locations of every ball and reports
//       p50/p99/p999 response latency plus device utilization per
//       replica-selection policy (docs/load_balancing.md).  Device speed
//       scales with capacity; --rate is requests per microsecond.
//
//   rds_cli churnsim --devices 1000 --k 3 [--strategy fast|all] [--years 10]
//                    [--afr 0.04] [--rate-spread 4] [--repair-mbps 50]
//                    [--repair-fanout 64] [--object-mb 4096]
//                    [--churn-per-year 12] [--balls 200000] [--seed 42]
//       Fleet-scale durability simulation (docs/durability.md): simulated
//       years of exponential device failures racing a bandwidth-limited
//       repair process, with add/remove/resize churn re-placing every ball
//       through the real strategy.  Reports loss probability, expected
//       losses, repair-queue behavior, and movement competitiveness (the
//       paper's <= k^2 adaptivity bound is asserted for redundant-share).
//       --devices synthesizes a 16-step capacity ladder; --caps overrides.
//       --strategy all sweeps every placement kind.
//
//   rds_cli snapshot --caps 500,600,700 --out ckpt.bin [--journal wal.bin]
//                    [--script ops.txt] [--scheme mirror:2]
//       Writes a checkpoint of the freshly built disk, then (optionally)
//       runs an operation trace with a write-ahead journal attached --
//       `recover` can replay that journal over the checkpoint.  See
//       docs/persistence.md.
//
//   rds_cli recover  --snapshot ckpt.bin [--journal wal.bin]
//       Loads a checkpoint, replays the journal over it, and reports the
//       recovered state (LSNs applied, torn-tail status, scrub result).
//
// Every command accepts --metrics-out FILE to additionally write the full
// metrics registry as a JSON snapshot (schema: docs/metrics.md) when the
// command finishes.
//
// Devices keep their uid (= index in the ORIGINAL --caps list) across
// --to-caps, so growing a pool means appending capacities and shrinking it
// means passing 0 for retired devices.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <fstream>

#include "src/core/capacity.hpp"
#include "src/core/loss_analysis.hpp"
#include "src/core/redundant_share.hpp"
#include "src/journal/journal.hpp"
#include "src/journal/recovery.hpp"
#include "src/metrics/registry.hpp"
#include "src/placement/batch_placer.hpp"
#include "src/placement/strategy_factory.hpp"
#include "src/sim/op_trace.hpp"
#include "src/sim/block_map.hpp"
#include "src/sim/churn_sim.hpp"
#include "src/sim/fairness_report.hpp"
#include "src/sim/load_sim.hpp"
#include "src/sim/movement.hpp"
#include "src/sim/replica_selector.hpp"
#include "src/sim/workload.hpp"
#include "src/storage/redundancy_scheme.hpp"

namespace {

using namespace rds;

/// Every subcommand, in usage order -- the one list dispatch() and the
/// unknown-command error iterate so a new command cannot be forgotten
/// (same pattern as the strategy / workload / selector factories).
constexpr std::string_view kCommandNames[] = {
    "analyze",  "place",   "fairness", "migrate",  "loss",    "simulate",
    "stats",    "loadsim", "churnsim", "snapshot", "recover",
};

std::string command_names() {
  std::string out;
  for (const std::string_view name : kCommandNames) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr
      << "usage: rds_cli <analyze|place|fairness|migrate|loss|simulate|stats"
         "|loadsim|churnsim|snapshot|recover> [options]\n"
      << "  --caps a,b,c      device capacities (uid = position)\n"
      << "  --to-caps a,b,c   target capacities for `migrate` (0 = retired)\n"
      << "  --k N             replication degree (default 2)\n"
      << "  --address N       first ball address for `place` (default 0)\n"
      << "  --count N         number of balls for `place` (default 1)\n"
      << "  --balls N         sample size for fairness/migrate/stats"
         " (default 100000)\n"
      << "  --failed a,b      device uids assumed failed, for `loss`\n"
      << "  --need N          fragments needed to reconstruct (default 1)\n"
      << "  --script FILE     operation trace for `simulate`\n"
      << "  --scheme S        redundancy for `simulate` and `snapshot`:\n"
      << "                    mirror:K, rs:D+P, evenodd:P, rdp:P, or a name\n"
      << "                    like reed-solomon(4+2) (default mirror:2)\n"
      << "  --strategy S      placement strategy: " << placement_kind_names()
      << ";\n"
      << "                    default redundant-share\n"
      << "  --threads N       worker threads for place/fairness/stats\n"
      << "                    (default 1; 0 = all hardware threads)\n"
      << "  --workload W      `loadsim` trace shape: " << workload_kind_names()
      << "\n"
      << "                    (default zipf:0.9)\n"
      << "  --policy P        `loadsim` replica selector: "
      << replica_selector_names() << ",\n"
      << "                    or `all` to sweep every policy (default all)\n"
      << "  --requests N      `loadsim` trace length (default 100000)\n"
      << "  --rate R          `loadsim` mean arrival rate, requests/us\n"
      << "                    (default 0.05)\n"
      << "  --service S       `loadsim` service-time shape: deterministic,\n"
      << "                    exponential, lognormal (default exponential)\n"
      << "  --seed N          loadsim/churnsim RNG seed (default 42)\n"
      << "  --devices N       `churnsim` fleet size (synthesizes a 16-step\n"
      << "                    capacity ladder; --caps overrides)\n"
      << "  --years Y         `churnsim` simulated horizon (default 10)\n"
      << "  --afr A           `churnsim` annual failure rate (default 0.04)\n"
      << "  --rate-spread S   `churnsim` per-device rate spread, log-uniform\n"
      << "                    in [afr/S, afr*S] (default 4; 1 = homogeneous)\n"
      << "  --repair-mbps R   `churnsim` per-survivor repair bandwidth\n"
      << "                    (default 50; 0 = repair off)\n"
      << "  --repair-fanout N `churnsim` survivors per repair (default 64)\n"
      << "  --object-mb M     `churnsim` data per lost copy (default 4096)\n"
      << "  --churn-per-year C `churnsim` topology edits per year\n"
      << "                    (default 12; 0 = static fleet)\n"
      << "  --out F           checkpoint output file for `snapshot`\n"
      << "  --snapshot F      checkpoint input file for `recover`\n"
      << "  --journal F       write-ahead journal file (written by\n"
      << "                    `snapshot`, replayed by `recover`)\n"
      << "  --strict          `recover`: fail on a torn journal tail\n"
      << "                    instead of reporting it\n"
      << "  --metrics-out F   write a JSON metrics snapshot to F on exit\n";
  std::exit(2);
}

/// Strict decimal parser: the whole string must be digits and fit the
/// target type.  Everything the shell can mistype -- signs, spaces,
/// trailing garbage, overflow -- lands in usage() with a nonzero exit
/// instead of an uncaught std::invalid_argument / std::out_of_range or a
/// silently wrapped value (stoull happily parses "-1" as 2^64-1).
std::uint64_t parse_u64(const std::string& what, const std::string& value) {
  std::uint64_t out = 0;
  const char* const first = value.data();
  const char* const last = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  if (ec == std::errc::result_out_of_range) {
    usage(what + " out of range: " + value);
  }
  if (ec != std::errc() || ptr != last || value.empty()) {
    usage("bad " + what + ": '" + value + "' (expected unsigned integer)");
  }
  return out;
}

unsigned parse_u32(const std::string& what, const std::string& value) {
  const std::uint64_t v = parse_u64(what, value);
  if (v > std::numeric_limits<unsigned>::max()) {
    usage(what + " out of range: " + value);
  }
  return static_cast<unsigned>(v);
}

double parse_positive_double(const std::string& what,
                             const std::string& value) {
  double out = 0.0;
  const char* const first = value.data();
  const char* const last = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  if (ec != std::errc() || ptr != last || value.empty() ||
      !std::isfinite(out) || out <= 0.0) {
    usage("bad " + what + ": '" + value + "' (expected positive number)");
  }
  return out;
}

double parse_nonneg_double(const std::string& what, const std::string& value) {
  double out = 0.0;
  const char* const first = value.data();
  const char* const last = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  if (ec != std::errc() || ptr != last || value.empty() ||
      !std::isfinite(out) || out < 0.0) {
    usage("bad " + what + ": '" + value + "' (expected number >= 0)");
  }
  return out;
}

std::vector<std::uint64_t> parse_caps(const std::string& arg) {
  std::vector<std::uint64_t> caps;
  std::stringstream ss(arg);
  std::string item;
  while (std::getline(ss, item, ',')) {
    caps.push_back(parse_u64("capacity", item));
  }
  if (caps.empty()) usage("empty capacity list");
  return caps;
}

ClusterConfig config_from(const std::vector<std::uint64_t>& caps) {
  std::vector<Device> devices;
  for (std::size_t i = 0; i < caps.size(); ++i) {
    if (caps[i] == 0) continue;  // retired device
    devices.push_back({i, caps[i], "disk-" + std::to_string(i)});
  }
  if (devices.empty()) usage("no devices with positive capacity");
  return ClusterConfig(std::move(devices));
}

struct Args {
  std::string command;
  std::vector<std::uint64_t> caps;
  std::vector<std::uint64_t> to_caps;
  std::vector<std::uint64_t> failed;
  std::string script;
  std::shared_ptr<RedundancyScheme> scheme;  // --scheme, default mirror:2
  std::string metrics_out;
  std::string workload = "zipf:0.9";  // `loadsim` trace shape
  std::string policy = "all";         // `loadsim` replica selector
  std::string service = "exponential";  // `loadsim` service-time shape
  double rate = 0.05;                 // `loadsim` arrivals per microsecond
  std::uint64_t requests = 100'000;   // `loadsim` trace length
  std::uint64_t seed = 42;            // `loadsim` RNG seed
  std::string out;            // `snapshot` checkpoint target
  std::string snapshot_path;  // `recover` checkpoint source
  std::string journal;        // journal file (snapshot writes, recover reads)
  bool strict = false;        // `recover`: torn tail is fatal
  PlacementKind strategy = PlacementKind::kRedundantShare;
  bool strategy_set = false;  // --strategy given explicitly
  bool strategy_all = false;  // `churnsim`: sweep every placement kind
  std::uint64_t devices = 0;  // `churnsim` synthesized fleet size
  double years = 10.0;        // `churnsim` simulated horizon
  double afr = 0.04;          // `churnsim` annual failure rate
  double rate_spread = 4.0;   // `churnsim` reliability heterogeneity
  double repair_mbps = 50.0;  // `churnsim` per-survivor bandwidth (0 = off)
  unsigned repair_fanout = 64;   // `churnsim` survivors per repair
  double object_mb = 4096.0;     // `churnsim` data per lost copy
  double churn_per_year = 12.0;  // `churnsim` topology edits per year
  unsigned k = 2;
  unsigned need = 1;
  unsigned threads = 1;
  std::uint64_t address = 0;
  std::uint64_t count = 1;
  std::uint64_t balls = 100'000;
};

std::unique_ptr<ReplicationStrategy> make_strategy(const Args& args,
                                                   const ClusterConfig& cfg) {
  return make_replication_strategy(args.strategy, cfg, args.k);
}

unsigned effective_threads(const Args& args) {
  if (args.threads != 0) return args.threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

Args parse(int argc, char** argv) {
  if (argc < 2) usage();
  Args args;
  args.command = argv[1];
  // Reject unknown commands before any flag validation: "--caps is
  // required" would be a misleading answer to a typo in the command name.
  if (std::find(std::begin(kCommandNames), std::end(kCommandNames),
                args.command) == std::end(kCommandNames)) {
    usage("unknown command: '" + args.command +
          "'; valid: " + command_names());
  }
  // Valueless flags first; everything left must pair up key/value.
  std::vector<std::string> rest;
  for (int i = 2; i < argc; ++i) {
    if (std::string(argv[i]) == "--strict") {
      args.strict = true;
    } else {
      rest.emplace_back(argv[i]);
    }
  }
  std::map<std::string, std::string> opts;
  for (std::size_t i = 0; i + 1 < rest.size(); i += 2) {
    opts[rest[i]] = rest[i + 1];
  }
  if (rest.size() % 2 != 0) usage("dangling option");
  const auto get = [&](const std::string& key) -> std::string {
    const auto it = opts.find(key);
    return it == opts.end() ? "" : it->second;
  };
  if (const std::string v = get("--caps"); !v.empty()) {
    args.caps = parse_caps(v);
  }
  if (const std::string v = get("--to-caps"); !v.empty()) {
    args.to_caps = parse_caps(v);
  }
  if (const std::string v = get("--failed"); !v.empty()) {
    args.failed = parse_caps(v);
  }
  if (const std::string v = get("--script"); !v.empty()) args.script = v;
  try {
    const std::string v = get("--scheme");
    args.scheme = make_scheme_from_name(v.empty() ? "mirror:2" : v);
  } catch (const std::invalid_argument& e) {
    usage(std::string("--scheme: ") + e.what());
  }
  if (const std::string v = get("--metrics-out"); !v.empty()) {
    args.metrics_out = v;
  }
  if (const std::string v = get("--out"); !v.empty()) args.out = v;
  if (const std::string v = get("--snapshot"); !v.empty()) {
    args.snapshot_path = v;
  }
  if (const std::string v = get("--journal"); !v.empty()) args.journal = v;
  if (const std::string v = get("--strategy"); !v.empty()) {
    if (v == "all") {
      args.strategy_all = true;
    } else {
      const std::optional<PlacementKind> kind = parse_placement_kind(v);
      if (!kind) {
        usage("unknown --strategy: " + v +
              " (valid: " + placement_kind_names() + ", or `all` for a "
              "churnsim sweep)");
      }
      args.strategy = *kind;
    }
    args.strategy_set = true;
  }
  if (const std::string v = get("--threads"); !v.empty()) {
    args.threads = parse_u32("--threads", v);
  }
  if (const std::string v = get("--k"); !v.empty()) {
    args.k = parse_u32("--k", v);
  }
  if (const std::string v = get("--need"); !v.empty()) {
    args.need = parse_u32("--need", v);
  }
  if (const std::string v = get("--address"); !v.empty()) {
    args.address = parse_u64("--address", v);
  }
  if (const std::string v = get("--count"); !v.empty()) {
    args.count = parse_u64("--count", v);
  }
  if (const std::string v = get("--balls"); !v.empty()) {
    args.balls = parse_u64("--balls", v);
  }
  if (const std::string v = get("--workload"); !v.empty()) args.workload = v;
  if (const std::string v = get("--policy"); !v.empty()) args.policy = v;
  if (const std::string v = get("--service"); !v.empty()) args.service = v;
  if (const std::string v = get("--rate"); !v.empty()) {
    args.rate = parse_positive_double("--rate", v);
  }
  if (const std::string v = get("--requests"); !v.empty()) {
    args.requests = parse_u64("--requests", v);
  }
  if (const std::string v = get("--seed"); !v.empty()) {
    args.seed = parse_u64("--seed", v);
  }
  if (const std::string v = get("--devices"); !v.empty()) {
    args.devices = parse_u64("--devices", v);
    if (args.devices == 0) usage("--devices must be at least 1");
  }
  if (const std::string v = get("--years"); !v.empty()) {
    args.years = parse_positive_double("--years", v);
  }
  if (const std::string v = get("--afr"); !v.empty()) {
    args.afr = parse_positive_double("--afr", v);
  }
  if (const std::string v = get("--rate-spread"); !v.empty()) {
    args.rate_spread = parse_positive_double("--rate-spread", v);
  }
  if (const std::string v = get("--repair-mbps"); !v.empty()) {
    args.repair_mbps = parse_nonneg_double("--repair-mbps", v);
  }
  if (const std::string v = get("--repair-fanout"); !v.empty()) {
    args.repair_fanout = parse_u32("--repair-fanout", v);
  }
  if (const std::string v = get("--object-mb"); !v.empty()) {
    args.object_mb = parse_positive_double("--object-mb", v);
  }
  if (const std::string v = get("--churn-per-year"); !v.empty()) {
    args.churn_per_year = parse_nonneg_double("--churn-per-year", v);
  }
  if (args.k == 0) usage("--k must be at least 1");
  if (args.strategy_all && args.command != "churnsim") {
    usage("--strategy all is a churnsim sweep; other commands need one "
          "strategy (valid: " + placement_kind_names() + ")");
  }
  // `recover` rebuilds its configuration from the checkpoint itself;
  // `churnsim` can synthesize a fleet from --devices.
  if (args.caps.empty() && args.command != "recover" &&
      !(args.command == "churnsim" && args.devices > 0)) {
    usage(args.command == "churnsim" ? "--devices N or --caps is required"
                                     : "--caps is required");
  }
  return args;
}

int cmd_analyze(const Args& args) {
  std::vector<double> caps;
  for (const std::uint64_t c : args.caps) {
    if (c > 0) caps.push_back(static_cast<double>(c));
  }
  std::ranges::sort(caps, std::greater<>());
  const CapacityAnalysis a = analyze_capacity(caps, args.k);
  // The double-based analysis can misjudge feasibility near the k*b_max = B
  // boundary for capacities beyond 2^53; the exact test never does.
  const bool exact_feasible =
      config_from(args.caps).try_capacity_efficient(args.k).value_or_throw();
  std::cout << "devices:            " << caps.size() << '\n'
            << "replication k:      " << args.k << '\n'
            << "raw capacity B:     " << a.raw_capacity << '\n'
            << "feasible (L2.1):    "
            << (a.feasible_unadjusted ? "yes" : "no") << '\n'
            << "feasible (exact):   " << (exact_feasible ? "yes" : "no")
            << '\n'
            << "usable capacity B': " << a.usable_capacity << '\n'
            << "max balls (L2.2):   " << a.max_balls << '\n'
            << "adjusted weights:  ";
  for (const double w : a.adjusted) std::cout << ' ' << w;
  std::cout << '\n';
  return 0;
}

int cmd_place(const Args& args) {
  const ClusterConfig config = config_from(args.caps);
  const auto strategy = make_strategy(args, config);
  // One batch through the placer, even for --count 1: with --threads 1 the
  // batch runs inline on this thread, with more it fans out.
  std::vector<std::uint64_t> addresses(args.count);
  std::iota(addresses.begin(), addresses.end(), args.address);
  std::vector<DeviceId> copies(args.count * args.k);
  BatchPlacer placer(effective_threads(args));
  placer.place(*strategy, addresses, copies);
  for (std::uint64_t i = 0; i < args.count; ++i) {
    std::cout << "ball " << addresses[i] << " ->";
    for (unsigned j = 0; j < args.k; ++j) {
      std::cout << " copy" << j << "=disk-" << copies[i * args.k + j];
    }
    std::cout << '\n';
  }
  return 0;
}

int cmd_fairness(const Args& args) {
  const ClusterConfig config = config_from(args.caps);
  const auto strategy = make_strategy(args, config);
  BatchPlacer placer(effective_threads(args));
  const BlockMap map(*strategy, args.balls, placer);
  const FairnessReport report =
      fairness_report(config, usable_capacities(*strategy, config), map);
  report.print(std::cout, std::string(to_string(args.strategy)) + ", " +
                              std::to_string(args.balls) + " balls, k = " +
                              std::to_string(args.k));
  return 0;
}

int cmd_migrate(const Args& args) {
  if (args.to_caps.empty()) usage("migrate requires --to-caps");
  const ClusterConfig before = config_from(args.caps);
  const ClusterConfig after = config_from(args.to_caps);
  const auto sb = make_strategy(args, before);
  const auto sa = make_strategy(args, after);
  const MovementReport r =
      diff_placements(BlockMap(*sb, args.balls), BlockMap(*sa, args.balls));
  std::cout << "balls:                " << args.balls << '\n'
            << "total copies:         " << r.total_copies << '\n'
            << "replaced (mirroring): " << r.moved_set << "  ("
            << 100.0 * r.moved_set_fraction() << "%)\n"
            << "replaced (erasure):   " << r.moved_indexed << '\n'
            << "theoretical minimum:  " << r.optimal_moves << '\n'
            << "competitive ratio:    " << r.competitive_set() << '\n';
  return 0;
}

int cmd_loss(const Args& args) {
  if (args.failed.empty()) usage("loss requires --failed");
  if (args.strategy != PlacementKind::kRedundantShare) {
    usage("loss analysis is exact only for --strategy redundant-share");
  }
  const ClusterConfig config = config_from(args.caps);
  const RedundantShare strategy(config, args.k);
  const std::vector<DeviceId> failed(args.failed.begin(), args.failed.end());
  const std::vector<double> dist =
      copies_in_set_distribution(strategy, failed);
  std::cout << "copies-in-failed-set distribution:\n";
  for (std::size_t c = 0; c < dist.size(); ++c) {
    std::cout << "  P(" << c << " of " << args.k << " copies lost) = "
              << dist[c] << '\n';
  }
  std::cout << "loss probability (need " << args.need
            << " surviving fragment" << (args.need == 1 ? "" : "s")
            << "): "
            << exact_loss_probability(strategy, failed, args.need) << '\n';
  return 0;
}

int cmd_simulate(const Args& args) {
  if (args.script.empty()) usage("simulate requires --script");
  std::ifstream script(args.script);
  if (!script) {
    std::cerr << "error: cannot open " << args.script << '\n';
    return 1;
  }
  TraceRunner runner(
      VirtualDisk(config_from(args.caps), args.scheme));
  const TraceStats stats = runner.run(script);
  const VirtualDisk::Stats& disk = runner.disk().stats();
  std::cout << "commands executed:   " << stats.commands << '\n'
            << "blocks written:      " << stats.blocks_written << '\n'
            << "blocks verified:     " << stats.blocks_verified << '\n'
            << "blocks trimmed:      " << stats.blocks_trimmed << '\n'
            << "topology changes:    " << stats.topology_changes << '\n'
            << "fragments moved:     " << disk.fragments_moved << '\n'
            << "fragments rebuilt:   " << disk.fragments_rebuilt << '\n'
            << "fragments repaired:  " << disk.fragments_repaired << '\n'
            << "checksum failures:   " << disk.checksum_failures << '\n'
            << "bytes moved:         " << disk.bytes_moved << '\n';
  return 0;
}

int cmd_stats(const Args& args) {
  const ClusterConfig config = config_from(args.caps);
  const auto strategy = make_strategy(args, config);
  BatchPlacer placer(effective_threads(args));
  const BlockMap map(*strategy, args.balls, placer);
  metrics::Registry& reg = metrics::Registry::global();
  for (const auto& [uid, fragments] : map.device_counts()) {
    reg.gauge("rds_device_fragments",
              {{"device", std::to_string(uid)}})
        .set(static_cast<std::int64_t>(fragments));
  }
  std::cout << metrics::to_text(reg.snapshot());
  return 0;
}

ServiceModel::Shape parse_service_shape(const std::string& name) {
  if (name == "deterministic" || name == "det") {
    return ServiceModel::Shape::kDeterministic;
  }
  if (name == "exponential" || name == "exp") {
    return ServiceModel::Shape::kExponential;
  }
  if (name == "lognormal") return ServiceModel::Shape::kLognormal;
  usage("unknown --service: " + name +
        " (valid: deterministic (det), exponential (exp), lognormal)");
}

int cmd_loadsim(const Args& args) {
  const ClusterConfig config = config_from(args.caps);
  const VirtualDisk disk(config, std::make_shared<MirroringScheme>(args.k),
                         args.strategy);

  // Device speed scales with capacity: the largest device serves a request
  // in 25us (20 seek + 5 transfer), a half-size device takes twice that.
  const ServiceModel::Shape shape = parse_service_shape(args.service);
  std::uint64_t max_cap = 0;
  for (const Device& d : config.devices()) {
    max_cap = std::max(max_cap, d.capacity);
  }
  std::vector<ServiceModel> models;
  for (const Device& d : config.devices()) {
    const double scale =
        static_cast<double>(max_cap) / static_cast<double>(d.capacity);
    ServiceModel m;
    m.seek_us = 20.0 * scale;
    m.us_per_block = 5.0 * scale;
    m.shape = shape;
    models.push_back(m);
  }

  Result<std::unique_ptr<WorkloadGenerator>> workload =
      try_make_workload(args.workload, args.balls);
  if (!workload.ok()) usage(workload.error().message);
  Xoshiro256 trace_rng(args.seed);
  const std::vector<Request> trace =
      make_trace(*workload.value(), args.requests, args.rate, trace_rng);

  std::vector<SelectorKind> policies;
  if (args.policy == "all") {
    const auto all = all_selector_kinds();
    policies.assign(all.begin(), all.end());
  } else {
    const Result<std::unique_ptr<ReplicaSelector>> probe =
        try_make_replica_selector(args.policy);
    if (!probe.ok()) usage(probe.error().message);
    for (const SelectorKind kind : all_selector_kinds()) {
      if (to_string(kind) == probe.value()->name()) policies.push_back(kind);
    }
  }

  std::cout << "workload:            " << workload.value()->name() << '\n'
            << "balls:               " << args.balls << '\n'
            << "requests:            " << trace.size() << '\n'
            << "arrival rate:        " << args.rate << " req/us\n"
            << "service shape:       " << args.service << '\n'
            << "replication k:       " << args.k << "  ("
            << to_string(args.strategy) << ")\n\n";

  const auto line = [] {
    std::cout << "  " << std::string(76, '-') << '\n';
  };
  std::cout << "  " << std::left << std::setw(14) << "policy" << std::right
            << std::setw(12) << "p50 us" << std::setw(12) << "p99 us"
            << std::setw(12) << "p999 us" << std::setw(12) << "mean us"
            << std::setw(12) << "max util" << '\n';
  line();
  for (const SelectorKind kind : policies) {
    // Identical seeds per policy: rows differ only by the selector.
    Xoshiro256 rng(args.seed + 1);
    const auto selector = make_replica_selector(kind);
    const LoadResult r = simulate_load(disk, trace, models, *selector, rng);
    std::cout << "  " << std::left << std::setw(14) << selector->name()
              << std::right << std::fixed << std::setprecision(1)
              << std::setw(12) << r.p50_response_us << std::setw(12)
              << r.p99_response_us << std::setw(12) << r.p999_response_us
              << std::setw(12) << r.mean_response_us << std::setprecision(1)
              << std::setw(11) << 100.0 * r.max_utilization() << "%"
              << std::defaultfloat << '\n';
  }
  line();
  return 0;
}

int cmd_churnsim(const Args& args) {
  // Fleet: explicit --caps, or a synthesized 16-step capacity ladder from
  // --devices (heterogeneous enough to exercise weighted placement).
  ClusterConfig config;
  if (!args.caps.empty()) {
    config = config_from(args.caps);
  } else {
    std::vector<Device> devices;
    for (std::uint64_t i = 0; i < args.devices; ++i) {
      devices.push_back(
          {i, 100 + (i % 16) * 25, "disk-" + std::to_string(i)});
    }
    config = ClusterConfig(std::move(devices));
  }

  // Sweep set: --strategy all covers every placement kind; an explicit
  // --strategy runs one; the default is the O(k log n) variant (the exact
  // walk is O(n k) per placement -- prohibitive at 10k+ devices).
  std::vector<PlacementKind> kinds;
  if (args.strategy_all) {
    const auto all = all_placement_kinds();
    kinds.assign(all.begin(), all.end());
  } else if (args.strategy_set) {
    kinds.push_back(args.strategy);
  } else {
    kinds.push_back(PlacementKind::kFastRedundantShare);
  }

  std::cout << "devices:             " << config.size() << '\n'
            << "objects:             " << args.balls << "  (k = " << args.k
            << ")\n"
            << "horizon:             " << args.years << " years\n"
            << "afr / spread:        " << args.afr << " / " << args.rate_spread
            << '\n'
            << "repair:              ";
  if (args.repair_mbps > 0.0) {
    std::cout << args.repair_mbps << " MB/s x fanout " << args.repair_fanout
              << ", " << args.object_mb << " MB/copy\n";
  } else {
    std::cout << "off\n";
  }
  std::cout << "churn rate:          " << args.churn_per_year << " edits/year\n"
            << "seed:                " << args.seed << "\n\n";

  const auto line = [] {
    std::cout << "  " << std::string(96, '-') << '\n';
  };
  std::cout << "  " << std::left << std::setw(22) << "strategy" << std::right
            << std::setw(10) << "loss_p" << std::setw(11) << "exp_loss"
            << std::setw(9) << "lost" << std::setw(9) << "repairs"
            << std::setw(10) << "max_ratio" << std::setw(8) << "bound"
            << std::setw(9) << "resize" << std::setw(8) << "peakq" << '\n';
  line();
  for (const PlacementKind kind : kinds) {
    ChurnSimConfig c;
    c.initial = config;
    c.k = args.k;
    c.strategy = kind;
    c.objects = args.balls;
    c.years = args.years;
    c.seed = args.seed;
    c.afr = args.afr;
    c.rate_spread = args.rate_spread;
    c.repair_mbps = args.repair_mbps;
    c.repair_fanout = args.repair_fanout;
    c.object_mb = args.object_mb;
    c.churn_per_year = args.churn_per_year;
    const ChurnResult r = run_churn(c);
    std::cout << "  " << std::left << std::setw(22) << to_string(kind)
              << std::right << std::setprecision(3) << std::setw(10)
              << r.loss_probability << std::setw(11)
              << r.expected_objects_lost << std::setw(9) << r.objects_lost
              << std::setw(9) << r.repairs_completed << std::fixed
              << std::setw(10) << r.max_move_ratio;
    if (r.movement_bound > 0.0) {
      std::cout << std::setprecision(0) << std::setw(8) << r.movement_bound;
    } else {
      std::cout << std::setw(8) << "-";
    }
    std::cout << std::setprecision(3) << std::setw(9) << r.max_resize_ratio
              << std::defaultfloat << std::setw(8) << r.peak_repair_queue
              << '\n';
  }
  line();
  std::cout << "  loss_p/exp_loss per object over the horizon; max_ratio = "
               "worst add/remove movement vs\n"
               "  optimal (asserted <= bound where shown); resize edits are "
               "outside the paper's lemma\n"
               "  and reported unchecked (docs/durability.md).\n";
  return 0;
}

int cmd_snapshot(const Args& args) {
  if (args.out.empty()) usage("snapshot requires --out");
  VirtualDisk disk(config_from(args.caps), args.scheme,
                   args.strategy);
  {
    std::ofstream snap(args.out, std::ios::binary | std::ios::trunc);
    if (!snap) {
      std::cerr << "error: cannot open " << args.out << '\n';
      return 1;
    }
    // Checkpoint the pristine disk at watermark 0: every journaled record
    // (LSNs start at 1) replays on top of it.
    journal::write_checkpoint(disk, 0, snap);
    snap.flush();
    if (!snap) {
      std::cerr << "error: write failed: " << args.out << '\n';
      return 1;
    }
  }
  std::cout << "checkpoint:          " << args.out << '\n'
            << "watermark lsn:       0\n";

  std::shared_ptr<journal::JournalWriter> writer;
  std::ofstream journal_out;
  if (!args.journal.empty()) {
    journal_out.open(args.journal, std::ios::binary | std::ios::trunc);
    if (!journal_out) {
      std::cerr << "error: cannot open " << args.journal << '\n';
      return 1;
    }
    writer = std::make_shared<journal::JournalWriter>(journal_out);
    disk.set_journal(writer);
  }
  if (!args.script.empty()) {
    std::ifstream script(args.script);
    if (!script) {
      std::cerr << "error: cannot open " << args.script << '\n';
      return 1;
    }
    TraceRunner runner(std::move(disk));
    const TraceStats stats = runner.run(script);
    std::cout << "commands executed:   " << stats.commands << '\n'
              << "topology changes:    " << stats.topology_changes << '\n';
  }
  if (writer) {
    std::cout << "journal:             " << args.journal << '\n'
              << "journal last lsn:    " << writer->last_lsn() << '\n';
  }
  return 0;
}

int cmd_recover(const Args& args) {
  if (args.snapshot_path.empty()) usage("recover requires --snapshot");
  std::ifstream snap(args.snapshot_path, std::ios::binary);
  if (!snap) {
    std::cerr << "error: cannot open " << args.snapshot_path << '\n';
    return 1;
  }
  std::ifstream journal_in;
  std::istream* journal_ptr = nullptr;
  if (!args.journal.empty()) {
    journal_in.open(args.journal, std::ios::binary);
    if (!journal_in) {
      std::cerr << "error: cannot open " << args.journal << '\n';
      return 1;
    }
    journal_ptr = &journal_in;
  }
  journal::RecoveryOptions options;
  options.strict = args.strict;
  Result<journal::DiskRecovery> recovered =
      journal::Recovery::recover_disk(snap, journal_ptr, options);
  if (!recovered.ok()) {
    std::cerr << "error: " << to_string(recovered.error().code) << ": "
              << recovered.error().message << '\n';
    return 1;
  }
  journal::DiskRecovery result = std::move(recovered).take();
  const journal::ReplayReport& report = result.report;
  const VirtualDisk::ScrubReport scrub = result.disk.scrub();
  std::cout << "watermark lsn:       " << report.watermark << '\n'
            << "last applied lsn:    " << report.last_applied << '\n'
            << "records applied:     " << report.records_applied << '\n'
            << "records skipped:     " << report.records_skipped << '\n'
            << "journal tail:        "
            << (report.tail_corrupt
                    ? "CORRUPT (" + report.tail_error + ")"
                    : std::string("clean"))
            << '\n'
            << "devices:             " << result.disk.config().size() << '\n'
            << "blocks:              " << result.disk.block_count() << '\n'
            << "scrub:               " << (scrub.clean() ? "clean" : "DEGRADED")
            << '\n';
  return 0;
}

/// Handlers in kCommandNames order (a static_assert keeps them in sync).
constexpr int (*kCommandHandlers[])(const Args&) = {
    cmd_analyze,  cmd_place,   cmd_fairness, cmd_migrate,  cmd_loss,
    cmd_simulate, cmd_stats,   cmd_loadsim,  cmd_churnsim, cmd_snapshot,
    cmd_recover,
};
static_assert(std::size(kCommandNames) == std::size(kCommandHandlers));

int dispatch(const Args& args) {
  for (std::size_t i = 0; i < std::size(kCommandNames); ++i) {
    if (args.command == kCommandNames[i]) return kCommandHandlers[i](args);
  }
  usage("unknown command: '" + args.command +
        "'; valid: " + command_names());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    const int rc = dispatch(args);
    if (rc == 0 && !args.metrics_out.empty()) {
      metrics::write_json_file(metrics::Registry::global().snapshot(),
                               args.metrics_out);
    }
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
