#include "perfbench/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string_view>

namespace perfbench {

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "op,id,parent,name,start_ns,end_ns,attributed_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%u,%zu,%u,%s,%llu,%llu,%llu\n", s.op, i + 1, s.parent,
                 s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.attributed_ns));
  }
  return std::fclose(f) == 0;
}

TraceAnalysis analyze(const std::vector<Span>& spans,
                      const RequiredChildren& required) {
  TraceAnalysis a;
  std::size_t i = 0;
  while (i < spans.size()) {
    const Span& op = spans[i];
    const std::uint64_t dur = op.end_ns - op.start_ns;
    SpanSummary& s = a.ops[op.name];
    std::set<std::string_view> direct;
    std::uint64_t child_ns = op.attributed_ns;
    // An operation's spans are recorded together, its own span first.
    std::size_t j = i + 1;
    for (; j < spans.size() && spans[j].op == op.op; ++j) {
      const Span& c = spans[j];
      const std::uint64_t cdur = c.end_ns - c.start_ns;
      ChildSummary& cs = a.children[c.name];
      ++cs.count;
      cs.total_ns += cdur;
      if (c.parent != i + 1) continue;  // grandchildren are inside a child
      direct.insert(c.name);
      child_ns += cdur;
      s.child_ns[c.name] += cdur;
    }
    if (const auto need = required.find(op.name); need != required.end()) {
      const bool complete = std::all_of(
          need->second.begin(), need->second.end(),
          [&](const std::string& name) { return direct.contains(name); });
      if (!complete) ++a.ops_missing_children;
    }
    ++s.ops;
    s.total_ns += dur;
    s.attributed_ns += op.attributed_ns;
    s.self_ns += dur - std::min(dur, child_ns);
    i = j;
  }
  return a;
}

namespace {
template <typename V>
V find_or_zero(const std::map<std::string, V>& m, const std::string& name) {
  const auto it = m.find(name);
  return it == m.end() ? V{} : it->second;
}
}  // namespace

SpanSummary TraceAnalysis::op(const std::string& name) const {
  return find_or_zero(ops, name);
}

ChildSummary TraceAnalysis::child(const std::string& name) const {
  return find_or_zero(children, name);
}

std::vector<rds::Bytes> TracedScheme::encode(
    std::span<const std::uint8_t> block) const {
  ++encode_calls;
  const std::uint32_t span = tracer_->begin("codec.encode");
  std::vector<rds::Bytes> out = inner_->encode(block);
  tracer_->end(span);
  return out;
}

rds::Bytes TracedScheme::decode(
    std::span<const std::optional<rds::Bytes>> fragments,
    std::size_t block_size) const {
  ++decode_calls;
  const std::uint32_t span = tracer_->begin("codec.decode");
  rds::Bytes out = inner_->decode(fragments, block_size);
  tracer_->end(span);
  return out;
}

rds::Bytes TracedScheme::reconstruct_fragment(
    std::span<const std::optional<rds::Bytes>> fragments,
    unsigned target) const {
  ++reconstruct_calls;
  const std::uint32_t span = tracer_->begin("codec.reconstruct");
  rds::Bytes out = inner_->reconstruct_fragment(fragments, target);
  tracer_->end(span);
  return out;
}

rds::Result<rds::journal::Lsn> TracedJournal::append(
    const rds::journal::Record& record) {
  const std::uint32_t span = tracer_->begin("journal.append");
  rds::Result<rds::journal::Lsn> lsn = inner_->append(record);
  tracer_->end(span);
  return lsn;
}

Counts& Counts::operator+=(const Counts& o) {
  placements += o.placements;
  chain_columns += o.chain_columns;
  place_ns += o.place_ns;
  place_timed += o.place_timed;
  step_ns += o.step_ns;
  steps += o.steps;
  rebuilt += o.rebuilt;
  journal_records += o.journal_records;
  journal_bytes += o.journal_bytes;
  replay_ns += o.replay_ns;
  degraded_reads += o.degraded_reads;
  checksum_failures += o.checksum_failures;
  return *this;
}

Counts operator-(const Counts& a, const Counts& b) {
  Counts d;
  d.placements = a.placements - b.placements;
  d.chain_columns = a.chain_columns - b.chain_columns;
  d.place_ns = a.place_ns - b.place_ns;
  d.place_timed = a.place_timed - b.place_timed;
  d.step_ns = a.step_ns - b.step_ns;
  d.steps = a.steps - b.steps;
  d.rebuilt = a.rebuilt - b.rebuilt;
  d.journal_records = a.journal_records - b.journal_records;
  d.journal_bytes = a.journal_bytes - b.journal_bytes;
  d.replay_ns = a.replay_ns - b.replay_ns;
  d.degraded_reads = a.degraded_reads - b.degraded_reads;
  d.checksum_failures = a.checksum_failures - b.checksum_failures;
  return d;
}

RegistryProbe::RegistryProbe() {
  rds::metrics::Registry& reg = rds::metrics::Registry::global();
  const rds::metrics::Labels rs{{"strategy", "redundant-share"}};
  placements_ = &reg.counter("rds_placements_total", rs);
  chain_columns_ = &reg.counter("rds_placement_chain_columns_total", rs);
  place_latency_ = &reg.histogram("rds_placement_latency_ns");
  step_latency_ = &reg.histogram("rds_migration_step_latency_ns");
  rebuilt_ = &reg.counter("rds_migration_fragments_rebuilt_total");
  journal_records_ = &reg.counter("rds_journal_records_total");
  journal_bytes_ = &reg.counter("rds_journal_bytes_total");
  replay_latency_ = &reg.histogram("rds_journal_replay_latency_ns");
  degraded_reads_ = &reg.counter("rds_storage_degraded_reads_total");
  checksum_failures_ = &reg.counter("rds_storage_checksum_failures_total");
}

Counts RegistryProbe::read() const {
  Counts c;
  c.placements = placements_->value();
  c.chain_columns = chain_columns_->value();
  c.place_ns = place_latency_->sum();
  c.place_timed = place_latency_->count();
  c.step_ns = step_latency_->sum();
  c.steps = step_latency_->count();
  c.rebuilt = rebuilt_->value();
  c.journal_records = journal_records_->value();
  c.journal_bytes = journal_bytes_->value();
  c.replay_ns = replay_latency_->sum();
  c.degraded_reads = degraded_reads_->value();
  c.checksum_failures = checksum_failures_->value();
  return c;
}

}  // namespace perfbench
