// Storage-layer microbenchmarks: VirtualDisk write, overwrite and read
// throughput across redundancy schemes and placement strategies, the
// topology edit, codec encode/decode speed (a 4 KiB encode among it), the
// codec kernel, the journal-append stage of a file put and its content
// fingerprint, and the stage floors a 4 KiB operation is measured
// against: one fragment checksum and one memcpy of the same bytes.
#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <ostream>
#include <streambuf>

#include "bench/perf_main.hpp"
#include "src/journal/journal.hpp"
#include "src/journal/record.hpp"
#include "src/storage/erasure/evenodd.hpp"
#include "src/storage/erasure/gf256.hpp"
#include "src/storage/virtual_disk.hpp"
#include "src/util/crc32.hpp"
#include "src/util/hash.hpp"
#include "src/util/random.hpp"

namespace {

using namespace rds;

ClusterConfig pool() {
  std::vector<Device> devices;
  for (DeviceId uid = 0; uid < 12; ++uid) {
    devices.push_back({uid, 2'000'000, ""});
  }
  return ClusterConfig(std::move(devices));
}

Bytes payload(std::size_t size, std::uint64_t seed) {
  Bytes b(size);
  Xoshiro256 rng(seed);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng());
  return b;
}

std::shared_ptr<RedundancyScheme> scheme_for(int id) {
  switch (id) {
    case 0: return std::make_shared<MirroringScheme>(3);
    case 1: return std::make_shared<ReedSolomonScheme>(4, 2);
    case 2: return std::make_shared<EvenOddScheme>(5);
    default: throw std::logic_error("bad scheme id");
  }
}

void bm_disk_write(benchmark::State& state) {
  VirtualDisk disk(pool(), scheme_for(static_cast<int>(state.range(0))));
  const Bytes data = payload(4096, 1);
  std::uint64_t block = 0;
  for (auto _ : state) {
    disk.try_write(block++, data).value_or_throw();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096);
  state.SetLabel(disk.scheme().name());
}

void bm_disk_read(benchmark::State& state) {
  VirtualDisk disk(pool(), scheme_for(static_cast<int>(state.range(0))));
  const Bytes data = payload(4096, 2);
  for (std::uint64_t b = 0; b < 256; ++b) {
    disk.try_write(b, data).value_or_throw();
  }
  std::uint64_t block = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(disk.try_read(block++ % 256).value_or_throw());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096);
  state.SetLabel(disk.scheme().name());
}

// Overwrites of stored blocks, as perfbench's `disk-mirror` issues them:
// each home's fragment is replaced in place, so allocation and first touch
// stay out of the row (bm_disk_write appends fresh blocks).  run_perf.sh
// --check holds a mirrored overwrite to at most two fragment-checksum
// passes: the write seals one copy and matches the others with memcmp.
void bm_disk_overwrite(benchmark::State& state) {
  VirtualDisk disk(pool(), scheme_for(static_cast<int>(state.range(0))));
  const Bytes data = payload(4096, 11);
  for (std::uint64_t b = 0; b < 256; ++b) {
    disk.try_write(b, data).value_or_throw();
  }
  std::uint64_t block = 0;
  for (auto _ : state) {
    disk.try_write(block++ % 256, data).value_or_throw();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096);
  state.SetLabel(disk.scheme().name());
}

void bm_disk_degraded_read(benchmark::State& state) {
  VirtualDisk disk(pool(), scheme_for(static_cast<int>(state.range(0))));
  const Bytes data = payload(4096, 3);
  for (std::uint64_t b = 0; b < 256; ++b) {
    disk.try_write(b, data).value_or_throw();
  }
  disk.fail_device(0);
  std::uint64_t block = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(disk.try_read(block++ % 256).value_or_throw());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096);
  state.SetLabel(disk.scheme().name());
}

// A topology edit on a pool shaped like perfbench's `reconfig`: mirror(3)
// on 64 devices in three capacity tiers, holding 16 384 blocks of 4 KiB.
// Each iteration adds a device and removes it again, so every iteration
// starts from the same placement and times two edits (items = edits).
// The edit holds the disk's mutex throughout, so this is also the stall
// block I/O sees.
void bm_disk_edit(benchmark::State& state) {
  constexpr std::uint64_t kTiers[3] = {1536, 2304, 3072};
  constexpr unsigned kPerTier[3] = {24, 24, 16};
  constexpr std::uint64_t kBlocks = 16384;
  std::vector<Device> devices;
  DeviceId uid = 1;
  for (int t = 0; t < 3; ++t) {
    for (unsigned i = 0; i < kPerTier[t]; ++i) {
      devices.push_back({uid++, kTiers[t], ""});
    }
  }
  VirtualDisk disk(ClusterConfig(std::move(devices)),
                   std::make_shared<MirroringScheme>(3));
  const Bytes data = payload(4096, 10);
  for (std::uint64_t b = 0; b < kBlocks; ++b) {
    disk.try_write(b, data).value_or_throw();
  }
  const Device added{uid, kTiers[1], ""};
  const std::uint64_t moved_before = disk.stats().fragments_moved;
  for (auto _ : state) {
    disk.try_add_device(added).value_or_throw();
    disk.try_remove_device(added.uid).value_or_throw();
  }
  const auto edits = static_cast<double>(state.iterations()) * 2;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
  state.counters["moved_per_edit"] = benchmark::Counter(
      static_cast<double>(disk.stats().fragments_moved - moved_before) /
      edits);
  state.SetLabel(disk.scheme().name());
}

void codec_encode(benchmark::State& state, std::size_t size) {
  const auto scheme = scheme_for(static_cast<int>(state.range(0)));
  const Bytes data = payload(size, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme->encode(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
  state.SetLabel(scheme->name());
}

void bm_codec_encode(benchmark::State& state) { codec_encode(state, 65536); }

// The encode stage of one 4 KiB block write, as VirtualDisk and perfbench's
// `files-erasure` puts run it.
void bm_codec_encode_4k(benchmark::State& state) { codec_encode(state, 4096); }

void bm_codec_decode_two_losses(benchmark::State& state) {
  const auto scheme = scheme_for(static_cast<int>(state.range(0)));
  if (scheme->fragment_count() - scheme->min_fragments() < 2) {
    state.SkipWithError("scheme tolerates fewer than 2 losses");
    return;
  }
  const Bytes data = payload(65536, 5);
  const auto fragments = scheme->encode(data);
  std::vector<std::optional<Bytes>> damaged(fragments.begin(),
                                            fragments.end());
  damaged[0].reset();
  damaged[2].reset();
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme->decode(damaged, data.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          65536);
  state.SetLabel(scheme->name());
}

// One fragment checksum pass: Fragment::seal and Fragment::intact() run
// crc32 over a fragment's bytes.  run_perf.sh --check holds a mirrored read
// and a mirrored overwrite to at most two of these each.
void bm_fragment_checksum(benchmark::State& state) {
  const Bytes data = payload(static_cast<std::size_t>(state.range(0)), 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  state.SetLabel("crc32");
}

// The one codec kernel (src/storage/erasure/gf256.hpp): dst ^= c * src
// over one span, with a coefficient that takes the product tables rather
// than the 0 and 1 shortcuts.  run_perf.sh --check holds it to at most 20
// memcpys of the same bytes.
void bm_gf_mul_add(benchmark::State& state) {
  const Bytes src = payload(static_cast<std::size_t>(state.range(0)), 12);
  Bytes dst = payload(src.size(), 13);
  const auto c = static_cast<std::uint8_t>(src[0] | 2);
  for (auto _ : state) {
    gf256::mul_add(dst, src, c);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  state.SetLabel("gf256::mul_add");
}

// The content fingerprint a journaled file put carries (XXH64).
// run_perf.sh --check holds it to at most 40 memcpys of the same bytes.
void bm_content_fingerprint(benchmark::State& state) {
  const Bytes data = payload(static_cast<std::size_t>(state.range(0)), 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(content_fingerprint(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  state.SetLabel("xxh64");
}

// An output stream buffer that accepts and drops every byte.
class DiscardBuffer final : public std::streambuf {
 protected:
  int_type overflow(int_type c) override { return traits_type::not_eof(c); }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

// The journal-append stage of a file put: make_file_put (the copy and the
// fingerprint) and JournalWriter::append (encode, frame CRC-32, write)
// into a stream that discards its bytes.  run_perf.sh --check holds it to
// at most 1.7 fragment-checksum passes over the same bytes.
void bm_journal_file_put(benchmark::State& state) {
  const Bytes data = payload(static_cast<std::size_t>(state.range(0)), 11);
  DiscardBuffer discard;
  std::ostream sink(&discard);
  journal::JournalWriter writer(sink);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        writer.append(journal::make_file_put("file", data)).value_or_throw());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

// The floor for moving the same bytes once.
void bm_memcpy(benchmark::State& state) {
  const Bytes data = payload(static_cast<std::size_t>(state.range(0)), 9);
  Bytes copy(data.size());
  for (auto _ : state) {
    std::memcpy(copy.data(), data.data(), data.size());
    benchmark::DoNotOptimize(copy.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

// Same write path under different placement strategies: the placement
// lookup is a small slice of a mirrored 4 KiB write, so these rows bound
// how much the fast strategy can matter end-to-end at the storage layer.
void bm_disk_write_strategy(benchmark::State& state, PlacementKind kind) {
  VirtualDisk disk(pool(), std::make_shared<MirroringScheme>(3), kind);
  const Bytes data = payload(4096, 7);
  std::uint64_t block = 0;
  for (auto _ : state) {
    disk.try_write(block++, data).value_or_throw();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096);
}

}  // namespace

BENCHMARK(bm_disk_write)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(bm_disk_read)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(bm_disk_overwrite)->Arg(0)->Arg(1);
BENCHMARK(bm_disk_degraded_read)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(bm_disk_edit)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_codec_encode)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(bm_codec_encode_4k)->Arg(1);
BENCHMARK(bm_codec_decode_two_losses)->Arg(1)->Arg(2);
BENCHMARK(bm_fragment_checksum)->Arg(4096);
BENCHMARK(bm_gf_mul_add)->Arg(4096);
BENCHMARK(bm_content_fingerprint)->Arg(4096);
BENCHMARK(bm_journal_file_put)->Arg(4096);
BENCHMARK(bm_memcpy)->Arg(4096);
BENCHMARK_CAPTURE(bm_disk_write_strategy, redundant_share,
                  rds::PlacementKind::kRedundantShare);
BENCHMARK_CAPTURE(bm_disk_write_strategy, fast_redundant_share,
                  rds::PlacementKind::kFastRedundantShare);

int main(int argc, char** argv) { return rds::bench::perf_main(argc, argv); }
