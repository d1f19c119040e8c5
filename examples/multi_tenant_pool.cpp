// One device pool, many volumes: different redundancy per dataset.
//
// A StoragePool shares physical devices between volumes.  Here a scratch
// volume (cheap 2-way mirror), a database volume (3-way mirror for read
// fan-out) and an archive volume (RS 4+2, 1.5x overhead) coexist; a new
// device takes a share of all three in one pool edit, a device failure
// degrades all three, and one pool-wide rebuild heals them.  A volume
// handle stays safe after its volume is dropped: its writes are refused.
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <memory>

#include "src/storage/storage_pool.hpp"
#include "src/util/random.hpp"

namespace {

rds::Bytes payload(std::uint64_t block, std::uint64_t tenant) {
  rds::Bytes b(128);
  rds::Xoshiro256 rng(block * 7919 + tenant);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng());
  return b;
}

}  // namespace

int main() {
  using namespace rds;

  StoragePool pool(ClusterConfig({{1, 40'000, "nvme-a"},
                                  {2, 40'000, "nvme-b"},
                                  {3, 20'000, "ssd-a"},
                                  {4, 20'000, "ssd-b"},
                                  {5, 20'000, "ssd-c"},
                                  {6, 10'000, "hdd-a"},
                                  {7, 10'000, "hdd-b"},
                                  {8, 10'000, "hdd-c"}}));

  const std::shared_ptr<VirtualDisk> scratch =
      pool.create_volume("scratch", std::make_shared<MirroringScheme>(2));
  const std::shared_ptr<VirtualDisk> database =
      pool.create_volume("database", std::make_shared<MirroringScheme>(3));
  const std::shared_ptr<VirtualDisk> archive =
      pool.create_volume("archive", std::make_shared<ReedSolomonScheme>(4, 2));

  std::cout << "writing 3 tenants' data into one pool...\n";
  for (std::uint64_t b = 0; b < 2000; ++b) {
    scratch->try_write(b, payload(b, 1)).value_or_throw();
  }
  for (std::uint64_t b = 0; b < 1500; ++b) {
    database->try_write(b, payload(b, 2)).value_or_throw();
  }
  for (std::uint64_t b = 0; b < 2500; ++b) {
    archive->try_write(b, payload(b, 3)).value_or_throw();
  }

  // A pool edit is one reshape of every volume, refused as a whole.
  pool.try_add_device({9, 20'000, "ssd-d"}).value_or_throw();

  std::cout << std::fixed << std::setprecision(1);
  std::cout << "\nper-device usage (fragments, all volumes combined):\n";
  for (const auto& u : pool.usage()) {
    std::cout << "  " << u.device.name << ": " << u.used << " / "
              << u.device.capacity << "  ("
              << 100.0 * static_cast<double>(u.used) /
                     static_cast<double>(u.device.capacity)
              << "% -- equal across devices = fair)\n";
  }

  std::cout << "\nnvme-a dies; every volume reads degraded...\n";
  pool.fail_device(1);
  std::cout << "  scratch block 7 ok:  "
            << (scratch->try_read(7).value_or_throw() == payload(7, 1)) << '\n'
            << "  database block 7 ok: "
            << (database->try_read(7).value_or_throw() == payload(7, 2)) << '\n'
            << "  archive block 7 ok:  "
            << (archive->try_read(7).value_or_throw() == payload(7, 3)) << '\n';

  const std::uint64_t rebuilt = pool.rebuild();
  std::cout << "\npool-wide rebuild restored " << rebuilt
            << " fragments across " << pool.volume_count() << " volumes\n";
  std::cout << "  scrubs clean: scratch=" << scratch->scrub().clean()
            << " database=" << database->scrub().clean()
            << " archive=" << archive->scrub().clean() << '\n';

  std::cout << "\nretiring the scratch volume frees shared capacity...\n";
  std::uint64_t before = 0;
  for (const auto& u : pool.usage()) before += u.used;
  pool.drop_volume("scratch");
  std::uint64_t after = 0;
  for (const auto& u : pool.usage()) after += u.used;
  std::cout << "  fragments in pool: " << before << " -> " << after << '\n'
            << "  a write through the dropped handle: "
            << to_string(scratch->try_write(0, payload(0, 1)).code()) << '\n';
  return 0;
}
