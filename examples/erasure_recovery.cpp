// Surviving device failures with an erasure-coded virtual disk.
//
// A VirtualDisk splits every block into RS(4+2) fragments -- 1.5x storage
// overhead instead of mirroring's 2x-3x -- and lets Redundant Share place
// the six fragments on six distinct devices of a heterogeneous pool.
// Because the placement identifies WHICH fragment lives where (the paper's
// copy-identification property), the disk knows exactly what to recompute
// when a device dies.
#include <cstdint>
#include <iostream>
#include <string>

#include "src/storage/virtual_disk.hpp"

namespace {

rds::Bytes text_block(const std::string& text) {
  return rds::Bytes(text.begin(), text.end());
}

std::string as_text(const rds::Bytes& b) {
  return std::string(b.begin(), b.end());
}

}  // namespace

int main() {
  using namespace rds;

  const ClusterConfig pool({{1, 5000, "rack1-disk1"},
                            {2, 5000, "rack1-disk2"},
                            {3, 4000, "rack2-disk1"},
                            {4, 4000, "rack2-disk2"},
                            {5, 3000, "rack3-disk1"},
                            {6, 3000, "rack3-disk2"},
                            {7, 2000, "rack4-disk1"},
                            {8, 2000, "rack4-disk2"}});

  VirtualDisk disk(pool, std::make_shared<ReedSolomonScheme>(4, 2));

  std::cout << "writing 1000 blocks with " << disk.scheme().name() << "...\n";
  for (std::uint64_t b = 0; b < 1000; ++b) {
    disk.try_write(b, text_block("block #" + std::to_string(b) +
                                 " -- some payload that must survive"))
        .value_or_throw();
  }
  std::cout << "scrub: " << (disk.scrub().clean() ? "clean" : "DIRTY") << '\n';

  std::cout << "\ndisk 3 and disk 7 crash...\n";
  disk.fail_device(3);
  disk.fail_device(7);

  // Still fully readable: any 4 of the 6 fragments reconstruct a block.
  std::cout << "degraded read of block 42: '"
            << as_text(disk.try_read(42).value_or_throw()).substr(0, 9)
            << "...'\n";

  std::cout << "\nrebuilding onto the remaining devices...\n";
  const std::uint64_t rebuilt = disk.rebuild();
  std::cout << "  fragments rebuilt: " << rebuilt << '\n'
            << "  bytes moved:       " << disk.stats().bytes_moved << '\n'
            << "  degraded reads:    " << disk.stats().degraded_reads << '\n';

  // Verify everything.
  std::uint64_t ok = 0;
  for (std::uint64_t b = 0; b < 1000; ++b) {
    const std::string text = as_text(disk.try_read(b).value_or_throw());
    if (text.starts_with("block #" + std::to_string(b))) {
      ++ok;
    }
  }
  std::cout << "  blocks verified:   " << ok << " / 1000\n"
            << "  scrub:             "
            << (disk.scrub().clean() ? "clean" : "DIRTY") << '\n';

  std::cout << "\nreplacement capacity arrives; pool grows again...\n";
  disk.try_add_device({9, 6000, "rack5-disk1"}).value_or_throw();
  std::cout << "  fragments migrated to the new disk: "
            << disk.used_on(9) << '\n'
            << "  scrub: " << (disk.scrub().clean() ? "clean" : "DIRTY")
            << '\n';
  return 0;
}
