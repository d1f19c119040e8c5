// Fixture: a Redundant Share style selection under src/core/ that draws
// its coin from ambient entropy.  Copy identification needs placement to
// be a pure function of (address, configuration); both draws below break
// it, so placement-determinism trips twice.
#include <cstdint>
#include <ctime>
#include <random>

namespace fixture {

bool select_copy(std::uint64_t address, double share) {
  std::random_device rd;
  std::mt19937_64 engine(rd() ^ address);
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine) < share;
}

std::uint64_t salt() { return static_cast<std::uint64_t>(std::time(nullptr)); }

}  // namespace fixture
