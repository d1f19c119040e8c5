// Cluster and name builders shared by the test suites.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/cluster/cluster_config.hpp"

namespace rds::test {

/// `prefix` followed by `n` in decimal ("d7", "v2").  Built by appending:
/// GCC 12 reports a false -Wrestrict on `"d" + std::to_string(n)`.
inline std::string numbered(std::string_view prefix, std::uint64_t n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

/// Devices 0..caps.size()-1 with the given capacities, named "d<uid>".
inline ClusterConfig cluster_from(const std::vector<std::uint64_t>& caps) {
  std::vector<Device> devices;
  for (std::size_t i = 0; i < caps.size(); ++i) {
    devices.push_back({i, caps[i], numbered("d", i)});
  }
  return ClusterConfig(std::move(devices));
}

}  // namespace rds::test
