// Golden placement pinning.
//
// A placement function IS the data layout: if a code change silently alters
// where existing blocks map, a deployed system loses every block that moved
// (it would look for data where it no longer is).  These tests pin a digest
// of the placements for fixed configurations; they must only ever change
// together with an explicit, documented migration story.
#include <gtest/gtest.h>

#include <vector>

#include "src/core/fast_redundant_share.hpp"
#include "src/core/redundant_share.hpp"
#include "src/placement/rendezvous.hpp"
#include "src/util/hash.hpp"

namespace rds {
namespace {

ClusterConfig golden_cluster() {
  return ClusterConfig({{10, 1200, ""},
                        {11, 1000, ""},
                        {12, 800, ""},
                        {13, 600, ""},
                        {14, 400, ""},
                        {15, 200, ""}});
}

std::uint64_t digest_replicated(const ReplicationStrategy& s) {
  std::uint64_t digest = 0;
  std::vector<DeviceId> out(s.replication());
  for (std::uint64_t a = 0; a < 4096; ++a) {
    s.place(a, out);
    for (const DeviceId d : out) digest = hash_combine(digest, d);
  }
  return digest;
}

std::uint64_t digest_single(const SingleStrategy& s) {
  std::uint64_t digest = 0;
  for (std::uint64_t a = 0; a < 4096; ++a) {
    digest = hash_combine(digest, s.place(a));
  }
  return digest;
}

TEST(Golden, RedundantShareK2) {
  const RedundantShare s(golden_cluster(), 2);
  EXPECT_EQ(digest_replicated(s), 0xeb696348939232c9ULL);
}

TEST(Golden, RedundantShareK4) {
  const RedundantShare s(golden_cluster(), 4);
  EXPECT_EQ(digest_replicated(s), 0xc2ee54db6bd8eb2eULL);
}

TEST(Golden, FastRedundantShareK3) {
  const FastRedundantShare s(golden_cluster(), 3);
  EXPECT_EQ(digest_replicated(s), 0x51fc5148ce203a97ULL);
}

TEST(Golden, WeightedRendezvous) {
  const WeightedRendezvous s(golden_cluster());
  EXPECT_EQ(digest_single(s), 0x27f774813f9fd500ULL);
}

}  // namespace
}  // namespace rds
