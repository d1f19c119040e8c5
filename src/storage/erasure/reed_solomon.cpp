// ReedSolomonScheme (src/storage/redundancy_scheme.hpp): the Cauchy parity
// terms.  This is the erasure substrate the paper points at in Section 3
// ("if data is distributed according to an erasure code, each sub-block has
// a different meaning"): shard index == copy index from Redundant Share.
#include <stdexcept>

#include "src/storage/erasure/gf256.hpp"
#include "src/storage/redundancy_scheme.hpp"

namespace rds {
namespace {

std::vector<std::vector<LinearCodeScheme::Term>> cauchy_checks(unsigned d,
                                                               unsigned p) {
  if (d == 0) throw std::invalid_argument("ReedSolomonScheme: zero data");
  constexpr unsigned kMax = LinearCodeScheme::kMaxFragments;
  if (d > kMax || p > kMax - d) {  // d + p could wrap
    throw std::invalid_argument("ReedSolomonScheme: more than 256 shards");
  }
  std::vector<std::vector<LinearCodeScheme::Term>> checks(p);
  for (unsigned r = 0; r < p; ++r) {
    for (unsigned c = 0; c < d; ++c) {
      checks[r].push_back(
          {c, gf256::inv(static_cast<std::uint8_t>((d + r) ^ c))});
    }
  }
  return checks;
}

}  // namespace

ReedSolomonScheme::ReedSolomonScheme(unsigned data_shards,
                                     unsigned parity_shards)
    : LinearCodeScheme(data_shards, parity_shards, 1,
                       cauchy_checks(data_shards, parity_shards)) {}

std::string ReedSolomonScheme::name() const {
  return "reed-solomon(" + std::to_string(min_fragments()) + "+" +
         std::to_string(fragment_count() - min_fragments()) + ")";
}

}  // namespace rds
