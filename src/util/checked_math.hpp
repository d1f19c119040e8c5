// Overflow-checked unsigned arithmetic for capacity sums.
//
// Capacity math in the placement layer works on raw uint64 byte counts:
// B = sum of b_i (ClusterConfig::install, FailureDomain), and the
// Lemma 2.1 feasibility test k * b_max <= B.  A cluster description with
// adversarial capacities can overflow both silently; every such sum or
// product goes through these helpers, which return kInvalidArgument
// instead of wrapping.  rds_analyze's capacity-arith rule flags raw
// capacity arithmetic outside this header (docs/static_analysis.md).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "src/core/result.hpp"

namespace rds {

/// a + b, or kInvalidArgument if the sum does not fit in 64 bits.
[[nodiscard]] inline Result<std::uint64_t> checked_add(std::uint64_t a,
                                                       std::uint64_t b) {
  std::uint64_t sum = 0;
  if (__builtin_add_overflow(a, b, &sum)) {
    return Error{ErrorCode::kInvalidArgument,
                 "checked_add: " + std::to_string(a) + " + " +
                     std::to_string(b) + " overflows uint64"};
  }
  return sum;
}

/// a * b, or kInvalidArgument if the product does not fit in 64 bits.
[[nodiscard]] inline Result<std::uint64_t> checked_mul(std::uint64_t a,
                                                       std::uint64_t b) {
  std::uint64_t product = 0;
  if (__builtin_mul_overflow(a, b, &product)) {
    return Error{ErrorCode::kInvalidArgument,
                 "checked_mul: " + std::to_string(a) + " * " +
                     std::to_string(b) + " overflows uint64"};
  }
  return product;
}

/// Sum of `values`, or kInvalidArgument on the first overflowing step.
[[nodiscard]] inline Result<std::uint64_t> checked_sum(
    std::span<const std::uint64_t> values) {
  std::uint64_t total = 0;
  for (const std::uint64_t v : values) {
    Result<std::uint64_t> step = checked_add(total, v);
    if (!step.ok()) return step;
    total = step.value();
  }
  return total;
}

}  // namespace rds
