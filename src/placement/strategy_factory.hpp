// The one place a replication strategy is constructed from a kind tag.
//
// Every layer that lets a caller pick a placement algorithm by name or enum
// (VirtualDisk, StoragePool, rds_cli, benches, examples) goes through
// make_replication_strategy() -- adding a strategy means adding one enum
// value and one case here, and every consumer picks it up.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "src/cluster/cluster_config.hpp"
#include "src/placement/strategy.hpp"

namespace rds {

/// Which placement strategy backs a disk / volume / CLI run.
/// Values are serialized into checkpoints (one byte); only append, and
/// never reuse a retired value: 4 was the O(k n^2) precomputed variant,
/// and a checkpoint carrying it must fail to restore rather than come
/// back as another strategy.
enum class PlacementKind {
  kRedundantShare = 0,      ///< the paper's strategy, O(n k) per access
  kFastRedundantShare = 1,  ///< Section 3.3 variant, O(k log n) per access
  kTrivial = 2,             ///< k independent draws (for comparison only)
  kRoundRobin = 3,          ///< static striping baseline
  kTrivialRing = 5,         ///< trivial draws on a consistent-hashing ring
                            ///< (the practical P2P form; tractable at 10k+
                            ///< devices where the exact race's O(n) is not)
};

/// Every kind, in declaration order -- the one list consumers (tests, CLI
/// usage text, error messages) iterate so a new kind cannot be forgotten.
[[nodiscard]] std::span<const PlacementKind> all_placement_kinds() noexcept;

/// Comma-separated list of every accepted spelling, canonical names first
/// ("redundant-share (rs), ..."), for usage text and unknown-name errors.
[[nodiscard]] std::string placement_kind_names();

/// Constructs the strategy for `kind` over a cluster snapshot with
/// replication degree k.  Throws std::invalid_argument for parameters the
/// strategy rejects (k == 0, k > cluster size) and std::logic_error for an
/// out-of-range kind value (corrupt snapshot byte, casted integer).
[[nodiscard]] std::unique_ptr<ReplicationStrategy> make_replication_strategy(
    PlacementKind kind, const ClusterConfig& config, unsigned k);

/// Canonical spelling, also accepted by parse_placement_kind().
[[nodiscard]] std::string_view to_string(PlacementKind kind) noexcept;

/// Parses a kind name: canonical spellings ("redundant-share",
/// "fast-redundant-share", "trivial", "round-robin", "trivial-ring") plus
/// the short CLI aliases ("rs", "fast", "rr", "ring").  nullopt for
/// anything else; placement_kind_names() lists every accepted spelling.
[[nodiscard]] std::optional<PlacementKind> parse_placement_kind(
    std::string_view name) noexcept;

}  // namespace rds
