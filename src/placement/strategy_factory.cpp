#include "src/placement/strategy_factory.hpp"

#include <stdexcept>

#include "src/core/fast_redundant_share.hpp"
#include "src/core/redundant_share.hpp"
#include "src/placement/static_placement.hpp"
#include "src/placement/trivial_replication.hpp"

namespace rds {
namespace {

/// Accepted spellings per kind: canonical name first, then aliases.
/// parse_placement_kind, placement_kind_names and to_string all read this
/// table, so a new kind shows up in every error message automatically.
struct KindNames {
  PlacementKind kind;
  std::string_view canonical;
  std::string_view alias;  // empty when the kind has no short form
};

constexpr PlacementKind kAllKinds[] = {
    PlacementKind::kRedundantShare, PlacementKind::kFastRedundantShare,
    PlacementKind::kTrivial,        PlacementKind::kRoundRobin,
    PlacementKind::kTrivialRing,
};

constexpr KindNames kNames[] = {
    {PlacementKind::kRedundantShare, "redundant-share", "rs"},
    {PlacementKind::kFastRedundantShare, "fast-redundant-share", "fast"},
    {PlacementKind::kTrivial, "trivial", ""},
    {PlacementKind::kRoundRobin, "round-robin", "rr"},
    {PlacementKind::kTrivialRing, "trivial-ring", "ring"},
};

}  // namespace

std::unique_ptr<ReplicationStrategy> make_replication_strategy(
    PlacementKind kind, const ClusterConfig& config, unsigned k) {
  switch (kind) {
    case PlacementKind::kRedundantShare:
      return std::make_unique<RedundantShare>(config, k);
    case PlacementKind::kFastRedundantShare:
      return std::make_unique<FastRedundantShare>(config, k);
    case PlacementKind::kTrivial:
      return std::make_unique<TrivialReplication>(config, k);
    case PlacementKind::kRoundRobin:
      return std::make_unique<RoundRobinStriping>(config, k);
    case PlacementKind::kTrivialRing:
      return std::make_unique<TrivialReplication>(config, k,
                                                  TrivialBackend::kRingWalk);
  }
  throw std::logic_error(
      "make_replication_strategy: unknown placement kind; valid: " +
      placement_kind_names());
}

std::span<const PlacementKind> all_placement_kinds() noexcept {
  return kAllKinds;
}

std::string placement_kind_names() {
  std::string out;
  for (const KindNames& entry : kNames) {
    if (!out.empty()) out += ", ";
    out += entry.canonical;
    if (!entry.alias.empty()) {
      out += " (";
      out += entry.alias;
      out += ")";
    }
  }
  return out;
}

std::string_view to_string(PlacementKind kind) noexcept {
  for (const KindNames& entry : kNames) {
    if (entry.kind == kind) return entry.canonical;
  }
  return "?";
}

std::optional<PlacementKind> parse_placement_kind(
    std::string_view name) noexcept {
  for (const KindNames& entry : kNames) {
    if (name == entry.canonical ||
        (!entry.alias.empty() && name == entry.alias)) {
      return entry.kind;
    }
  }
  return std::nullopt;
}

}  // namespace rds
