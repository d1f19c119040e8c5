#include "src/storage/redundancy_scheme.hpp"

#include <charconv>
#include <stdexcept>
#include <string_view>

#include "src/storage/erasure/evenodd.hpp"
#include "src/storage/erasure/rdp.hpp"

namespace rds {

MirroringScheme::MirroringScheme(unsigned k) : k_(k) {
  if (k == 0) throw std::invalid_argument("MirroringScheme: k == 0");
}

std::vector<Bytes> MirroringScheme::encode(
    std::span<const std::uint8_t> block) const {
  return std::vector<Bytes>(k_, Bytes(block.begin(), block.end()));
}

Bytes MirroringScheme::decode(std::span<const std::optional<Bytes>> fragments,
                              std::size_t block_size) const {
  if (fragments.size() != k_) {
    throw std::invalid_argument("MirroringScheme: wrong fragment count");
  }
  for (const auto& f : fragments) {
    if (f) {
      if (f->size() < block_size) {
        throw std::invalid_argument("MirroringScheme: truncated fragment");
      }
      return Bytes(f->begin(),
                   f->begin() + static_cast<std::ptrdiff_t>(block_size));
    }
  }
  throw std::invalid_argument("MirroringScheme: all copies lost");
}

Bytes MirroringScheme::reconstruct_fragment(
    std::span<const std::optional<Bytes>> fragments, unsigned target) const {
  if (target >= k_) {
    throw std::invalid_argument("MirroringScheme: bad target");
  }
  for (const auto& f : fragments) {
    if (f) return *f;
  }
  throw std::invalid_argument("MirroringScheme: all copies lost");
}

std::string MirroringScheme::name() const {
  return "mirror(k=" + std::to_string(k_) + ")";
}

std::shared_ptr<RedundancyScheme> make_scheme_from_name(
    const std::string& name) {
  const auto bad = [&](const std::string& why) {
    return std::invalid_argument("make_scheme_from_name: " + why + ": '" +
                                 name + "'");
  };
  // Strict unsigned parse: the whole token must be digits and fit.
  const auto number = [&](std::string_view token) -> unsigned {
    unsigned value = 0;
    const auto [end, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec == std::errc::result_out_of_range) {
      throw bad("number out of range");
    }
    if (ec != std::errc{} || end != token.data() + token.size() ||
        token.empty()) {
      throw bad("malformed number '" + std::string(token) + "'");
    }
    return value;
  };
  // The parameters: all that follows `alias`, or what follows `canonical`
  // up to a ')' that must end the name; nullopt when neither prefix matches.
  const auto params = [&](std::string_view canonical, std::string_view alias)
      -> std::optional<std::string_view> {
    const std::string_view whole = name;
    if (whole.starts_with(alias)) return whole.substr(alias.size());
    if (!whole.starts_with(canonical)) return std::nullopt;
    const std::string_view rest = whole.substr(canonical.size());
    const std::size_t close = rest.find(')');
    if (close == std::string_view::npos) throw bad("missing ')'");
    if (close + 1 != rest.size()) throw bad("trailing characters after ')'");
    return rest.substr(0, close);
  };
  if (const auto k = params("mirror(k=", "mirror:")) {
    return std::make_shared<MirroringScheme>(number(*k));
  }
  if (const auto body = params("reed-solomon(", "rs:")) {
    const std::size_t plus = body->find('+');
    if (plus == std::string_view::npos) throw bad("expected 'D+P'");
    return std::make_shared<ReedSolomonScheme>(number(body->substr(0, plus)),
                                               number(body->substr(plus + 1)));
  }
  if (const auto p = params("evenodd(p=", "evenodd:")) {
    return std::make_shared<EvenOddScheme>(number(*p));
  }
  if (const auto p = params("rdp(p=", "rdp:")) {
    return std::make_shared<RdpScheme>(number(*p));
  }
  throw bad("unknown scheme kind");
}

}  // namespace rds
