#include "src/sim/workload.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

namespace rds {
namespace {

/// expm1(t)/t, continuous at 0.
double helper2(double t) {
  return std::abs(t) > 1e-8 ? std::expm1(t) / t : 1.0 + t / 2.0 + t * t / 6.0;
}

/// log1p(t)/t, continuous at 0.
double helper1(double t) {
  return std::abs(t) > 1e-8 ? std::log1p(t) / t : 1.0 - t / 2.0 + t * t / 3.0;
}

/// The epoch index of `now_us` under `period_us` (times before 0 clamp to
/// epoch 0, so callers never see a negative window).
std::uint64_t epoch_of(double now_us, double period_us) noexcept {
  if (!(now_us > 0.0)) return 0;
  return static_cast<std::uint64_t>(now_us / period_us);
}

}  // namespace

std::vector<std::uint64_t> sequential_addresses(std::uint64_t count,
                                                std::uint64_t base) {
  std::vector<std::uint64_t> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) out.push_back(base + i);
  return out;
}

std::vector<std::uint64_t> random_addresses(std::uint64_t count,
                                            Xoshiro256& rng) {
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(count * 2);
  std::vector<std::uint64_t> out;
  out.reserve(count);
  while (out.size() < count) {
    const std::uint64_t a = rng();
    if (seen.insert(a).second) out.push_back(a);
  }
  return out;
}

UniformGenerator::UniformGenerator(std::uint64_t universe) : n_(universe) {
  if (universe == 0) {
    throw std::invalid_argument("UniformGenerator: universe=0");
  }
}

std::uint64_t UniformGenerator::sample(Xoshiro256& rng,
                                       double /*now_us*/) const {
  return rng.next_below(n_);
}

// Rejection-inversion sampling (Hörmann & Derflinger 1996), following the
// Apache Commons RNG formulation.  H is an antiderivative of the smooth
// majorizer h(x) = x^-s of the Zipf pmf.
Result<ZipfGenerator> ZipfGenerator::try_make(std::uint64_t universe,
                                              double skew) {
  if (universe == 0) {
    return {ErrorCode::kInvalidArgument, "ZipfGenerator: universe=0"};
  }
  if (std::isnan(skew) || std::isinf(skew)) {
    return {ErrorCode::kInvalidArgument, "ZipfGenerator: skew is not finite"};
  }
  if (skew < 0.0) {
    return {ErrorCode::kInvalidArgument, "ZipfGenerator: negative skew"};
  }
  return ZipfGenerator(Validated{}, universe, skew);
}

ZipfGenerator::ZipfGenerator(Validated, std::uint64_t universe,
                             double skew) noexcept
    : n_(universe), s_(skew) {
  // The s == 0 (uniform) path samples with next_below and never consults
  // the rejection-inversion constants -- skip computing them.
  if (s_ == 0.0) return;
  h_integral_x1_ = h_integral(1.5) - 1.0;
  h_integral_num_elements_ = h_integral(static_cast<double>(n_) + 0.5);
  h_x1_ = 2.0 - h_integral_inverse(h_integral(2.5) - h(2.0));
}

double ZipfGenerator::h(double x) const { return std::exp(-s_ * std::log(x)); }

double ZipfGenerator::h_integral(double x) const {
  const double log_x = std::log(x);
  return helper2((1.0 - s_) * log_x) * log_x;
}

double ZipfGenerator::h_integral_inverse(double x) const {
  double t = x * (1.0 - s_);
  if (t < -1.0) t = -1.0;  // guard against numerical round-off
  return std::exp(helper1(t) * x);
}

std::uint64_t ZipfGenerator::sample(Xoshiro256& rng) const {
  if (s_ == 0.0) return rng.next_below(n_);
  while (true) {
    const double u =
        h_integral_num_elements_ +
        rng.next_unit() * (h_integral_x1_ - h_integral_num_elements_);
    const double x = h_integral_inverse(u);
    double kd = std::floor(x + 0.5);
    if (kd < 1.0) kd = 1.0;
    if (kd > static_cast<double>(n_)) kd = static_cast<double>(n_);
    if (kd - x <= h_x1_ || u >= h_integral(kd + 0.5) - h(kd)) {
      return static_cast<std::uint64_t>(kd) - 1;  // 0-based, item 0 hottest
    }
  }
}

FlashCrowdGenerator::FlashCrowdGenerator(std::uint64_t universe, double skew,
                                         double crowd_fraction,
                                         double period_us, double duty,
                                         double surge)
    : base_(ZipfGenerator::try_make(universe, skew).value_or_throw()),
      crowd_fraction_(crowd_fraction),
      period_us_(period_us),
      duty_(duty),
      surge_(surge) {
  if (!(crowd_fraction >= 0.0 && crowd_fraction <= 1.0)) {
    throw std::invalid_argument(
        "FlashCrowdGenerator: crowd fraction must be in [0, 1]");
  }
  if (!(period_us > 0.0) || std::isinf(period_us)) {
    throw std::invalid_argument(
        "FlashCrowdGenerator: period must be positive and finite");
  }
  if (!(duty > 0.0 && duty <= 1.0)) {
    throw std::invalid_argument(
        "FlashCrowdGenerator: duty must be in (0, 1]");
  }
  if (!(surge >= 1.0) || std::isinf(surge)) {
    throw std::invalid_argument(
        "FlashCrowdGenerator: surge must be >= 1 and finite");
  }
}

bool FlashCrowdGenerator::in_crowd(double now_us) const noexcept {
  const double offset =
      now_us - std::floor(now_us / period_us_) * period_us_;
  return offset >= 0.0 && offset < duty_ * period_us_;
}

std::uint64_t FlashCrowdGenerator::crowd_ball(double now_us) const noexcept {
  // A fresh deterministic object per window: hash the window index so
  // consecutive crowds land on unrelated balls.
  const std::uint64_t window = epoch_of(now_us, period_us_);
  return mix64(window + 1) % base_.universe();
}

std::uint64_t FlashCrowdGenerator::sample(Xoshiro256& rng,
                                          double now_us) const {
  if (in_crowd(now_us) && rng.next_unit() < crowd_fraction_) {
    return crowd_ball(now_us);
  }
  return base_.sample(rng);
}

double FlashCrowdGenerator::rate_factor(double now_us) const noexcept {
  return in_crowd(now_us) ? surge_ : 1.0;
}

DiurnalGenerator::DiurnalGenerator(std::uint64_t universe, double skew,
                                   double amplitude, double period_us)
    : base_(ZipfGenerator::try_make(universe, skew).value_or_throw()),
      amplitude_(amplitude),
      period_us_(period_us) {
  if (!(amplitude >= 0.0 && amplitude < 1.0)) {
    throw std::invalid_argument(
        "DiurnalGenerator: amplitude must be in [0, 1)");
  }
  if (!(period_us > 0.0) || std::isinf(period_us)) {
    throw std::invalid_argument(
        "DiurnalGenerator: period must be positive and finite");
  }
}

std::uint64_t DiurnalGenerator::sample(Xoshiro256& rng,
                                       double /*now_us*/) const {
  return base_.sample(rng);
}

double DiurnalGenerator::rate_factor(double now_us) const noexcept {
  constexpr double kTwoPi = 6.283185307179586;
  return 1.0 + amplitude_ * std::sin(kTwoPi * now_us / period_us_);
}

HotspotShiftGenerator::HotspotShiftGenerator(std::uint64_t universe,
                                             double skew, double period_us)
    : base_(ZipfGenerator::try_make(universe, skew).value_or_throw()),
      period_us_(period_us) {
  if (!(period_us > 0.0) || std::isinf(period_us)) {
    throw std::invalid_argument(
        "HotspotShiftGenerator: period must be positive and finite");
  }
}

std::uint64_t HotspotShiftGenerator::offset_at(double now_us) const noexcept {
  return mix64(epoch_of(now_us, period_us_)) % base_.universe();
}

std::uint64_t HotspotShiftGenerator::sample(Xoshiro256& rng,
                                            double now_us) const {
  // Zipf rank, rotated by the epoch's offset: the shape of the popularity
  // curve is unchanged, its support moves wholesale.
  const std::uint64_t rank = base_.sample(rng);
  const std::uint64_t n = base_.universe();
  return (rank + offset_at(now_us)) % n;
}

// ---------- The workload factory ----------

namespace {

/// Accepted spellings per kind: canonical name first, then the alias, plus
/// the parameter shape shown in usage text and unknown-name errors.
struct WorkloadNames {
  WorkloadKind kind;
  std::string_view canonical;
  std::string_view alias;  // empty when the kind has no short form
  std::string_view params;
  std::size_t max_params;
};

constexpr WorkloadKind kAllWorkloadKinds[] = {
    WorkloadKind::kUniform,      WorkloadKind::kZipf,
    WorkloadKind::kFlashCrowd,   WorkloadKind::kDiurnal,
    WorkloadKind::kHotspotShift,
};

constexpr WorkloadNames kWorkloadNames[] = {
    {WorkloadKind::kUniform, "uniform", "", "", 0},
    {WorkloadKind::kZipf, "zipf", "", ":SKEW", 1},
    {WorkloadKind::kFlashCrowd, "flash-crowd", "flash",
     ":SKEW[,FRAC[,PERIOD_US]]", 3},
    {WorkloadKind::kDiurnal, "diurnal", "", ":SKEW[,AMPLITUDE[,PERIOD_US]]",
     3},
    {WorkloadKind::kHotspotShift, "hotspot-shift", "hotspot",
     ":SKEW[,PERIOD_US]", 2},
};

/// Strict double parser: the whole token must parse and be finite.
bool parse_param(std::string_view token, double& out) noexcept {
  const char* const first = token.data();
  const char* const last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc() && ptr == last && !token.empty() &&
         !std::isnan(out) && !std::isinf(out);
}

}  // namespace

std::span<const WorkloadKind> all_workload_kinds() noexcept {
  return kAllWorkloadKinds;
}

std::string workload_kind_names() {
  std::string out;
  for (const WorkloadNames& entry : kWorkloadNames) {
    if (!out.empty()) out += ", ";
    out += entry.canonical;
    out += entry.params;
    if (!entry.alias.empty()) {
      out += " (";
      out += entry.alias;
      out += ")";
    }
  }
  return out;
}

std::string_view to_string(WorkloadKind kind) noexcept {
  for (const WorkloadNames& entry : kWorkloadNames) {
    if (entry.kind == kind) return entry.canonical;
  }
  return "?";
}

Result<std::unique_ptr<WorkloadGenerator>> try_make_workload(
    std::string_view spec, std::uint64_t universe) {
  if (universe == 0) {
    return {ErrorCode::kInvalidArgument, "try_make_workload: universe=0"};
  }
  const std::size_t colon = spec.find(':');
  const std::string_view kind_name =
      colon == std::string_view::npos ? spec : spec.substr(0, colon);

  const WorkloadNames* entry = nullptr;
  for (const WorkloadNames& candidate : kWorkloadNames) {
    if (kind_name == candidate.canonical ||
        (!candidate.alias.empty() && kind_name == candidate.alias)) {
      entry = &candidate;
      break;
    }
  }
  if (entry == nullptr) {
    return {ErrorCode::kInvalidArgument,
            "try_make_workload: unknown workload '" + std::string(kind_name) +
                "'; valid: " + workload_kind_names()};
  }

  // Split the parameter list; every token must be a finite double.
  std::vector<double> params;
  if (colon != std::string_view::npos) {
    std::string_view rest = spec.substr(colon + 1);
    while (true) {
      const std::size_t comma = rest.find(',');
      const std::string_view token =
          comma == std::string_view::npos ? rest : rest.substr(0, comma);
      double value = 0.0;
      if (!parse_param(token, value)) {
        return {ErrorCode::kInvalidArgument,
                "try_make_workload: bad parameter '" + std::string(token) +
                    "' in spec '" + std::string(spec) + "'"};
      }
      params.push_back(value);
      if (comma == std::string_view::npos) break;
      rest = rest.substr(comma + 1);
    }
  }
  if (params.size() > entry->max_params) {
    return {ErrorCode::kInvalidArgument,
            "try_make_workload: " + std::string(entry->canonical) +
                " takes at most " + std::to_string(entry->max_params) +
                " parameter(s) (" + std::string(entry->canonical) +
                std::string(entry->params) + ")"};
  }

  const auto param = [&params](std::size_t i, double fallback) {
    return i < params.size() ? params[i] : fallback;
  };
  const double skew = param(0, 0.9);
  // Shared skew validation (every parameterized kind embeds a Zipf base).
  const Result<ZipfGenerator> base = ZipfGenerator::try_make(universe, skew);
  if (entry->kind != WorkloadKind::kUniform && !base.ok()) {
    return base.error();
  }

  switch (entry->kind) {
    case WorkloadKind::kUniform:
      return {std::make_unique<UniformGenerator>(universe)};
    case WorkloadKind::kZipf:
      return {std::make_unique<ZipfGenerator>(base.value())};
    case WorkloadKind::kFlashCrowd: {
      const double fraction = param(1, 0.5);
      const double period_us = param(2, 2e6);
      if (!(fraction >= 0.0 && fraction <= 1.0)) {
        return {ErrorCode::kInvalidArgument,
                "try_make_workload: flash-crowd fraction must be in [0, 1]"};
      }
      if (!(period_us > 0.0)) {
        return {ErrorCode::kInvalidArgument,
                "try_make_workload: flash-crowd period must be positive"};
      }
      return {std::make_unique<FlashCrowdGenerator>(universe, skew, fraction,
                                                    period_us)};
    }
    case WorkloadKind::kDiurnal: {
      const double amplitude = param(1, 0.8);
      const double period_us = param(2, 10e6);
      if (!(amplitude >= 0.0 && amplitude < 1.0)) {
        return {ErrorCode::kInvalidArgument,
                "try_make_workload: diurnal amplitude must be in [0, 1)"};
      }
      if (!(period_us > 0.0)) {
        return {ErrorCode::kInvalidArgument,
                "try_make_workload: diurnal period must be positive"};
      }
      return {std::make_unique<DiurnalGenerator>(universe, skew, amplitude,
                                                 period_us)};
    }
    case WorkloadKind::kHotspotShift: {
      const double period_us = param(1, 1e6);
      if (!(period_us > 0.0)) {
        return {ErrorCode::kInvalidArgument,
                "try_make_workload: hotspot-shift period must be positive"};
      }
      return {std::make_unique<HotspotShiftGenerator>(universe, skew,
                                                      period_us)};
    }
  }
  return {ErrorCode::kInvalidArgument,
          "try_make_workload: unhandled workload kind"};
}

}  // namespace rds
