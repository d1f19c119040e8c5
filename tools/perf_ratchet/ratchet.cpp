#include "tools/perf_ratchet/ratchet.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace rds::ratchet {
namespace {

// ---------- Parser ----------

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing data after document");
    return value;
  }

 private:
  // Deep enough for benchmark JSON (3 levels) with a wide safety margin;
  // bounds stack use on adversarial input.
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json error at offset " + std::to_string(pos_) +
                             ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Json parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"': {
        Json v;
        v.kind = Json::Kind::kString;
        v.string = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        Json v;
        v.kind = Json::Kind::kBool;
        if (consume_literal("true")) {
          v.boolean = true;
        } else if (consume_literal("false")) {
          v.boolean = false;
        } else {
          fail("bad literal");
        }
        return v;
      }
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json{};
      default:
        return parse_number();
    }
  }

  Json parse_object(int depth) {
    Json v;
    v.kind = Json::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Json parse_array(int depth) {
    Json v;
    v.kind = Json::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value(depth + 1));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += parse_unicode_escape(); break;
        default: fail("bad escape");
      }
    }
  }

  std::string parse_unicode_escape() {
    std::uint32_t cp = parse_hex4();
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      // High surrogate: a low surrogate must follow for a valid pair.
      if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
          text_[pos_ + 1] == 'u') {
        pos_ += 2;
        const std::uint32_t low = parse_hex4();
        if (low < 0xDC00 || low > 0xDFFF) fail("bad surrogate pair");
        cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
      } else {
        fail("lone surrogate");
      }
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("lone surrogate");
    }
    std::string out;
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
    return out;
  }

  std::uint32_t parse_hex4() {
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) fail("truncated \\u escape");
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        fail("bad hex digit in \\u escape");
      }
    }
    return value;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      pos_ = start;
      fail("bad number");
    }
    Json v;
    v.kind = Json::Kind::kNumber;
    v.number = value;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// ---------- Serializer ----------

void append_escaped(const std::string& s, std::string& out) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(double value, std::string& out) {
  // benchmark writes iteration counts as integers; keep them that way so
  // stamped files diff cleanly against the tool's own output.
  if (std::nearbyint(value) == value && std::fabs(value) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(value));
    out += buf;
    return;
  }
  std::ostringstream oss;
  oss.precision(17);
  oss << value;
  out += oss.str();
}

void append_value(const Json& v, std::string& out, int depth) {
  const std::string indent(static_cast<std::size_t>(depth) * 2, ' ');
  const std::string inner(static_cast<std::size_t>(depth + 1) * 2, ' ');
  switch (v.kind) {
    case Json::Kind::kNull:
      out += "null";
      break;
    case Json::Kind::kBool:
      out += v.boolean ? "true" : "false";
      break;
    case Json::Kind::kNumber:
      append_number(v.number, out);
      break;
    case Json::Kind::kString:
      append_escaped(v.string, out);
      break;
    case Json::Kind::kArray:
      if (v.array.empty()) {
        out += "[]";
        break;
      }
      out += "[\n";
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        out += inner;
        append_value(v.array[i], out, depth + 1);
        if (i + 1 < v.array.size()) out += ',';
        out += '\n';
      }
      out += indent;
      out += ']';
      break;
    case Json::Kind::kObject:
      if (v.object.empty()) {
        out += "{}";
        break;
      }
      out += "{\n";
      for (std::size_t i = 0; i < v.object.size(); ++i) {
        out += inner;
        append_escaped(v.object[i].first, out);
        out += ": ";
        append_value(v.object[i].second, out, depth + 1);
        if (i + 1 < v.object.size()) out += ',';
        out += '\n';
      }
      out += indent;
      out += '}';
      break;
  }
}

std::string format_rate(double rate) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3g", rate);
  return buf;
}

}  // namespace

const Json* Json::find(std::string_view key) const noexcept {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json* Json::find(std::string_view key) noexcept {
  return const_cast<Json*>(static_cast<const Json*>(this)->find(key));
}

void Json::set_string(std::string_view key, std::string_view value) {
  Json* existing = find(key);
  if (existing == nullptr) {
    Json v;
    v.kind = Kind::kString;
    v.string = value;
    object.emplace_back(std::string(key), std::move(v));
    return;
  }
  *existing = Json{};
  existing->kind = Kind::kString;
  existing->string = value;
}

Json parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

std::string to_json(const Json& value) {
  std::string out;
  append_value(value, out, 0);
  out += '\n';
  return out;
}

std::optional<double> BenchRow::value(std::string_view name) const noexcept {
  if (name == "rate") return rate;
  for (const auto& [key, value] : counters) {
    if (key == name) return value;
  }
  return std::nullopt;
}

const BenchRow* BenchRun::find(std::string_view name) const noexcept {
  for (const auto& row : rows) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

BenchRun extract_run(const Json& doc) {
  BenchRun run;
  if (const Json* context = doc.find("context")) {
    if (const Json* lib = context->find("library_build_type")) {
      run.library_build_type = lib->string;
    }
    if (const Json* rds = context->find("rds_build_type")) {
      run.rds_build_type = rds->string;
    }
  }
  const Json* benchmarks = doc.find("benchmarks");
  if (benchmarks == nullptr || benchmarks->kind != Json::Kind::kArray) {
    throw std::runtime_error(
        "extract_run: no `benchmarks` array (not a google-benchmark JSON "
        "file?)");
  }
  for (const Json& entry : benchmarks->array) {
    // With repetitions enabled the file interleaves per-iteration rows with
    // mean/median/stddev aggregates; only the former are comparable rates.
    if (const Json* run_type = entry.find("run_type")) {
      if (run_type->string != "iteration") continue;
    }
    const Json* name = entry.find("name");
    if (name == nullptr || name->kind != Json::Kind::kString) {
      throw std::runtime_error("extract_run: benchmark entry without a name");
    }
    BenchRow row;
    row.name = name->string;
    // google-benchmark appends run-config segments ("/iterations:1",
    // "/min_time:0.5", ...) to row names; rules and baselines key on the
    // logical name, so strip them.  Real argument segments never contain
    // ':' so only config segments match.
    for (;;) {
      const std::size_t slash = row.name.rfind('/');
      if (slash == std::string::npos) break;
      const std::string_view tail =
          std::string_view(row.name).substr(slash + 1);
      const bool config_segment =
          tail.starts_with("iterations:") || tail.starts_with("repeats:") ||
          tail.starts_with("min_time:") || tail.starts_with("threads:") ||
          tail.starts_with("min_warmup_time:");
      if (!config_segment) break;
      row.name.resize(slash);
    }
    if (const Json* items = entry.find("items_per_second")) {
      row.rate = items->number;
    } else if (const Json* real_time = entry.find("real_time");
               real_time != nullptr && real_time->number > 0.0) {
      double per_second = 1e9;  // benchmark's default unit
      if (const Json* unit = entry.find("time_unit")) {
        if (unit->string == "us") per_second = 1e6;
        else if (unit->string == "ms") per_second = 1e3;
        else if (unit->string == "s") per_second = 1.0;
      }
      row.rate = per_second / real_time->number;
    }
    if (!(row.rate > 0.0)) {
      throw std::runtime_error("extract_run: benchmark `" + row.name +
                               "` has neither a positive items_per_second "
                               "nor a positive real_time");
    }
    // Everything numeric that is not a stock google-benchmark field is a
    // custom counter -- the names rules key on besides `rate`.
    static constexpr std::string_view kStockFields[] = {
        "real_time",        "cpu_time",
        "iterations",       "repetitions",
        "repetition_index", "threads",
        "family_index",     "per_family_instance_index",
        "items_per_second", "bytes_per_second",
    };
    for (const auto& [key, value] : entry.object) {
      if (value.kind != Json::Kind::kNumber) continue;
      bool stock = false;
      for (const std::string_view field : kStockFields) {
        if (key == field) {
          stock = true;
          break;
        }
      }
      if (!stock) row.counters.emplace_back(key, value.number);
    }
    run.rows.push_back(std::move(row));
  }
  return run;
}

std::optional<Rule> parse_rule(std::string_view spec) {
  // Value and row names never contain ':', so the first three colons bound
  // the names, and a fourth one leaves the ratio unparsable.
  std::string_view names[3];
  for (std::string_view& name : names) {
    const std::size_t colon = spec.find(':');
    if (colon == 0 || colon == std::string_view::npos) return std::nullopt;
    name = spec.substr(0, colon);
    spec.remove_prefix(colon + 1);
  }
  Rule rule{std::string(names[0]), std::string(names[1]),
            std::string(names[2]), 0.0};
  const char* const end = spec.data() + spec.size();
  const auto [stop, error] = std::from_chars(spec.data(), end, rule.ratio);
  if (error != std::errc{} || stop != end || !std::isfinite(rule.ratio) ||
      !(rule.ratio > 0.0)) {
    return std::nullopt;
  }
  return rule;
}

void check_build_type(const BenchRun& current, Report& report) {
  // Prefer our own stamp -- the stock library_build_type key reports how
  // the benchmark LIBRARY was compiled, which on Debian is always "debug".
  const std::string& type = current.rds_build_type.empty()
                                ? current.library_build_type
                                : current.rds_build_type;
  if (type == "release") return;
  const char* key =
      current.rds_build_type.empty() ? "library_build_type" : "rds_build_type";
  report.failures.push_back(
      std::string("build type: context.") + key + " is `" +
      (type.empty() ? "<missing>" : type) +
      "` -- perf truth requires an NDEBUG build (run bench/run_perf.sh)");
}

void compare_runs(const BenchRun& baseline, const BenchRun& current,
                  Report& report) {
  const double floor = 1.0 - kTolerance;
  const double ceiling = 1.0 + kTolerance;
  for (const BenchRow& base : baseline.rows) {
    const BenchRow* cur = current.find(base.name);
    if (cur == nullptr) {
      report.failures.push_back("missing: `" + base.name +
                                "` is in the baseline but not in the "
                                "current run");
      continue;
    }
    const double ratio = cur->rate / base.rate;
    if (ratio < floor) {
      report.failures.push_back(
          "regression: `" + base.name + "` " + format_rate(base.rate) +
          " -> " + format_rate(cur->rate) + " items/s (" +
          format_rate(ratio * 100.0) + "% of baseline, floor " +
          format_rate(floor * 100.0) + "%)");
    } else if (ratio > ceiling) {
      report.notes.push_back("improved: `" + base.name + "` " +
                             format_rate(base.rate) + " -> " +
                             format_rate(cur->rate) +
                             " items/s; consider regenerating the baseline "
                             "to ratchet it in");
    }
  }
  for (const BenchRow& cur : current.rows) {
    if (baseline.find(cur.name) == nullptr) {
      report.notes.push_back("new: `" + cur.name +
                             "` is not in the baseline yet");
    }
  }
}

void check_rule(const BenchRun& current, const Rule& rule, Report& report) {
  const BenchRow* low = current.find(rule.low);
  const BenchRow* high = current.find(rule.high);
  if (low == nullptr || high == nullptr) {
    report.failures.push_back("rule: the current run lacks `" +
                              (low == nullptr ? rule.low : rule.high) + "`");
    return;
  }
  const std::optional<double> low_value = low->value(rule.value);
  const std::optional<double> high_value = high->value(rule.value);
  if (!low_value || !high_value) {
    report.failures.push_back("rule: `" + (low_value ? rule.high : rule.low) +
                              "` carries no `" + rule.value + "`");
    return;
  }
  const double bound = *high_value * rule.ratio;
  const bool holds = *low_value <= bound;  // false for NaN too
  const std::string verdict =
      "`" + rule.low + "` " + rule.value + " " + format_rate(*low_value) +
      (holds ? " <= " : " > ") + format_rate(bound) + " (`" + rule.high +
      "` " + rule.value + " " + format_rate(*high_value) + " x " +
      format_rate(rule.ratio) + ")";
  if (holds) {
    report.notes.push_back("rule ok: " + verdict);
  } else {
    report.failures.push_back("rule: " + verdict);
  }
}

void stamp_build_type(Json& doc) {
  Json* context = doc.find("context");
  if (context == nullptr) {
    throw std::runtime_error("stamp: document has no `context` object");
  }
  const Json* rds = context->find("rds_build_type");
  if (rds == nullptr || rds->string != "release") {
    throw std::runtime_error(
        "stamp: context.rds_build_type is `" +
        (rds == nullptr ? std::string("<missing>") : rds->string) +
        "` -- only NDEBUG runs may be stamped (see bench/perf_main.hpp)");
  }
  // Idempotent: once a file is stamped, library_build_type no longer
  // reflects the library, so the first pass's assertions record wins.
  if (context->find("benchmark_library_assertions") == nullptr) {
    const Json* lib = context->find("library_build_type");
    const bool library_assertions =
        lib == nullptr || lib->string != "release";
    context->set_string("benchmark_library_assertions",
                        library_assertions ? "enabled" : "disabled");
  }
  context->set_string("library_build_type", "release");
}

}  // namespace rds::ratchet
