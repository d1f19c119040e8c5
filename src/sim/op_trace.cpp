#include "src/sim/op_trace.hpp"

#include <istream>
#include <sstream>
#include <stdexcept>

#include "src/util/hash.hpp"

namespace rds {
namespace {

[[noreturn]] void fail_at(std::size_t line, const std::string& what) {
  throw std::runtime_error("line " + std::to_string(line) + ": " + what);
}

std::uint64_t parse_u64(std::istringstream& in, std::size_t line,
                        const char* what) {
  std::uint64_t v = 0;
  if (!(in >> v)) fail_at(line, std::string("expected ") + what);
  return v;
}

}  // namespace

Bytes TraceRunner::deterministic_payload(std::uint64_t block,
                                         std::size_t size) {
  Bytes payload(size);
  std::uint64_t state = mix64(block + 0x7ace0ULL);
  for (std::size_t i = 0; i < size; ++i) {
    if (i % 8 == 0) state = mix64(state);
    payload[i] = static_cast<std::uint8_t>(state >> ((i % 8) * 8));
  }
  return payload;
}

TraceStats TraceRunner::run(std::istream& script) {
  TraceStats stats;
  std::string raw;
  std::size_t line_no = 0;
  std::size_t default_size = 128;
  while (std::getline(script, raw)) {
    ++line_no;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream in(raw);
    std::string cmd;
    if (!(in >> cmd)) continue;  // blank / comment line
    ++stats.commands;

    try {
      if (cmd == "write") {
        const std::uint64_t first = parse_u64(in, line_no, "first block");
        const std::uint64_t count = parse_u64(in, line_no, "count");
        std::size_t size = default_size;
        if (std::uint64_t s = 0; in >> s) size = static_cast<std::size_t>(s);
        for (std::uint64_t b = first; b < first + count; ++b) {
          disk_.try_write(b, deterministic_payload(b, size)).value_or_throw();
          ++stats.blocks_written;
        }
        default_size = size;
      } else if (cmd == "read") {
        const std::uint64_t first = parse_u64(in, line_no, "first block");
        const std::uint64_t count = parse_u64(in, line_no, "count");
        for (std::uint64_t b = first; b < first + count; ++b) {
          const Bytes content = disk_.try_read(b).value_or_throw();
          if (content != deterministic_payload(b, content.size())) {
            fail_at(line_no,
                    "verification failed for block " + std::to_string(b));
          }
          ++stats.blocks_verified;
        }
      } else if (cmd == "trim") {
        const std::uint64_t first = parse_u64(in, line_no, "first block");
        const std::uint64_t count = parse_u64(in, line_no, "count");
        for (std::uint64_t b = first; b < first + count; ++b) {
          if (disk_.try_trim(b).ok()) ++stats.blocks_trimmed;
        }
      } else if (cmd == "add") {
        const std::uint64_t uid = parse_u64(in, line_no, "device uid");
        const std::uint64_t capacity = parse_u64(in, line_no, "capacity");
        std::string name;
        in >> name;
        disk_.try_add_device({uid, capacity, name}).value_or_throw();
        ++stats.topology_changes;
      } else if (cmd == "remove") {
        disk_.try_remove_device(parse_u64(in, line_no, "device uid"))
            .value_or_throw();
        ++stats.topology_changes;
      } else if (cmd == "fail") {
        disk_.fail_device(parse_u64(in, line_no, "device uid"));
      } else if (cmd == "corrupt") {
        const std::uint64_t block = parse_u64(in, line_no, "block");
        const std::uint64_t fragment = parse_u64(in, line_no, "fragment");
        if (!disk_.corrupt_fragment(block,
                                    static_cast<unsigned>(fragment))) {
          fail_at(line_no, "no such fragment to corrupt");
        }
      } else if (cmd == "rebuild") {
        stats.fragments_rebuilt += disk_.rebuild();
        ++stats.topology_changes;
      } else if (cmd == "repair") {
        stats.fragments_repaired += disk_.repair();
      } else if (cmd == "scrub") {
        if (!disk_.scrub().clean()) fail_at(line_no, "scrub found damage");
      } else if (cmd == "scrub-dirty") {
        if (disk_.scrub().clean()) {
          fail_at(line_no, "expected damage, pool is clean");
        }
      } else {
        fail_at(line_no, "unknown command: " + cmd);
      }
    } catch (const std::runtime_error&) {
      throw;  // already annotated (or a disk error worth surfacing as-is)
    } catch (const std::exception& e) {
      fail_at(line_no, e.what());
    }
  }
  return stats;
}

}  // namespace rds
