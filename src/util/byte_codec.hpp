// The one little-endian codec behind every persisted byte: snapshot
// sections, journal record payloads and frames, and the sealed headers of
// journals and checkpoints (docs/persistence.md).
//
// A ByteWriter appends to a byte buffer or an output stream; a ByteReader
// consumes a byte span or an input stream.  Neither buffers ahead, so one
// stream can carry sections that different codec objects write or read in
// turn.  Fields: u8, u32 and u64 integers; strings (u32 length, then the
// bytes); byte fields (u64 length, then the bytes); 8-byte magics.
//
// One rule for lengths.  A writer refuses a length its prefix cannot hold
// (std::length_error, nothing written) rather than cutting it down.  A
// reader treats every length as a claim: it reads the claimed bytes in
// chunks of at most kReadChunk, so memory tracks the bytes that really
// arrive, and a claim past the end of the input throws TruncatedInput.
//
// Writer and reader both name their operation `field`, so one template
// that calls `io.field(x)` for each member in order serializes a const
// value through a ByteWriter and parses a mutable one through a ByteReader:
// the two directions cannot disagree on a layout.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace rds {

/// Bytes of a magic: "RDSDISK3", "RDSWAL02", ...
inline constexpr std::size_t kMagicBytes = 8;

/// The one check of a stream's magic, for journals, checkpoints and
/// snapshots alike: "" when `got` is `want`, else why it is refused.  The
/// last byte of a magic is its format version, so a magic that differs
/// from `want` only there is named with both versions ("RDSWAL01 is
/// format version 1; this build reads only version 2 (RDSWAL02)"); any
/// other is a foreign stream, "bad magic".
[[nodiscard]] inline std::string magic_mismatch(std::string_view got,
                                                std::string_view want) {
  if (got == want) return "";
  const std::size_t version = kMagicBytes - 1;
  if (got.size() == want.size() &&
      got.substr(0, version) == want.substr(0, version)) {
    return std::string(got) + " is format version " +
           std::string(got.substr(version)) +
           "; this build reads only version " +
           std::string(want.substr(version)) + " (" + std::string(want) + ")";
  }
  return "bad magic";
}

/// The input ended before a field did, or a length claimed more bytes than
/// the input holds.
class TruncatedInput : public std::runtime_error {
 public:
  TruncatedInput() : std::runtime_error("truncated input") {}
};

class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& buffer) : buffer_(&buffer) {}
  explicit ByteWriter(std::ostream& stream) : stream_(&stream) {}

  void field(std::uint8_t v) { le(v); }
  void field(std::uint32_t v) { le(v); }
  void field(std::uint64_t v) { le(v); }

  /// A u32-prefixed string.
  void field(std::string_view s) {
    length32(s.size());
    raw({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }

  /// A u64-prefixed byte field.
  void field(std::span<const std::uint8_t> bytes) {
    static_assert(sizeof(std::size_t) <= sizeof(std::uint64_t));
    field(std::uint64_t{bytes.size()});
    raw(bytes);
  }

  /// A u32 length or count.  Throws std::length_error, writing nothing,
  /// when `n` does not fit.
  void length32(std::size_t n) {
    if (n > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("length " + std::to_string(n) +
                              " does not fit a u32 prefix");
    }
    field(static_cast<std::uint32_t>(n));
  }

  /// A format's magic, raw: kMagicBytes long ("RDSDISK3").
  void magic(std::string_view magic) {
    raw({reinterpret_cast<const std::uint8_t*>(magic.data()), magic.size()});
  }

  /// Bytes without a length prefix.
  void raw(std::span<const std::uint8_t> bytes) {
    if (stream_) {
      stream_->write(reinterpret_cast<const char*>(bytes.data()),
                     static_cast<std::streamsize>(bytes.size()));
    } else {
      // Grow, then copy: GCC 12 at -O3 misreads vector::insert of a small
      // fixed array into an empty vector as an overflow.
      const std::size_t at = buffer_->size();
      buffer_->resize(at + bytes.size());
      std::copy(bytes.begin(), bytes.end(), buffer_->begin() + at);
    }
  }

 private:
  template <typename T>
  void le(T v) {
    std::array<std::uint8_t, sizeof(T)> b{};
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    raw(b);
  }

  std::vector<std::uint8_t>* buffer_ = nullptr;
  std::ostream* stream_ = nullptr;
};

class ByteReader {
 public:
  /// A claimed length is read this many bytes at a time.
  static constexpr std::uint64_t kReadChunk = 1 << 16;

  explicit ByteReader(std::span<const std::uint8_t> buffer) : buffer_(buffer) {}
  explicit ByteReader(std::istream& stream) : stream_(&stream) {}

  void field(std::uint8_t& v) { v = le<std::uint8_t>(); }
  void field(std::uint32_t& v) { v = le<std::uint32_t>(); }
  void field(std::uint64_t& v) { v = le<std::uint64_t>(); }
  void field(std::string& s) { s = claimed<std::string>(le<std::uint32_t>()); }
  void field(std::vector<std::uint8_t>& b) {
    b = claimed<std::vector<std::uint8_t>>(le<std::uint64_t>());
  }

  /// The next field of type T.
  template <typename T>
  T read() {
    T v{};
    field(v);
    return v;
  }

  /// `size` bytes whose length came from elsewhere (a frame's prefix).
  std::vector<std::uint8_t> bytes(std::uint64_t size) {
    return claimed<std::vector<std::uint8_t>>(size);
  }

  std::string magic() { return claimed<std::string>(kMagicBytes); }

  /// Whether the input ended cleanly here.  A stream that failed is not
  /// at its end: its next read throws.
  [[nodiscard]] bool at_end() {
    if (!stream_) return buffer_.empty();
    return stream_->peek() == std::char_traits<char>::eof() && stream_->eof();
  }

 private:
  template <typename T>
  T le() {
    std::array<std::uint8_t, sizeof(T)> b{};
    raw(b.data(), b.size());
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(b[i]) << (8 * i));
    }
    return v;
  }

  /// Exactly `size` bytes into `out`, or TruncatedInput.
  void raw(std::uint8_t* out, std::size_t size) {
    if (stream_) {
      stream_->read(reinterpret_cast<char*>(out),
                    static_cast<std::streamsize>(size));
      if (static_cast<std::size_t>(stream_->gcount()) != size) {
        throw TruncatedInput();
      }
      return;
    }
    if (buffer_.size() < size) throw TruncatedInput();
    std::copy_n(buffer_.begin(), size, out);
    buffer_ = buffer_.subspan(size);
  }

  /// A `size`-byte field: a claim, so a stream's bytes are read a chunk
  /// at a time and the buffer grows only as they arrive.
  template <typename Buffer>
  Buffer claimed(std::uint64_t size) {
    if (!stream_ && size > buffer_.size()) throw TruncatedInput();
    const std::uint64_t chunk = stream_ ? kReadChunk : size;
    Buffer buf;
    while (buf.size() < size) {
      const std::size_t have = buf.size();
      const auto step =
          static_cast<std::size_t>(std::min<std::uint64_t>(size - have, chunk));
      buf.resize(have + step);
      raw(reinterpret_cast<std::uint8_t*>(buf.data()) + have, step);
    }
    return buf;
  }

  std::span<const std::uint8_t> buffer_;
  std::istream* stream_ = nullptr;
};

}  // namespace rds
