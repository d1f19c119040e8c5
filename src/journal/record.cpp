#include "src/journal/record.hpp"

#include <utility>

#include "src/util/hash.hpp"

namespace rds::journal {
namespace {

// ---- the payload layout ----------------------------------------------------

/// Appends little-endian fields to a record payload: strings carry a u32
/// length prefix, byte payloads a u64 one.
class Writer {
 public:
  explicit Writer(Bytes& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void field(std::uint64_t v) { le(v); }

  void field(const std::string& s) {
    le(static_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }

  void field(const Bytes& b) {
    le(static_cast<std::uint64_t>(b.size()));
    out_.insert(out_.end(), b.begin(), b.end());
  }

 private:
  template <typename T>
  void le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  Bytes& out_;
};

/// Bounds-checked reader over a record payload, the Writer's mirror image.
/// Underflow latches `failed()` instead of throwing so decode_record can
/// return a typed Result.
class Cursor {
 public:
  explicit Cursor(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] bool failed() const noexcept { return failed_; }
  [[nodiscard]] bool exhausted() const noexcept { return pos_ == data_.size(); }

  std::uint8_t u8() {
    if (pos_ >= data_.size()) {
      failed_ = true;
      return 0;
    }
    return data_[pos_++];
  }

  void field(std::uint64_t& v) { v = le<std::uint64_t>(); }

  void field(std::string& s) {
    const std::span<const std::uint8_t> b = take(le<std::uint32_t>());
    s.assign(reinterpret_cast<const char*>(b.data()), b.size());
  }

  void field(Bytes& b) {
    const std::span<const std::uint8_t> bytes = take(le<std::uint64_t>());
    b.assign(bytes.begin(), bytes.end());
  }

 private:
  template <typename T>
  T le() {
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(u8()) << (8 * i);
    }
    return v;
  }

  /// The next `size` bytes; empty, with failed() latched, past the end.
  std::span<const std::uint8_t> take(std::uint64_t size) {
    if (failed_ || data_.size() - pos_ < size) {
      failed_ = true;
      return {};
    }
    const std::span<const std::uint8_t> out =
        data_.subspan(pos_, static_cast<std::size_t>(size));
    pos_ += out.size();
    return out;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

/// Each record type's fields after the shared lsn and type tag, in payload
/// order.  encode_record walks this list with a Writer (R = const Record)
/// and decode_record with a Cursor (R = Record), so the two directions
/// cannot disagree on a layout.
template <typename R, typename Io>
void walk_fields(R& r, Io& io) {
  switch (r.type) {
    case RecordType::kAddDevice:
      io.field(r.device);
      io.field(r.capacity);
      io.field(r.device_name);
      break;
    case RecordType::kRemoveDevice:
    case RecordType::kFailDevice:
      io.field(r.device);
      break;
    case RecordType::kResizeDevice:
      io.field(r.device);
      io.field(r.capacity);
      break;
    case RecordType::kRebuild:
      break;
    case RecordType::kSetStrategy:
    case RecordType::kSetScheme:
      io.field(r.volume);
      io.field(r.detail);
      break;
    case RecordType::kCreateVolume:
      io.field(r.volume);
      io.field(r.detail);
      io.field(r.device_name);  // placement kind name
      break;
    case RecordType::kDropVolume:
      io.field(r.volume);
      break;
    case RecordType::kFilePut:
      io.field(r.file);
      io.field(r.content_hash);
      io.field(r.content);
      break;
    case RecordType::kFileRemove:
      io.field(r.file);
      break;
  }
}

}  // namespace

std::string_view to_string(RecordType type) noexcept {
  switch (type) {
    case RecordType::kAddDevice: return "add-device";
    case RecordType::kRemoveDevice: return "remove-device";
    case RecordType::kResizeDevice: return "resize-device";
    case RecordType::kFailDevice: return "fail-device";
    case RecordType::kRebuild: return "rebuild";
    case RecordType::kSetStrategy: return "set-strategy";
    case RecordType::kSetScheme: return "set-scheme";
    case RecordType::kCreateVolume: return "create-volume";
    case RecordType::kDropVolume: return "drop-volume";
    case RecordType::kFilePut: return "file-put";
    case RecordType::kFileRemove: return "file-remove";
  }
  return "?";
}

Record make_add_device(const Device& device) {
  Record r;
  r.type = RecordType::kAddDevice;
  r.device = device.uid;
  r.capacity = device.capacity;
  r.device_name = device.name;
  return r;
}

Record make_remove_device(DeviceId uid) {
  Record r;
  r.type = RecordType::kRemoveDevice;
  r.device = uid;
  return r;
}

Record make_resize_device(DeviceId uid, std::uint64_t new_capacity) {
  Record r;
  r.type = RecordType::kResizeDevice;
  r.device = uid;
  r.capacity = new_capacity;
  return r;
}

Record make_fail_device(DeviceId uid) {
  Record r;
  r.type = RecordType::kFailDevice;
  r.device = uid;
  return r;
}

Record make_rebuild() {
  Record r;
  r.type = RecordType::kRebuild;
  return r;
}

Record make_set_strategy(std::string volume, PlacementKind kind) {
  Record r;
  r.type = RecordType::kSetStrategy;
  r.volume = std::move(volume);
  r.detail = std::string(rds::to_string(kind));
  return r;
}

Record make_set_scheme(std::string volume, std::string scheme_name) {
  Record r;
  r.type = RecordType::kSetScheme;
  r.volume = std::move(volume);
  r.detail = std::move(scheme_name);
  return r;
}

Record make_create_volume(std::string volume, std::string scheme_name,
                          PlacementKind kind) {
  Record r;
  r.type = RecordType::kCreateVolume;
  r.volume = std::move(volume);
  r.detail = std::move(scheme_name);
  r.device_name = std::string(rds::to_string(kind));
  return r;
}

Record make_drop_volume(std::string volume) {
  Record r;
  r.type = RecordType::kDropVolume;
  r.volume = std::move(volume);
  return r;
}

Record make_file_put(std::string file, std::span<const std::uint8_t> content) {
  Record r;
  r.type = RecordType::kFilePut;
  r.file = std::move(file);
  r.content.assign(content.begin(), content.end());
  r.content_hash = hash_bytes(content);
  return r;
}

Record make_file_remove(std::string file) {
  Record r;
  r.type = RecordType::kFileRemove;
  r.file = std::move(file);
  return r;
}

Bytes encode_record(const Record& record, Lsn lsn) {
  Bytes out;
  Writer writer(out);
  writer.field(lsn);
  writer.u8(static_cast<std::uint8_t>(record.type));
  walk_fields(record, writer);
  return out;
}

Result<Record> decode_record(std::span<const std::uint8_t> payload) {
  Cursor in(payload);
  Record r;
  in.field(r.lsn);
  const std::uint8_t tag = in.u8();
  if (in.failed()) {
    return Error{ErrorCode::kCorruption, "record payload truncated"};
  }
  if (tag < static_cast<std::uint8_t>(RecordType::kAddDevice) ||
      tag > static_cast<std::uint8_t>(RecordType::kFileRemove)) {
    return Error{ErrorCode::kCorruption,
                 "unknown record type tag " + std::to_string(tag)};
  }
  r.type = static_cast<RecordType>(tag);
  walk_fields(r, in);
  if (in.failed()) {
    return Error{ErrorCode::kCorruption,
                 "record payload truncated (" + std::string(to_string(r.type)) +
                     ")"};
  }
  if (!in.exhausted()) {
    return Error{ErrorCode::kCorruption,
                 "record payload has trailing bytes (" +
                     std::string(to_string(r.type)) + ")"};
  }
  return r;
}

}  // namespace rds::journal
