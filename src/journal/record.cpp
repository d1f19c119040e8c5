#include "src/journal/record.hpp"

#include <utility>

#include "src/util/byte_codec.hpp"
#include "src/util/hash.hpp"

namespace rds::journal {
namespace {

/// Each record type's fields after the shared lsn and type tag, in payload
/// order.  encode_record walks this list with a ByteWriter (R = const
/// Record) and decode_record with a ByteReader (R = Record).
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
  r.content_hash = content_fingerprint(content);
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
  ByteWriter writer(out);
  writer.field(lsn);
  writer.field(static_cast<std::uint8_t>(record.type));
  walk_fields(record, writer);
  return out;
}

Result<Record> decode_record(std::span<const std::uint8_t> payload) {
  ByteReader in(payload);
  Record r;
  bool typed = false;
  const auto corrupt = [&](std::string what) {
    if (typed) what += " (" + std::string(to_string(r.type)) + ")";
    return Error{ErrorCode::kCorruption, std::move(what)};
  };
  try {
    in.field(r.lsn);
    const auto tag = in.read<std::uint8_t>();
    if (tag < static_cast<std::uint8_t>(RecordType::kAddDevice) ||
        tag > static_cast<std::uint8_t>(RecordType::kFileRemove)) {
      return corrupt("unknown record type tag " + std::to_string(tag));
    }
    r.type = static_cast<RecordType>(tag);
    typed = true;
    walk_fields(r, in);
  } catch (const TruncatedInput&) {
    return corrupt("record payload truncated");
  }
  if (!in.at_end()) return corrupt("record payload has trailing bytes");
  return r;
}

}  // namespace rds::journal
