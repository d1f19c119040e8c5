// Uniform fallible-operation return type for the storage layer.
//
// Result<T> is one shape for every failure -- a value or an (ErrorCode,
// message) pair -- so callers can branch on the code without
// string-matching what().  A `try_` prefix marks a Result-returning call,
// and each such operation exists in that one form only.  A caller that
// wants an exception writes `.value_or_throw()`, which applies the one
// canonical ErrorCode -> exception mapping (documented in docs/api.md).
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace rds {

/// Why a fallible operation failed.  Codes are coarse categories, not
/// per-call-site enumerations: branch on the code, read the message.
enum class ErrorCode {
  kOk = 0,            ///< no error (never carried by a failed Result)
  kNotFound,          ///< unknown block / device / volume id
  kInvalidArgument,   ///< caller passed something structurally wrong
  kUnrecoverable,     ///< too few fragments survive to decode the block
  kDeviceFailed,      ///< operation needs a device that is crashed
  kIoError,           ///< a device store rejected a read/write (full, ...)
  kCorruption,        ///< persisted data failed an integrity check (CRC,
                      ///< magic, content fingerprint) -- see
                      ///< docs/persistence.md
};

[[nodiscard]] constexpr std::string_view to_string(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kNotFound: return "not-found";
    case ErrorCode::kInvalidArgument: return "invalid-argument";
    case ErrorCode::kUnrecoverable: return "unrecoverable";
    case ErrorCode::kDeviceFailed: return "device-failed";
    case ErrorCode::kIoError: return "io-error";
    case ErrorCode::kCorruption: return "corruption";
  }
  return "?";
}

struct Error {
  ErrorCode code = ErrorCode::kOk;
  std::string message;
};

/// The canonical ErrorCode -> exception mapping behind value_or_throw()
/// (docs/api.md, "Error handling conventions").
[[noreturn]] inline void throw_error(const Error& error) {
  switch (error.code) {
    case ErrorCode::kNotFound:
      throw std::out_of_range(error.message);
    case ErrorCode::kInvalidArgument:
      throw std::invalid_argument(error.message);
    case ErrorCode::kOk:
      throw std::logic_error("throw_error: called with ErrorCode::kOk");
    default:
      throw std::runtime_error(error.message);
  }
}

/// A value of T, or an Error.  Construct from either; `ok()` discriminates.
/// Result<void> carries no value.
template <typename T = void>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-*)
  Result(Error error) : error_(std::move(error)) {
    if (error_.code == ErrorCode::kOk) {
      throw std::logic_error("Result: error constructed with ErrorCode::kOk");
    }
  }
  Result(ErrorCode code, std::string message)
      : Result(Error{code, std::move(message)}) {}

  [[nodiscard]] bool ok() const noexcept { return value_.has_value(); }
  explicit operator bool() const noexcept { return ok(); }

  /// The value; undefined unless ok().  The unchecked dereference IS the
  /// contract (callers branch on ok() first), hence the NOLINTs.
  // NOLINTNEXTLINE(bugprone-unchecked-optional-access)
  [[nodiscard]] const T& value() const& { return *value_; }
  // NOLINTNEXTLINE(bugprone-unchecked-optional-access)
  [[nodiscard]] T& value() & { return *value_; }
  // NOLINTNEXTLINE(bugprone-unchecked-optional-access)
  [[nodiscard]] T&& take() && { return std::move(*value_); }

  /// The error; undefined when ok().
  [[nodiscard]] const Error& error() const noexcept { return error_; }
  [[nodiscard]] ErrorCode code() const noexcept {
    return ok() ? ErrorCode::kOk : error_.code;
  }

  /// Returns the value or throws per the canonical mapping.
  T value_or_throw() && {
    if (!ok()) throw_error(error_);
    return std::move(*value_);  // NOLINT(bugprone-unchecked-optional-access)
  }

 private:
  std::optional<T> value_;
  Error error_;
};

template <>
class [[nodiscard]] Result<void> {
 public:
  Result() = default;  ///< success
  Result(Error error) : error_(std::move(error)) {  // NOLINT
    if (error_.code == ErrorCode::kOk) {
      throw std::logic_error("Result: error constructed with ErrorCode::kOk");
    }
  }
  Result(ErrorCode code, std::string message)
      : Result(Error{code, std::move(message)}) {}
  /// `other`'s outcome without its value.
  template <typename T>
  explicit Result(const Result<T>& other) {
    if (!other.ok()) error_ = other.error();
  }

  [[nodiscard]] bool ok() const noexcept {
    return error_.code == ErrorCode::kOk;
  }
  explicit operator bool() const noexcept { return ok(); }

  [[nodiscard]] const Error& error() const noexcept { return error_; }
  [[nodiscard]] ErrorCode code() const noexcept { return error_.code; }

  void value_or_throw() const {
    if (!ok()) throw_error(error_);
  }

 private:
  Error error_;
};

}  // namespace rds
