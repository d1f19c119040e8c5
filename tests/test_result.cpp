// Result<T> and the canonical ErrorCode -> exception mapping that
// value_or_throw() applies for every caller that wants an exception.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/result.hpp"

namespace rds {
namespace {

Result<int> parity_of(int x) {
  if (x < 0) return Error{ErrorCode::kInvalidArgument, "negative"};
  return x % 2;
}

TEST(Result, CarriesValue) {
  const Result<int> r = parity_of(7);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(static_cast<bool>(r));
  EXPECT_EQ(r.value(), 1);
  EXPECT_EQ(r.code(), ErrorCode::kOk);
}

TEST(Result, CarriesError) {
  const Result<int> r = parity_of(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(r.error().message, "negative");
}

TEST(Result, TakeMovesTheValue) {
  Result<std::vector<int>> r = std::vector<int>{1, 2, 3};
  const std::vector<int> v = std::move(r).take();
  EXPECT_EQ(v.size(), 3u);
}

TEST(Result, VoidSpecialization) {
  const Result<> ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.code(), ErrorCode::kOk);
  ok.value_or_throw();  // success: no throw

  const Result<> bad = Error{ErrorCode::kIoError, "disk full"};
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), ErrorCode::kIoError);
  EXPECT_THROW(bad.value_or_throw(), std::runtime_error);
}

TEST(Result, RejectsErrorWithOkCode) {
  EXPECT_THROW(Result<int>(Error{ErrorCode::kOk, ""}), std::logic_error);
}

// The mapping every `.value_or_throw()` caller relies on: each code keeps
// throwing the exception type the pre-Result API threw.
TEST(Result, CanonicalExceptionMapping) {
  const auto thrown_by = [](ErrorCode code) {
    return Result<int>(Error{code, "m"});
  };
  EXPECT_THROW(thrown_by(ErrorCode::kNotFound).value_or_throw(),
               std::out_of_range);
  EXPECT_THROW(thrown_by(ErrorCode::kInvalidArgument).value_or_throw(),
               std::invalid_argument);
  EXPECT_THROW(thrown_by(ErrorCode::kUnrecoverable).value_or_throw(),
               std::runtime_error);
  EXPECT_THROW(thrown_by(ErrorCode::kDeviceFailed).value_or_throw(),
               std::runtime_error);
  EXPECT_THROW(thrown_by(ErrorCode::kIoError).value_or_throw(),
               std::runtime_error);
}

TEST(Result, MessagePropagatesIntoException) {
  try {
    Result<int>(Error{ErrorCode::kNotFound, "block 7 never written"})
        .value_or_throw();
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "block 7 never written");
  }
}

TEST(Result, ErrorCodeNames) {
  EXPECT_EQ(to_string(ErrorCode::kOk), "ok");
  EXPECT_EQ(to_string(ErrorCode::kNotFound), "not-found");
  EXPECT_EQ(to_string(ErrorCode::kInvalidArgument), "invalid-argument");
  EXPECT_EQ(to_string(ErrorCode::kUnrecoverable), "unrecoverable");
  EXPECT_EQ(to_string(ErrorCode::kDeviceFailed), "device-failed");
  EXPECT_EQ(to_string(ErrorCode::kIoError), "io-error");
  EXPECT_EQ(to_string(ErrorCode::kCorruption), "corruption");
}

TEST(Result, CorruptionMapsToRuntimeError) {
  EXPECT_THROW(
      Result<int>(Error{ErrorCode::kCorruption, "crc mismatch"})
          .value_or_throw(),
      std::runtime_error);
}

}  // namespace
}  // namespace rds
