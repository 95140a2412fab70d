#include "common/status.hpp"

#include <gtest/gtest.h>

#include <string>

namespace qvg {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kOk);
  EXPECT_TRUE(status.message().empty());
}

TEST(StatusTest, FailureCarriesCodeStageDetail) {
  const Status status =
      Status::failure(ErrorCode::kFitFailed, "fit", "needs at least 3 points");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kFitFailed);
  EXPECT_EQ(status.stage(), "fit");
  EXPECT_EQ(status.detail(), "needs at least 3 points");
  EXPECT_EQ(status.message(), "fit: needs at least 3 points");
}

TEST(StatusTest, MessageSkipsEmptyHalves) {
  EXPECT_EQ(Status::failure(ErrorCode::kInternal, "", "detail only").message(),
            "detail only");
  EXPECT_EQ(Status::failure(ErrorCode::kInternal, "stage only", "").message(),
            "stage only");
}

TEST(StatusTest, FailureWithOkCodeIsContractViolation) {
  EXPECT_THROW((void)Status::failure(ErrorCode::kOk, "s", "d"),
               ContractViolation);
}

TEST(StatusTest, EqualityComparesAllFields) {
  const Status a = Status::failure(ErrorCode::kIoError, "csd_io", "gone");
  const Status b = Status::failure(ErrorCode::kIoError, "csd_io", "gone");
  const Status c = Status::failure(ErrorCode::kIoError, "csd_io", "other");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, Status{});
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_STREQ(error_code_name(ErrorCode::kOk), "ok");
  EXPECT_STREQ(error_code_name(ErrorCode::kAnchorNotFound),
               "anchor_not_found");
  EXPECT_STREQ(error_code_name(ErrorCode::kPairFailed), "pair_failed");
  EXPECT_STREQ(error_code_name(ErrorCode::kParseError), "parse_error");
  EXPECT_STREQ(error_code_name(ErrorCode::kCancelled), "cancelled");
  EXPECT_STREQ(error_code_name(ErrorCode::kDeadlineExceeded),
               "deadline_exceeded");
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(static_cast<bool>(result));
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(result.value_or(7), 42);
  EXPECT_TRUE(result.status().ok());
  EXPECT_TRUE(result.reason().empty());
}

TEST(ResultTest, HoldsFailure) {
  Result<int> result(
      Status::failure(ErrorCode::kParseError, "csd_io", "bad header"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kParseError);
  EXPECT_EQ(result.reason(), "csd_io: bad header");
  EXPECT_THROW((void)result.value(), ContractViolation);
  EXPECT_EQ(result.value_or(-1), -1);
}

TEST(ResultTest, OkStatusCannotBecomeFailure) {
  EXPECT_THROW(Result<int> result{Status{}}, ContractViolation);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> result(std::string("payload"));
  EXPECT_EQ(result->size(), 7u);
  const std::string taken = std::move(result).value();
  EXPECT_EQ(taken, "payload");
}

}  // namespace
}  // namespace qvg
