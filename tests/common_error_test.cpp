#include "common/assert.hpp"
#include "common/error.hpp"

#include <gtest/gtest.h>

namespace qvg {
namespace {

TEST(ContractTest, ExpectsThrowsWithLocation) {
  try {
    QVG_EXPECTS(1 == 2);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& ex) {
    const std::string what = ex.what();
    EXPECT_NE(what.find("Precondition"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

TEST(ContractTest, EnsuresThrows) {
  EXPECT_THROW(QVG_ENSURES(false), ContractViolation);
}

TEST(ContractTest, PassingConditionsDoNotThrow) {
  EXPECT_NO_THROW(QVG_EXPECTS(true));
  EXPECT_NO_THROW(QVG_ENSURES(2 > 1));
  EXPECT_NO_THROW(QVG_ASSERT(true));
}

TEST(ErrorHierarchyTest, AllDeriveFromError) {
  EXPECT_THROW(throw IoError("io"), Error);
  EXPECT_THROW(throw ParseError("parse"), Error);
  EXPECT_THROW(throw NumericalError("num"), Error);
  EXPECT_THROW(throw ContractViolation("contract"), Error);
}

}  // namespace
}  // namespace qvg
