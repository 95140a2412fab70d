#include "common/error.hpp"
#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

namespace qvg {
namespace {

TEST(MatrixTest, ConstructionAndShape) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_FALSE(m.is_square());
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
}

TEST(MatrixTest, InitializerList) {
  Matrix m{{1, 2}, {3, 4}};
  EXPECT_TRUE(m.is_square());
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(MatrixTest, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1, 2}, {3}}), ContractViolation);
}

TEST(MatrixTest, Identity) {
  const Matrix i = Matrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_DOUBLE_EQ(i(r, c), r == c ? 1.0 : 0.0);
}

TEST(MatrixTest, ApplyVector) {
  const Matrix a{{1, 2}, {3, 4}};
  const auto y = a.apply({1.0, 1.0});
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

}  // namespace
}  // namespace qvg
