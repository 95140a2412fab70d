#include "linalg/solve.hpp"

#include "linalg/decomposition.hpp"

namespace qvg {

Matrix inverse(const Matrix& a) {
  return LuDecomposition(a).solve(Matrix::identity(a.rows()));
}

}  // namespace qvg
