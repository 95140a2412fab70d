// Matrix inverse on top of the LU decomposition.
#pragma once

#include "linalg/matrix.hpp"

namespace qvg {

/// Matrix inverse. Throws NumericalError when singular.
[[nodiscard]] Matrix inverse(const Matrix& a);

}  // namespace qvg
