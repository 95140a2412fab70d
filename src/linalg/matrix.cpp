#include "linalg/matrix.hpp"

#include "common/assert.hpp"

namespace qvg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ > 0 ? init.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    QVG_EXPECTS(row.size() == cols_);
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

std::vector<double> Matrix::apply(const std::vector<double>& v) const {
  QVG_EXPECTS(v.size() == cols_);
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += (*this)(r, c) * v[c];
    out[r] = acc;
  }
  return out;
}

}  // namespace qvg
