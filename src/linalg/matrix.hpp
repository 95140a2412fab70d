// Dense row-major matrix of doubles, sized for the small systems this
// library solves (virtualization matrices are n x n with n = number of dots;
// least-squares designs have a handful of columns).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace qvg {

class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Construct from nested initializer lists: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  static Matrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }
  [[nodiscard]] bool is_square() const noexcept { return rows_ == cols_; }

  /// Unchecked element access.
  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// Pointer to row r's contiguous storage (cols() doubles). For hot loops
  /// that stream a row (e.g. SIMD coupling-sum updates in the charge-state
  /// solvers) without per-element accessor arithmetic.
  [[nodiscard]] const double* row(std::size_t r) const noexcept {
    return data_.data() + r * cols_;
  }

  /// Matrix-vector product; v.size() must equal cols().
  [[nodiscard]] std::vector<double> apply(const std::vector<double>& v) const;

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace qvg
