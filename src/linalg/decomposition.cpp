#include "linalg/decomposition.hpp"

#include "common/assert.hpp"
#include "common/error.hpp"

#include <cmath>

namespace qvg {

LuDecomposition::LuDecomposition(const Matrix& a) : lu_(a), piv_(a.rows()) {
  QVG_EXPECTS(a.is_square());
  QVG_EXPECTS(a.rows() > 0);
  const std::size_t n = lu_.rows();
  for (std::size_t i = 0; i < n; ++i) piv_[i] = i;

  for (std::size_t col = 0; col < n; ++col) {
    // Find pivot.
    std::size_t pivot = col;
    double best = std::abs(lu_(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double v = std::abs(lu_(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-13) throw NumericalError("LU: matrix is singular");
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c)
        std::swap(lu_(pivot, c), lu_(col, c));
      std::swap(piv_[pivot], piv_[col]);
    }
    // Eliminate below.
    const double diag = lu_(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = lu_(r, col) / diag;
      lu_(r, col) = factor;
      for (std::size_t c = col + 1; c < n; ++c)
        lu_(r, c) -= factor * lu_(col, c);
    }
  }
}

std::vector<double> LuDecomposition::solve(const std::vector<double>& b) const {
  const std::size_t n = lu_.rows();
  QVG_EXPECTS(b.size() == n);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[piv_[i]];
  // Forward substitution (L has unit diagonal).
  for (std::size_t i = 1; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) x[i] -= lu_(i, j) * x[j];
  // Back substitution.
  for (std::size_t ii = n; ii-- > 0;) {
    for (std::size_t j = ii + 1; j < n; ++j) x[ii] -= lu_(ii, j) * x[j];
    x[ii] /= lu_(ii, ii);
  }
  return x;
}

Matrix LuDecomposition::solve(const Matrix& b) const {
  QVG_EXPECTS(b.rows() == lu_.rows());
  Matrix x(b.rows(), b.cols());
  std::vector<double> column(b.rows());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    for (std::size_t r = 0; r < b.rows(); ++r) column[r] = b(r, c);
    const auto sol = solve(column);
    for (std::size_t r = 0; r < b.rows(); ++r) x(r, c) = sol[r];
  }
  return x;
}

QrDecomposition::QrDecomposition(const Matrix& a)
    : qr_(a), rdiag_(a.cols(), 0.0) {
  QVG_EXPECTS(a.rows() >= a.cols());
  QVG_EXPECTS(a.cols() > 0);
  const std::size_t m = qr_.rows();
  const std::size_t n = qr_.cols();

  for (std::size_t k = 0; k < n; ++k) {
    // Householder vector for column k.
    double nrm = 0.0;
    for (std::size_t i = k; i < m; ++i) nrm = std::hypot(nrm, qr_(i, k));
    if (nrm != 0.0) {
      if (qr_(k, k) < 0.0) nrm = -nrm;
      for (std::size_t i = k; i < m; ++i) qr_(i, k) /= nrm;
      qr_(k, k) += 1.0;
      // Apply the reflector to the remaining columns.
      for (std::size_t j = k + 1; j < n; ++j) {
        double s = 0.0;
        for (std::size_t i = k; i < m; ++i) s += qr_(i, k) * qr_(i, j);
        s = -s / qr_(k, k);
        for (std::size_t i = k; i < m; ++i) qr_(i, j) += s * qr_(i, k);
      }
    }
    rdiag_[k] = -nrm;
  }
}

std::vector<double> QrDecomposition::solve(const std::vector<double>& b) const {
  const std::size_t m = qr_.rows();
  const std::size_t n = qr_.cols();
  QVG_EXPECTS(b.size() == m);
  for (double d : rdiag_)
    if (std::abs(d) < 1e-13) throw NumericalError("QR: matrix is rank deficient");

  std::vector<double> y = b;
  // Apply Householder reflectors: y = Q^T b.
  for (std::size_t k = 0; k < n; ++k) {
    if (qr_(k, k) == 0.0) continue;
    double s = 0.0;
    for (std::size_t i = k; i < m; ++i) s += qr_(i, k) * y[i];
    s = -s / qr_(k, k);
    for (std::size_t i = k; i < m; ++i) y[i] += s * qr_(i, k);
  }
  // Back substitution with R.
  std::vector<double> x(n);
  for (std::size_t kk = n; kk-- > 0;) {
    double acc = y[kk];
    for (std::size_t j = kk + 1; j < n; ++j) acc -= qr_(kk, j) * x[j];
    x[kk] = acc / rdiag_[kk];
  }
  return x;
}

}  // namespace qvg
