#include "device/capacitance.hpp"

#include "common/assert.hpp"
#include "common/geometry.hpp"

#include <cmath>

namespace qvg {

CapacitanceModel::CapacitanceModel(Matrix alpha, std::vector<double> charging,
                                   Matrix mutual, std::vector<double> offsets)
    : alpha_(std::move(alpha)),
      charging_(std::move(charging)),
      mutual_(std::move(mutual)),
      offsets_(std::move(offsets)) {
  const std::size_t n = charging_.size();
  QVG_EXPECTS(n >= 1);
  QVG_EXPECTS(alpha_.rows() == n);
  QVG_EXPECTS(alpha_.cols() >= 1);
  QVG_EXPECTS(mutual_.rows() == n && mutual_.cols() == n);
  QVG_EXPECTS(offsets_.size() == n);
  for (std::size_t i = 0; i < n; ++i) {
    QVG_EXPECTS(charging_[i] > 0.0);
    QVG_EXPECTS(mutual_(i, i) == 0.0);
    for (std::size_t k = 0; k < n; ++k) {
      QVG_EXPECTS(mutual_(i, k) >= 0.0);
      QVG_EXPECTS(std::abs(mutual_(i, k) - mutual_(k, i)) < 1e-15);
    }
    for (std::size_t j = 0; j < alpha_.cols(); ++j)
      QVG_EXPECTS(alpha_(i, j) >= 0.0);
  }
}

CapacitanceModel CapacitanceModel::restricted_to(
    const std::vector<std::size_t>& dots) const {
  const std::size_t k = dots.size();
  Matrix alpha(k, num_gates());
  std::vector<double> charging(k);
  Matrix mutual(k, k);
  std::vector<double> offsets(k);
  for (std::size_t a = 0; a < k; ++a) {
    QVG_EXPECTS(dots[a] < num_dots());
    QVG_EXPECTS(a == 0 || dots[a - 1] < dots[a]);
    for (std::size_t j = 0; j < num_gates(); ++j)
      alpha(a, j) = alpha_(dots[a], j);
    charging[a] = charging_[dots[a]];
    for (std::size_t b = 0; b < k; ++b)
      mutual(a, b) = mutual_(dots[a], dots[b]);
    offsets[a] = offsets_[dots[a]];
  }
  return CapacitanceModel(std::move(alpha), std::move(charging),
                          std::move(mutual), std::move(offsets));
}

std::vector<double> CapacitanceModel::dot_drives(
    const std::vector<double>& gate_voltages) const {
  QVG_EXPECTS(gate_voltages.size() == num_gates());
  std::vector<double> drives(num_dots());
  for (std::size_t i = 0; i < num_dots(); ++i) {
    double acc = -offsets_[i];
    for (std::size_t j = 0; j < num_gates(); ++j)
      acc += alpha_(i, j) * gate_voltages[j];
    drives[i] = acc;
  }
  return drives;
}

double CapacitanceModel::energy(const std::vector<int>& occupation,
                                const std::vector<double>& drives) const {
  QVG_EXPECTS(occupation.size() == num_dots());
  QVG_EXPECTS(drives.size() == num_dots());
  double e = 0.0;
  for (std::size_t i = 0; i < num_dots(); ++i) {
    const double ni = occupation[i];
    QVG_EXPECTS(occupation[i] >= 0);
    e += 0.5 * charging_[i] * ni * ni - ni * drives[i];
    for (std::size_t k = i + 1; k < num_dots(); ++k)
      e += mutual_(i, k) * ni * occupation[k];
  }
  return e;
}

double CapacitanceModel::addition_line_slope(std::size_t dot, std::size_t gx,
                                             std::size_t gy) const {
  QVG_EXPECTS(dot < num_dots());
  QVG_EXPECTS(gx < num_gates() && gy < num_gates() && gx != gy);
  QVG_EXPECTS(alpha_(dot, gy) > 0.0);
  return -alpha_(dot, gx) / alpha_(dot, gy);
}

TransitionTruth CapacitanceModel::pair_truth(
    std::size_t dot_x, std::size_t dot_y, std::size_t gx, std::size_t gy,
    const std::vector<double>& base_voltages) const {
  QVG_EXPECTS(dot_x < num_dots() && dot_y < num_dots() && dot_x != dot_y);
  QVG_EXPECTS(base_voltages.size() == num_gates());

  TransitionTruth truth;
  truth.slope_steep = addition_line_slope(dot_x, gx, gy);
  truth.slope_shallow = addition_line_slope(dot_y, gx, gy);

  // 0->1 addition line of dot d in the (V_gx, V_gy) plane:
  //   alpha(d,gx) Vx + alpha(d,gy) Vy = Ec_d/2 + offset_d - C_d
  // where C_d collects the contribution of all other (fixed) gates.
  auto line_intercept = [&](std::size_t d) {
    double fixed = 0.0;
    for (std::size_t j = 0; j < num_gates(); ++j) {
      if (j == gx || j == gy) continue;
      fixed += alpha_(d, j) * base_voltages[j];
    }
    const double rhs = 0.5 * charging_[d] + offsets_[d] - fixed;
    // Vy = (rhs - alpha(d,gx) Vx) / alpha(d,gy): intercept at Vx = 0.
    return rhs / alpha_(d, gy);
  };

  const Line2 steep(truth.slope_steep, line_intercept(dot_x));
  const Line2 shallow(truth.slope_shallow, line_intercept(dot_y));
  const auto crossing = steep.intersect(shallow);
  QVG_ASSERT(crossing.has_value());
  truth.triple_point = *crossing;
  return truth;
}

Matrix CapacitanceModel::ideal_virtualization() const {
  QVG_EXPECTS(num_gates() == num_dots());
  Matrix m(num_dots(), num_dots());
  for (std::size_t i = 0; i < num_dots(); ++i) {
    QVG_EXPECTS(alpha_(i, i) > 0.0);
    for (std::size_t j = 0; j < num_dots(); ++j)
      m(i, j) = alpha_(i, j) / alpha_(i, i);
  }
  return m;
}

}  // namespace qvg
