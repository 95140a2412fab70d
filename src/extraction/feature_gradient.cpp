#include "extraction/feature_gradient.hpp"

#include "common/assert.hpp"
#include "probe/driver/batch_pipeline.hpp"

namespace qvg {

double feature_gradient(CurrentSource& source, double v1, double v2,
                        double delta_x, double delta_y) {
  QVG_EXPECTS(delta_x > 0.0 && delta_y > 0.0);
  const double c = source.get_current(v1, v2);
  const double c_right = source.get_current(v1 + delta_x, v2);
  const double c_upper_right = source.get_current(v1 + delta_x, v2 + delta_y);
  return (c - c_right) + (c - c_upper_right);
}

void FeatureGradientBatch::submit(BatchPipeline& pipeline, double delta_x,
                                  double delta_y) {
  QVG_EXPECTS(delta_x > 0.0 && delta_y > 0.0);
  probes_.clear();
  probes_.reserve(centers_.size() * 3);
  for (const Point2& c : centers_) {
    probes_.push_back(c);
    probes_.push_back({c.x + delta_x, c.y});
    probes_.push_back({c.x + delta_x, c.y + delta_y});
  }
  currents_.resize(probes_.size());
  pipeline.submit(probes_, currents_);
}

std::span<const double> FeatureGradientBatch::reduce() {
  gradients_.resize(centers_.size());
  for (std::size_t i = 0; i < centers_.size(); ++i) {
    const double c = currents_[3 * i];
    const double c_right = currents_[3 * i + 1];
    const double c_upper_right = currents_[3 * i + 2];
    gradients_[i] = (c - c_right) + (c - c_upper_right);
  }
  return gradients_;
}

}  // namespace qvg
