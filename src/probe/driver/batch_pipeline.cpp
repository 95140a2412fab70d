#include "probe/driver/batch_pipeline.hpp"

#include "common/assert.hpp"

#include <algorithm>
#include <utility>

namespace qvg {

BatchPipeline::BatchPipeline(AsyncCurrentSource& driver,
                             const AcquisitionContext& context,
                             const char* stage, long budget_origin)
    : driver_(driver),
      context_(context),
      stage_(stage),
      budget_origin_(budget_origin),
      probes_(driver.probes_completed()) {}

BatchPipeline::~BatchPipeline() {
  if (idle()) return;
  driver_.abort_inflight();
  while (!idle()) (void)complete();
}

std::size_t BatchPipeline::window() const noexcept {
  return static_cast<std::size_t>(std::max<long>(1, driver_.depth()));
}

void BatchPipeline::submit(std::span<const Point2> points,
                           std::span<double> out) {
  QVG_EXPECTS(has_room());
  if (inflight_ == ring_.size()) {
    // Every slot is taken: straighten the ring and add one at its end.
    std::rotate(ring_.begin(), ring_.begin() + static_cast<long>(head_),
                ring_.end());
    head_ = 0;
    ring_.emplace_back();
  }
  ring_[(head_ + inflight_) % ring_.size()] =
      driver_.submit(points, out, context_, stage_);
  ++inflight_;
}

const ProbeOutcome& BatchPipeline::complete() {
  QVG_EXPECTS(!idle());
  last_ = std::move(ring_[head_]);
  head_ = (head_ + 1) % ring_.size();
  --inflight_;
  const BatchCompletion& completion = last_.wait();
  if (completion.outcome.ok()) probes_ = completion.probes_after;
  return completion.outcome;
}

Status BatchPipeline::check() const {
  return context_.check(stage_, probes_ - budget_origin_);
}

ProbeLane::ProbeLane(CurrentSource& source,
                     const AcquisitionContext& context) {
  if (context.transport.enabled())
    lane_ = &driver_.emplace(source, context.transport, context.faults);
  else
    lane_ = &adapter_.emplace(source);
}

}  // namespace qvg
