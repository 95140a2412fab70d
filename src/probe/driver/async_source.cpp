#include "probe/driver/async_source.hpp"

#include "common/assert.hpp"
#include "probe/driver/instrument_driver.hpp"

namespace qvg {

const BatchCompletion& CompletionHandle::wait() const {
  QVG_EXPECTS(valid());
  if (!state_->done) state_->owner->run_through(*state_);
  return state_->completion;
}

CompletionHandle SyncSourceAdapter::submit(std::span<const Point2> points,
                                           std::span<double> out,
                                           const AcquisitionContext& context,
                                           const char* stage) {
  auto state = std::make_shared<CompletionHandle::State>();
  state->completion.outcome =
      probe_with_retry(source_, points, out, context, stage);
  if (state->completion.outcome.ok())
    state->completion.probes_after = source_.probe_count();
  state->done = true;
  return CompletionHandle(std::move(state));
}

}  // namespace qvg
