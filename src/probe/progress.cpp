#include "probe/progress.hpp"

namespace qvg {

struct ProgressSink::State {
  // Held across the callback, so events arrive one at a time in sequence
  // order (re-entering report() would self-deadlock and is forbidden by
  // contract).
  std::mutex mutex;
  ProgressEvent latest;
  bool any = false;
  std::size_t next_sequence = 0;
  // Armed lazily by the first report(): the sink is created at submission,
  // but elapsed_seconds counts from the *job start* — a job parked behind a
  // queue backlog must not report its wait as run time.
  bool started = false;
  Clock::time_point start;
  Callback on_event;
};

ProgressSink ProgressSink::make(Callback on_event) {
  ProgressSink sink;
  sink.state_ = std::make_shared<State>();
  sink.state_->on_event = std::move(on_event);
  return sink;
}

void ProgressSink::report(const char* stage, long probes_used) const {
  if (!state_) return;
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(state_->mutex);
  if (!state_->started) {
    state_->started = true;
    state_->start = now;
  }
  ProgressEvent& latest = state_->latest;
  if (probes_used < 0) probes_used = state_->any ? latest.probes_used : 0;
  latest.stage = stage;
  latest.probes_used = probes_used;
  latest.elapsed_seconds =
      std::chrono::duration<double>(now - state_->start).count();
  latest.sequence = state_->next_sequence++;
  latest.timestamp_seconds =
      std::chrono::duration<double>(now.time_since_epoch()).count();
  state_->any = true;
  if (state_->on_event) state_->on_event(latest);
}

}  // namespace qvg
