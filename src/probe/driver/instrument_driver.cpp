#include "probe/driver/instrument_driver.hpp"

#include "common/assert.hpp"
#include "common/error.hpp"

#include <algorithm>
#include <cmath>
#include <thread>
#include <utility>

namespace qvg {

namespace {

constexpr auto kPollInterval = std::chrono::milliseconds(1);

Status aborted_status(const char* stage) {
  return Status::failure(ErrorCode::kCancelled, stage,
                         "transfer aborted at the driver boundary");
}

bool finite_non_negative(double value) {
  return std::isfinite(value) && value >= 0.0;
}

}  // namespace

InstrumentDriver::InstrumentDriver(CurrentSource& source,
                                   const TransportOptions& transport,
                                   FaultRecorder recorder)
    : source_(source), transport_(transport), recorder_(std::move(recorder)) {
  if (transport_.io_depth < 1)
    throw ContractViolation("InstrumentDriver requires io_depth >= 1");
  if (!finite_non_negative(transport_.latency_us) ||
      !finite_non_negative(transport_.bandwidth))
    throw ContractViolation(
        "InstrumentDriver transport must be finite and non-negative");
  last_probes_ = source_.probe_count();
  link_free_at_ = WallClock::now();
}

InstrumentDriver::~InstrumentDriver() {
  abort_inflight();
  if (recorder_.active()) {
    recorder_.record_driver(stats_.batches, stats_.aborted_transfers,
                            stats_.max_inflight, stats_.transport_seconds);
  }
}

CompletionHandle InstrumentDriver::submit(std::span<const Point2> points,
                                          std::span<double> out,
                                          const AcquisitionContext& context,
                                          const char* stage) {
  if (points.size() != out.size())
    throw ContractViolation("InstrumentDriver::submit: span size mismatch");
  // Ring backpressure: a full ring runs its oldest batch to free a slot.
  if (static_cast<long>(ring_.size()) >= transport_.io_depth) run_oldest();
  auto state = std::make_shared<CompletionHandle::State>();
  state->owner = this;
  ring_.push_back(
      Request{points, out, &context, stage, state, WallClock::now()});
  stats_.max_inflight =
      std::max(stats_.max_inflight, static_cast<long>(ring_.size()));
  return CompletionHandle(std::move(state));
}

void InstrumentDriver::drain() {
  while (!ring_.empty()) run_oldest();
}

void InstrumentDriver::run_through(const CompletionHandle::State& state) {
  while (!state.done) {
    QVG_ASSERT(!ring_.empty());
    run_oldest();
  }
}

void InstrumentDriver::abort_inflight() {
  stats_.aborted_transfers += static_cast<long>(ring_.size());
  for (Request& request : ring_) {
    BatchCompletion completion;
    completion.outcome.status = aborted_status(request.stage);
    fulfil(*request.state, std::move(completion));
  }
  ring_.clear();
}

void InstrumentDriver::fulfil(CompletionHandle::State& state,
                              BatchCompletion completion) {
  state.completion = std::move(completion);
  state.done = true;
  state.owner = nullptr;
}

void InstrumentDriver::run_oldest() {
  Request request = std::move(ring_.front());
  ring_.pop_front();

  BatchCompletion completion;
  completion.outcome = probe_with_retry(source_, request.points, request.out,
                                        *request.context, request.stage);
  last_probes_ = source_.probe_count();
  ++stats_.batches;
  if (completion.outcome.ok()) {
    completion.probes_after = last_probes_;
    // Per-batch transport charge: order-independent, so the simulated
    // total is identical at any io_depth.
    double charged_s = transport_.latency_us * 1e-6;
    if (transport_.bandwidth > 0.0)
      charged_s +=
          static_cast<double>(request.points.size()) / transport_.bandwidth;
    source_.clock().charge(charged_s);
    stats_.transport_seconds += charged_s;
    if (Status waited = wall_wait(request); !waited.ok()) {
      // The probes already executed (results are in `out`), but the
      // transfer was abandoned mid-flight: report the interruption and let
      // the consumer discard the batch.
      ++stats_.aborted_transfers;
      completion.outcome = ProbeOutcome{};
      completion.outcome.status = std::move(waited);
      completion.probes_after = 0;
    }
  }
  fulfil(*request.state, std::move(completion));
}

Status InstrumentDriver::wall_wait(const Request& request) {
  if (!transport_.wall_clock) return {};
  using Seconds = std::chrono::duration<double>;
  const auto latency = std::chrono::duration_cast<WallClock::duration>(
      Seconds(transport_.latency_us * 1e-6));
  const double transfer_s =
      transport_.bandwidth > 0.0
          ? static_cast<double>(request.points.size()) / transport_.bandwidth
          : 0.0;
  const auto transfer =
      std::chrono::duration_cast<WallClock::duration>(Seconds(transfer_s));
  // Command latency runs from submission (overlapped across queued
  // batches); the data transfer serializes on the link.
  const auto start = std::max(link_free_at_, request.submitted_at + latency);
  const auto end = start + transfer;
  for (;;) {
    const auto now = WallClock::now();
    if (now >= end) break;
    if (request.context->cancel.cancelled()) {
      link_free_at_ = now;
      return Status::failure(ErrorCode::kCancelled, request.stage,
                             "cancelled during in-flight transfer");
    }
    if (request.context->deadline && now >= *request.context->deadline) {
      link_free_at_ = now;
      return Status::failure(ErrorCode::kDeadlineExceeded, request.stage,
                             "deadline passed during in-flight transfer");
    }
    std::this_thread::sleep_for(
        std::min<WallClock::duration>(kPollInterval, end - now));
  }
  link_free_at_ = end;
  return {};
}

}  // namespace qvg
