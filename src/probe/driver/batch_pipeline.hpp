// The batch loop every probe stage runs against an acquisition lane.
//
// The raster, the anchor scan and the triangle sweeps all issue their probes
// as batches through an AsyncCurrentSource and check their
// AcquisitionContext between batches. BatchPipeline is that loop's
// machinery, kept in one place:
//  * The in-flight window. has_room() holds while fewer than
//    max(1, depth()) batches are outstanding. At depth 1 every batch is
//    therefore submitted after the check that gates it, call for call the
//    synchronous loop; at depth >= 2 independent batches go out back to back
//    so the transport overlaps their command latency.
//  * Probe accounting. complete() waits the oldest batch and, when it
//    succeeded, advances probes() to the probe count its completion carries.
//    check() hands that count to the context, so every budget decision sees
//    the value the synchronous loop saw at the same boundary, at any depth.
//  * Abort on exit. The destructor aborts whatever is still queued and waits
//    every outstanding handle, so a stage may return from anywhere. Declare
//    the pipeline after the buffers its batches read and write: it must be
//    destroyed first.
//
// ProbeLane picks the AsyncCurrentSource a job's stages run on.
#pragma once

#include "probe/acquisition_context.hpp"
#include "probe/driver/async_source.hpp"
#include "probe/driver/instrument_driver.hpp"

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

namespace qvg {

class BatchPipeline {
 public:
  /// `stage` names the batches and the checks. check() compares
  /// probes() - budget_origin against the budget: 0 counts every probe on
  /// the lane, driver.probes_completed() counts from this pipeline's start.
  BatchPipeline(AsyncCurrentSource& driver, const AcquisitionContext& context,
                const char* stage, long budget_origin = 0);
  ~BatchPipeline();

  BatchPipeline(const BatchPipeline&) = delete;
  BatchPipeline& operator=(const BatchPipeline&) = delete;

  /// The most batches in flight at once: max(1, driver.depth()).
  [[nodiscard]] std::size_t window() const noexcept;
  /// Whether another batch may be submitted now.
  [[nodiscard]] bool has_room() const noexcept { return inflight_ < window(); }
  /// Whether no batch is outstanding.
  [[nodiscard]] bool idle() const noexcept { return inflight_ == 0; }

  /// Submit one batch; requires has_room(). `points` and `out` must stay
  /// valid until the batch is completed or the pipeline is destroyed.
  void submit(std::span<const Point2> points, std::span<double> out);

  /// Wait the oldest outstanding batch and return its outcome, valid until
  /// the next complete(). On ok() probes() is the count after that batch.
  [[nodiscard]] const ProbeOutcome& complete();

  /// The context's interruption check at the current probe count.
  [[nodiscard]] Status check() const;

  /// The lane's probe count after the last successful completion.
  [[nodiscard]] long probes() const noexcept { return probes_; }

 private:
  AsyncCurrentSource& driver_;
  const AcquisitionContext& context_;
  const char* stage_;
  long budget_origin_;
  long probes_;
  // Outstanding handles, oldest at head_. Grows to the widest window used.
  std::vector<CompletionHandle> ring_;
  std::size_t head_ = 0;
  std::size_t inflight_ = 0;
  // The last completed batch, kept alive for complete()'s return value.
  CompletionHandle last_;
};

/// The acquisition lane of one job over `source`: an InstrumentDriver when
/// context.transport is enabled (its DriverStats flushed into
/// context.faults when the lane is destroyed), the SyncSourceAdapter
/// otherwise.
class ProbeLane {
 public:
  ProbeLane(CurrentSource& source, const AcquisitionContext& context);

  ProbeLane(const ProbeLane&) = delete;
  ProbeLane& operator=(const ProbeLane&) = delete;

  [[nodiscard]] AsyncCurrentSource& get() noexcept { return *lane_; }

 private:
  std::optional<InstrumentDriver> driver_;
  std::optional<SyncSourceAdapter> adapter_;
  AsyncCurrentSource* lane_ = nullptr;
};

}  // namespace qvg
