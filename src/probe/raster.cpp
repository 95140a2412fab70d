#include "probe/raster.hpp"

#include "probe/driver/batch_pipeline.hpp"
#include "probe/retry_policy.hpp"

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace qvg {

namespace {

/// Append the gate voltages of rows [y0, y1) in the raster's probe order:
/// row-major, bottom-to-top, x fastest — the storage order of the grid, so
/// a batch of whole rows writes straight into consecutive pixels.
void append_rows(std::vector<Point2>& points, const VoltageAxis& x_axis,
                 const VoltageAxis& y_axis, std::size_t y0, std::size_t y1) {
  for (std::size_t y = y0; y < y1; ++y) {
    const double vy = y_axis.voltage(static_cast<double>(y));
    for (std::size_t x = 0; x < x_axis.count(); ++x)
      points.push_back({x_axis.voltage(static_cast<double>(x)), vy});
  }
}

/// The checked acquisition over one lane. Whole-row batches, enough rows to
/// clear kMinBatchPoints: per-batch dispatch (and the check itself) then
/// costs well under 1% of the acquisition while a cancelled job still stops
/// within a few hundred probes. The probe order matches the single batch
/// exactly, and the lane executes batches in submission order, so an
/// uninterrupted run produces the same diagram bit for bit at any depth.
Result<Csd> acquire_rows(AsyncCurrentSource& driver, const VoltageAxis& x_axis,
                         const VoltageAxis& y_axis,
                         const AcquisitionContext& context) {
  constexpr std::size_t kMinBatchPoints = 512;
  Csd csd(x_axis, y_axis);
  const std::size_t width = x_axis.count();
  const std::size_t height = y_axis.count();
  const std::size_t rows_per_batch =
      std::max<std::size_t>(1, kMinBatchPoints / width);
  const std::span<double> out(csd.grid().raw());

  // Per-batch bookkeeping for drift recovery: which probe counts each row
  // batch was served at. A kDeviceDrifted report names the range of stale
  // probes; only batches overlapping it are re-issued.
  struct BatchRecord {
    std::size_t y0 = 0;
    std::size_t y1 = 0;
    long start_probe = 0;  // probe_count() range of the *successful* attempt
    long end_probe = 0;    // that produced the stored values (0 = no data yet)
    bool stale = false;
  };
  std::vector<BatchRecord> records;
  for (std::size_t y0 = 0; y0 < height; y0 += rows_per_batch)
    records.push_back({y0, std::min(height, y0 + rows_per_batch), 0, 0, false});
  const std::size_t total_batches = records.size();

  // One point buffer per batch the pipeline can hold in flight: batch i
  // uses buffer i % size, which its predecessor has released by then.
  // Re-issues run with nothing else in flight, so any buffer is free.
  std::vector<std::vector<Point2>> buffers;
  const long probes_start = driver.probes_completed();
  BatchPipeline pipeline(driver, context, "raster", probes_start);
  buffers.resize(std::min(pipeline.window(), total_batches));
  const auto submit = [&](std::size_t i) {
    const BatchRecord& record = records[i];
    std::vector<Point2>& points = buffers[i % buffers.size()];
    points.clear();
    points.reserve((record.y1 - record.y0) * width);
    append_rows(points, x_axis, y_axis, record.y0, record.y1);
    pipeline.submit(points, out.subspan(record.y0 * width, points.size()));
  };
  // Completes the oldest in-flight batch into its record. A failed attempt
  // issues no probes, so a successful batch's range is its last pixel-count
  // probes before its completion-carried count.
  const auto complete = [&](BatchRecord& record) -> const ProbeOutcome& {
    const ProbeOutcome& outcome = pipeline.complete();
    if (outcome.ok()) {
      record.end_probe = pipeline.probes();
      record.start_probe = record.end_probe -
                           static_cast<long>((record.y1 - record.y0) * width);
      record.stale = false;
    }
    return outcome;
  };

  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::vector<ProbeOutcome> pending_drifts;

  // A batch is stale iff it was served while the offsets were drifted: after
  // the drift began and before the recalibration that accompanied the
  // report. (The batch whose acquisition surfaced the report was re-issued
  // post-recalibration inside probe_with_retry, so its range starts at or
  // after the report and stays clean. Batches with no data yet have
  // end_probe 0 and are never stale.)
  std::vector<std::size_t> stale_queue;
  const auto mark_stale = [&](const ProbeOutcome& outcome) {
    const long stale_from =
        outcome.drift_started_at_probe >= 0 ? outcome.drift_started_at_probe
                                            : probes_start;
    for (std::size_t i = 0; i < records.size(); ++i) {
      BatchRecord& record = records[i];
      if (!record.stale && record.end_probe > stale_from &&
          record.start_probe < outcome.drift_reported_at_probe) {
        record.stale = true;
        stale_queue.push_back(i);
      }
    }
  };

  // Drain the stale queue, re-probing each corrupted batch against the
  // recalibrated source. Every in-flight batch completes first (each one
  // executes, even after a failure, whose status then wins) and records its
  // probe range before staleness is judged; re-issues then run strictly
  // serially, so recovery is deterministic at any depth and identical to the
  // synchronous path at depth 1. Re-acquisition is bounded: a schedule that
  // drifts faster than recovery can converge fails typed instead of looping.
  long reacquired_batches = 0;
  const long reacquire_limit = 4 + 2 * static_cast<long>(total_batches);
  const auto recover = [&]() -> Status {
    Status drained;
    while (completed < submitted) {
      const ProbeOutcome& outcome = complete(records[completed++]);
      if (!outcome.ok() && drained.ok()) drained = outcome.status;
      if (outcome.drift_detected) pending_drifts.push_back(outcome);
    }
    if (!drained.ok()) return drained;
    for (const ProbeOutcome& outcome : pending_drifts) mark_stale(outcome);
    pending_drifts.clear();
    while (!stale_queue.empty()) {
      const std::size_t i = stale_queue.back();
      BatchRecord& record = records[i];
      stale_queue.pop_back();
      if (Status interrupt = pipeline.check(); !interrupt.ok())
        return interrupt;
      if (++reacquired_batches > reacquire_limit)
        return Status::failure(
            ErrorCode::kProbeHardFault, "raster",
            "drift re-acquisition did not converge (offsets kept drifting "
            "past " +
                std::to_string(reacquire_limit) + " re-issued batches)");
      submit(i);
      const ProbeOutcome& outcome = complete(record);
      if (!outcome.ok()) return outcome.status;
      context.faults.record_reacquired_rows(
          static_cast<long>(record.y1 - record.y0));
      if (outcome.drift_detected) mark_stale(outcome);
    }
    return {};
  };

  if (Status interrupt = pipeline.check(); !interrupt.ok()) return interrupt;
  while (completed < total_batches) {
    while (submitted < total_batches && pipeline.has_room())
      submit(submitted++);
    const ProbeOutcome& outcome = complete(records[completed++]);
    if (!outcome.ok()) return outcome.status;
    if (outcome.drift_detected) {
      pending_drifts.push_back(outcome);
      if (Status recovered = recover(); !recovered.ok()) return recovered;
    }
    if (submitted < total_batches) {
      if (Status interrupt = pipeline.check(); !interrupt.ok())
        return interrupt;
    }
  }
  return csd;
}

}  // namespace

Csd acquire_full_csd(CurrentSource& source, const VoltageAxis& x_axis,
                     const VoltageAxis& y_axis) {
  Csd csd(x_axis, y_axis);
  // One batched request for the whole window.
  std::vector<Point2> points;
  points.reserve(x_axis.count() * y_axis.count());
  append_rows(points, x_axis, y_axis, 0, y_axis.count());
  source.get_currents(points, csd.grid().raw());
  return csd;
}

Result<Csd> acquire_full_csd(CurrentSource& source, const VoltageAxis& x_axis,
                             const VoltageAxis& y_axis,
                             const AcquisitionContext& context) {
  if (!context.limited()) return acquire_full_csd(source, x_axis, y_axis);
  ProbeLane lane(source, context);
  return acquire_rows(lane.get(), x_axis, y_axis, context);
}

}  // namespace qvg
