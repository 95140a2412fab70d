#include "probe/raster.hpp"

#include "probe/driver/instrument_driver.hpp"
#include "probe/retry_policy.hpp"

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace qvg {

Csd acquire_full_csd(CurrentSource& source, const VoltageAxis& x_axis,
                     const VoltageAxis& y_axis) {
  Csd csd(x_axis, y_axis);
  // One batched request for the whole window, in the raster's row-major
  // bottom-to-top probe order. The grid is row-major with x fastest, so the
  // batch writes straight into its storage.
  std::vector<Point2> points;
  points.reserve(x_axis.count() * y_axis.count());
  for (std::size_t y = 0; y < y_axis.count(); ++y) {
    const double vy = y_axis.voltage(static_cast<double>(y));
    for (std::size_t x = 0; x < x_axis.count(); ++x)
      points.push_back({x_axis.voltage(static_cast<double>(x)), vy});
  }
  source.get_currents(points, csd.grid().raw());
  return csd;
}

Result<Csd> acquire_full_csd(AsyncCurrentSource& driver,
                             const VoltageAxis& x_axis,
                             const VoltageAxis& y_axis,
                             const AcquisitionContext& context) {
  // Row-granular batches submitted through the driver, with an interruption
  // check at each completion boundary. The probe order (row-major,
  // bottom-to-top, x fastest) matches the single batch exactly, and the
  // driver executes batches serially in submission order, so an
  // uninterrupted run produces the same diagram bit for bit at any io_depth
  // — and through the SyncSourceAdapter the loop is call-for-call identical
  // to the pre-driver synchronous path. Batches are whole rows, enough of
  // them to clear kMinBatchPoints: per-batch dispatch (and the check itself)
  // then costs well under 1% of the acquisition while a cancelled job still
  // stops within a few hundred probes.
  //
  // Pipelining: up to driver.depth() batches ride in flight (double
  // buffering at depth 2), overlapping the transport's command latency
  // across consecutive batches. All bookkeeping — budget checks, drift
  // ranges — is driven by completion-carried probe counts, never by reading
  // the source while transfers are in flight, so every check value is
  // deterministic for a given depth.
  constexpr std::size_t kMinBatchPoints = 512;
  Csd csd(x_axis, y_axis);
  const std::size_t width = x_axis.count();
  const std::size_t height = y_axis.count();
  const std::size_t rows_per_batch =
      std::max<std::size_t>(1, kMinBatchPoints / width);
  const std::size_t total_batches =
      (height + rows_per_batch - 1) / rows_per_batch;
  const long probes_start = driver.probes_completed();  // budget: job-relative
  std::span<double> out(csd.grid().raw());

  // Per-batch bookkeeping for drift recovery: which inner probe counts each
  // row batch was served at. A kDeviceDrifted report names the range of
  // stale probes; only batches overlapping it are re-issued.
  struct BatchRecord {
    std::size_t y0 = 0;
    std::size_t y1 = 0;
    long start_probe = 0;  // probe_count() range of the *successful* attempt
    long end_probe = 0;    // that produced the stored values (0 = no data yet)
    bool stale = false;
  };
  std::vector<BatchRecord> records;
  records.reserve(total_batches);
  for (std::size_t y0 = 0; y0 < height; y0 += rows_per_batch)
    records.push_back(
        BatchRecord{y0, std::min(height, y0 + rows_per_batch), 0, 0, false});

  const auto build_points = [&](const BatchRecord& record,
                                std::vector<Point2>& points) {
    points.clear();
    points.reserve((record.y1 - record.y0) * width);
    for (std::size_t y = record.y0; y < record.y1; ++y) {
      const double vy = y_axis.voltage(static_cast<double>(y));
      for (std::size_t x = 0; x < width; ++x)
        points.push_back({x_axis.voltage(static_cast<double>(x)), vy});
    }
  };

  // Submission state. Point buffers rotate through a window-sized pool: a
  // batch's points must stay alive until its completion is consumed, and at
  // most `window` batches are in flight, so buffer (index % window) is free
  // by the time it is reused.
  const std::size_t window = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::max<long>(1, driver.depth())));
  std::vector<std::vector<Point2>> buffers(std::min(window, total_batches));
  std::vector<CompletionHandle> handles(total_batches);
  std::size_t submitted = 0;
  std::size_t completed = 0;
  long last_probes = probes_start;  // probe count after the last completion
  Status stop;
  std::vector<ProbeOutcome> pending_drifts;

  // Consume the oldest in-flight completion, refreshing its record's probe
  // range from the successful attempt (failed attempts issue no probes, so
  // the range is the last `size` probes before probes_after).
  const auto consume_one = [&]() {
    // Copy before releasing the handle: wait() returns a reference into the
    // handle's shared state, which the reset below may free.
    const BatchCompletion completion = handles[completed].wait();
    BatchRecord& record = records[completed];
    handles[completed] = CompletionHandle();
    ++completed;
    if (!completion.outcome.ok()) {
      if (stop.ok()) stop = completion.outcome.status;
      return;
    }
    record.end_probe = completion.probes_after;
    record.start_probe =
        record.end_probe - static_cast<long>((record.y1 - record.y0) * width);
    record.stale = false;
    last_probes = completion.probes_after;
    if (completion.outcome.drift_detected)
      pending_drifts.push_back(completion.outcome);
  };

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
  // recalibrated source. The ring is drained first — every in-flight batch
  // completes and records its probe range before staleness is judged — and
  // re-issues then run strictly serially (submit + wait), so recovery is
  // deterministic at any depth and identical to the synchronous path at
  // depth 1. Re-acquisition is bounded: a schedule that drifts faster than
  // recovery can converge fails typed instead of looping.
  long reacquired_batches = 0;
  const long reacquire_limit = 4 + 2 * static_cast<long>(total_batches);
  std::vector<Point2> reissue_points;
  const auto recover = [&]() -> Status {
    while (completed < submitted) consume_one();
    if (!stop.ok()) return stop;
    for (const ProbeOutcome& outcome : pending_drifts) mark_stale(outcome);
    pending_drifts.clear();
    while (!stale_queue.empty()) {
      const std::size_t i = stale_queue.back();
      stale_queue.pop_back();
      if (Status interrupt =
              context.check("raster", last_probes - probes_start);
          !interrupt.ok())
        return interrupt;
      if (++reacquired_batches > reacquire_limit)
        return Status::failure(
            ErrorCode::kProbeHardFault, "raster",
            "drift re-acquisition did not converge (offsets kept drifting "
            "past " +
                std::to_string(reacquire_limit) + " re-issued batches)");
      BatchRecord& record = records[i];
      build_points(record, reissue_points);
      CompletionHandle handle = driver.submit(
          reissue_points, out.subspan(record.y0 * width, reissue_points.size()),
          context, "raster");
      const BatchCompletion& completion = handle.wait();
      if (!completion.outcome.ok()) return completion.outcome.status;
      record.end_probe = completion.probes_after;
      record.start_probe =
          record.end_probe - static_cast<long>(reissue_points.size());
      record.stale = false;
      last_probes = completion.probes_after;
      context.faults.record_reacquired_rows(
          static_cast<long>(record.y1 - record.y0));
      if (completion.outcome.drift_detected) mark_stale(completion.outcome);
    }
    return {};
  };

  if (Status interrupt = context.check("raster", 0); !interrupt.ok())
    return interrupt;
  for (;;) {
    while (stop.ok() && submitted < total_batches &&
           submitted - completed < window) {
      BatchRecord& record = records[submitted];
      std::vector<Point2>& buffer = buffers[submitted % buffers.size()];
      build_points(record, buffer);
      handles[submitted] = driver.submit(
          buffer, out.subspan(record.y0 * width, buffer.size()), context,
          "raster");
      ++submitted;
    }
    if (completed == submitted) break;  // drained: done, or stopped
    consume_one();
    if (stop.ok() && !pending_drifts.empty()) {
      if (Status recovered = recover(); !recovered.ok()) stop = recovered;
    }
    if (stop.ok() && submitted < total_batches) {
      if (Status interrupt =
              context.check("raster", last_probes - probes_start);
          !interrupt.ok())
        stop = interrupt;
    }
    // Interrupted with batches still in flight: abort them at the driver
    // (queued transfers fail without executing) and keep consuming until
    // the ring is empty. The first failure wins; aborted completions are
    // discarded.
    if (!stop.ok() && completed < submitted) driver.abort_inflight();
  }
  if (!stop.ok()) return stop;
  return csd;
}

Result<Csd> acquire_full_csd(CurrentSource& source, const VoltageAxis& x_axis,
                             const VoltageAxis& y_axis,
                             const AcquisitionContext& context) {
  if (!context.limited()) return acquire_full_csd(source, x_axis, y_axis);
  if (context.transport.enabled()) {
    InstrumentDriver driver(source, context.transport, context.faults);
    return acquire_full_csd(driver, x_axis, y_axis, context);
  }
  SyncSourceAdapter adapter(source);
  return acquire_full_csd(adapter, x_axis, y_axis, context);
}

}  // namespace qvg
