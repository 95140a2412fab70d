// Full-CSD acquisition by raster scan — the data-collection stage of the
// baseline method (every pixel is probed once).
#pragma once

#include "common/status.hpp"
#include "grid/csd.hpp"
#include "probe/acquisition_context.hpp"
#include "probe/current_source.hpp"

namespace qvg {

/// Probe every pixel of the window defined by the two axes (row-major,
/// bottom-to-top) and return the acquired diagram. Issued as one batched
/// get_currents request, so backends with a parallel probe path (the device
/// simulator) evaluate the physics concurrently — output stays bit-identical
/// to the scalar pixel-by-pixel loop.
[[nodiscard]] Csd acquire_full_csd(CurrentSource& source,
                                   const VoltageAxis& x_axis,
                                   const VoltageAxis& y_axis);

/// Context-aware acquisition. An unlimited context takes the single-batch
/// path above; a limited one issues the raster in whole-row batches of at
/// least ~512 probes through the job's ProbeLane (an InstrumentDriver when
/// context.transport is enabled, with up to io_depth batches in flight) and
/// checks the context between them, so a cancelled or expired job stops at
/// the next batch boundary (never mid-batch) with the probes already issued
/// still counted on the source. Probe order is identical either way, and
/// every check is driven by completion-carried probe counts, so an
/// uninterrupted limited acquisition is bit-identical to the unlimited one
/// at any depth. On interruption returns the typed Status (stage "raster");
/// the partially acquired pixels are discarded.
///
/// The limited path is also the fault-tolerant one: every batch goes
/// through probe_with_retry (transient faults retried per context.retry,
/// exhaustion escalating to kProbeHardFault), and a kDeviceDrifted report
/// triggers targeted re-acquisition — only the row batches probed since
/// drift_started_at_probe() are re-issued against the recalibrated source
/// (counted into FaultStats::reacquired_rows), bounded so pathological
/// schedules fail typed instead of looping. Drift recovery assumes the
/// source's probe_count() and drift_started_at_probe() share one numbering
/// (true of FaultInjectingCurrentSource and any real driver; a ProbeCache
/// invalidates its own stale region internally instead).
[[nodiscard]] Result<Csd> acquire_full_csd(CurrentSource& source,
                                           const VoltageAxis& x_axis,
                                           const VoltageAxis& y_axis,
                                           const AcquisitionContext& context);

}  // namespace qvg
