// The benchmark's three workloads. Each builds its inputs from the run's
// seed, checks every job against a reference computed at set-up, runs a
// closed loop for config.seconds, and — when config.trace is set — runs a
// second, traced phase that times each layer through its public calls.
#pragma once

#include "harness.hpp"

namespace perfbench {

/// The 12-CSD synthetic qflow suite replayed through CsdPlayback: fast
/// extraction plus Canny/Hough baseline per CSD, 24 engine jobs per pass.
[[nodiscard]] Outcome run_table1_playback(const RunConfig& config);

/// Two closed-loop clients against an in-process ExtractionServer on
/// loopback: POST /v1/jobs then GET /v1/jobs/N?wait=1, 64 px fast jobs on
/// jittered double dots, binary/JSON lanes, fault and transport mixes.
[[nodiscard]] Outcome run_served_mixed_64px(const RunConfig& config);

/// ExtractionEngine::run_array on 16-dot linear arrays: 15 pairs at 32 px,
/// sharded on the pool, anneal frontier search.
[[nodiscard]] Outcome run_array_frontier_16dot(const RunConfig& config);

}  // namespace perfbench
