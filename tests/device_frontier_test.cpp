// The solver frontier: the O(1) delta-energy move machinery must agree with
// full energy recomputes (the property the whole search rests on), the
// anneal must recover the exact branch-and-bound ground state on nearly all
// enumerable models, and every run must be a pure function of its seed (so
// job retries replay bit-identically). In front of the frontier, the
// dominance pre-pass must solve the active dots exactly and hand a model
// with more than 7 active dots to the anneal unchanged.
#include "common/random.hpp"
#include "device/charge_state.hpp"
#include "device/dot_array.hpp"
#include "device/simulator.hpp"
#include "service/extraction_engine.hpp"

#include "test_support.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <vector>

namespace qvg {
namespace {

const bool g_force_threads = testsupport::force_multithread_pool();

/// Random diagonal-dominant model with n dots (and n gates); the same
/// family the solver-equivalence suite uses.
CapacitanceModel random_model(std::size_t n, Rng& rng) {
  Matrix alpha(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      alpha(i, j) = i == j ? rng.uniform(0.08, 0.15)
                          : rng.uniform(0.005, 0.04);
  std::vector<double> charging(n);
  for (auto& c : charging) c = rng.uniform(1.5e-3, 3.5e-3);
  Matrix mutual(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = i + 1; k < n; ++k)
      mutual(i, k) = mutual(k, i) = rng.uniform(0.0, 0.4e-3);
  std::vector<double> offsets(n);
  for (auto& o : offsets) o = rng.uniform(1.0e-3, 3.0e-3);
  return CapacitanceModel(alpha, charging, mutual, offsets);
}

std::vector<double> random_drives(const CapacitanceModel& model, Rng& rng) {
  std::vector<double> voltages(model.num_gates());
  for (auto& v : voltages) v = rng.uniform(0.0, 0.08);
  return model.dot_drives(voltages);
}

std::vector<int> random_occupation(std::size_t n, int max, Rng& rng) {
  std::vector<int> occ(n);
  for (auto& c : occ) c = static_cast<int>(rng.uniform_int(0, max));
  return occ;
}

// ---------------------------------------------------------------------------
// S2: delta-energy evaluations equal full energy recomputes.

TEST(DeltaMoveEvaluatorTest, SingleMoveDeltasMatchFullRecompute) {
  Rng rng(9001);
  for (std::size_t n : {2u, 3u, 5u, 8u, 12u, 16u}) {
    for (int trial = 0; trial < 8; ++trial) {
      const auto model = random_model(n, rng);
      const auto drives = random_drives(model, rng);
      const auto occ = random_occupation(n, 4, rng);
      DeltaMoveEvaluator eval;
      eval.bind(model);
      eval.set_state(occ, drives);
      const double base = model.energy(occ, drives);
      auto trial_occ = occ;
      for (std::size_t d = 0; d < n; ++d) {
        for (int c = 0; c <= 4; ++c) {
          trial_occ[d] = c;
          ASSERT_NEAR(eval.delta_single(d, c),
                      model.energy(trial_occ, drives) - base, 1e-12)
              << "n=" << n << " trial=" << trial << " d=" << d << " c=" << c;
        }
        trial_occ[d] = occ[d];
      }
    }
  }
}

TEST(DeltaMoveEvaluatorTest, SwapDeltasMatchFullRecompute) {
  Rng rng(9002);
  for (std::size_t n : {2u, 4u, 7u, 10u, 16u}) {
    for (int trial = 0; trial < 8; ++trial) {
      const auto model = random_model(n, rng);
      const auto drives = random_drives(model, rng);
      const auto occ = random_occupation(n, 4, rng);
      DeltaMoveEvaluator eval;
      eval.bind(model);
      eval.set_state(occ, drives);
      const double base = model.energy(occ, drives);
      auto trial_occ = occ;
      for (std::size_t a = 0; a < n; ++a) {
        for (std::size_t b = a + 1; b < n; ++b) {
          std::swap(trial_occ[a], trial_occ[b]);
          ASSERT_NEAR(eval.delta_swap(a, b),
                      model.energy(trial_occ, drives) - base, 1e-12)
              << "n=" << n << " trial=" << trial << " a=" << a << " b=" << b;
          std::swap(trial_occ[a], trial_occ[b]);
        }
      }
    }
  }
}

TEST(DeltaMoveEvaluatorTest, RunningEnergyTracksFullRecomputeAcrossMoves) {
  // The accumulated energy after a long random walk of applied moves must
  // still agree with a from-scratch recompute (no drift beyond fp residue).
  Rng rng(9003);
  for (std::size_t n : {3u, 6u, 12u, 16u}) {
    const auto model = random_model(n, rng);
    const auto drives = random_drives(model, rng);
    DeltaMoveEvaluator eval;
    eval.bind(model);
    eval.set_state(random_occupation(n, 4, rng), drives);
    for (int step = 0; step < 400; ++step) {
      if (n >= 2 && rng.uniform() < 0.25) {
        const auto a = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(n) - 1));
        auto b = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(n) - 2));
        if (b >= a) ++b;
        eval.apply_swap(a, b);
      } else {
        const auto d = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(n) - 1));
        eval.apply_single(d, static_cast<int>(rng.uniform_int(0, 4)));
      }
      if (step % 50 == 0)
        ASSERT_NEAR(eval.energy(), model.energy(eval.occupation(), drives),
                    1e-12)
            << "n=" << n << " step=" << step;
    }
    EXPECT_NEAR(eval.energy(), model.energy(eval.occupation(), drives), 1e-12);
  }
}

// ---------------------------------------------------------------------------
// Tentpole: exactness against branch-and-bound ground truth at <= 7 dots.

double exact_recovery_fraction() {
  Rng rng(4242);
  int exact = 0, total = 0;
  for (std::size_t n : {5u, 6u, 7u}) {
    for (int trial = 0; trial < 40; ++trial) {
      const auto model = random_model(n, rng);
      const auto drives = random_drives(model, rng);
      const auto reference = ground_state_exhaustive(model, drives, 4);
      const auto found = ground_state_frontier(model, drives, 4);
      // Exact recovery = same minimal energy (degenerate ties may pick a
      // different member of the tied set; both are ground states).
      if (model.energy(found, drives) <=
          model.energy(reference, drives) + 1e-12)
        ++exact;
      ++total;
    }
  }
  return static_cast<double>(exact) / static_cast<double>(total);
}

TEST(FrontierExactnessTest, AnnealRecoversExhaustiveGroundState) {
  EXPECT_GE(exact_recovery_fraction(), 0.95);
}

TEST(FrontierExactnessTest, FrontierNeverWorseThanPlainGreedy) {
  // Each restart ends in an ICM polish and restart 0 starts from zeros, so
  // the anneal cannot return a higher-energy state than plain greedy.
  Rng rng(515);
  for (std::size_t n : {8u, 12u, 16u}) {
    for (int trial = 0; trial < 6; ++trial) {
      const auto model = random_model(n, rng);
      const auto drives = random_drives(model, rng);
      const double greedy =
          model.energy(ground_state_greedy(model, drives, 4), drives);
      EXPECT_LE(model.energy(ground_state_frontier(model, drives, 4), drives),
                greedy + 1e-15);
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism: same seed, same occupation, same SolveStats (the CI smoke's
// in-process equivalent, at 12 dots).

TEST(FrontierDeterminismTest, AnnealSameSeedIsBitIdentical) {
  Rng rng(777);
  const auto model = random_model(12, rng);
  const auto drives = random_drives(model, rng);
  const FrontierOptions options;
  SolveStats first_stats, second_stats;
  const auto first = ground_state_frontier(model, drives, 4, options,
                                           &first_stats);
  const auto second = ground_state_frontier(model, drives, 4, options,
                                            &second_stats);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first_stats.moves_evaluated, second_stats.moves_evaluated);
  EXPECT_EQ(first_stats.moves_accepted, second_stats.moves_accepted);
  EXPECT_EQ(first_stats.restarts, second_stats.restarts);
  EXPECT_GT(first_stats.moves_evaluated, 0u);
  EXPECT_GT(first_stats.restarts, 0u);
}

// Pins of the annealing walk itself: the accept/reject decisions and RNG
// draws must stay bit-identical through any rewrite of the acceptance test.

TEST(FrontierDeterminismTest, FrontierProbeTwelveDotsMatchesPin) {
  // `csd_tool --frontier-probe 12`: every plunger at the window centre.
  DotArrayParams params;
  params.n_dots = 12;
  const BuiltDevice device = build_dot_array(params);
  std::vector<double> voltages = device.base_voltages;
  for (auto& v : voltages) v = 0.5 * (params.window_lo + params.window_hi);
  const auto drives = device.model.dot_drives(voltages);
  SolveStats stats;
  const auto occupation =
      ground_state_frontier(device.model, drives, 4, FrontierOptions{}, &stats);
  EXPECT_EQ(occupation, std::vector<int>(12, 1));
  EXPECT_EQ(stats.moves_evaluated, 864u);
  EXPECT_EQ(stats.moves_accepted, 314u);
  EXPECT_EQ(stats.restarts, 3u);
}

TEST(FrontierDeterminismTest, AnnealWalksOnRandomModelsMatchPin) {
  // Summed counters and an FNV-1a hash of the occupations over random 8-16
  // dot models with drives across the window.
  Rng rng(31337);
  std::uint64_t evaluated = 0, accepted = 0;
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 8 + static_cast<std::size_t>(trial % 9);
    const auto model = random_model(n, rng);
    const auto drives = random_drives(model, rng);
    FrontierOptions options;
    options.seed = static_cast<std::uint64_t>(trial) + 1;
    SolveStats stats;
    for (const int c : ground_state_frontier(model, drives, 4, options, &stats))
      hash = (hash ^ static_cast<std::uint64_t>(c)) * 0x100000001b3ULL;
    evaluated += stats.moves_evaluated;
    accepted += stats.moves_accepted;
  }
  EXPECT_EQ(evaluated, 25272u);
  EXPECT_EQ(accepted, 5603u);
  EXPECT_EQ(hash, 3413533565067652398ULL);
}

TEST(FrontierDeterminismTest, DifferentSeedsSearchDifferently) {
  // Not a correctness requirement on the *result* (both may find the same
  // ground state) but the search itself must consume the seed: over a batch
  // of models, two seeds must diverge somewhere in the accept counters.
  Rng rng(778);
  bool diverged = false;
  for (int trial = 0; trial < 10 && !diverged; ++trial) {
    const auto model = random_model(12, rng);
    const auto drives = random_drives(model, rng);
    FrontierOptions a, b;
    b.seed = a.seed + 1;
    SolveStats sa, sb;
    (void)ground_state_frontier(model, drives, 4, a, &sa);
    (void)ground_state_frontier(model, drives, 4, b, &sb);
    diverged = sa.moves_accepted != sb.moves_accepted;
  }
  EXPECT_TRUE(diverged);
}

// ---------------------------------------------------------------------------
// The dominance pre-pass above kExhaustiveDotLimit: a dot with
// mu_i < Ec_i/2 is empty in every ground state, so GroundStateSolver solves
// only the active dots exactly, and hands the whole model to the frontier
// search when more than the limit are active.

BuiltDevice jittered_array(std::size_t n, std::uint64_t seed) {
  DotArrayParams params;
  params.n_dots = n;
  params.jitter = 0.04;
  Rng rng(seed);
  return build_dot_array(params, &rng);
}

/// The dots with !(mu_i < Ec_i/2), recomputed independently of
/// active_dots().
std::vector<std::size_t> dots_above_half_charging(
    const CapacitanceModel& model, const std::vector<double>& drives) {
  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < model.num_dots(); ++i)
    if (!(drives[i] < 0.5 * model.charging_energies()[i])) active.push_back(i);
  return active;
}

/// Brute-force oracle: reference enumeration over the restricted model of
/// the active dots, every other dot empty.
std::vector<int> compacted_oracle(const CapacitanceModel& model,
                                  const std::vector<double>& drives,
                                  const std::vector<std::size_t>& active) {
  std::vector<int> occupation(model.num_dots(), 0);
  if (active.empty()) return occupation;
  std::vector<double> sub_drives;
  for (const std::size_t d : active) sub_drives.push_back(drives[d]);
  const auto sub =
      ground_state_exhaustive(model.restricted_to(active), sub_drives, 4);
  for (std::size_t a = 0; a < active.size(); ++a)
    occupation[active[a]] = sub[a];
  return occupation;
}

TEST(DominancePrepassTest, ExactOverActiveDotsAndNeverAboveTheFrontier) {
  // Each plunger either rests at its base voltage or is drawn across the
  // window; in half the trials a few drives are then moved to within 3 ulps
  // of Ec_i/2, on both sides of the activity test.
  Rng rng(8128);
  const ChargeSolverOptions options;
  int exact_cases = 0, frontier_cases = 0, boundary_drives = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 8 + static_cast<std::size_t>(trial % 9);
    const BuiltDevice device = jittered_array(n, 500 + trial);
    const CapacitanceModel& model = device.model;
    std::vector<double> voltages = device.base_voltages;
    for (std::size_t g = 0; g < n; ++g)
      if (rng.uniform() < 0.6)
        voltages[g] =
            rng.uniform(device.params.window_lo, device.params.window_hi);
    std::vector<double> drives = model.dot_drives(voltages);
    const bool nudged = trial % 2 == 1;
    if (nudged) {
      for (int k = 0; k < 3; ++k) {
        const auto d = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        double mu = 0.5 * model.charging_energies()[d];
        const auto steps = rng.uniform_int(-3, 3);
        for (std::int64_t s = 0; s < std::abs(steps); ++s)
          mu = std::nextafter(mu, steps < 0 ? 0.0 : 1.0);
        drives[d] = mu;
        ++boundary_drives;
      }
    }

    GroundStateSolver solver;
    solver.bind(model);
    const std::vector<int> got = solver.solve(drives, options);
    if (!nudged) {
      EXPECT_EQ(ground_state(model, voltages, options), got);
    }
    const auto frontier =
        ground_state_frontier(model, drives, 4, options.frontier);
    const auto active = dots_above_half_charging(model, drives);
    if (active.size() <= kExhaustiveDotLimit) {
      ++exact_cases;
      EXPECT_EQ(got, compacted_oracle(model, drives, active))
          << "trial " << trial << ", " << active.size() << " active of " << n;
      EXPECT_LE(model.energy(got, drives), model.energy(frontier, drives))
          << "trial " << trial;
    } else {
      ++frontier_cases;
      EXPECT_EQ(got, frontier) << "trial " << trial;
    }
  }
  EXPECT_GT(exact_cases, 20);
  EXPECT_GT(frontier_cases, 5);
  EXPECT_GT(boundary_drives, 0);
}

TEST(DominancePrepassTest, CompactedSolveMatchesWholeModelBranchAndBound) {
  // The dominance argument itself: at 8-9 dots the whole model is still
  // enumerable, and its branch-and-bound ground state keeps every inactive
  // dot empty.
  Rng rng(8129);
  const ChargeSolverOptions options;
  int compacted = 0;
  for (int trial = 0; trial < 16; ++trial) {
    const std::size_t n = 8 + static_cast<std::size_t>(trial % 2);
    const BuiltDevice device = jittered_array(n, 700 + trial);
    std::vector<double> voltages = device.base_voltages;
    for (std::size_t g = 0; g < n; ++g)
      voltages[g] =
          rng.uniform(device.params.window_lo, device.params.window_hi);
    const auto drives = device.model.dot_drives(voltages);
    if (dots_above_half_charging(device.model, drives).size() >
        kExhaustiveDotLimit)
      continue;
    ++compacted;
    IncrementalGroundStateSolver whole(device.model);
    EXPECT_EQ(ground_state(device.model, voltages, options),
              whole.solve(drives, 4))
        << "trial " << trial;
  }
  EXPECT_GE(compacted, 10);
}

TEST(DominancePrepassTest, WindowCentreStillRunsTheFrontierBitForBit) {
  // `csd_tool --frontier-probe`: every plunger at the window centre puts all
  // dots above Ec_i/2, so the pre-pass must hand the whole model to the
  // anneal, unchanged.
  for (std::size_t n = 8; n <= 16; ++n) {
    const BuiltDevice device = jittered_array(n, 900 + n);
    std::vector<double> voltages = device.base_voltages;
    for (std::size_t g = 0; g < n; ++g)
      voltages[g] = 0.5 * (device.params.window_lo + device.params.window_hi);
    const auto drives = device.model.dot_drives(voltages);
    std::vector<std::size_t> active;
    active_dots(device.model, drives, active);
    ASSERT_GT(active.size(), 7u) << n << " dots";
    const ChargeSolverOptions options;
    EXPECT_EQ(ground_state(device.model, voltages, options),
              ground_state_frontier(device.model, drives, 4, options.frontier))
        << n << " dots";
  }
}

// ---------------------------------------------------------------------------
// S1: stochastic seeds derive from the request seed — reruns are
// bit-identical end to end.

TEST(FrontierSeedDerivationTest, SameNoiseSeedSameRasterAtTenDots) {
  DotArrayParams params;
  params.n_dots = 10;
  const BuiltDevice device = build_dot_array(params);
  const VoltageAxis axis = scan_axis(device, 24);

  // Two independently constructed simulators with the same noise seed must
  // produce bit-identical rasters. 10 dots > exhaustive_dot_limit, so each
  // pixel goes through the dominance pre-pass: exact over its active dots,
  // or the seeded stochastic frontier when more than 7 are active.
  const DeviceSimulator first = make_pair_simulator(device, 4, /*seed=*/99);
  const DeviceSimulator second = make_pair_simulator(device, 4, /*seed=*/99);
  EXPECT_GT(first.solver_options().frontier.seed, 0u);
  EXPECT_EQ(first.solver_options().frontier.seed,
            second.solver_options().frontier.seed);
  EXPECT_EQ(first.evaluate_raster(axis, axis, {RasterEvalMode::kFast, true}),
            second.evaluate_raster(axis, axis, {RasterEvalMode::kFast, true}));
}

TEST(FrontierSeedDerivationTest, RerunningAnEngineRequestIsBitIdentical) {
  // The retry contract: a job-level rerun rebuilds the simulator from the
  // request, and the frontier seed is a pure function of the request's
  // noise seed — so the served report (the wire-visible subset) must be
  // bit-identical across runs.
  DotArrayParams params;
  params.n_dots = 10;
  const BuiltDevice device = build_dot_array(params);
  const ExtractionEngine engine;
  ExtractionRequest request;
  request.device.device = &device;
  request.device.pair_index = 5;
  request.device.noise_seed = 1234;
  request.device.pixels_per_axis = 24;
  const ExtractionReport first = engine.run(request);
  const ExtractionReport second = engine.run(request);
  // Everything except wall-clock timing must match exactly.
  EXPECT_EQ(first.status, second.status);
  EXPECT_EQ(first.virtual_gates.alpha12, second.virtual_gates.alpha12);
  EXPECT_EQ(first.virtual_gates.alpha21, second.virtual_gates.alpha21);
  EXPECT_EQ(first.slope_steep, second.slope_steep);
  EXPECT_EQ(first.slope_shallow, second.slope_shallow);
  EXPECT_EQ(first.stats.unique_probes, second.stats.unique_probes);
  EXPECT_EQ(first.stats.total_requests, second.stats.total_requests);
  EXPECT_EQ(first.stats.simulated_seconds, second.stats.simulated_seconds);
  EXPECT_EQ(first.verdict.success, second.verdict.success);
  EXPECT_EQ(first.verdict.alpha12_rel_error, second.verdict.alpha12_rel_error);
}

}  // namespace
}  // namespace qvg
