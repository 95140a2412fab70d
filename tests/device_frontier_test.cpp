// The search past kExhaustiveDotLimit active dots: branch-and-bound from
// the ICM state, stopped after kSearchNodeCap nodes. Wherever the cap does
// not trip it must equal the uncapped branch-and-bound exactly; at the cap
// it must never return worse than ICM, and it must stay deterministic and
// bounded up to the 64 dots the wire admits. In front of it, the dominance
// pre-pass must solve the active dots and leave every other dot empty.
#include "common/random.hpp"
#include "device/charge_state.hpp"
#include "device/dot_array.hpp"
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

double icm_energy(const CapacitanceModel& model,
                  const std::vector<double>& drives) {
  return model.energy(ground_state_greedy(model, drives, 4), drives);
}

// ---------------------------------------------------------------------------
// The capped search against the uncapped branch-and-bound.

TEST(CappedSearchTest, MatchesUncappedBranchAndBoundWhereTheCapHolds) {
  // Strongly coupled jittered arrays: cross levers at 0.6 of the self
  // lever, mutual coupling x1, x3 and x6 the default, every plunger drawn
  // up to 1.5x the window, so most dots are active and the bound is loose.
  // Every result is pinned against the uncapped search from the all-zero
  // incumbent, and the cap must trip somewhere in the family.
  int exact = 0, capped = 0;
  for (const double coupling : {1.0, 3.0, 6.0}) {
    for (std::size_t n = 8; n <= 12; ++n) {
      for (int trial = 0; trial < 3; ++trial) {
        DotArrayParams params;
        params.n_dots = n;
        params.cross_ratio = 0.6;
        params.mutual_coupling *= coupling;
        params.jitter = 0.04;
        Rng rng(static_cast<std::uint64_t>(coupling) * 1000 + n * 10 + trial);
        const BuiltDevice device = build_dot_array(params, &rng);
        std::vector<double> voltages(n);
        for (auto& v : voltages) v = rng.uniform(0.0, 1.5 * params.window_hi);
        const auto drives = device.model.dot_drives(voltages);

        IncrementalGroundStateSolver search(device.model);
        const std::vector<int> got = search.solve_capped(drives, 4);
        EXPECT_LE(device.model.energy(got, drives),
                  icm_energy(device.model, drives) + 1e-15)
            << "x" << coupling << ", " << n << " dots, trial " << trial;
        if (search.last_stats().capped) {
          EXPECT_EQ(search.last_stats().nodes, kSearchNodeCap);
          ++capped;
          continue;
        }
        ++exact;
        EXPECT_LT(search.last_stats().nodes, kSearchNodeCap);
        IncrementalGroundStateSolver uncapped(device.model);
        EXPECT_EQ(got, uncapped.solve(drives, 4))
            << "x" << coupling << ", " << n << " dots, trial " << trial;
        EXPECT_FALSE(uncapped.last_stats().capped);
      }
    }
  }
  EXPECT_GT(exact, 20);
  EXPECT_GT(capped, 0);
}

TEST(CappedSearchTest, NeverAboveIcm) {
  // The incumbent starts at the ICM state and only ever moves down, so the
  // production solver returns at most its energy, capped or not.
  Rng rng(515);
  for (std::size_t n : {8u, 12u, 16u, 24u}) {
    for (int trial = 0; trial < 6; ++trial) {
      const auto model = random_model(n, rng);
      const auto drives = random_drives(model, rng);
      GroundStateSolver solver;
      solver.bind(model);
      EXPECT_LE(model.energy(solver.solve(drives, {}), drives),
                icm_energy(model, drives) + 1e-15)
          << n << " dots, trial " << trial;
    }
  }
}

TEST(CappedSearchTest, SixtyFourDotsAllActiveStopAtTheCap) {
  // The wire admits 64 dots; every plunger at the window centre makes every
  // dot active. The search must end at the cap, deterministically, no worse
  // than ICM.
  DotArrayParams params;
  params.n_dots = 64;
  const BuiltDevice device = build_dot_array(params);
  std::vector<double> voltages = device.base_voltages;
  for (auto& v : voltages) v = 0.5 * (params.window_lo + params.window_hi);
  const auto drives = device.model.dot_drives(voltages);
  std::vector<std::size_t> active;
  active_dots(device.model, drives, active);
  ASSERT_EQ(active.size(), 64u);

  GroundStateSolver solver;
  solver.bind(device.model);
  const std::vector<int> first = solver.solve(drives, {});
  EXPECT_TRUE(solver.last_stats().capped);
  EXPECT_EQ(solver.last_stats().nodes, kSearchNodeCap);
  EXPECT_LE(device.model.energy(first, drives),
            icm_energy(device.model, drives) + 1e-15);
  GroundStateSolver again;
  again.bind(device.model);
  EXPECT_EQ(again.solve(drives, {}), first);
  EXPECT_EQ(again.last_stats().nodes, solver.last_stats().nodes);
}

TEST(CappedSearchTest, FrontierProbeTwelveDotsMatchesPin) {
  // `csd_tool --frontier-probe 12`: every plunger at the window centre.
  // The search finishes below the cap, so the result is exact.
  DotArrayParams params;
  params.n_dots = 12;
  const BuiltDevice device = build_dot_array(params);
  std::vector<double> voltages = device.base_voltages;
  for (auto& v : voltages) v = 0.5 * (params.window_lo + params.window_hi);
  const auto drives = device.model.dot_drives(voltages);
  GroundStateSolver solver;
  solver.bind(device.model);
  EXPECT_EQ(solver.solve(drives, {}), std::vector<int>(12, 1));
  EXPECT_EQ(solver.last_stats().nodes, 131u);
  EXPECT_FALSE(solver.last_stats().capped);
}

// ---------------------------------------------------------------------------
// The dominance pre-pass above kExhaustiveDotLimit: a dot with
// mu_i < Ec_i/2 is empty in every ground state, so GroundStateSolver
// searches only the active dots: exactly up to the limit, with the capped
// search past it.

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

/// The search over the restricted model of the active dots, every other
/// dot empty: the reference enumeration up to the limit, the capped search
/// on its own past it.
std::vector<int> compacted_oracle(const CapacitanceModel& model,
                                  const std::vector<double>& drives,
                                  const std::vector<std::size_t>& active) {
  std::vector<int> occupation(model.num_dots(), 0);
  if (active.empty()) return occupation;
  std::vector<double> sub_drives;
  for (const std::size_t d : active) sub_drives.push_back(drives[d]);
  const CapacitanceModel sub_model = model.restricted_to(active);
  const std::vector<int> sub =
      active.size() <= kExhaustiveDotLimit
          ? ground_state_exhaustive(sub_model, sub_drives, 4)
          : IncrementalGroundStateSolver(sub_model).solve_capped(sub_drives,
                                                                 4);
  for (std::size_t a = 0; a < active.size(); ++a)
    occupation[active[a]] = sub[a];
  return occupation;
}

TEST(DominancePrepassTest, ExactOverActiveDotsAndCappedPastTheLimit) {
  // Each plunger either rests at its base voltage or is drawn across the
  // window; in half the trials a few drives are then moved to within 3 ulps
  // of Ec_i/2, on both sides of the activity test.
  Rng rng(8128);
  const ChargeSolverOptions options;
  int exact_cases = 0, capped_cases = 0, boundary_drives = 0;
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
    const auto active = dots_above_half_charging(model, drives);
    EXPECT_EQ(got, compacted_oracle(model, drives, active))
        << "trial " << trial << ", " << active.size() << " active of " << n;
    EXPECT_LE(model.energy(got, drives), icm_energy(model, drives) + 1e-15)
        << "trial " << trial;
    if (active.size() <= kExhaustiveDotLimit)
      ++exact_cases;
    else
      ++capped_cases;
  }
  EXPECT_GT(exact_cases, 20);
  EXPECT_GT(capped_cases, 5);
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

TEST(DominancePrepassTest, WindowCentreRunsTheCappedSearchBitForBit) {
  // `csd_tool --frontier-probe`: every plunger at the window centre puts
  // more than kExhaustiveDotLimit dots above Ec_i/2, so the pre-pass hands
  // them to the capped search, which finishes below the cap on these
  // arrays: it equals the uncapped branch-and-bound.
  for (std::size_t n = 8; n <= 16; ++n) {
    const BuiltDevice device = jittered_array(n, 900 + n);
    std::vector<double> voltages = device.base_voltages;
    for (std::size_t g = 0; g < n; ++g)
      voltages[g] = 0.5 * (device.params.window_lo + device.params.window_hi);
    const auto drives = device.model.dot_drives(voltages);
    std::vector<std::size_t> active;
    active_dots(device.model, drives, active);
    ASSERT_GT(active.size(), kExhaustiveDotLimit) << n << " dots";
    std::vector<double> active_drives;
    for (const std::size_t d : active) active_drives.push_back(drives[d]);
    IncrementalGroundStateSolver search;
    search.bind(device.model, active);
    const std::vector<int> capped = search.solve_capped(active_drives, 4);
    EXPECT_FALSE(search.last_stats().capped) << n << " dots";
    EXPECT_EQ(search.solve(active_drives, 4), capped) << n << " dots";
    EXPECT_EQ(ground_state(device.model, voltages, {}),
              compacted_oracle(device.model, drives, active))
        << n << " dots";
  }
}

// ---------------------------------------------------------------------------
// Reruns are bit-identical end to end.

TEST(RerunTest, RerunningAnEngineRequestIsBitIdentical) {
  // The retry contract: a job-level rerun rebuilds the simulator from the
  // request, and every probe's charge state is a pure function of its
  // voltages — so the served report (the wire-visible subset) must be
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
