// Equivalence proofs for the optimized hot paths: the incremental
// charge-state solver, warm starting, and the batched/parallel raster
// evaluation must return exactly the same occupations and currents as the
// naive reference implementations.
#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "device/charge_state.hpp"
#include "device/dot_array.hpp"
#include "device/simulator.hpp"
#include "probe/raster.hpp"

#include "test_support.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace qvg {
namespace {

const bool g_force_threads = testsupport::force_multithread_pool();

/// Random diagonal-dominant model with n dots (and n gates).
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

TEST(IncrementalSolverTest, MatchesExhaustiveOnRandomModels) {
  Rng rng(2024);
  for (std::size_t n : {2u, 3u, 4u}) {
    for (int trial = 0; trial < 25; ++trial) {
      const auto model = random_model(n, rng);
      IncrementalGroundStateSolver solver(model);
      for (int probe = 0; probe < 8; ++probe) {
        const auto drives = random_drives(model, rng);
        const auto reference = ground_state_exhaustive(model, drives, 4);
        const auto& incremental = solver.solve(drives, 4);
        ASSERT_EQ(incremental, reference)
            << "n=" << n << " trial=" << trial << " probe=" << probe;
      }
    }
  }
}

TEST(IncrementalSolverTest, WarmStartNeverChangesTheGroundState) {
  Rng rng(77);
  for (std::size_t n : {2u, 3u, 4u}) {
    for (int trial = 0; trial < 20; ++trial) {
      const auto model = random_model(n, rng);
      IncrementalGroundStateSolver cold(model);
      IncrementalGroundStateSolver warm(model);
      std::vector<int> seed(n);
      for (int probe = 0; probe < 8; ++probe) {
        const auto drives = random_drives(model, rng);
        // Warm seeds: random occupations, including the true answer itself.
        for (auto& s : seed)
          s = static_cast<int>(rng.uniform_int(0, 4));
        const auto cold_result = cold.solve(drives, 4);
        ASSERT_EQ(warm.solve(drives, 4, &seed), cold_result);
        const std::vector<int> answer = cold_result;
        ASSERT_EQ(warm.solve(drives, 4, &answer), cold_result);
      }
    }
  }
}

TEST(IncrementalSolverTest, MatchesExhaustiveForSmallElectronCaps) {
  Rng rng(5);
  const auto model = random_model(3, rng);
  IncrementalGroundStateSolver solver(model);
  for (int max_e : {0, 1, 2}) {
    for (int probe = 0; probe < 10; ++probe) {
      const auto drives = random_drives(model, rng);
      ASSERT_EQ(solver.solve(drives, max_e),
                ground_state_exhaustive(model, drives, max_e));
    }
  }
}

TEST(BranchAndBoundTest, MatchesExhaustiveOnFiveAndSixDotModels) {
  // The paper-scale claim: incumbent-driven subtree elimination keeps the
  // solver exact (bit-identical incumbent, enumeration-order tie-breaking)
  // while visiting a fraction of the m^n states.
  Rng rng(4242);
  std::uint64_t pruned_total = 0;
  for (std::size_t n : {5u, 6u}) {
    for (int trial = 0; trial < 8; ++trial) {
      const auto model = random_model(n, rng);
      IncrementalGroundStateSolver solver(model);
      for (int probe = 0; probe < 6; ++probe) {
        const auto drives = random_drives(model, rng);
        const auto reference = ground_state_exhaustive(model, drives, 4);
        const auto bb = solver.solve(drives, 4, nullptr,
                                     ExhaustiveStrategy::kBranchAndBound);
        ASSERT_EQ(bb, reference) << "n=" << n << " trial=" << trial;
        pruned_total += solver.last_stats().subtrees_pruned;
        ASSERT_EQ(solver.solve(drives, 4, nullptr,
                               ExhaustiveStrategy::kFullEnumeration),
                  reference);
      }
    }
  }
  // The bound must actually fire on realistic models, not just stay exact.
  EXPECT_GT(pruned_total, 0u);
}

TEST(BranchAndBoundTest, WarmStartKeepsResultAndDrivesPruning) {
  Rng rng(91);
  for (std::size_t n : {5u, 6u}) {
    const auto model = random_model(n, rng);
    IncrementalGroundStateSolver cold(model);
    IncrementalGroundStateSolver warm(model);
    for (int probe = 0; probe < 10; ++probe) {
      const auto drives = random_drives(model, rng);
      const auto answer = cold.solve(drives, 4, nullptr,
                                     ExhaustiveStrategy::kBranchAndBound);
      // Seeding with the exact answer must not change it, and must prune at
      // least as many states as the cold solve (the incumbent starts
      // optimal, so no bound that fired cold can fail warm).
      ASSERT_EQ(warm.solve(drives, 4, &answer,
                           ExhaustiveStrategy::kBranchAndBound),
                answer);
      EXPECT_GE(warm.last_stats().states_pruned,
                cold.last_stats().states_pruned);
      std::vector<int> seed(n);
      for (auto& s : seed) s = static_cast<int>(rng.uniform_int(0, 4));
      ASSERT_EQ(warm.solve(drives, 4, &seed,
                           ExhaustiveStrategy::kBranchAndBound),
                answer);
    }
  }
}

TEST(BranchAndBoundTest, EveryStateIsVisitedOrPruned) {
  // states_visited + states_pruned must account for the full m^n tree: the
  // DFS either expands a subtree or prunes it whole, never drops one.
  Rng rng(17);
  for (std::size_t n : {3u, 5u, 6u}) {
    const auto model = random_model(n, rng);
    IncrementalGroundStateSolver solver(model);
    for (int probe = 0; probe < 5; ++probe) {
      for (int max_e : {2, 4}) {
        const auto drives = random_drives(model, rng);
        (void)solver.solve(drives, max_e, nullptr,
                           ExhaustiveStrategy::kBranchAndBound);
        std::uint64_t total = 1;
        for (std::size_t j = 0; j < n; ++j)
          total *= static_cast<std::uint64_t>(max_e) + 1;
        EXPECT_EQ(solver.last_stats().states_visited +
                      solver.last_stats().states_pruned,
                  total);
      }
    }
  }
}

TEST(BranchAndBoundTest, LaneBoundaryDotCounts) {
  // The bound batch runs simd::VecD::kLanes dots at a time with a scalar
  // tail: n = 4 exercises the exact-lane case (no tail), n = 7 a full lane
  // plus a 3-dot tail. Both must stay bit-identical to the full enumeration
  // (and, at n = 4, to the O(n^2) reference).
  Rng rng(606);
  for (std::size_t n : {4u, 7u}) {
    const auto model = random_model(n, rng);
    IncrementalGroundStateSolver solver(model);
    for (int probe = 0; probe < 6; ++probe) {
      const auto drives = random_drives(model, rng);
      const auto full = solver.solve(drives, 4, nullptr,
                                     ExhaustiveStrategy::kFullEnumeration);
      ASSERT_EQ(solver.solve(drives, 4, nullptr,
                             ExhaustiveStrategy::kBranchAndBound),
                full)
          << "n=" << n << " probe=" << probe;
      if (n == 4)
        ASSERT_EQ(full, ground_state_exhaustive(model, drives, 4));
    }
  }
}

TEST(GreedyEquivalenceTest, LaneTailDotCounts) {
  // The SIMD coupling update in the accepted-move path splits at lane
  // multiples; n = 5, 7, 9 exercise 1-, 3-dot tails and repeated lanes.
  Rng rng(1337);
  for (std::size_t n : {5u, 7u, 9u}) {
    for (int trial = 0; trial < 8; ++trial) {
      const auto model = random_model(n, rng);
      const auto drives = random_drives(model, rng);
      ASSERT_EQ(ground_state_greedy(model, drives, 4),
                ground_state_greedy_reference(model, drives, 4))
          << "n=" << n << " trial=" << trial;
    }
  }
}

TEST(BranchAndBoundTest, DegenerateTiesStayEnergyOptimalUnderPruning) {
  // Fully symmetric model: identical dots, uniform coupling, drives at the
  // 0<->1 degeneracy — exponentially many states tie for the minimum. On
  // such tie-saturated inputs the full enumeration's incrementally
  // accumulated energies carry ~1 ulp of wrap-cycle residue, so it may
  // "improve" onto a different member of the tied set than the pruned DFS
  // (whose bound is residue-free). What pruning must preserve is energy
  // optimality: both winners must have exactly the minimal energy under the
  // reference O(n^2) evaluation. (On non-degenerate inputs — every random
  // model above — the two strategies are bit-identical.)
  const std::size_t n = 5;
  const double ec = 2.0e-3;
  Matrix alpha(n, n, 0.02);
  for (std::size_t i = 0; i < n; ++i) alpha(i, i) = 0.1;
  Matrix mutual(n, n, 0.1e-3);
  for (std::size_t i = 0; i < n; ++i) mutual(i, i) = 0.0;
  const CapacitanceModel model(alpha, std::vector<double>(n, ec), mutual,
                               std::vector<double>(n, 0.0));
  IncrementalGroundStateSolver solver(model);
  for (const double drive : {0.5 * ec, 0.5 * ec + 0.1e-3, 1.5 * ec}) {
    const std::vector<double> drives(n, drive);
    const std::vector<int> full = solver.solve(
        drives, 4, nullptr, ExhaustiveStrategy::kFullEnumeration);
    const std::vector<int> bb = solver.solve(
        drives, 4, nullptr, ExhaustiveStrategy::kBranchAndBound);
    EXPECT_EQ(model.energy(bb, drives), model.energy(full, drives))
        << "drive=" << drive;
    // The O(n^2) reference's own summation order can rank a tied state an
    // ulp lower still; its winner's energy agrees to ~1e8 ulps of slack
    // (1e-12 eV on ~1e-4 eV energies, far below any physical gap).
    const auto reference = ground_state_exhaustive(model, drives, 4);
    EXPECT_NEAR(model.energy(bb, drives), model.energy(reference, drives),
                1e-12)
        << "drive=" << drive;
  }
  // At exactly drive = Ec/2 the minimum energy is exactly 0.0 and the
  // residue-free bound prunes the whole tree at the root: the initial
  // all-zero incumbent (the reference's first-enumerated tied state) wins.
  const std::vector<double> degenerate(n, 0.5 * ec);
  const auto winner = solver.solve(degenerate, 4, nullptr,
                                   ExhaustiveStrategy::kBranchAndBound);
  EXPECT_EQ(winner, std::vector<int>(n, 0));
  EXPECT_EQ(solver.last_stats().states_visited, 0u);
}

TEST(GreedyEquivalenceTest, DeltaIcmMatchesCopyBasedReference) {
  // The rewritten greedy ranks per-dot candidates by partial energies
  // against maintained coupling sums; sweep order, acceptance rule, and
  // tie-breaking are unchanged, so the fixed point must match the
  // copy-based reference exactly.
  Rng rng(314);
  for (std::size_t n : {2u, 3u, 6u, 10u}) {
    for (int trial = 0; trial < 15; ++trial) {
      const auto model = random_model(n, rng);
      for (int probe = 0; probe < 6; ++probe) {
        const auto drives = random_drives(model, rng);
        ASSERT_EQ(ground_state_greedy(model, drives, 4),
                  ground_state_greedy_reference(model, drives, 4))
            << "n=" << n << " trial=" << trial;
      }
    }
  }
}

TEST(RasterEquivalenceTest, FastMatchesNaiveBitIdentically) {
  const BuiltDevice device = build_dot_array(DotArrayParams{});
  const DeviceSimulator sim = make_pair_simulator(device);
  const VoltageAxis axis = scan_axis(device, 40);

  const GridD naive =
      sim.evaluate_raster(axis, axis, {RasterEvalMode::kNaive, false});
  const GridD fast_serial =
      sim.evaluate_raster(axis, axis, {RasterEvalMode::kFast, false});
  const GridD fast_parallel =
      sim.evaluate_raster(axis, axis, {RasterEvalMode::kFast, true});

  EXPECT_EQ(naive, fast_serial);
  EXPECT_EQ(fast_serial, fast_parallel);
}

TEST(RasterEquivalenceTest, ParallelMatchesSerialOnTripleDot) {
  DotArrayParams params;
  params.n_dots = 3;
  Rng jitter(11);
  const BuiltDevice device = build_dot_array(params, &jitter);
  const DeviceSimulator sim = make_pair_simulator(device, 1);
  const VoltageAxis axis = scan_axis(device, 32);

  const GridD naive =
      sim.evaluate_raster(axis, axis, {RasterEvalMode::kNaive, false});
  const GridD fast =
      sim.evaluate_raster(axis, axis, {RasterEvalMode::kFast, true});
  EXPECT_EQ(naive, fast);
}

void expect_raster_lanes_agree(const DeviceSimulator& sim,
                               const VoltageAxis& axis) {
  const GridD naive =
      sim.evaluate_raster(axis, axis, {RasterEvalMode::kNaive, false});
  const GridD fast_serial =
      sim.evaluate_raster(axis, axis, {RasterEvalMode::kFast, false});
  const GridD fast_parallel =
      sim.evaluate_raster(axis, axis, {RasterEvalMode::kFast, true});
  EXPECT_EQ(naive, fast_serial);
  EXPECT_EQ(fast_serial, fast_parallel);
}

TEST(RasterEquivalenceTest, NaiveMatchesFastAboveTheExhaustiveLimit) {
  // Above 7 dots the probe path runs the dominance pre-pass; kNaive runs it
  // with the reference enumeration over a restricted model. With resting
  // plungers only the scanned dots can be active; raising `raised` more
  // plungers to the window centre grows the active set to 3-5 dots (10
  // dots, still exact) or past 7 (16 dots, the anneal frontier).
  for (const auto& [n, raised] : {std::pair<std::size_t, std::size_t>{10, 3},
                                  std::pair<std::size_t, std::size_t>{16, 8}}) {
    DotArrayParams params;
    params.n_dots = n;
    params.jitter = 0.04;
    Rng jitter(n);
    const BuiltDevice device = build_dot_array(params, &jitter);
    const VoltageAxis axis = scan_axis(device, 24);
    DeviceSimulator sim = make_pair_simulator(device, 0);
    expect_raster_lanes_agree(sim, axis);

    const double centre = 0.5 * (params.window_lo + params.window_hi);
    for (std::size_t g = n - raised; g < n; ++g)
      sim.set_base_voltage(g, centre);
    std::vector<double> voltages = sim.base_voltages();
    voltages[0] = voltages[1] = params.window_lo;
    std::vector<std::size_t> active;
    active_dots(device.model, device.model.dot_drives(voltages), active);
    EXPECT_EQ(active.size() > 7, n == 16) << n << " dots";
    expect_raster_lanes_agree(sim, axis);
  }
}

TEST(RasterEquivalenceTest, ExactActiveSetBeatsAnExcitedAnnealState) {
  // A 16-dot pair probe where annealing the whole model settles in an
  // excited state: occupations (dot 1, dot 2) = (2, 1) instead of the
  // ground state (1, 2). Only dots 1 and 2 are active there, so the probe
  // path solves them exactly instead.
  DotArrayParams params;
  params.n_dots = 16;
  params.jitter = 0.04;
  Rng jitter(5);
  const BuiltDevice device = build_dot_array(params, &jitter);
  const DeviceSimulator sim = make_pair_simulator(device, 1, /*seed=*/43);
  const VoltageAxis axis = scan_axis(device, 32);
  const double v1 = axis.voltage(22.0);
  const double v2 = axis.voltage(24.0);
  std::vector<double> voltages = device.base_voltages;
  voltages[1] = v1;
  voltages[2] = v2;
  const auto drives = device.model.dot_drives(voltages);

  std::vector<int> annealed(16, 0);
  annealed[1] = 2;
  annealed[2] = 1;
  EXPECT_EQ(ground_state_frontier(device.model, drives, 4,
                                  sim.solver_options().frontier),
            annealed);
  std::vector<int> ground(16, 0);
  ground[1] = 1;
  ground[2] = 2;
  const std::vector<int> occupation = sim.occupation_at(v1, v2);
  EXPECT_EQ(occupation, ground);
  EXPECT_LT(device.model.energy(occupation, drives),
            device.model.energy(annealed, drives));
}

TEST(RasterEquivalenceTest, MovedSimulatorRebindsItsSolver) {
  // The probe scratch moves with the simulator; its solver must rebind to
  // the new object's model rather than read the destroyed original's.
  for (const std::size_t n : {2u, 16u}) {
    DotArrayParams params;
    params.n_dots = n;
    const BuiltDevice device = build_dot_array(params);
    auto original =
        std::make_unique<DeviceSimulator>(make_pair_simulator(device));
    const double before = original->ideal_current(0.021, 0.037);
    const DeviceSimulator moved = std::move(*original);
    original.reset();
    EXPECT_EQ(moved.ideal_current(0.021, 0.037), before) << n << " dots";
  }
}

TEST(RasterEquivalenceTest, GenerateCsdMatchesPixelByPixelAcquisition) {
  const BuiltDevice device = build_dot_array(DotArrayParams{});
  const VoltageAxis axis = scan_axis(device, 30);

  DeviceSimulator batched = make_pair_simulator(device);
  batched.add_noise(std::make_unique<WhiteNoise>(0.01));
  DeviceSimulator sequential = make_pair_simulator(device);
  sequential.add_noise(std::make_unique<WhiteNoise>(0.01));

  const Csd via_batch = batched.generate_csd(axis, axis, "batched");
  const Csd via_probes = acquire_full_csd(sequential, axis, axis);

  EXPECT_EQ(via_batch.grid(), via_probes.grid());
  EXPECT_EQ(batched.probe_count(), sequential.probe_count());
  EXPECT_DOUBLE_EQ(batched.clock().elapsed_seconds(),
                   sequential.clock().elapsed_seconds());
}

TEST(RasterEquivalenceTest, IdealCurrentIsRepeatableAcrossWarmState) {
  // The allocation-free probe path carries warm-start state between calls;
  // re-probing the same pixel after unrelated probes must give the same
  // current.
  const BuiltDevice device = build_dot_array(DotArrayParams{});
  const DeviceSimulator sim = make_pair_simulator(device);
  const double a = sim.ideal_current(0.021, 0.037);
  (void)sim.ideal_current(0.058, 0.002);
  (void)sim.ideal_current(0.001, 0.059);
  EXPECT_EQ(sim.ideal_current(0.021, 0.037), a);
}

// ---------------------------------------------------------------------------
// The scan plan: folded resting gates and scan-window dominance must leave
// every drive and every current bit-identical to the unplanned reference.

/// The reference current at one voltage pair: kNaive on a 1x1 raster.
double naive_current(const DeviceSimulator& sim, double v1, double v2) {
  return sim.evaluate_raster(VoltageAxis(v1, 1.0, 1), VoltageAxis(v2, 1.0, 1),
                             {RasterEvalMode::kNaive, false})(0, 0);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

BuiltDevice jittered_array(std::size_t n) {
  DotArrayParams params;
  params.n_dots = n;
  params.jitter = 0.04;
  Rng jitter(100 + n);
  return build_dot_array(params, &jitter);
}

/// A pixels x pixels grid over the window widened by half its span on each
/// side, so a quarter of the probes sit outside the window on either axis.
std::vector<Point2> widened_grid(const BuiltDevice& device,
                                 std::size_t pixels = 24) {
  const double lo = device.params.window_lo;
  const double hi = device.params.window_hi;
  const double span = hi - lo;
  const VoltageAxis axis =
      VoltageAxis::over_range(lo - 0.5 * span, hi + 0.5 * span, pixels);
  std::vector<Point2> points;
  for (std::size_t y = 0; y < axis.count(); ++y)
    for (std::size_t x = 0; x < axis.count(); ++x)
      points.push_back({axis.voltage(static_cast<double>(x)),
                        axis.voltage(static_cast<double>(y))});
  return points;
}

/// The scan pairs of an n-dot array: every neighbouring pair, plus two
/// non-adjacent ones with the gates in either order (resting gates between
/// the scanned two).
std::vector<ScanPair> every_pair(std::size_t n) {
  std::vector<ScanPair> pairs;
  for (std::size_t p = 0; p + 1 < n; ++p) pairs.push_back({p, p + 1, p, p + 1});
  pairs.push_back({2, 6, 2, 6});
  pairs.push_back({7, 3, 7, 3});
  return pairs;
}

DeviceSimulator pair_simulator(const BuiltDevice& device, const ScanPair& pair) {
  const std::size_t sensor_pair = std::min(pair.gate_x, pair.gate_y);
  return DeviceSimulator(device.model, sensor_for_pair(device, sensor_pair),
                         device.base_voltages, pair);
}

/// get_currents over `points` in ascending, descending and shuffled order
/// (the shuffled one also in batches of 37, which carry the simulator's own
/// window corner from batch to batch), each on a fresh simulator from
/// `make`, must equal the reference bit for bit.
template <typename Make>
void expect_orders_match_naive(Make make, const std::vector<Point2>& points,
                               const std::string& label) {
  std::vector<double> naive(points.size());
  {
    const DeviceSimulator reference = make();
    for (std::size_t i = 0; i < points.size(); ++i)
      naive[i] = naive_current(reference, points[i].x, points[i].y);
  }

  std::vector<std::size_t> order(points.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<std::vector<std::size_t>> orders{order};
  orders.emplace_back(order.rbegin(), order.rend());
  Rng rng(7);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1],
              order[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  orders.push_back(order);

  for (std::size_t o = 0; o < orders.size(); ++o) {
    std::vector<Point2> ordered;
    for (const std::size_t i : orders[o]) ordered.push_back(points[i]);
    for (const std::size_t batch : {ordered.size(), std::size_t{37}}) {
      if (o != 2 && batch != ordered.size()) continue;
      DeviceSimulator sim = make();
      std::vector<double> out(ordered.size());
      for (std::size_t b = 0; b < ordered.size(); b += batch) {
        const std::size_t e = std::min(ordered.size(), b + batch);
        sim.get_currents(std::span(ordered).subspan(b, e - b),
                         std::span(out).subspan(b, e - b));
      }
      std::size_t mismatches = 0;
      for (std::size_t k = 0; k < ordered.size(); ++k)
        if (!same_bits(out[k], naive[orders[o][k]])) ++mismatches;
      EXPECT_EQ(mismatches, 0u)
          << label << " order " << o << " batch " << batch;
    }
  }
}

TEST(ScanPlanTest, PlannedDrivesMatchDotDrivesBitForBit) {
  for (const std::size_t n : {10u, 16u}) {
    const BuiltDevice device = jittered_array(n);
    const std::vector<Point2> points = widened_grid(device);
    for (const ScanPair& pair : every_pair(n)) {
      DeviceSimulator sim = pair_simulator(device, pair);
      // Uneven resting gates, so no folded product is a repeat of another.
      for (std::size_t g = 0; g < n; ++g)
        if (g != pair.gate_x && g != pair.gate_y)
          sim.set_base_voltage(g, 0.001 * static_cast<double>(g) + 0.0031);
      std::size_t mismatches = 0;
      for (const Point2& p : points) {
        std::vector<double> voltages = sim.base_voltages();
        voltages[pair.gate_x] = p.x;
        voltages[pair.gate_y] = p.y;
        const std::vector<double> expected = device.model.dot_drives(voltages);
        const std::vector<double> planned = sim.dot_drives_at(p.x, p.y);
        for (std::size_t i = 0; i < n; ++i)
          if (!same_bits(planned[i], expected[i])) ++mismatches;
      }
      EXPECT_EQ(mismatches, 0u)
          << n << " dots, gates " << pair.gate_x << "," << pair.gate_y;
    }
  }
}

TEST(ScanPlanTest, GetCurrentsMatchesNaiveOnEveryPair) {
  // 576 probes per order: one batch splits into parallel chunks, each with
  // its own window corner.
  for (const std::size_t n : {10u, 16u}) {
    const BuiltDevice device = jittered_array(n);
    const std::vector<Point2> points = widened_grid(device);
    ASSERT_GE(points.size(), 512u);
    for (const ScanPair& pair : every_pair(n)) {
      auto make = [&] { return pair_simulator(device, pair); };
      expect_orders_match_naive(
          make, points,
          std::to_string(n) + " dots, gates " + std::to_string(pair.gate_x) +
              "," + std::to_string(pair.gate_y));
    }
  }
}

TEST(ScanPlanTest, FallbacksMatchNaive) {
  const BuiltDevice device = jittered_array(16);
  const std::vector<Point2> points = widened_grid(device);
  const CapacitanceModel& model = device.model;

  // A scanned lever arm with its sign bit set (-0.0 is the only one the
  // model admits): it adds a zero of either sign, so the window stays exact.
  Matrix alpha = model.lever_arms();
  alpha(9, 1) = -0.0;
  const CapacitanceModel signed_zero(alpha, model.charging_energies(),
                                     model.mutual_coupling(), model.offsets());
  auto signed_lever = [&] {
    return DeviceSimulator(signed_zero, sensor_for_pair(device, 1),
                           device.base_voltages, ScanPair{1, 2, 1, 2});
  };
  expect_orders_match_naive(signed_lever, points, "signed-zero lever");

  // A negative sensor shift: gamma_i * 0 is -0, which the detuning must
  // carry like the unplanned sum does.
  SensorConfig sensor = sensor_for_pair(device, 4);
  sensor.gamma[11] = -0.4e-3;
  auto negative_gamma = [&] {
    return DeviceSimulator(model, sensor, device.base_voltages,
                           ScanPair{4, 5, 4, 5});
  };
  expect_orders_match_naive(negative_gamma, points, "negative gamma");

  // At or below kExhaustiveDotLimit dots the whole model is solved (a
  // coarser grid: the reference enumerates all 5^7 states per probe).
  const BuiltDevice small = jittered_array(7);
  auto seven = [&] { return make_pair_simulator(small, 2); };
  expect_orders_match_naive(seven, widened_grid(small, 8), "7 dots");

  // Non-finite voltages take the full path; the reference agrees on them.
  DeviceSimulator sim = make_pair_simulator(device, 3);
  const std::vector<Point2> odd{{0.02, 0.03},       {HUGE_VAL, 0.01},
                                {-HUGE_VAL, 0.04},  {0.01, std::nan("")},
                                {0.03, -HUGE_VAL},  {0.02, 0.03}};
  std::vector<double> out(odd.size());
  sim.get_currents(odd, out);
  for (std::size_t i = 0; i < odd.size(); ++i)
    EXPECT_TRUE(same_bits(out[i], naive_current(sim, odd[i].x, odd[i].y)))
        << i;
}

TEST(ScanPlanTest, RaisedBasePastTheLimitRebuildsTheWindow) {
  // Probe first, so the simulator's own scratch holds a window corner and
  // its candidates; then raise 8 resting plungers to the window centre,
  // which activates more than kExhaustiveDotLimit dots. The rebuilt plan
  // must drop the stale corner: the probes now anneal, exactly like kNaive.
  const BuiltDevice device = jittered_array(16);
  const std::vector<Point2> points = widened_grid(device);
  const double centre =
      0.5 * (device.params.window_lo + device.params.window_hi);
  auto raised = [&] {
    DeviceSimulator sim = make_pair_simulator(device, 0);
    std::vector<double> out(100);
    sim.get_currents(std::span(points).first(100), out);
    for (std::size_t g = 8; g < 16; ++g) sim.set_base_voltage(g, centre);
    return sim;
  };
  std::vector<double> voltages = raised().base_voltages();
  voltages[0] = voltages[1] = device.params.window_lo;
  std::vector<std::size_t> active;
  active_dots(device.model, device.model.dot_drives(voltages), active);
  EXPECT_GT(active.size(), kExhaustiveDotLimit);
  expect_orders_match_naive(raised, points, "raised bases");
}

}  // namespace
}  // namespace qvg
