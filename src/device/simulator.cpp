#include "device/simulator.hpp"

#include "common/assert.hpp"
#include "common/thread_pool.hpp"

namespace qvg {

namespace {

/// Deterministic frontier seed from the simulator's noise seed (which is
/// the request seed, or request seed + pair index for array walks). A pure
/// function of its input, so job-level retries and fault-injection reruns —
/// which rebuild the simulator from the same request — replay every
/// stochastic ground-state search bit-identically.
std::uint64_t frontier_seed_from(std::uint64_t noise_seed) {
  Rng stream = Rng(noise_seed).split(/*tag=*/0xF5057ULL);
  return stream.next_u64();
}

}  // namespace

DeviceSimulator::DeviceSimulator(CapacitanceModel model,
                                 SensorConfig sensor_config,
                                 std::vector<double> base_voltages,
                                 ScanPair pair, std::uint64_t noise_seed,
                                 double dwell_seconds)
    : model_(std::move(model)),
      sensor_(std::move(sensor_config)),
      base_voltages_(std::move(base_voltages)),
      pair_(pair),
      rng_(noise_seed),
      noise_seed_(noise_seed),
      clock_(dwell_seconds) {
  QVG_EXPECTS(base_voltages_.size() == model_.num_gates());
  solver_options_.frontier.seed = frontier_seed_from(noise_seed);
  set_scan_pair(pair);
}

void DeviceSimulator::set_solver_options(const ChargeSolverOptions& options) {
  solver_options_ = options;
  scratch_.has_warm = false;
}

void DeviceSimulator::set_scan_pair(ScanPair pair) {
  QVG_EXPECTS(pair.gate_x < model_.num_gates());
  QVG_EXPECTS(pair.gate_y < model_.num_gates());
  QVG_EXPECTS(pair.gate_x != pair.gate_y);
  QVG_EXPECTS(pair.dot_x < model_.num_dots());
  QVG_EXPECTS(pair.dot_y < model_.num_dots());
  QVG_EXPECTS(pair.dot_x != pair.dot_y);
  pair_ = pair;
  scratch_.has_warm = false;  // different plane: previous pixel is stale
}

void DeviceSimulator::set_base_voltage(std::size_t gate, double voltage) {
  QVG_EXPECTS(gate < base_voltages_.size());
  base_voltages_[gate] = voltage;
  scratch_.has_warm = false;
}

void DeviceSimulator::add_noise(std::unique_ptr<NoiseProcess> process) {
  noise_.add(std::move(process));
}

const std::vector<int>& DeviceSimulator::occupation_with(ProbeScratch& ws,
                                                         double v1,
                                                         double v2) const {
  ws.voltages.assign(base_voltages_.begin(), base_voltages_.end());
  ws.voltages[pair_.gate_x] = v1;
  ws.voltages[pair_.gate_y] = v2;
  model_.dot_drives_into(ws.voltages, ws.drives);
  if (!ws.solver.bound_to(model_)) ws.solver.bind(model_);
  const auto& occ = ws.solver.solve(ws.drives, solver_options_,
                                    ws.has_warm ? &ws.warm : nullptr);
  ws.warm = occ;
  ws.has_warm = true;
  return occ;
}

double DeviceSimulator::probe_with(ProbeScratch& ws, double v1,
                                   double v2) const {
  const auto& occupation = occupation_with(ws, v1, v2);
  return sensor_.current(ws.voltages, occupation);
}

double DeviceSimulator::ideal_current(double v1, double v2) const {
  return probe_with(scratch_, v1, v2);
}

double DeviceSimulator::ideal_current_naive(double v1, double v2) const {
  std::vector<double> v = base_voltages_;
  v[pair_.gate_x] = v1;
  v[pair_.gate_y] = v2;
  const auto drives = model_.dot_drives(v);
  const int max_electrons = solver_options_.max_electrons_per_dot;
  if (model_.num_dots() <= kExhaustiveDotLimit)
    return sensor_.current(
        v, ground_state_exhaustive(model_, drives, max_electrons));

  // The same dominance pre-pass as GroundStateSolver, with the reference
  // enumeration over a restricted CapacitanceModel as the exact solver.
  std::vector<std::size_t> active;
  active_dots(model_, drives, active);
  if (active.size() > kExhaustiveDotLimit)
    return sensor_.current(
        v, ground_state_frontier(model_, drives, max_electrons,
                                 solver_options_.frontier));
  std::vector<int> occupation(model_.num_dots(), 0);
  if (!active.empty()) {
    const CapacitanceModel sub_model = model_.restricted_to(active);
    const auto sub = ground_state_exhaustive(
        sub_model, sub_model.dot_drives(v), max_electrons);
    for (std::size_t a = 0; a < active.size(); ++a)
      occupation[active[a]] = sub[a];
  }
  return sensor_.current(v, occupation);
}

std::vector<int> DeviceSimulator::occupation_at(double v1, double v2) const {
  return occupation_with(scratch_, v1, v2);
}

double DeviceSimulator::get_current(double v1, double v2) {
  ++probes_;
  clock_.charge_probe();
  const double ideal = ideal_current(v1, v2);
  return ideal + noise_.next(clock_.dwell_seconds(), rng_);
}

void DeviceSimulator::get_currents(std::span<const Point2> points,
                                   std::span<double> out) {
  QVG_EXPECTS(points.size() == out.size());

  // Ideal physics first, in parallel chunks with per-chunk scratch. The
  // small-batch threshold keeps sweep-sized segments off the pool.
  auto eval_chunk = [&](std::size_t lo, std::size_t hi) {
    ProbeScratch ws;
    for (std::size_t i = lo; i < hi; ++i)
      out[i] = probe_with(ws, points[i].x, points[i].y);
  };
  parallel_for_rows(points.size(), eval_chunk, 256);

  // Temporal noise in probe order — the sequential part that makes the batch
  // indistinguishable from scalar probing.
  for (std::size_t i = 0; i < points.size(); ++i) {
    ++probes_;
    clock_.charge_probe();
    out[i] += noise_.next(clock_.dwell_seconds(), rng_);
  }
}

GridD DeviceSimulator::evaluate_raster(const VoltageAxis& x_axis,
                                       const VoltageAxis& y_axis,
                                       const RasterEvalOptions& opts) const {
  GridD out(x_axis.count(), y_axis.count());

  if (opts.mode == RasterEvalMode::kNaive) {
    for (std::size_t y = 0; y < y_axis.count(); ++y) {
      const double vy = y_axis.voltage(static_cast<double>(y));
      for (std::size_t x = 0; x < x_axis.count(); ++x)
        out(x, y) = ideal_current_naive(x_axis.voltage(static_cast<double>(x)),
                                        vy);
    }
    return out;
  }

  auto eval_rows = [&](std::size_t y0, std::size_t y1) {
    ProbeScratch ws;
    for (std::size_t y = y0; y < y1; ++y) {
      // Warm start resets at each row so serial and parallel schedules make
      // identical per-pixel decisions.
      ws.has_warm = false;
      const double vy = y_axis.voltage(static_cast<double>(y));
      for (std::size_t x = 0; x < x_axis.count(); ++x)
        out(x, y) = probe_with(ws, x_axis.voltage(static_cast<double>(x)), vy);
    }
  };

  if (opts.parallel)
    parallel_for_rows(y_axis.count(), eval_rows, 1);
  else
    eval_rows(0, y_axis.count());
  return out;
}

TransitionTruth DeviceSimulator::truth() const {
  return model_.pair_truth(pair_.dot_x, pair_.dot_y, pair_.gate_x, pair_.gate_y,
                           base_voltages_);
}

Csd DeviceSimulator::generate_csd(const VoltageAxis& x_axis,
                                  const VoltageAxis& y_axis,
                                  const std::string& name) {
  // Batched (possibly parallel) physics, then temporal noise applied in
  // probe order — byte-for-byte the diagram acquire_full_csd would produce,
  // with identical probe and clock accounting.
  const GridD ideal = evaluate_raster(x_axis, y_axis);
  Csd csd(x_axis, y_axis);
  for (std::size_t y = 0; y < y_axis.count(); ++y) {
    for (std::size_t x = 0; x < x_axis.count(); ++x) {
      ++probes_;
      clock_.charge_probe();
      csd.grid()(x, y) =
          ideal(x, y) + noise_.next(clock_.dwell_seconds(), rng_);
    }
  }
  csd.set_truth(truth());
  csd.set_name(name);
  return csd;
}

void DeviceSimulator::reset() {
  clock_.reset();
  probes_ = 0;
  noise_.reset();
  rng_.reseed(noise_seed_);
  scratch_.has_warm = false;
}

}  // namespace qvg
