#include "device/simulator.hpp"

#include "common/assert.hpp"
#include "common/thread_pool.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

namespace qvg {

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
  build_plan();
}

void DeviceSimulator::build_plan() {
  const std::size_t n = model_.num_dots();
  const std::size_t gates = model_.num_gates();
  const SensorConfig& sensor = sensor_.config();
  QVG_EXPECTS(sensor.beta.size() == gates);
  QVG_EXPECTS(sensor.gamma.size() == n);
  const std::size_t lo = std::min(pair_.gate_x, pair_.gate_y);
  const std::size_t hi = std::max(pair_.gate_x, pair_.gate_y);
  ScanPlan& plan = plan_;
  plan.x_is_lo = pair_.gate_x == lo;
  plan.mid = hi - lo - 1;
  plan.resting = gates - lo - 2;
  plan.prefix.resize(n + 1);
  plan.lever_lo.resize(n + 1);
  plan.lever_hi.resize(n + 1);
  plan.products.resize((n + 1) * plan.resting);

  // Row r: `start`, then coefficient(j) * V_j in ascending j — the order of
  // CapacitanceModel::dot_drives and ChargeSensor::detuning.
  auto fold = [&](std::size_t r, double start, auto coefficient) {
    double acc = start;
    for (std::size_t j = 0; j < lo; ++j)
      acc += coefficient(j) * base_voltages_[j];
    plan.prefix[r] = acc;
    plan.lever_lo[r] = coefficient(lo);
    plan.lever_hi[r] = coefficient(hi);
    double* p = plan.products.data() + r * plan.resting;
    for (std::size_t j = lo + 1; j < gates; ++j)
      if (j != hi) *p++ = coefficient(j) * base_voltages_[j];
  };
  const Matrix& alpha = model_.lever_arms();
  for (std::size_t i = 0; i < n; ++i)
    fold(i, -model_.offsets()[i], [&](std::size_t j) { return alpha(i, j); });
  fold(n, sensor.u0, [&](std::size_t j) { return sensor.beta[j]; });

  plan.half_charging.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    plan.half_charging[i] = 0.5 * model_.charging_energies()[i];
  plan.windowed = n > kExhaustiveDotLimit;

  scratch_.has_warm = false;    // different plane: previous pixel is stale
  scratch_.has_corner = false;  // the corner's candidates were this plan's
}

void DeviceSimulator::add_noise(std::unique_ptr<NoiseProcess> process) {
  noise_.add(std::move(process));
}

bool DeviceSimulator::window_covers(ProbeScratch& ws, double v1,
                                    double v2) const {
  if (!plan_.windowed || !std::isfinite(v1) || !std::isfinite(v2))
    return false;
  if (!ws.has_corner || v1 > ws.corner_x || v2 > ws.corner_y) {
    ws.corner_x = ws.has_corner ? std::max(ws.corner_x, v1) : v1;
    ws.corner_y = ws.has_corner ? std::max(ws.corner_y, v2) : v2;
    ws.has_corner = true;
    const auto [lo, hi] = lo_hi(ws.corner_x, ws.corner_y);
    ws.candidates.clear();
    for (std::size_t i = 0; i < model_.num_dots(); ++i)
      if (!(plan_.sum(i, lo, hi) < plan_.half_charging[i]))
        ws.candidates.push_back(i);
  }
  return true;
}

void DeviceSimulator::drives_into(double v1, double v2,
                                  std::vector<double>& out) const {
  const auto [lo, hi] = lo_hi(v1, v2);
  out.resize(model_.num_dots());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = plan_.sum(i, lo, hi);
}

std::vector<double> DeviceSimulator::dot_drives_at(double v1,
                                                   double v2) const {
  std::vector<double> drives;
  drives_into(v1, v2, drives);
  return drives;
}

const std::vector<int>& DeviceSimulator::occupation_with(ProbeScratch& ws,
                                                         double v1,
                                                         double v2) const {
  drives_into(v1, v2, ws.drives);
  if (!ws.solver.bound_to(model_)) ws.solver.bind(model_);
  const auto& occ = ws.solver.solve(ws.drives, solver_options_,
                                    ws.has_warm ? &ws.warm : nullptr);
  ws.warm = occ;
  ws.has_warm = true;
  return occ;
}

const std::vector<int>& DeviceSimulator::window_occupation(ProbeScratch& ws,
                                                           double v_lo,
                                                           double v_hi) const {
  // The pre-pass over the candidates alone, then the search over the active
  // ones; every other dot is empty.
  ws.active.clear();
  ws.active_drives.clear();
  for (const std::size_t d : ws.candidates) {
    const double drive = plan_.sum(d, v_lo, v_hi);
    if (!(drive < plan_.half_charging[d])) {
      ws.active.push_back(d);
      ws.active_drives.push_back(drive);
    }
  }
  ws.occupation.assign(model_.num_dots(), 0);
  if (!ws.active.empty()) {
    if (!ws.solver.bound_to(model_)) ws.solver.bind(model_);
    const std::vector<int>& sub = ws.solver.solve_active(
        ws.active, ws.active_drives, solver_options_.max_electrons_per_dot);
    for (std::size_t a = 0; a < ws.active.size(); ++a)
      ws.occupation[ws.active[a]] = sub[a];
  }
  return ws.occupation;
}

double DeviceSimulator::probe_with(ProbeScratch& ws, double v1,
                                   double v2) const {
  const auto [lo, hi] = lo_hi(v1, v2);
  const std::vector<int>& occupation = window_covers(ws, v1, v2)
                                           ? window_occupation(ws, lo, hi)
                                           : occupation_with(ws, v1, v2);
  const std::size_t n = model_.num_dots();
  const std::vector<double>& gamma = sensor_.config().gamma;
  double u = plan_.sum(n, lo, hi);
  for (std::size_t i = 0; i < n; ++i)
    u -= gamma[i] * static_cast<double>(occupation[i]);
  return sensor_.current_at_detuning(u);
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

  // The same dominance pre-pass as GroundStateSolver over a restricted
  // CapacitanceModel: the reference enumeration up to the limit, the capped
  // search past it.
  std::vector<std::size_t> active;
  active_dots(model_, drives, active);
  std::vector<int> occupation(model_.num_dots(), 0);
  if (!active.empty()) {
    const CapacitanceModel sub_model = model_.restricted_to(active);
    const auto sub_drives = sub_model.dot_drives(v);
    const std::vector<int> sub =
        active.size() <= kExhaustiveDotLimit
            ? ground_state_exhaustive(sub_model, sub_drives, max_electrons)
            : IncrementalGroundStateSolver(sub_model).solve_capped(
                  sub_drives, max_electrons);
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
    // Chunk 0 — the whole batch when it is too small to split — probes on
    // the simulator's own scratch, whose buffers, solver binding and window
    // corner carry over from batch to batch; other chunks on fresh ones.
    std::optional<ProbeScratch> fresh;
    ProbeScratch& ws = lo == 0 ? scratch_ : fresh.emplace();
    ws.has_warm = false;
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
