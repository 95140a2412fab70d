#include "device/charge_state.hpp"

#include "common/assert.hpp"
#include "common/random.hpp"
#include "common/simd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace qvg {

std::vector<int> ground_state_exhaustive(const CapacitanceModel& model,
                                         const std::vector<double>& drives,
                                         int max_electrons_per_dot) {
  QVG_EXPECTS(max_electrons_per_dot >= 0);
  const std::size_t n = model.num_dots();
  std::vector<int> occupation(n, 0);
  std::vector<int> best(n, 0);
  double best_energy = model.energy(best, drives);

  // Odometer-style enumeration of {0..max}^n.
  while (true) {
    std::size_t d = 0;
    while (d < n) {
      if (occupation[d] < max_electrons_per_dot) {
        ++occupation[d];
        break;
      }
      occupation[d] = 0;
      ++d;
    }
    if (d == n) break;  // wrapped around: enumeration complete
    const double e = model.energy(occupation, drives);
    if (e < best_energy) {
      best_energy = e;
      best = occupation;
    }
  }
  return best;
}

namespace {

/// One ICM relaxation to a fixed point, in place, on delta energies. For dot
/// d with the others fixed, every candidate occupancy ranks by the partial
/// energy g(c) = Ec_d/2 * c^2 - c * (drives[d] - coupling[d]) where
/// coupling[d] = sum_k Em_dk * occ_k — the rest of the full energy is a
/// constant across candidates, so no model.energy() recompute and no trial
/// vector copy are needed. An accepted move updates the n coupling sums.
/// `coupling` must be sized n; it is (re)initialized from `occupation`.
/// Sweep order and tie-breaking (smallest occupancy among exact ties) match
/// ground_state_greedy_reference.
void icm_relax(const CapacitanceModel& model, const std::vector<double>& drives,
               int max_electrons_per_dot, std::vector<int>& occupation,
               std::vector<double>& coupling) {
  const std::size_t n = model.num_dots();
  const Matrix& mutual = model.mutual_coupling();
  const std::vector<double>& charging = model.charging_energies();

  // The init dot product stays scalar: its k-ascending accumulation order is
  // part of the fixed-point's bit-exact agreement with the copy-based
  // reference sweep, and reassociating it would perturb exact ties.
  for (std::size_t d = 0; d < n; ++d) {
    const double* row = mutual.row(d);
    double acc = 0.0;
    for (std::size_t k = 0; k < n; ++k)
      acc += row[k] * static_cast<double>(occupation[k]);
    coupling[d] = acc;
  }

  bool changed = true;
  int guard = 0;
  while (changed) {
    QVG_ASSERT(++guard < 10000);
    changed = false;
    for (std::size_t d = 0; d < n; ++d) {
      const double t = drives[d] - coupling[d];
      const double ec = charging[d];
      double best_g = std::numeric_limits<double>::infinity();
      int best_nd = occupation[d];
      for (int nd = 0; nd <= max_electrons_per_dot; ++nd) {
        const auto c = static_cast<double>(nd);
        const double g = 0.5 * ec * c * c - c * t;
        if (g < best_g) {
          best_g = g;
          best_nd = nd;
        }
      }
      if (best_nd != occupation[d]) {
        // Element-wise in k, so the lane-parallel form is bit-identical to
        // the scalar update (each coupling[k] sees the same two operations).
        const double shift =
            static_cast<double>(best_nd) - static_cast<double>(occupation[d]);
        occupation[d] = best_nd;
        const double* row = mutual.row(d);
        constexpr std::size_t kLanes = simd::VecD::kLanes;
        const simd::VecD vshift = simd::VecD::broadcast(shift);
        std::size_t k = 0;
        for (; k + kLanes <= n; k += kLanes)
          (simd::VecD::load(coupling.data() + k) +
           simd::VecD::load(row + k) * vshift)
              .store(coupling.data() + k);
        for (; k < n; ++k) coupling[k] += row[k] * shift;
        changed = true;
      }
    }
  }
}

/// Metropolis acceptance of a move with energy change `de` at temperature
/// t, drawing u from `rng` exactly when `de >= 0` (the draw sequence is part
/// of the seeded walk). Equivalent to `de < 0 || u < exp(-de / t)` without
/// most exp calls: de == 0 accepts (exp(-0) = 1 > u), and for -de/t < -40,
/// exp(-de/t) < 4.3e-18 < 2^-53, the smallest positive u, so u > 0 rejects.
bool metropolis_accept(double de, double t, Rng& rng) {
  if (de < 0.0) return true;
  const double u = rng.uniform();
  if (de == 0.0) return true;
  const double x = -de / t;
  if (x < -40.0 && u > 0.0) return false;
  return u < std::exp(x);
}

// The anneal's fixed schedule (see the header comment).
constexpr int kAnnealRestarts = 3;
constexpr int kAnnealSweeps = 24;
constexpr double kAnnealInitialTemperatureScale = 0.8;
constexpr double kAnnealCooling = 0.85;
constexpr double kAnnealSwapProbability = 0.25;

}  // namespace

std::vector<int> ground_state_greedy(const CapacitanceModel& model,
                                     const std::vector<double>& drives,
                                     int max_electrons_per_dot) {
  QVG_EXPECTS(max_electrons_per_dot >= 0);
  const std::size_t n = model.num_dots();
  std::vector<int> occupation(n, 0);
  std::vector<double> coupling(n, 0.0);
  icm_relax(model, drives, max_electrons_per_dot, occupation, coupling);
  return occupation;
}

std::vector<int> ground_state_greedy_reference(const CapacitanceModel& model,
                                               const std::vector<double>& drives,
                                               int max_electrons_per_dot) {
  QVG_EXPECTS(max_electrons_per_dot >= 0);
  const std::size_t n = model.num_dots();
  std::vector<int> occupation(n, 0);

  // Iterated conditional modes: optimize one dot holding the others fixed.
  // Converges because each accepted move strictly lowers the energy and the
  // state space is finite.
  bool changed = true;
  int guard = 0;
  while (changed) {
    QVG_ASSERT(++guard < 10000);
    changed = false;
    for (std::size_t d = 0; d < n; ++d) {
      double best_e = std::numeric_limits<double>::infinity();
      int best_nd = occupation[d];
      std::vector<int> trial = occupation;
      for (int nd = 0; nd <= max_electrons_per_dot; ++nd) {
        trial[d] = nd;
        const double e = model.energy(trial, drives);
        if (e < best_e) {
          best_e = e;
          best_nd = nd;
        }
      }
      if (best_nd != occupation[d]) {
        occupation[d] = best_nd;
        changed = true;
      }
    }
  }
  return occupation;
}

void DeltaMoveEvaluator::bind(const CapacitanceModel& model) {
  n_ = model.num_dots();
  occupation_.assign(n_, 0);
  drives_.assign(n_, 0.0);
  coupling_.assign(n_, 0.0);
  charging_ = model.charging_energies();
  mutual_flat_.resize(n_ * n_);
  const Matrix& mutual = model.mutual_coupling();
  for (std::size_t i = 0; i < n_; ++i)
    for (std::size_t k = 0; k < n_; ++k)
      mutual_flat_[i * n_ + k] = mutual(i, k);
  energy_ = 0.0;
}

void DeltaMoveEvaluator::set_state(const std::vector<int>& occupation,
                                   const std::vector<double>& drives) {
  QVG_EXPECTS(bound());
  QVG_EXPECTS(occupation.size() == n_);
  QVG_EXPECTS(drives.size() == n_);
  occupation_ = occupation;
  drives_ = drives;
  double e = 0.0;
  for (std::size_t j = 0; j < n_; ++j) {
    const auto oj = static_cast<double>(occupation_[j]);
    e += 0.5 * charging_[j] * oj * oj - oj * drives_[j];
    const double* row = mutual_flat_.data() + j * n_;
    double acc = 0.0;
    for (std::size_t k = 0; k < n_; ++k)
      acc += row[k] * static_cast<double>(occupation_[k]);
    coupling_[j] = acc;
    for (std::size_t k = j + 1; k < n_; ++k)
      e += row[k] * oj * static_cast<double>(occupation_[k]);
  }
  energy_ = e;
}

double DeltaMoveEvaluator::delta_single(std::size_t d, int c) const {
  // dE = Ec_d/2 (b^2 - a^2) - (b - a) drives[d] + (b - a) coupling[d].
  const auto a = static_cast<double>(occupation_[d]);
  const auto b = static_cast<double>(c);
  return 0.5 * charging_[d] * (b * b - a * a) - (b - a) * drives_[d] +
         (b - a) * coupling_[d];
}

double DeltaMoveEvaluator::delta_swap(std::size_t a, std::size_t b) const {
  // Two single-dot deltas evaluated against the *current* coupling sums both
  // count the mutual(a, b) cross term as if the other dot had not moved;
  // exchanging occupancies leaves that term unchanged, so subtract the
  // double-counted piece: Em_ab * (n_a - n_b)^2.
  const double diff =
      static_cast<double>(occupation_[a]) - static_cast<double>(occupation_[b]);
  return delta_single(a, occupation_[b]) + delta_single(b, occupation_[a]) -
         mutual_flat_[a * n_ + b] * diff * diff;
}

void DeltaMoveEvaluator::apply_single(std::size_t d, int c) {
  energy_ += delta_single(d, c);
  const double shift =
      static_cast<double>(c) - static_cast<double>(occupation_[d]);
  occupation_[d] = c;
  // Element-wise in k: the lane-parallel form is bit-identical to the scalar
  // loop (same multiply and add per element).
  const double* row = mutual_flat_.data() + d * n_;
  constexpr std::size_t kLanes = simd::VecD::kLanes;
  const simd::VecD vshift = simd::VecD::broadcast(shift);
  std::size_t k = 0;
  for (; k + kLanes <= n_; k += kLanes)
    (simd::VecD::load(coupling_.data() + k) +
     simd::VecD::load(row + k) * vshift)
        .store(coupling_.data() + k);
  for (; k < n_; ++k) coupling_[k] += row[k] * shift;
}

void DeltaMoveEvaluator::apply_swap(std::size_t a, std::size_t b) {
  // Sequential application is exact: the second delta is evaluated against
  // the coupling sums already updated by the first move.
  const int na = occupation_[a];
  const int nb = occupation_[b];
  apply_single(a, nb);
  apply_single(b, na);
}

void IncrementalGroundStateSolver::reset_scratch() {
  occupation_.assign(n_, 0);
  best_.assign(n_, 0);
  coupling_.assign(n_, 0.0);
  bound_scratch_.assign(n_, 0.0);
  q0_.clear();
  pow_m_.clear();
}

void IncrementalGroundStateSolver::bind(const CapacitanceModel& model) {
  model_ = &model;
  n_ = model.num_dots();
  charging_ = model.charging_energies();
  mutual_flat_.resize(n_ * n_);
  const Matrix& mutual = model.mutual_coupling();
  for (std::size_t i = 0; i < n_; ++i)
    for (std::size_t k = 0; k < n_; ++k)
      mutual_flat_[i * n_ + k] = mutual(i, k);
  reset_scratch();
}

void IncrementalGroundStateSolver::bind(const CapacitanceModel& model,
                                        std::span<const std::size_t> dots) {
  QVG_EXPECTS(!dots.empty());
  model_ = &model;
  n_ = dots.size();
  const std::vector<double>& charging = model.charging_energies();
  const Matrix& mutual = model.mutual_coupling();
  charging_.resize(n_);
  mutual_flat_.resize(n_ * n_);
  for (std::size_t i = 0; i < n_; ++i) {
    QVG_EXPECTS(dots[i] < model.num_dots());
    charging_[i] = charging[dots[i]];
    for (std::size_t k = 0; k < n_; ++k)
      mutual_flat_[i * n_ + k] = mutual(dots[i], dots[k]);
  }
  reset_scratch();
}

void IncrementalGroundStateSolver::seed_incumbent(
    const std::vector<double>& drives, const std::vector<int>* warm_start) {
  // Start from the all-zero state (energy 0), the reference solver's
  // initial incumbent. The running best is tracked as an enumeration index
  // (digit j of base m = dot j's occupancy) — no vector copies in the loop.
  std::fill(occupation_.begin(), occupation_.end(), 0);
  std::fill(coupling_.begin(), coupling_.end(), 0.0);
  base_ = 0.0;  // energy of the current outer state with dot 0 empty
  best_energy_ = 0.0;
  best_index_ = 0;
  warm_is_best_ = false;
  stats_ = SolveStats{};

  if (warm_start != nullptr && !warm_start->empty()) {
    QVG_EXPECTS(warm_start->size() == n_);
    // Inline quadratic energy against the flat parameter copies (cheaper
    // than CapacitanceModel::energy, which re-validates per call).
    double warm_energy = 0.0;
    for (std::size_t j = 0; j < n_; ++j) {
      const auto wj = static_cast<double>((*warm_start)[j]);
      warm_energy += 0.5 * charging_[j] * wj * wj - wj * drives[j];
      const double* row = mutual_flat_.data() + j * n_;
      for (std::size_t k = j + 1; k < n_; ++k)
        warm_energy += row[k] * wj * static_cast<double>((*warm_start)[k]);
    }
    if (warm_energy < best_energy_) {
      best_energy_ = warm_energy;
      warm_is_best_ = true;
    }
  }
}

void IncrementalGroundStateSolver::apply_outer_move(
    std::size_t j, int b, const std::vector<double>& drives) {
  // dE = Ec_j/2 (b^2 - a^2) - (b - a) drives[j] + (b - a) coupling_[j].
  const auto a = static_cast<double>(occupation_[j]);
  const auto db = static_cast<double>(b);
  base_ += 0.5 * charging_[j] * (db * db - a * a) - (db - a) * drives[j] +
           (db - a) * coupling_[j];
  occupation_[j] = b;
  // coupling_[k] += row[k] * shift is element-wise in k: the SIMD form does
  // the same multiply and add per lane, so it is bit-identical to the scalar
  // loop regardless of lane width.
  const double shift = db - a;
  const double* row = mutual_flat_.data() + j * n_;
  constexpr std::size_t kLanes = simd::VecD::kLanes;
  const simd::VecD vshift = simd::VecD::broadcast(shift);
  std::size_t k = 0;
  for (; k + kLanes <= n_; k += kLanes)
    (simd::VecD::load(coupling_.data() + k) +
     simd::VecD::load(row + k) * vshift)
        .store(coupling_.data() + k);
  for (; k < n_; ++k) coupling_[k] += row[k] * shift;
}

double IncrementalGroundStateSolver::free_dot_min(
    std::size_t d, const std::vector<double>& drives,
    int max_electrons_per_dot) const {
  // min over integer c in [0, max] of g(c) = Ec_d/2 c^2 - c t. g is convex
  // (Ec_d > 0), so the minimum sits at one of the two integers bracketing
  // the continuous minimizer t / Ec_d, clamped into range: O(1).
  const double t = drives[d] - coupling_[d];
  const double cont = t / charging_[d];
  const double max_c = static_cast<double>(max_electrons_per_dot);
  auto g = [&](double c) { return 0.5 * charging_[d] * c * c - c * t; };
  const double lo = std::min(std::max(std::floor(cont), 0.0), max_c);
  const double hi = std::min(lo + 1.0, max_c);
  return std::min(g(lo), g(hi));
}

void IncrementalGroundStateSolver::inner_sweep(const std::vector<double>& drives,
                                               std::size_t m,
                                               std::uint64_t index_base) {
  // Dot 0 is the innermost odometer digit: while it spins, no coupling sum
  // changes (its own coupling_[0] depends only on the other dots), so each
  // inner state costs O(1) — a table lookup and one fused multiply-add.
  // Enumeration order (and therefore tie-breaking) matches the reference
  // odometer exactly.
  const double e0 = drives[0] - coupling_[0];
  for (std::size_t c = 0; c < m; ++c) {
    const double e = base_ + q0_[c] - static_cast<double>(c) * e0;
    if (e < best_energy_) {
      best_energy_ = e;
      best_index_ = index_base + c;
      warm_is_best_ = false;
    }
  }
  stats_.states_visited += m;
}

void IncrementalGroundStateSolver::descend(std::size_t level,
                                           std::uint64_t index_base,
                                           const std::vector<double>& drives,
                                           int max_electrons_per_dot) {
  // Invariant: dots level..n-1 hold their fixed digits, dots 0..level-1 are
  // all zero, and base_ is the energy of exactly that configuration.
  //
  // Lower bound on any completion of the free dots: every mutual coupling is
  // >= 0 and occupations are >= 0, so dropping the free-free coupling terms
  // only lowers the energy and the remaining free-dot contributions decouple
  // into independent one-dot convex minimizations against the fixed-dot
  // coupling sums. If even that bound cannot beat the incumbent, no state in
  // the m^level subtree can, and — because the incumbent only ever updates
  // on strictly smaller energies — skipping it preserves enumeration-order
  // tie-breaking exactly.
  // The per-dot bounds are element-wise in d (drives, coupling and charging
  // are parallel arrays — SoA), so they compute lane-parallel; each lane runs
  // the exact free_dot_min operation sequence, so scratch[d] is bit-identical
  // to the scalar call. The reduction then runs scalar in d-ascending order
  // from base_, preserving the prune and tie-break decisions bit-exactly.
  double lower = base_;
  {
    constexpr std::size_t kLanes = simd::VecD::kLanes;
    const double max_c = static_cast<double>(max_electrons_per_dot);
    double* scratch = bound_scratch_.data();
    std::size_t d = 0;
    for (; d + kLanes <= level; d += kLanes) {
      const simd::VecD t = simd::VecD::load(drives.data() + d) -
                           simd::VecD::load(coupling_.data() + d);
      const simd::VecD ec = simd::VecD::load(charging_.data() + d);
      const simd::VecD lo =
          simd::min(simd::max(simd::floor(t / ec), simd::VecD::broadcast(0.0)),
                    simd::VecD::broadcast(max_c));
      const simd::VecD hi = simd::min(lo + simd::VecD::broadcast(1.0),
                                      simd::VecD::broadcast(max_c));
      const simd::VecD half_ec = simd::VecD::broadcast(0.5) * ec;
      simd::min(half_ec * lo * lo - lo * t, half_ec * hi * hi - hi * t)
          .store(scratch + d);
    }
    for (; d < level; ++d)
      scratch[d] = free_dot_min(d, drives, max_electrons_per_dot);
    for (std::size_t k = 0; k < level; ++k) lower += scratch[k];
  }
  if (lower >= best_energy_) {
    ++stats_.subtrees_pruned;
    stats_.states_pruned += pow_m_[level];
    return;
  }

  if (level == 1) {
    inner_sweep(drives, pow_m_[1], index_base);
    return;
  }

  // Walk digit level-1 through 0..max (it is already 0 on entry) and wrap it
  // back to 0 on exit — the same move sequence the flat odometer performs.
  const std::size_t digit = level - 1;
  for (int c = 0; c <= max_electrons_per_dot; ++c) {
    if (c > 0) apply_outer_move(digit, c, drives);
    descend(digit, index_base + static_cast<std::uint64_t>(c) * pow_m_[digit],
            drives, max_electrons_per_dot);
  }
  apply_outer_move(digit, 0, drives);
}

void IncrementalGroundStateSolver::solve_full_enumeration(
    const std::vector<double>& drives, int max_electrons_per_dot) {
  const std::size_t m = pow_m_[1];
  std::uint64_t index_base = 0;  // enumeration index of (0, outer...)
  while (true) {
    inner_sweep(drives, m, index_base);
    // Advance the outer odometer (dots 1..n-1).
    std::size_t d = 1;
    while (d < n_ && occupation_[d] == max_electrons_per_dot) {
      apply_outer_move(d, 0, drives);
      ++d;
    }
    if (d >= n_) break;
    apply_outer_move(d, occupation_[d] + 1, drives);
    index_base += m;
  }
}

void IncrementalGroundStateSolver::finish(std::size_t m,
                                          const std::vector<int>* warm_start) {
  if (warm_is_best_) {
    best_ = *warm_start;
  } else {
    std::uint64_t index = best_index_;
    for (std::size_t j = 0; j < n_; ++j) {
      best_[j] = static_cast<int>(index % m);
      index /= m;
    }
  }
}

const std::vector<int>& IncrementalGroundStateSolver::solve(
    const std::vector<double>& drives, int max_electrons_per_dot,
    const std::vector<int>* warm_start, ExhaustiveStrategy strategy) {
  QVG_EXPECTS(model_ != nullptr);
  QVG_EXPECTS(max_electrons_per_dot >= 0);
  QVG_EXPECTS(drives.size() == n_);
  const auto m = static_cast<std::size_t>(max_electrons_per_dot) + 1;

  if (q0_.size() != m) {
    q0_.resize(m);
    for (std::size_t c = 0; c < m; ++c)
      q0_[c] = 0.5 * charging_[0] * static_cast<double>(c) *
               static_cast<double>(c);
    pow_m_.clear();
  }
  if (pow_m_.size() != n_ + 1) {
    pow_m_.resize(n_ + 1);
    pow_m_[0] = 1;
    for (std::size_t j = 1; j <= n_; ++j) pow_m_[j] = pow_m_[j - 1] * m;
  }

  seed_incumbent(drives, warm_start);
  if (strategy == ExhaustiveStrategy::kBranchAndBound)
    descend(n_, 0, drives, max_electrons_per_dot);
  else
    solve_full_enumeration(drives, max_electrons_per_dot);
  finish(m, warm_start);
  return best_;
}

void StochasticGroundStateSolver::bind(const CapacitanceModel& model) {
  model_ = &model;
  eval_.bind(model);
  const std::size_t n = model.num_dots();
  best_.assign(n, 0);
  start_.assign(n, 0);
  local_best_.assign(n, 0);
  polish_coupling_.assign(n, 0.0);
}

void StochasticGroundStateSolver::offer_polished(
    std::vector<int>& state, const std::vector<double>& drives,
    int max_electrons_per_dot) {
  // Zero-temperature polish: descend to the ICM fixed point of the restart's
  // best state, so no restart ever returns worse than plain greedy from that
  // state. Cross-restart comparison uses a full energy recompute (no
  // delta-accumulation residue), earliest restart wins exact ties.
  icm_relax(*model_, drives, max_electrons_per_dot, state, polish_coupling_);
  const double e = model_->energy(state, drives);
  if (!has_best_ || e < best_energy_) {
    best_energy_ = e;
    best_ = state;
    has_best_ = true;
  }
}

const std::vector<int>& StochasticGroundStateSolver::solve(
    const std::vector<double>& drives, int max_electrons_per_dot,
    const FrontierOptions& options) {
  QVG_EXPECTS(model_ != nullptr);
  QVG_EXPECTS(max_electrons_per_dot >= 0);
  QVG_EXPECTS(drives.size() == eval_.num_dots());
  stats_ = SolveStats{};
  has_best_ = false;
  best_energy_ = std::numeric_limits<double>::infinity();

  const std::size_t n = eval_.num_dots();
  const Rng base(options.seed);
  const auto max_c = static_cast<std::int64_t>(max_electrons_per_dot);

  // Temperature scale: the largest charging energy is the natural size of a
  // single-dot move's energy change.
  double t0 = 0.0;
  for (const double ec : model_->charging_energies()) t0 = std::max(t0, ec);
  t0 *= kAnnealInitialTemperatureScale;
  if (!(t0 > 0.0)) t0 = 1.0;

  for (int r = 0; r < kAnnealRestarts; ++r) {
    ++stats_.restarts;
    // Stream-per-restart: restart k depends on (seed, k) only.
    Rng rng = base.split(static_cast<std::uint64_t>(r));
    if (r == 0)
      std::fill(start_.begin(), start_.end(), 0);
    else
      for (auto& c : start_) c = static_cast<int>(rng.uniform_int(0, max_c));
    eval_.set_state(start_, drives);
    local_best_ = eval_.occupation();
    double local_best_e = eval_.energy();

    double t = t0;
    for (int sweep = 0; sweep < kAnnealSweeps; ++sweep) {
      for (std::size_t step = 0; step < n; ++step) {
        bool accepted = false;
        if (n >= 2 && max_electrons_per_dot >= 1 &&
            rng.uniform() < kAnnealSwapProbability) {
          const auto a = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
          auto b = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(n) - 2));
          if (b >= a) ++b;
          const double de = eval_.delta_swap(a, b);
          ++stats_.moves_evaluated;
          if (metropolis_accept(de, t, rng)) {
            eval_.apply_swap(a, b);
            accepted = true;
          }
        } else if (max_electrons_per_dot >= 1) {
          const auto d = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
          // Uniform over {0..max} minus the current occupancy.
          int c = static_cast<int>(rng.uniform_int(0, max_c - 1));
          if (c >= eval_.occupation()[d]) ++c;
          const double de = eval_.delta_single(d, c);
          ++stats_.moves_evaluated;
          if (metropolis_accept(de, t, rng)) {
            eval_.apply_single(d, c);
            accepted = true;
          }
        }
        if (accepted) {
          ++stats_.moves_accepted;
          if (eval_.energy() < local_best_e) {
            local_best_e = eval_.energy();
            local_best_ = eval_.occupation();
          }
        }
      }
      t *= kAnnealCooling;
    }
    offer_polished(local_best_, drives, max_electrons_per_dot);
  }
  return best_;
}

std::vector<int> ground_state_frontier(const CapacitanceModel& model,
                                       const std::vector<double>& drives,
                                       int max_electrons_per_dot,
                                       const FrontierOptions& options,
                                       SolveStats* stats) {
  StochasticGroundStateSolver solver;
  solver.bind(model);
  std::vector<int> result =
      solver.solve(drives, max_electrons_per_dot, options);
  if (stats != nullptr) *stats = solver.last_stats();
  return result;
}

void active_dots(const CapacitanceModel& model,
                 const std::vector<double>& drives,
                 std::vector<std::size_t>& out) {
  QVG_EXPECTS(drives.size() == model.num_dots());
  const std::vector<double>& charging = model.charging_energies();
  out.clear();
  for (std::size_t i = 0; i < drives.size(); ++i)
    if (!(drives[i] < 0.5 * charging[i])) out.push_back(i);
}

void GroundStateSolver::bind(const CapacitanceModel& model) {
  model_ = &model;
  const std::size_t n = model.num_dots();
  occupation_.assign(n, 0);
  active_.reserve(n);
  active_drives_.reserve(n);
  // Up to the limit exact_ holds the whole model for good. Above it exact_
  // rebinds per probe to the active dots, and frontier_ binds lazily: it
  // only runs when too many dots are active.
  if (n <= kExhaustiveDotLimit) exact_.bind(model);
  frontier_ = StochasticGroundStateSolver{};
}

const std::vector<int>& GroundStateSolver::solve(
    const std::vector<double>& drives, const ChargeSolverOptions& options,
    const std::vector<int>* warm_start) {
  QVG_EXPECTS(model_ != nullptr);
  QVG_EXPECTS(drives.size() == model_->num_dots());
  const int max_electrons = options.max_electrons_per_dot;

  if (model_->num_dots() <= kExhaustiveDotLimit)
    return exact_.solve(drives, max_electrons, warm_start);

  active_dots(*model_, drives, active_);
  if (active_.size() > kExhaustiveDotLimit) {
    if (!frontier_.bound()) frontier_.bind(*model_);
    return frontier_.solve(drives, max_electrons, options.frontier);
  }

  std::fill(occupation_.begin(), occupation_.end(), 0);
  if (active_.empty()) return occupation_;
  active_drives_.clear();
  for (const std::size_t d : active_) active_drives_.push_back(drives[d]);
  exact_.bind(*model_, active_);
  const std::vector<int>& sub = exact_.solve(active_drives_, max_electrons);
  for (std::size_t a = 0; a < active_.size(); ++a)
    occupation_[active_[a]] = sub[a];
  return occupation_;
}

std::vector<int> ground_state(const CapacitanceModel& model,
                              const std::vector<double>& gate_voltages,
                              const ChargeSolverOptions& options) {
  GroundStateSolver solver;
  solver.bind(model);
  return solver.solve(model.dot_drives(gate_voltages), options);
}

}  // namespace qvg
