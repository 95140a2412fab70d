#include "device/charge_state.hpp"

#include "common/assert.hpp"
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

/// One ICM relaxation to a fixed point, in place, on delta energies, over
/// n dots with charging energies `charging` and the row-major n x n mutual
/// coupling matrix `mutual`. For dot d with the others fixed, every
/// candidate occupancy ranks by the partial energy
/// g(c) = Ec_d/2 * c^2 - c * (drives[d] - coupling[d]) where
/// coupling[d] = sum_k Em_dk * occ_k — the rest of the full energy is a
/// constant across candidates, so no model.energy() recompute and no trial
/// vector copy are needed. An accepted move updates the n coupling sums.
/// `coupling` must be sized n; it is (re)initialized from `occupation`.
/// Sweep order and tie-breaking (smallest occupancy among exact ties) match
/// ground_state_greedy_reference.
void icm_relax(std::size_t n, const double* charging, const double* mutual,
               const std::vector<double>& drives, int max_electrons_per_dot,
               std::vector<int>& occupation, std::vector<double>& coupling) {
  // The init dot product stays scalar: its k-ascending accumulation order is
  // part of the fixed-point's bit-exact agreement with the copy-based
  // reference sweep, and reassociating it would perturb exact ties.
  for (std::size_t d = 0; d < n; ++d) {
    const double* row = mutual + d * n;
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
        const double* row = mutual + d * n;
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

}  // namespace

std::vector<int> ground_state_greedy(const CapacitanceModel& model,
                                     const std::vector<double>& drives,
                                     int max_electrons_per_dot) {
  QVG_EXPECTS(max_electrons_per_dot >= 0);
  const std::size_t n = model.num_dots();
  std::vector<int> occupation(n, 0);
  std::vector<double> coupling(n, 0.0);
  icm_relax(n, model.charging_energies().data(), model.mutual_coupling().row(0),
            drives, max_electrons_per_dot, occupation, coupling);
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

void IncrementalGroundStateSolver::reset_scratch() {
  occupation_.assign(n_, 0);
  best_.assign(n_, 0);
  icm_.assign(n_, 0);
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
  // initial incumbent.
  std::fill(occupation_.begin(), occupation_.end(), 0);
  std::fill(coupling_.begin(), coupling_.end(), 0.0);
  std::fill(best_.begin(), best_.end(), 0);
  base_ = 0.0;  // energy of the current outer state with dot 0 empty
  best_energy_ = 0.0;
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
      std::copy(warm_start->begin(), warm_start->end(), best_.begin());
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
                                               std::size_t m) {
  // Dot 0 is the innermost odometer digit: while it spins, no coupling sum
  // changes (its own coupling_[0] depends only on the other dots), so each
  // inner state costs O(1) — a table lookup and one fused multiply-add.
  // Enumeration order (and therefore tie-breaking) matches the reference
  // odometer exactly.
  const double e0 = drives[0] - coupling_[0];
  std::size_t best_c = m;  // m: no inner state beat the incumbent
  for (std::size_t c = 0; c < m; ++c) {
    const double e = base_ + q0_[c] - static_cast<double>(c) * e0;
    if (e < best_energy_) {
      best_energy_ = e;
      best_c = c;
    }
  }
  if (best_c < m) {
    std::copy(occupation_.begin(), occupation_.end(), best_.begin());
    best_[0] = static_cast<int>(best_c);
  }
  stats_.states_visited += m;
}

void IncrementalGroundStateSolver::descend(std::size_t level,
                                           const std::vector<double>& drives,
                                           int max_electrons_per_dot) {
  // Invariant: dots level..n-1 hold their fixed digits, dots 0..level-1 are
  // all zero, and base_ is the energy of exactly that configuration.
  if (stats_.nodes == node_cap_) {
    stats_.capped = true;
    return;
  }
  ++stats_.nodes;

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
    inner_sweep(drives, q0_.size());
    return;
  }

  // Walk digit level-1 through 0..max (it is already 0 on entry) and wrap it
  // back to 0 on exit — the same move sequence the flat odometer performs.
  // At the node cap the walk stops where it is; the next solve reseeds.
  const std::size_t digit = level - 1;
  for (int c = 0; c <= max_electrons_per_dot; ++c) {
    if (c > 0) apply_outer_move(digit, c, drives);
    descend(digit, drives, max_electrons_per_dot);
    if (stats_.capped) return;
  }
  apply_outer_move(digit, 0, drives);
}

void IncrementalGroundStateSolver::solve_full_enumeration(
    const std::vector<double>& drives, int max_electrons_per_dot) {
  const std::size_t m = q0_.size();
  while (true) {
    inner_sweep(drives, m);
    // Advance the outer odometer (dots 1..n-1).
    std::size_t d = 1;
    while (d < n_ && occupation_[d] == max_electrons_per_dot) {
      apply_outer_move(d, 0, drives);
      ++d;
    }
    if (d >= n_) break;
    apply_outer_move(d, occupation_[d] + 1, drives);
  }
}

void IncrementalGroundStateSolver::prepare(int max_electrons_per_dot) {
  QVG_EXPECTS(model_ != nullptr);
  QVG_EXPECTS(max_electrons_per_dot >= 0);
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
    pow_m_[0] = 1.0;
    for (std::size_t j = 1; j <= n_; ++j)
      pow_m_[j] = pow_m_[j - 1] * static_cast<double>(m);
  }
}

const std::vector<int>& IncrementalGroundStateSolver::solve(
    const std::vector<double>& drives, int max_electrons_per_dot,
    const std::vector<int>* warm_start, ExhaustiveStrategy strategy) {
  prepare(max_electrons_per_dot);
  QVG_EXPECTS(drives.size() == n_);
  node_cap_ = std::numeric_limits<std::uint64_t>::max();
  seed_incumbent(drives, warm_start);
  if (strategy == ExhaustiveStrategy::kBranchAndBound)
    descend(n_, drives, max_electrons_per_dot);
  else
    solve_full_enumeration(drives, max_electrons_per_dot);
  return best_;
}

const std::vector<int>& IncrementalGroundStateSolver::solve_capped(
    const std::vector<double>& drives, int max_electrons_per_dot) {
  prepare(max_electrons_per_dot);
  QVG_EXPECTS(drives.size() == n_);
  // coupling_ is the ICM's scratch; seed_incumbent resets it.
  std::fill(icm_.begin(), icm_.end(), 0);
  icm_relax(n_, charging_.data(), mutual_flat_.data(), drives,
            max_electrons_per_dot, icm_, coupling_);
  node_cap_ = kSearchNodeCap;
  seed_incumbent(drives, &icm_);
  descend(n_, drives, max_electrons_per_dot);
  return best_;
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
  // Up to the limit exact_ holds the whole model for good; above it exact_
  // rebinds to each new active set.
  if (n <= kExhaustiveDotLimit) exact_.bind(model);
  exact_dots_.clear();
  searched_ = false;
}

const SolveStats& GroundStateSolver::last_stats() const noexcept {
  static const SolveStats kNoSearch;
  return searched_ ? exact_.last_stats() : kNoSearch;
}

const std::vector<int>& GroundStateSolver::solve_active(
    std::span<const std::size_t> active,
    const std::vector<double>& active_drives, int max_electrons_per_dot) {
  QVG_EXPECTS(model_ != nullptr);
  QVG_EXPECTS(model_->num_dots() > kExhaustiveDotLimit);
  QVG_EXPECTS(!active.empty());
  // A solve only reads exact_'s gathered parameters and resets its per-solve
  // state, so an unchanged active set needs no rebind.
  if (!std::equal(active.begin(), active.end(), exact_dots_.begin(),
                  exact_dots_.end())) {
    exact_.bind(*model_, active);
    exact_dots_.assign(active.begin(), active.end());
  }
  searched_ = true;
  if (active.size() <= kExhaustiveDotLimit)
    return exact_.solve(active_drives, max_electrons_per_dot);
  return exact_.solve_capped(active_drives, max_electrons_per_dot);
}

const std::vector<int>& GroundStateSolver::solve(
    const std::vector<double>& drives, const ChargeSolverOptions& options,
    const std::vector<int>* warm_start) {
  QVG_EXPECTS(model_ != nullptr);
  QVG_EXPECTS(drives.size() == model_->num_dots());
  const int max_electrons = options.max_electrons_per_dot;

  if (model_->num_dots() <= kExhaustiveDotLimit) {
    searched_ = true;
    return exact_.solve(drives, max_electrons, warm_start);
  }

  active_dots(*model_, drives, active_);
  std::fill(occupation_.begin(), occupation_.end(), 0);
  searched_ = false;
  if (active_.empty()) return occupation_;
  active_drives_.clear();
  for (const std::size_t d : active_) active_drives_.push_back(drives[d]);
  const std::vector<int>& sub =
      solve_active(active_, active_drives_, max_electrons);
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
