// Ground-state charge configuration solvers for the constant-interaction
// model.
//
// Solver choice and complexity (n dots, m = max_electrons_per_dot + 1
// occupancy levels per dot, so m^n candidate states):
//
//   ground_state_exhaustive  — reference implementation. Enumerates all m^n
//     states and recomputes the full quadratic energy for each: O(m^n * n^2).
//     Exact. Keep for <= 4-5 dots and as the equivalence oracle for the
//     optimized paths.
//
//   IncrementalGroundStateSolver — optimized exhaustive solver. Enumerates
//     the same m^n states in the same odometer order but updates the energy
//     by the delta of the single dot that changed (maintaining per-dot
//     mutual-coupling sums), so each state costs O(n) instead of O(n^2),
//     and all scratch buffers are reused across solves (no allocation on
//     the hot path): O(m^n * n) with ~zero constant overhead. Exact; ties
//     between degenerate ground states break in enumeration order exactly
//     like the reference, except that a warm-start seed (previous raster
//     pixel) wins exact ties against later-enumerated states. Use this for
//     per-pixel raster evaluation.
//
//     With ExhaustiveStrategy::kBranchAndBound (the default) the same
//     enumeration becomes a depth-first search with incumbent-driven
//     subtree elimination: because every mutual coupling is >= 0, the best
//     possible completion of the d innermost (still-free) digits decomposes
//     into d independent one-dot convex minimizations, each solvable in
//     O(1). Whenever that lower bound cannot beat the incumbent, the whole
//     m^d-state subtree is skipped. Pruning only discards states that are
//     >= the incumbent, so the result — including enumeration-order
//     tie-breaking — is bit-identical to the full enumeration, while a good
//     warm start (the previous raster pixel) lets most of the tree vanish.
//     The per-level completion bounds and the coupling-sum updates run
//     lane-parallel (simd::VecD) over the solver's structure-of-arrays
//     scratch; both are element-wise recurrences reduced in enumeration
//     order, so the SIMD forms are bit-identical to the scalar ones.
//     This is what makes exhaustive solves tractable at 6-8 dots. (Sole
//     caveat, relevant only to artificially degenerate models whose minima
//     tie to the last ulp: the full enumeration's accumulated energies carry
//     ~1 ulp of odometer wrap-cycle residue, so on exact ties it can settle
//     on a different member of the tied set than the residue-free pruned
//     walk. Both are energy-optimal; see the degenerate-tie test.)
//
//   ground_state_greedy — iterated conditional modes on the same flat
//     delta-energy machinery as the incremental solver: each per-dot sweep
//     is O(m) against a maintained coupling sum and an accepted move costs
//     O(n), so a sweep is O(n * (m + n)) and no vectors are copied. Exact
//     for diagonal-dominant couplings in practice but not guaranteed.
//     ground_state_greedy_reference keeps the original copy-based
//     implementation as the equivalence oracle.
//
//   ground_state_frontier — simulated annealing for more than
//     kExhaustiveDotLimit active dots, built on the same O(1) delta-energy
//     machinery (DeltaMoveEvaluator): single-dot occupancy moves and
//     pair-swap moves evaluate in O(1) against maintained coupling sums, an
//     accepted move costs O(n), and no per-trial vectors are copied. One
//     fixed schedule: 3 restarts (the first from the all-zero state, the
//     others from uniform random occupations) of 24 sweeps of n proposed
//     moves, a quarter of them pair swaps, cooled geometrically by 0.85 per
//     sweep from 0.8 x the largest charging energy. Each restart ends in an
//     ICM polish, so the anneal never returns worse than plain greedy.
//     Fully deterministic given FrontierOptions::seed — restart k draws from
//     Rng(seed).split(k). A pair scan rests every other plunger at its base
//     voltage, below its transition on the built arrays, so no extraction
//     workload reaches this search; `csd_tool --frontier-probe` does.
//
// GroundStateSolver is the production dispatch, used by ground_state() and
// by every DeviceSimulator probe (L = kExhaustiveDotLimit):
//
//   n <= L dots — IncrementalGroundStateSolver (branch-and-bound) on the
//     whole model, warm-startable.
//   n > L dots — an exact dominance pre-pass first. With Ec_i > 0 and
//     Em_ik >= 0 (both enforced by CapacitanceModel), a dot whose drive
//     satisfies mu_i < Ec_i/2 and holds c >= 1 electrons can be emptied for
//     an energy drop of at least c * (Ec_i/2 - mu_i) > 0, so it is empty in
//     every ground state. Only the active set A = {i : !(mu_i < Ec_i/2)}
//     needs solving:
//       |A| <= L — branch-and-bound over A alone (bound onto the gathered
//         charging/mutual/drive entries of A; no model copy), exact;
//       |A| >  L — the anneal on the whole model, exactly as
//         ground_state_frontier() runs it.
//     Either way the result is a pure function of the drives (no warm
//     start), so every probe schedule makes identical per-probe decisions.
//
// There is no switch to disable the pre-pass: it never discards a ground
// state, so it is not a strategy choice.
#pragma once

#include "device/capacitance.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace qvg {

/// Solve exactly (branch-and-bound) up to this many dots — all of them, or
/// above this size the active dots of the dominance pre-pass — and anneal
/// only when more active dots remain.
inline constexpr std::size_t kExhaustiveDotLimit = 7;

/// The ground-state search for more than kExhaustiveDotLimit active dots.
enum class FrontierStrategy {
  /// Simulated annealing on O(1) delta-energy moves.
  kAnneal,
};

/// The anneal's seed. Every run is a pure function of (model, drives, seed):
/// all randomness flows from `seed` through per-restart split streams, so
/// re-running a request (job-level retries, fault-injection reruns)
/// reproduces bit-identically.
struct FrontierOptions {
  /// Read by nothing in src/; kept so perfbench builds unedited. ROADMAP
  /// item 4's benchmark PR deletes it.
  FrontierStrategy strategy = FrontierStrategy::kAnneal;
  /// Base seed. Restart k uses the independent stream Rng(seed).split(k);
  /// callers that serve requests derive this from the request seed (see
  /// DeviceSimulator) so retries replay the exact same search.
  std::uint64_t seed = 0x9d075eedULL;
};

struct ChargeSolverOptions {
  int max_electrons_per_dot = 4;
  /// The anneal's seed for more than kExhaustiveDotLimit active dots.
  FrontierOptions frontier;
};

/// Ground-state occupation at the given gate voltages (one-shot
/// GroundStateSolver).
[[nodiscard]] std::vector<int> ground_state(
    const CapacitanceModel& model, const std::vector<double>& gate_voltages,
    const ChargeSolverOptions& options = {});

/// The dominance pre-pass: writes into `out`, ascending, every dot i with
/// !(drives[i] < Ec_i/2). All other dots are empty in every ground state.
void active_dots(const CapacitanceModel& model,
                 const std::vector<double>& drives,
                 std::vector<std::size_t>& out);

/// Exhaustive minimizer over {0..max}^n (exact). Reference implementation:
/// full O(n^2) energy recompute per enumerated state.
[[nodiscard]] std::vector<int> ground_state_exhaustive(
    const CapacitanceModel& model, const std::vector<double>& drives,
    int max_electrons_per_dot);

/// Iterated conditional modes on flat delta-energy updates: repeatedly relax
/// one dot at a time until a fixed point. Exact for diagonal-dominant
/// couplings in practice. A test oracle: the anneal never returns worse.
[[nodiscard]] std::vector<int> ground_state_greedy(
    const CapacitanceModel& model, const std::vector<double>& drives,
    int max_electrons_per_dot);

/// The pre-optimization copy-based ICM (fresh trial vector and full
/// O(n^2) energy recompute per candidate). Kept as the equivalence oracle.
[[nodiscard]] std::vector<int> ground_state_greedy_reference(
    const CapacitanceModel& model, const std::vector<double>& drives,
    int max_electrons_per_dot);

/// How IncrementalGroundStateSolver::solve walks the m^n state tree.
enum class ExhaustiveStrategy {
  /// Visit every state (the PR 1 flat odometer). Ablation reference.
  kFullEnumeration,
  /// Depth-first odometer with incumbent-driven subtree elimination.
  /// Bit-identical results, visits only subtrees whose lower bound beats
  /// the incumbent. The production default.
  kBranchAndBound,
};

/// Counters from the most recent solve call (exhaustive or anneal; each
/// solver fills its own fields and zeroes the rest).
struct SolveStats {
  /// States whose energy was actually evaluated (m^n for full enumeration).
  std::uint64_t states_visited = 0;
  /// Subtrees eliminated by the bound test, weighted by nothing — each
  /// counted once regardless of how many states it contained.
  std::uint64_t subtrees_pruned = 0;
  /// States contained in the pruned subtrees (never evaluated).
  std::uint64_t states_pruned = 0;
  /// Anneal: delta-energy move evaluations performed.
  std::uint64_t moves_evaluated = 0;
  /// Anneal: moves actually applied.
  std::uint64_t moves_accepted = 0;
  /// Anneal: restarts executed.
  std::uint64_t restarts = 0;
};

/// O(1) delta-energy move machinery of the anneal, exposed so its invariants can be property-tested. Bind to a
/// model, set a state, then: delta_single / delta_swap evaluate a move in
/// O(1) against maintained per-dot coupling sums; apply_single / apply_swap
/// commit it in O(n) (SIMD coupling update, bit-identical to scalar) and
/// keep a running total energy. No per-trial vector copies anywhere.
///
/// Not thread-safe: one instance per thread.
class DeltaMoveEvaluator {
 public:
  /// (Re)bind to a model (flat parameter copies). The model must outlive
  /// the evaluator.
  void bind(const CapacitanceModel& model);
  [[nodiscard]] bool bound() const noexcept { return n_ != 0; }

  /// Load an occupation + drives and rebuild coupling sums and the running
  /// energy from scratch: O(n^2).
  void set_state(const std::vector<int>& occupation,
                 const std::vector<double>& drives);

  /// Energy change of setting dot d to occupancy c (others fixed): O(1).
  [[nodiscard]] double delta_single(std::size_t d, int c) const;
  /// Energy change of exchanging the occupancies of dots a and b: O(1).
  [[nodiscard]] double delta_swap(std::size_t a, std::size_t b) const;

  /// Commit the move and update coupling sums + running energy: O(n).
  void apply_single(std::size_t d, int c);
  void apply_swap(std::size_t a, std::size_t b);

  /// Running total energy (delta-accumulated; agrees with a full
  /// CapacitanceModel::energy recompute to floating-point residue).
  [[nodiscard]] double energy() const noexcept { return energy_; }
  [[nodiscard]] const std::vector<int>& occupation() const noexcept {
    return occupation_;
  }
  [[nodiscard]] std::size_t num_dots() const noexcept { return n_; }

 private:
  std::size_t n_ = 0;
  std::vector<int> occupation_;
  std::vector<double> drives_;
  /// coupling_[d] = sum_k mutual(d, k) * occupation_[k].
  std::vector<double> coupling_;
  std::vector<double> mutual_flat_;
  std::vector<double> charging_;
  double energy_ = 0.0;
};

/// Allocation-free simulated-annealing ground-state solver. Bind once, call
/// solve() per pixel; the returned reference stays valid until the next
/// solve()/bind(). Deterministic: a pure function of (model, drives,
/// max_electrons_per_dot, options.seed). Not thread-safe: one per thread.
class StochasticGroundStateSolver {
 public:
  void bind(const CapacitanceModel& model);
  [[nodiscard]] bool bound() const noexcept { return model_ != nullptr; }

  const std::vector<int>& solve(const std::vector<double>& drives,
                                int max_electrons_per_dot,
                                const FrontierOptions& options);

  /// Counters from the most recent solve().
  [[nodiscard]] const SolveStats& last_stats() const noexcept { return stats_; }

 private:
  /// ICM-polish `state` in place, then fold it into best_ (full-recompute
  /// energy comparison; earlier restarts win exact ties).
  void offer_polished(std::vector<int>& state,
                      const std::vector<double>& drives,
                      int max_electrons_per_dot);

  const CapacitanceModel* model_ = nullptr;
  DeltaMoveEvaluator eval_;
  std::vector<int> best_;
  double best_energy_ = 0.0;
  bool has_best_ = false;
  std::vector<int> start_;
  std::vector<int> local_best_;
  std::vector<double> polish_coupling_;
  SolveStats stats_;
};

/// Simulated annealing over the whole model (the schedule is in the header
/// comment). GroundStateSolver runs this when more than
/// kExhaustiveDotLimit dots are active. Convenience wrapper over
/// StochasticGroundStateSolver.
[[nodiscard]] std::vector<int> ground_state_frontier(
    const CapacitanceModel& model, const std::vector<double>& drives,
    int max_electrons_per_dot, const FrontierOptions& options = {},
    SolveStats* stats = nullptr);

/// Allocation-free exhaustive solver with incremental delta-energy
/// evaluation and optional branch-and-bound pruning. Bind it to a model
/// once, then call solve() per pixel; the returned reference stays valid
/// until the next solve()/bind().
///
/// Not thread-safe: give each thread its own instance (see
/// DeviceSimulator::evaluate_raster).
class IncrementalGroundStateSolver {
 public:
  IncrementalGroundStateSolver() = default;
  explicit IncrementalGroundStateSolver(const CapacitanceModel& model) {
    bind(model);
  }

  /// (Re)bind to a model and size the scratch buffers. The model must
  /// outlive the solver.
  void bind(const CapacitanceModel& model);
  /// (Re)bind to the sub-problem of `dots` (ascending, distinct, non-empty):
  /// gathers their charging energies and mutual couplings, so solve() takes
  /// drives indexed like `dots` and returns an occupation of the same
  /// length. Allocation-free once the buffers have reached that size.
  void bind(const CapacitanceModel& model, std::span<const std::size_t> dots);

  /// Exact ground state over {0..max}^n for the given per-dot drives.
  /// `warm_start` (e.g. the previous raster pixel's occupation) seeds the
  /// incumbent: it never changes the result when the minimum is unique, and
  /// in exact-tie cases it is preferred over later-enumerated states. Under
  /// branch-and-bound a good warm start also drives the pruning.
  const std::vector<int>& solve(
      const std::vector<double>& drives, int max_electrons_per_dot,
      const std::vector<int>* warm_start = nullptr,
      ExhaustiveStrategy strategy = ExhaustiveStrategy::kBranchAndBound);

  [[nodiscard]] bool bound() const noexcept { return model_ != nullptr; }

  /// Counters from the most recent solve().
  [[nodiscard]] const SolveStats& last_stats() const noexcept { return stats_; }

 private:
  /// Size the scratch buffers for n_ dots and reset the per-m tables.
  void reset_scratch();
  /// Seed the incumbent from the zero state and the optional warm start.
  void seed_incumbent(const std::vector<double>& drives,
                      const std::vector<int>* warm_start);
  /// Move outer dot j (>= 1) to occupancy b, updating the running base
  /// energy and every dot's coupling sum.
  void apply_outer_move(std::size_t j, int b, const std::vector<double>& drives);
  /// Minimum over c in {0..max} of the one-dot completion energy
  /// 0.5 * Ec_d * c^2 - c * (drives[d] - coupling_[d]) (convex in c: O(1)).
  [[nodiscard]] double free_dot_min(std::size_t d,
                                    const std::vector<double>& drives,
                                    int max_electrons_per_dot) const;
  /// Evaluate the m inner (dot 0) states of the current outer configuration.
  void inner_sweep(const std::vector<double>& drives, std::size_t m,
                   std::uint64_t index_base);
  /// Branch-and-bound DFS: dots level..n-1 are fixed in occupation_, dots
  /// 0..level-1 are free (all currently zero).
  void descend(std::size_t level, std::uint64_t index_base,
               const std::vector<double>& drives, int max_electrons_per_dot);
  void solve_full_enumeration(const std::vector<double>& drives,
                              int max_electrons_per_dot);
  void finish(std::size_t m, const std::vector<int>* warm_start);

  const CapacitanceModel* model_ = nullptr;
  std::size_t n_ = 0;
  std::vector<int> occupation_;
  std::vector<int> best_;
  /// coupling_[d] = sum_k mutual(d, k) * occupation_[k], maintained
  /// incrementally as the outer-odometer digits advance.
  std::vector<double> coupling_;
  /// Per-dot completion bounds for the current descend() level. Structure-
  /// of-arrays scratch: the bounds compute lane-parallel over d (they are
  /// element-wise in drives/coupling_/charging_), then reduce scalar in
  /// d-ascending order so pruning decisions stay bit-identical.
  std::vector<double> bound_scratch_;
  /// Flat copies of the model's parameters (row-major mutual matrix) so the
  /// inner loop never goes through accessor indirection.
  std::vector<double> mutual_flat_;
  std::vector<double> charging_;
  /// Quadratic self-energy table for dot 0: q0_[c] = Ec_0/2 * c^2.
  std::vector<double> q0_;
  /// pow_m_[j] = m^j, the enumeration-index stride of digit j.
  std::vector<std::uint64_t> pow_m_;

  // Per-solve state (valid during and after a solve() call).
  double base_ = 0.0;  // energy of the current outer state with free dots 0
  double best_energy_ = 0.0;
  std::uint64_t best_index_ = 0;
  bool warm_is_best_ = false;
  SolveStats stats_;
};

/// The production ground-state solver: the dispatch described at the top of
/// this header behind one bind/solve pair. Bind once, call solve() per
/// probe; the returned reference stays valid until the next solve()/bind().
/// Allocation-free after the first solves. Not thread-safe: one per thread.
class GroundStateSolver {
 public:
  /// (Re)bind to a model. The model must outlive the solver.
  void bind(const CapacitanceModel& model);
  /// Whether the solver is bound to this very model object (a copied
  /// solver still points at the original's model and must rebind).
  [[nodiscard]] bool bound_to(const CapacitanceModel& model) const noexcept {
    return model_ == &model;
  }

  /// Ground-state occupation (full length) for the given per-dot drives.
  /// `warm_start` is used only when the whole model is solved exactly
  /// (num_dots() <= kExhaustiveDotLimit); see
  /// IncrementalGroundStateSolver::solve.
  const std::vector<int>& solve(const std::vector<double>& drives,
                                const ChargeSolverOptions& options,
                                const std::vector<int>* warm_start = nullptr);

  /// Exact ground state of the sub-problem of `active` (ascending, distinct,
  /// 1..kExhaustiveDotLimit dots of a model above the limit) at their drives
  /// `active_drives`: the occupations of those dots, indexed like `active`.
  /// The caller vouches that every other dot is dominated (empty). This is
  /// solve()'s exact branch, exposed for callers that already know the
  /// active set; the branch-and-bound rebinds only when the set differs from
  /// the previous call's.
  const std::vector<int>& solve_active(std::span<const std::size_t> active,
                                       const std::vector<double>& active_drives,
                                       int max_electrons_per_dot);

 private:
  const CapacitanceModel* model_ = nullptr;
  IncrementalGroundStateSolver exact_;
  /// The dots exact_ is bound to above the limit (empty: not bound to a
  /// sub-problem).
  std::vector<std::size_t> exact_dots_;
  StochasticGroundStateSolver frontier_;
  std::vector<std::size_t> active_;
  std::vector<double> active_drives_;
  std::vector<int> occupation_;
};

}  // namespace qvg
