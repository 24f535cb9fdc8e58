#pragma once

/// \file simplex.hpp
/// Bounded-variable two-phase primal simplex with a dual simplex for
/// warm-started re-solves, on a dense tableau.
///
/// Design notes
///  * Every row i gets a slack s_i with bounds equal to the row's activity
///    range, turning the system into  A.x - s = 0  with all variables
///    bounded (possibly infinitely). The initial basis is the slack set.
///  * Phase 1 minimizes the total bound violation of basic variables with
///    the classical composite objective; phase 2 minimizes the user
///    objective with Dantzig pricing and a Bland fallback after stalls.
///  * `save_state` / `restore_state` snapshot the full tableau so a branch
///    and bound search can replay bound changes from the root relaxation
///    and re-optimize with the dual simplex (see milp.hpp).
///  * An infeasibility verdict of the dual simplex prunes a whole branch
///    and bound subtree, so `resolve()` accepts it only with a Farkas
///    certificate: y = row r of B^-1 for the leaving row r that found no
///    entering column (read off the tableau's slack block), c = y'[A | -I]
///    recomputed from the original matrix, and the box range of c.z over
///    the current bounds missing 0 by more than 2 feas_tol (1 + |c|_1).
///    Entries |c_j| <= 1e-9 max(1, |y|_inf) count as zero, the size the
///    ratio tests already ignore. A row that does not certify falls back
///    to a from-scratch `solve()`; both outcomes are counted.
///  * The tableau is stored dense but pivoted sparse. Each iteration
///    gathers the nonzero rows of the entering column once; the ratio
///    test, the value update and the pivot walk that list. The pivot
///    scales the pivot row while covering its nonzeros with column spans
///    (zero runs shorter than 8 entries are bridged, so spans stay long
///    enough to vectorize on dense rows), then updates only those spans,
///    in the rows of that list and in the reduced costs. Every nonzero
///    entry gets the same floating-point operations in the same order as
///    in a full dense update, so pivots, iteration counts and answers are
///    bit-identical to it; only the sign of a zero entry may differ,
///    which no comparison observes.
///  * A *potential* is a continuous structural column with infinite
///    bounds and zero cost (Column::is_potential). Once basic it never
///    leaves: it is never infeasible, never blocks a ratio test and its
///    cost keeps its row out of the reduced costs. So its row is dead:
///    `gather_column` leaves it out and no ratio test, value update or
///    pivot touches it again. Live entries see the same operations, so
///    answers are bit-identical; the potentials' values are not kept
///    (x reports NaN), and `set_col_bounds` refuses to bound one, which
///    would revive its stale row.
///  * Drift repair: when phase 2 ends with the basics out of bounds by
///    more than 64 feas_tol in total, `solve()` first rebuilds the
///    tableau of the current basis from the row-stored matrix
///    (`refactor`, Gauss-Jordan with partial pivoting from the slack
///    tableau) and recomputes the basic values, then re-runs phase 1 and
///    phase 2. Repairing from the drifted values alone could end a
///    feasible LP as infeasible or numeric.
///  * Memory: the original matrix is kept by rows (only the tableau is
///    dense), and the tableau lives in page-mapped blocks outside the
///    malloc heap (detail::TableauAllocator). A heuristic probe builds
///    and drops a tableau of a few MB; each thread reuses one block for
///    the next and unmaps it when the thread exits.
///
/// Suitable for the medium-size LPs and MILPs of the DAC'09 flow
/// (hundreds to a few thousands of rows). Not a sparse industrial code:
/// the tableau stays m x (n + m) and is refactorized only to repair
/// drift.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "lp/model.hpp"
#include "support/stopwatch.hpp"

namespace elrr::lp {

namespace detail {
/// Page-mapped storage for tableaux, outside the malloc heap. Each thread
/// keeps the largest block it released and hands it to its next
/// tableau that fits; the block is unmapped when the thread exits.
void* acquire_tableau(std::size_t bytes);
void release_tableau(void* data) noexcept;

template <class T>
struct TableauAllocator {
  using value_type = T;
  TableauAllocator() = default;
  template <class U>
  TableauAllocator(const TableauAllocator<U>&) noexcept {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(acquire_tableau(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t) noexcept { release_tableau(p); }
  friend bool operator==(const TableauAllocator&, const TableauAllocator&) {
    return true;
  }
};
}  // namespace detail

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterLimit,
  kTimeLimit,
  kNumericError,
};

const char* to_string(LpStatus status);

struct LpResult {
  LpStatus status = LpStatus::kNumericError;
  double objective = 0.0;          ///< in the model's original sense
  /// Structural variable values; NaN for the potentials (continuous,
  /// free, zero-cost columns; see SimplexSolver), whose values the
  /// engine does not keep.
  std::vector<double> x;
  std::int64_t iterations = 0;
};

struct SimplexOptions {
  double feas_tol = 1e-7;    ///< bound/row feasibility tolerance
  double opt_tol = 1e-7;     ///< reduced-cost optimality tolerance
  double pivot_tol = 1e-9;   ///< minimum acceptable pivot magnitude
  std::int64_t max_iters = -1;   ///< <0: automatic (scales with size)
  double time_limit_s = -1.0;    ///< <=0: no limit
};

/// Incremental simplex engine over one model. The model's structure
/// (rows/columns/coefficients/objective) is fixed at construction; only
/// column bounds may be changed afterwards.
class SimplexSolver {
 public:
  explicit SimplexSolver(const Model& model, SimplexOptions options = {});

  /// Solves from scratch (slack basis, phase 1 + phase 2).
  LpResult solve();

  /// Re-optimizes after set_col_bounds calls, starting from the current
  /// (dual-feasible) basis using the dual simplex. Falls back to a full
  /// primal solve if the basis is not dual feasible.
  LpResult resolve();

  /// Tightens/changes bounds of a structural column. Keeps the tableau
  /// consistent; call resolve() afterwards. A potential only accepts
  /// (-inf, inf); any finite bound on it throws.
  void set_col_bounds(int col, double lo, double hi);

  /// True when structural column `col` was a potential at construction:
  /// continuous, both bounds infinite, objective coefficient 0.
  bool is_potential(int col) const {
    return col >= 0 && col < n_ && potential_[col] != 0;
  }

  /// Changes the activity range of a row (its slack variable's bounds).
  /// Same contract as set_col_bounds: tableau stays consistent, follow
  /// with resolve(). This is what makes a session warm-start possible
  /// for models whose steps differ only in row right-hand sides.
  void set_row_bounds(int row, double lo, double hi);

  /// Full engine snapshot (tableau, basis, values, reduced costs).
  struct State;
  State save_state() const;
  void restore_state(const State& state);

  /// Last computed structural solution (valid after solve/resolve);
  /// NaN for the potentials.
  std::vector<double> structural_values() const;

  std::int64_t total_iterations() const { return iterations_; }

  /// Dual-simplex infeasibility verdicts of resolve(), cumulative:
  /// accepted on a Farkas certificate, or re-checked by a cold solve().
  std::int64_t infeasible_certified() const { return infeasible_certified_; }
  std::int64_t infeasible_cold() const { return infeasible_cold_; }

  /// Adjusts the wall-clock budget of subsequent solve/resolve calls
  /// (branch & bound passes the remaining global budget down).
  void set_time_limit(double seconds) { options_.time_limit_s = seconds; }

 private:
  enum class Where : std::uint8_t { kBasic, kAtLower, kAtUpper, kFree };

  // --- problem data (fixed) ---
  int n_ = 0;                   ///< structural columns
  int m_ = 0;                   ///< rows (== slack count)
  int total_ = 0;               ///< n_ + m_
  std::vector<double> cost_;    ///< minimization costs, size total_
  std::vector<double> lo_, hi_; ///< bounds, size total_
  double sense_flip_ = 1.0;     ///< -1 when the model maximizes
  SimplexOptions options_;
  /// Original matrix A by rows (the -I slack block is implicit): row i
  /// holds a_entries_[a_start_[i] .. a_start_[i + 1]).
  std::vector<int> a_start_;
  std::vector<ColEntry> a_entries_;
  /// Per variable (size total_): 1 for a potential; slacks are never one.
  std::vector<std::uint8_t> potential_;

  // --- engine state ---
  /// m_ x total_ current tableau B^-1 [A|-I]
  std::vector<double, detail::TableauAllocator<double>> tab_;
  std::vector<int> basis_;      ///< size m_, variable basic in each row
  std::vector<Where> where_;    ///< size total_
  std::vector<double> value_;   ///< size total_, current values
  std::vector<double> dj_;      ///< size total_, phase-2 reduced costs
  bool dj_valid_ = false;
  std::int64_t iterations_ = 0;       ///< cumulative across solves
  std::int64_t call_iter_base_ = 0;   ///< iterations_ at entry of this call
  std::int64_t degenerate_streak_ = 0;
  bool bland_ = false;
  int infeasible_row_ = -1;   ///< leaving row of dual_phase's kInfeasible
  std::int64_t infeasible_certified_ = 0;
  std::int64_t infeasible_cold_ = 0;

  // --- pivot scratch (reserved at construction, reused by every pivot) ---
  std::vector<int> col_nz_;   ///< rows with a nonzero in the entering column
  /// Column range [begin, end) of the scaled pivot row.
  struct Span {
    int begin;
    int end;
  };
  std::vector<Span> row_spans_;  ///< spans covering the pivot row's nonzeros

  double& tab(int i, int j) { return tab_[static_cast<std::size_t>(i) * total_ + j]; }
  double tab(int i, int j) const { return tab_[static_cast<std::size_t>(i) * total_ + j]; }

  void set_bounds_impl(int idx, double lo, double hi);
  /// tab_ = [-A | I] with every slack basic in its own row; where_ and
  /// value_ are left as they are.
  void load_slack_tableau();
  void build_initial_basis();
  void compute_reduced_costs();
  bool is_dual_feasible() const;
  /// Collects the live rows with a nonzero in column `col` into col_nz_,
  /// in increasing order. Every column scan of an iteration (ratio test,
  /// value update, pivot) walks that list.
  void gather_column(int col);
  /// Pivots `col` into the basis at `row`; col_nz_ must hold the
  /// nonzero rows of `col` (gather_column).
  void pivot(int row, int col);
  double infeasibility() const;
  bool farkas_certifies(int row) const;
  /// Rebuilds tab_ = B^-1 [A | -I] for the current basis from the
  /// row-stored matrix and recomputes the basic values from the nonbasic
  /// ones. False (slack basis restored) when the basis is singular.
  bool refactor();

  // Phase drivers; return a status restricted to
  // {kOptimal = subproblem solved, kInfeasible, kUnbounded, limits}.
  LpStatus primal_phase1(const Deadline& deadline);
  LpStatus primal_phase2(const Deadline& deadline);
  LpStatus dual_phase(const Deadline& deadline);

  LpResult finish(LpStatus status);
  std::int64_t iteration_budget() const;
};

struct SimplexSolver::State {
  std::vector<double> tab;
  std::vector<int> basis;
  std::vector<Where> where;
  std::vector<double> value;
  std::vector<double> dj;
  std::vector<double> lo, hi;
  bool dj_valid = false;
};

}  // namespace elrr::lp
