#include "lp/simplex.hpp"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <new>
#include <utility>

namespace elrr::lp {

namespace {
constexpr double kRatioEps = 1e-9;   // |alpha| below this never blocks
constexpr double kTieTol = 1e-9;     // Harris-style tie window in the ratio test
constexpr std::int64_t kBlandTrigger = 512;  // degenerate steps before Bland
constexpr int kSpanGap = 8;  // zero runs this long split a pivot-row span

// A tableau block is one anonymous mapping whose first kBlockHeader
// bytes hold the mapping's length. Under AddressSanitizer everything in
// a block but its length word and the tableau in use is poisoned, so the
// sweep still catches overruns and use after release.
constexpr std::size_t kBlockHeader = 64;
constexpr std::size_t kPageBytes = 4096;

std::size_t block_length(void* base) {
  return *static_cast<std::size_t*>(base);
}

void unmap_block(void* base) {
  const std::size_t length = block_length(base);
  ASAN_UNPOISON_MEMORY_REGION(base, length);
  ::munmap(base, length);
}

struct SpareBlock {
  void* base = nullptr;
  ~SpareBlock() {
    if (base != nullptr) unmap_block(base);
  }
};
thread_local SpareBlock spare_block;
}  // namespace

// The heuristic builds and drops one tableau of a few MB per probe. From
// malloc, such blocks raise glibc's mmap threshold and then stay resident
// in every per-thread arena a solving thread ever used; mapped here, a
// thread reuses one block and returns it to the system when it exits.
void* detail::acquire_tableau(std::size_t bytes) {
  SpareBlock& spare = spare_block;
  void* base = nullptr;
  if (spare.base != nullptr &&
      block_length(spare.base) - kBlockHeader >= bytes) {
    base = std::exchange(spare.base, nullptr);
  } else {
    const std::size_t length =
        (bytes + kBlockHeader + kPageBytes - 1) / kPageBytes * kPageBytes;
    base = ::mmap(nullptr, length, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) throw std::bad_alloc();
    *static_cast<std::size_t*>(base) = length;
  }
  char* block = static_cast<char*>(base);
  ASAN_POISON_MEMORY_REGION(block + sizeof(std::size_t),
                            block_length(base) - sizeof(std::size_t));
  ASAN_UNPOISON_MEMORY_REGION(block + kBlockHeader, bytes);
  return block + kBlockHeader;
}

void detail::release_tableau(void* data) noexcept {
  void* base = static_cast<char*>(data) - kBlockHeader;
  ASAN_POISON_MEMORY_REGION(data, block_length(base) - kBlockHeader);
  SpareBlock& spare = spare_block;
  if (spare.base == nullptr || block_length(spare.base) < block_length(base)) {
    std::swap(spare.base, base);
  }
  if (base != nullptr) unmap_block(base);
}

const char* to_string(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal: return "optimal";
    case LpStatus::kInfeasible: return "infeasible";
    case LpStatus::kUnbounded: return "unbounded";
    case LpStatus::kIterLimit: return "iteration-limit";
    case LpStatus::kTimeLimit: return "time-limit";
    case LpStatus::kNumericError: return "numeric-error";
  }
  return "unknown";
}

SimplexSolver::SimplexSolver(const Model& model, SimplexOptions options)
    : options_(options) {
  model.validate();
  n_ = model.num_cols();
  m_ = model.num_rows();
  total_ = n_ + m_;
  sense_flip_ = model.sense() == Sense::kMaximize ? -1.0 : 1.0;

  cost_.assign(total_, 0.0);
  lo_.assign(total_, -kInf);
  hi_.assign(total_, kInf);
  for (int j = 0; j < n_; ++j) {
    cost_[j] = sense_flip_ * model.col(j).obj;
    lo_[j] = model.col(j).lo;
    hi_[j] = model.col(j).hi;
  }
  a_start_.reserve(static_cast<std::size_t>(m_) + 1);
  a_start_.push_back(0);
  for (int i = 0; i < m_; ++i) {
    const Row& row = model.row(i);
    for (const auto& entry : row.entries) a_entries_.push_back(entry);
    a_start_.push_back(static_cast<int>(a_entries_.size()));
    const int slack = n_ + i;
    lo_[slack] = row.lo;
    hi_[slack] = row.hi;
  }
  potential_.assign(total_, 0);
  for (int j = 0; j < n_; ++j) potential_[j] = model.col(j).is_potential();
  col_nz_.reserve(static_cast<std::size_t>(m_));
  row_spans_.reserve(static_cast<std::size_t>(total_));
}

std::int64_t SimplexSolver::iteration_budget() const {
  if (options_.max_iters > 0) return options_.max_iters;
  return std::max<std::int64_t>(20000, 200LL * (m_ + n_));
}

void SimplexSolver::load_slack_tableau() {
  // Slack basis: B = -I, hence tab = B^-1 [A|-I] = [-A | I].
  tab_.assign(static_cast<std::size_t>(m_) * total_, 0.0);
  basis_.resize(m_);
  for (int i = 0; i < m_; ++i) {
    for (int k = a_start_[i]; k < a_start_[i + 1]; ++k) {
      tab(i, a_entries_[k].col) = -a_entries_[k].coef;
    }
    tab(i, n_ + i) = 1.0;
    basis_[i] = n_ + i;
  }
  dj_valid_ = false;
  bland_ = false;
  degenerate_streak_ = 0;
}

void SimplexSolver::build_initial_basis() {
  load_slack_tableau();
  where_.assign(total_, Where::kAtLower);
  value_.assign(total_, 0.0);
  for (int j = 0; j < total_; ++j) {
    if (std::isfinite(lo_[j])) {
      where_[j] = Where::kAtLower;
      value_[j] = lo_[j];
    } else if (std::isfinite(hi_[j])) {
      where_[j] = Where::kAtUpper;
      value_[j] = hi_[j];
    } else {
      where_[j] = Where::kFree;
      value_[j] = 0.0;
    }
  }
  // Slack i is basic with value a_i . x_N: the same nonzero terms, in the
  // same column order, as a scan of the tableau row [-A | I].
  for (int i = 0; i < m_; ++i) {
    const int slack = n_ + i;
    where_[slack] = Where::kBasic;
    double acc = 0.0;
    for (int k = a_start_[i]; k < a_start_[i + 1]; ++k) {
      const double v = value_[a_entries_[k].col];
      if (v != 0.0) acc += -a_entries_[k].coef * v;
    }
    value_[slack] = -acc;
  }
}

void SimplexSolver::compute_reduced_costs() {
  dj_ = cost_;
  for (int i = 0; i < m_; ++i) {
    const double cb = cost_[basis_[i]];
    if (cb == 0.0) continue;
    const double* row = &tab_[static_cast<std::size_t>(i) * total_];
    for (int j = 0; j < total_; ++j) dj_[j] -= cb * row[j];
  }
  for (int i = 0; i < m_; ++i) dj_[basis_[i]] = 0.0;
  dj_valid_ = true;
}

bool SimplexSolver::is_dual_feasible() const {
  if (!dj_valid_) return false;
  for (int j = 0; j < total_; ++j) {
    switch (where_[j]) {
      case Where::kBasic:
        break;
      case Where::kAtLower:
        if (dj_[j] < -options_.opt_tol) return false;
        break;
      case Where::kAtUpper:
        if (dj_[j] > options_.opt_tol) return false;
        break;
      case Where::kFree:
        if (std::abs(dj_[j]) > options_.opt_tol) return false;
        break;
    }
  }
  return true;
}

// Dead rows, whose basic variable is a potential, are left out: a
// potential never blocks a ratio test and its value is never read, so
// its row need not be updated.
void SimplexSolver::gather_column(int col) {
  col_nz_.clear();
  if (m_ == 0) return;  // no tableau to point into
  const double* entry = &tab_[static_cast<std::size_t>(col)];
  for (int i = 0; i < m_; ++i, entry += total_) {
    if (!potential_[basis_[i]] && *entry != 0.0) col_nz_.push_back(i);
  }
}

// Only the spans of the pivot row that hold its nonzeros are updated, and
// only in the rows with a nonzero in the entering column: everything
// else would subtract zero. A run of fewer than kSpanGap zeros between
// two nonzeros joins their spans, since updating a zero entry leaves it
// as it was and a longer contiguous span vectorizes. Each nonzero entry
// sees the same operations, in the same order, as in a full dense
// update.
void SimplexSolver::pivot(int row, int col) {
  double* prow = &tab_[static_cast<std::size_t>(row) * total_];
  const double inv = 1.0 / prow[col];
  row_spans_.clear();
  for (int j = 0; j < total_; ++j) {
    prow[j] *= inv;
    if (prow[j] == 0.0) continue;
    if (!row_spans_.empty() && j - row_spans_.back().end < kSpanGap) {
      row_spans_.back().end = j + 1;
    } else {
      row_spans_.push_back({j, j + 1});
    }
  }
  prow[col] = 1.0;
  for (const int i : col_nz_) {
    if (i == row) continue;
    double* irow = &tab_[static_cast<std::size_t>(i) * total_];
    const double factor = irow[col];
    for (const Span& span : row_spans_) {
      for (int j = span.begin; j < span.end; ++j) irow[j] -= factor * prow[j];
    }
    irow[col] = 0.0;
  }
  if (dj_valid_) {
    const double factor = dj_[col];
    if (factor != 0.0) {
      for (const Span& span : row_spans_) {
        for (int j = span.begin; j < span.end; ++j) {
          dj_[j] -= factor * prow[j];
        }
      }
      dj_[col] = 0.0;
    }
  }
  basis_[row] = col;
  where_[col] = Where::kBasic;
  ++iterations_;
}

// Gauss-Jordan from the slack tableau [-A | I]: each basic structural
// column is pivoted into the free row (one whose slack is not basic)
// where its entry is largest. The pivots reuse pivot(), so dead rows
// stay dead, but they are not simplex iterations and are not counted.
bool SimplexSolver::refactor() {
  const std::vector<int> target = basis_;
  const std::int64_t iterations = iterations_;
  load_slack_tableau();
  for (const int col : target) {
    if (col >= n_) continue;  // a basic slack keeps its own row
    gather_column(col);
    int row = -1;
    double best = kRatioEps;
    for (const int i : col_nz_) {
      const int k = basis_[i];
      if (k < n_ || where_[k] == Where::kBasic) continue;  // row taken
      if (std::abs(tab(i, col)) > best) {
        best = std::abs(tab(i, col));
        row = i;
      }
    }
    if (row == -1) {
      // Numerically singular basis: leave a consistent slack tableau.
      build_initial_basis();
      iterations_ = iterations;
      return false;
    }
    pivot(row, col);
  }
  iterations_ = iterations;
  for (int i = 0; i < m_; ++i) {
    const int k = basis_[i];
    if (potential_[k]) continue;  // dead row: its value is never read
    const double* row = &tab_[static_cast<std::size_t>(i) * total_];
    double acc = 0.0;
    for (int j = 0; j < total_; ++j) {
      if (row[j] != 0.0 && where_[j] != Where::kBasic) {
        acc += row[j] * value_[j];
      }
    }
    value_[k] = -acc;
  }
  return true;
}

double SimplexSolver::infeasibility() const {
  double total = 0.0;
  for (int i = 0; i < m_; ++i) {
    const int k = basis_[i];
    const double v = value_[k];
    if (v < lo_[k]) total += lo_[k] - v;
    if (v > hi_[k]) total += v - hi_[k];
  }
  return total;
}

// Row `row` of the tableau reads x_B + sum_j t_j z_j = 0, so every
// feasible z satisfies c.z = 0 for c = y'[A | -I], y = row `row` of B^-1.
// Recomputing c from the original matrix keeps the tableau's drift out
// of the proof; if c.z cannot reach 0 anywhere in the bound box, no
// feasible point exists.
bool SimplexSolver::farkas_certifies(int row) const {
  // The slack block of the tableau is B^-1 (-I).
  const double* trow = &tab_[static_cast<std::size_t>(row) * total_];
  std::vector<double> c(static_cast<std::size_t>(total_), 0.0);
  double y_max = 0.0;
  for (int i = 0; i < m_; ++i) {
    const double y = -trow[n_ + i];
    if (y == 0.0) continue;
    y_max = std::max(y_max, std::abs(y));
    for (int k = a_start_[i]; k < a_start_[i + 1]; ++k) {
      c[a_entries_[k].col] += y * a_entries_[k].coef;
    }
    c[n_ + i] += y * -1.0;  // the row's slack column of -I
  }
  const double drop = kRatioEps * std::max(1.0, y_max);
  double min_cz = 0.0;
  double max_cz = 0.0;
  double c_norm = 0.0;
  for (int j = 0; j < total_; ++j) {
    const double cj = c[j];
    if (std::abs(cj) <= drop) continue;
    c_norm += std::abs(cj);
    min_cz += cj > 0.0 ? cj * lo_[j] : cj * hi_[j];
    max_cz += cj > 0.0 ? cj * hi_[j] : cj * lo_[j];
  }
  const double margin = 2.0 * options_.feas_tol * (1.0 + c_norm);
  return min_cz > margin || max_cz < -margin;
}

LpStatus SimplexSolver::primal_phase1(const Deadline& deadline) {
  const double ftol = options_.feas_tol;
  const std::int64_t budget = iteration_budget();
  std::vector<double> price(total_);
  std::vector<int> below, above;

  while (true) {
    if (deadline.expired()) return LpStatus::kTimeLimit;
    if (iterations_ - call_iter_base_ >= budget) return LpStatus::kIterLimit;

    below.clear();
    above.clear();
    for (int i = 0; i < m_; ++i) {
      const int k = basis_[i];
      if (value_[k] < lo_[k] - ftol) below.push_back(i);
      else if (value_[k] > hi_[k] + ftol) above.push_back(i);
    }
    if (below.empty() && above.empty()) return LpStatus::kOptimal;

    // Composite phase-1 pricing: D_j = d(infeasibility)/d(x_j).
    std::fill(price.begin(), price.end(), 0.0);
    for (int i : below) {
      const double* row = &tab_[static_cast<std::size_t>(i) * total_];
      for (int j = 0; j < total_; ++j) price[j] += row[j];
    }
    for (int i : above) {
      const double* row = &tab_[static_cast<std::size_t>(i) * total_];
      for (int j = 0; j < total_; ++j) price[j] -= row[j];
    }

    int entering = -1;
    int dir = 0;
    double best_score = options_.opt_tol;
    for (int j = 0; j < total_; ++j) {
      if (where_[j] == Where::kBasic) continue;
      const double d = price[j];
      const bool can_up = where_[j] == Where::kAtLower || where_[j] == Where::kFree;
      const bool can_down = where_[j] == Where::kAtUpper || where_[j] == Where::kFree;
      int cand_dir = 0;
      if (can_up && d < -best_score) cand_dir = 1;
      else if (can_down && d > best_score) cand_dir = -1;
      if (cand_dir != 0) {
        entering = j;
        dir = cand_dir;
        best_score = std::abs(d);
        if (bland_) break;  // Bland: first eligible (smallest index)
      }
    }
    if (entering == -1) return LpStatus::kInfeasible;

    // Extended ratio test: infeasible basics block at the violated bound
    // they are moving toward; feasible basics block at regular bounds; the
    // entering variable may flip to its opposite bound.
    double t_best = kInf;
    int block_row = -1;
    double block_alpha = 0.0;
    const double own_range = hi_[entering] - lo_[entering];
    if (std::isfinite(own_range)) t_best = own_range;

    gather_column(entering);
    for (const int i : col_nz_) {
      const double alpha = tab(i, entering);
      if (std::abs(alpha) <= kRatioEps) continue;
      const double g = -dir * alpha;  // growth rate of basic i w.r.t. step
      const int k = basis_[i];
      const double v = value_[k];
      double limit = kInf;
      if (v < lo_[k] - ftol) {
        if (g > 0) limit = (lo_[k] - v) / g;
      } else if (v > hi_[k] + ftol) {
        if (g < 0) limit = (hi_[k] - v) / g;
      } else if (g > kRatioEps) {
        if (std::isfinite(hi_[k])) limit = std::max(0.0, (hi_[k] - v) / g);
      } else if (g < -kRatioEps) {
        if (std::isfinite(lo_[k])) limit = std::max(0.0, (lo_[k] - v) / g);
      }
      if (limit < t_best - kTieTol ||
          (limit < t_best + kTieTol && std::abs(alpha) > std::abs(block_alpha))) {
        if (limit <= t_best + kTieTol) {
          t_best = std::min(t_best, std::max(0.0, limit));
          block_row = i;
          block_alpha = alpha;
        }
      }
    }

    if (!std::isfinite(t_best)) return LpStatus::kNumericError;

    // Apply the step.
    const double step = t_best;
    if (step != 0.0) {
      for (const int i : col_nz_) {
        value_[basis_[i]] -= dir * tab(i, entering) * step;
      }
      value_[entering] += dir * step;
      degenerate_streak_ = 0;
      bland_ = false;
    } else {
      if (++degenerate_streak_ > kBlandTrigger) bland_ = true;
    }

    if (block_row == -1) {
      // Bound flip of the entering variable.
      where_[entering] =
          dir > 0 ? Where::kAtUpper : Where::kAtLower;
      value_[entering] = dir > 0 ? hi_[entering] : lo_[entering];
      ++iterations_;
    } else {
      const int leaving = basis_[block_row];
      const double g = -dir * block_alpha;
      // Land exactly on the bound the leaving variable hit.
      if (g > 0) {
        const double bound = value_[leaving] >= hi_[leaving] - ftol
                                 ? hi_[leaving]
                                 : lo_[leaving];
        value_[leaving] = bound;
        where_[leaving] =
            bound == hi_[leaving] ? Where::kAtUpper : Where::kAtLower;
      } else {
        const double bound = value_[leaving] <= lo_[leaving] + ftol
                                 ? lo_[leaving]
                                 : hi_[leaving];
        value_[leaving] = bound;
        where_[leaving] =
            bound == lo_[leaving] ? Where::kAtLower : Where::kAtUpper;
      }
      pivot(block_row, entering);
    }
  }
}

LpStatus SimplexSolver::primal_phase2(const Deadline& deadline) {
  if (!dj_valid_) compute_reduced_costs();
  const std::int64_t budget = iteration_budget();

  while (true) {
    if (deadline.expired()) return LpStatus::kTimeLimit;
    if (iterations_ - call_iter_base_ >= budget) return LpStatus::kIterLimit;

    int entering = -1;
    int dir = 0;
    double best_score = options_.opt_tol;
    for (int j = 0; j < total_; ++j) {
      if (where_[j] == Where::kBasic) continue;
      const double d = dj_[j];
      const bool can_up = where_[j] == Where::kAtLower || where_[j] == Where::kFree;
      const bool can_down = where_[j] == Where::kAtUpper || where_[j] == Where::kFree;
      int cand_dir = 0;
      if (can_up && d < -best_score) cand_dir = 1;
      else if (can_down && d > best_score) cand_dir = -1;
      if (cand_dir != 0) {
        entering = j;
        dir = cand_dir;
        best_score = std::abs(d);
        if (bland_) break;
      }
    }
    if (entering == -1) return LpStatus::kOptimal;

    double t_best = kInf;
    int block_row = -1;
    double block_alpha = 0.0;
    const double own_range = hi_[entering] - lo_[entering];
    if (std::isfinite(own_range)) t_best = own_range;

    gather_column(entering);
    for (const int i : col_nz_) {
      const double alpha = tab(i, entering);
      if (std::abs(alpha) <= kRatioEps) continue;
      const double g = -dir * alpha;
      const int k = basis_[i];
      const double v = value_[k];
      double limit = kInf;
      if (g > kRatioEps) {
        if (std::isfinite(hi_[k])) limit = std::max(0.0, (hi_[k] - v) / g);
      } else if (g < -kRatioEps) {
        if (std::isfinite(lo_[k])) limit = std::max(0.0, (lo_[k] - v) / g);
      }
      if (limit < t_best - kTieTol ||
          (limit < t_best + kTieTol && std::abs(alpha) > std::abs(block_alpha))) {
        if (limit <= t_best + kTieTol) {
          t_best = std::min(t_best, std::max(0.0, limit));
          block_row = i;
          block_alpha = alpha;
        }
      }
    }

    if (!std::isfinite(t_best)) return LpStatus::kUnbounded;

    const double step = t_best;
    if (step != 0.0) {
      for (const int i : col_nz_) {
        value_[basis_[i]] -= dir * tab(i, entering) * step;
      }
      value_[entering] += dir * step;
      degenerate_streak_ = 0;
      bland_ = false;
    } else {
      if (++degenerate_streak_ > kBlandTrigger) bland_ = true;
    }

    if (block_row == -1) {
      where_[entering] = dir > 0 ? Where::kAtUpper : Where::kAtLower;
      value_[entering] = dir > 0 ? hi_[entering] : lo_[entering];
      ++iterations_;
    } else {
      const int leaving = basis_[block_row];
      const double g = -dir * block_alpha;
      const double bound = g > 0 ? hi_[leaving] : lo_[leaving];
      value_[leaving] = bound;
      where_[leaving] = g > 0 ? Where::kAtUpper : Where::kAtLower;
      pivot(block_row, entering);
    }
  }
}

LpStatus SimplexSolver::dual_phase(const Deadline& deadline) {
  if (!dj_valid_) compute_reduced_costs();
  const std::int64_t budget = iteration_budget();
  const double ftol = options_.feas_tol;

  while (true) {
    if (deadline.expired()) return LpStatus::kTimeLimit;
    if (iterations_ - call_iter_base_ >= budget) return LpStatus::kIterLimit;

    // Leaving: most primal-infeasible basic.
    int row = -1;
    double worst = ftol;
    bool below = false;
    for (int i = 0; i < m_; ++i) {
      const int k = basis_[i];
      const double v = value_[k];
      if (lo_[k] - v > worst) {
        worst = lo_[k] - v;
        row = i;
        below = true;
      }
      if (v - hi_[k] > worst) {
        worst = v - hi_[k];
        row = i;
        below = false;
      }
    }
    if (row == -1) {
      // Primal feasible and dual feasible: optimal (polish via phase 2 to
      // guard against tolerance drift).
      return primal_phase2(deadline);
    }

    const int leaving = basis_[row];
    const double* alpha = &tab_[static_cast<std::size_t>(row) * total_];

    // Dual ratio test. theta = dj_q / alpha_q must be <= 0 when the
    // leaving variable lands at its lower bound, >= 0 at its upper bound.
    int entering = -1;
    double best_ratio = kInf;
    double best_alpha = 0.0;
    for (int j = 0; j < total_; ++j) {
      if (where_[j] == Where::kBasic || j == leaving) continue;
      const double a = alpha[j];
      if (std::abs(a) <= kRatioEps) continue;
      bool eligible = false;
      if (below) {  // leaving lands AtLower; need theta <= 0
        eligible = (where_[j] == Where::kAtLower && a < 0.0) ||
                   (where_[j] == Where::kAtUpper && a > 0.0) ||
                   (where_[j] == Where::kFree);
      } else {  // leaving lands AtUpper; need theta >= 0
        eligible = (where_[j] == Where::kAtLower && a > 0.0) ||
                   (where_[j] == Where::kAtUpper && a < 0.0) ||
                   (where_[j] == Where::kFree);
      }
      if (!eligible) continue;
      const double ratio = std::abs(dj_[j] / a);
      if (ratio < best_ratio - kTieTol ||
          (ratio < best_ratio + kTieTol && std::abs(a) > std::abs(best_alpha))) {
        best_ratio = ratio;
        best_alpha = a;
        entering = j;
      }
    }
    if (entering == -1) {
      infeasible_row_ = row;
      return LpStatus::kInfeasible;
    }

    const double target = below ? lo_[leaving] : hi_[leaving];
    const double delta_leaving = target - value_[leaving];
    const double delta_entering = -delta_leaving / alpha[entering];

    gather_column(entering);
    for (const int i : col_nz_) {
      if (i != row) value_[basis_[i]] -= tab(i, entering) * delta_entering;
    }
    value_[entering] += delta_entering;
    value_[leaving] = target;
    where_[leaving] = below ? Where::kAtLower : Where::kAtUpper;
    pivot(row, entering);
  }
}

LpResult SimplexSolver::finish(LpStatus status) {
  LpResult result;
  result.status = status;
  result.iterations = iterations_;
  result.x = structural_values();
  double obj = 0.0;
  for (int j = 0; j < n_; ++j) obj += cost_[j] * value_[j];
  result.objective = sense_flip_ * obj;
  return result;
}

LpResult SimplexSolver::solve() {
  Deadline deadline(options_.time_limit_s);
  call_iter_base_ = iterations_;
  build_initial_basis();
  LpStatus status = primal_phase1(deadline);
  if (status == LpStatus::kOptimal) {
    compute_reduced_costs();
    status = primal_phase2(deadline);
  }
  // Phase 2 pivots may push a basic variable out of bounds via
  // accumulated error (the explicit tableau drifts over thousands of
  // pivots on dense models). Repair by rebuilding the tableau of the
  // current basis, so the values are no longer drifted, then re-running
  // phase 1 from that basis -- it restores feasibility in a few pivots --
  // and re-optimizing; declare a numeric error only if two repairs fail.
  for (int repair = 0;
       repair < 2 && status == LpStatus::kOptimal &&
       infeasibility() > 64 * options_.feas_tol;
       ++repair) {
    if (!refactor()) {
      status = LpStatus::kNumericError;
      break;
    }
    status = primal_phase1(deadline);
    if (status == LpStatus::kOptimal) {
      compute_reduced_costs();
      status = primal_phase2(deadline);
    }
  }
  if (status == LpStatus::kOptimal &&
      infeasibility() > 64 * options_.feas_tol) {
    status = LpStatus::kNumericError;
  }
  return finish(status);
}

LpResult SimplexSolver::resolve() {
  if (tab_.empty()) return solve();
  if (!dj_valid_) compute_reduced_costs();
  if (!is_dual_feasible()) return solve();
  Deadline deadline(options_.time_limit_s);
  call_iter_base_ = iterations_;
  LpStatus status = dual_phase(deadline);
  if (status == LpStatus::kNumericError) return solve();
  // A dual-simplex infeasibility claim prunes a branch-and-bound subtree:
  // trust it on a Farkas certificate, else confirm it from scratch.
  if (status == LpStatus::kInfeasible) {
    if (farkas_certifies(infeasible_row_)) {
      ++infeasible_certified_;
      return finish(status);
    }
    ++infeasible_cold_;
    return solve();
  }
  if (status == LpStatus::kOptimal && infeasibility() > 64 * options_.feas_tol) {
    return solve();
  }
  return finish(status);
}

void SimplexSolver::set_col_bounds(int col, double lo, double hi) {
  ELRR_REQUIRE(col >= 0 && col < n_, "unknown structural column ", col);
  // A basic potential's row is stale; a finite bound would make it live.
  ELRR_REQUIRE(!potential_[col] || (lo == -kInf && hi == kInf),
               "column ", col,
               " is a potential (continuous, free, zero cost); it cannot "
               "be bounded in this engine");
  set_bounds_impl(col, lo, hi);
}

void SimplexSolver::set_row_bounds(int row, double lo, double hi) {
  ELRR_REQUIRE(row >= 0 && row < m_, "unknown row ", row);
  set_bounds_impl(n_ + row, lo, hi);
}

// Index-generic bound change: `col` is either a structural column
// (< n_) or a row's slack (n_ + row). The tableau treats both
// identically, so one body serves set_col_bounds and set_row_bounds.
void SimplexSolver::set_bounds_impl(int col, double lo, double hi) {
  ELRR_REQUIRE(!(lo > hi), "empty bounds");
  lo_[col] = lo;
  hi_[col] = hi;
  if (tab_.empty()) return;  // not factorized yet; solve() will pick it up

  if (where_[col] == Where::kBasic) return;  // resolve() repairs violations

  double new_value = value_[col];
  switch (where_[col]) {
    case Where::kAtLower:
      if (std::isfinite(lo)) {
        new_value = lo;
      } else if (std::isfinite(hi)) {
        where_[col] = Where::kAtUpper;
        new_value = hi;
      } else {
        where_[col] = Where::kFree;
        new_value = 0.0;
      }
      break;
    case Where::kAtUpper:
      if (std::isfinite(hi)) {
        new_value = hi;
      } else if (std::isfinite(lo)) {
        where_[col] = Where::kAtLower;
        new_value = lo;
      } else {
        where_[col] = Where::kFree;
        new_value = 0.0;
      }
      break;
    case Where::kFree:
      if (std::isfinite(lo)) {
        where_[col] = Where::kAtLower;
        new_value = lo;
      } else if (std::isfinite(hi)) {
        where_[col] = Where::kAtUpper;
        new_value = hi;
      }
      break;
    case Where::kBasic:
      break;
  }
  const double delta = new_value - value_[col];
  if (delta != 0.0) {
    for (int i = 0; i < m_; ++i) {
      if (potential_[basis_[i]]) continue;
      const double a = tab(i, col);
      if (a != 0.0) value_[basis_[i]] -= a * delta;
    }
    value_[col] = new_value;
  }
}

SimplexSolver::State SimplexSolver::save_state() const {
  State s;
  s.tab.assign(tab_.begin(), tab_.end());
  s.basis = basis_;
  s.where = where_;
  s.value = value_;
  s.dj = dj_;
  s.lo = lo_;
  s.hi = hi_;
  s.dj_valid = dj_valid_;
  return s;
}

void SimplexSolver::restore_state(const State& state) {
  tab_.assign(state.tab.begin(), state.tab.end());
  basis_ = state.basis;
  where_ = state.where;
  value_ = state.value;
  dj_ = state.dj;
  lo_ = state.lo;
  hi_ = state.hi;
  dj_valid_ = state.dj_valid;
  bland_ = false;
  degenerate_streak_ = 0;
}

std::vector<double> SimplexSolver::structural_values() const {
  std::vector<double> x(value_.begin(), value_.begin() + n_);
  for (int j = 0; j < n_; ++j) {
    if (potential_[j]) x[j] = std::numeric_limits<double>::quiet_NaN();
  }
  return x;
}

}  // namespace elrr::lp
