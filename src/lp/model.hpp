#pragma once

/// \file model.hpp
/// LP/MILP modeling layer. A model is a list of bounded columns
/// (variables, optionally integer) and bounded rows (linear constraints
/// L <= a.x <= U). This is the interface the DAC'09 formulations
/// (MIN_CYC / MAX_THR) are built on; the paper used CPLEX, ElasticRR ships
/// its own solver (see simplex.hpp / milp.hpp).

#include <limits>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace elrr::lp {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

enum class Sense { kMinimize, kMaximize };

struct ColEntry {
  int col = 0;
  double coef = 0.0;
};

struct Column {
  double lo = 0.0;
  double hi = kInf;
  double obj = 0.0;
  bool is_integer = false;
  std::string name;

  /// Continuous, free on both sides and absent from the objective: the
  /// simplex does not keep the value of such a column (simplex.hpp).
  bool is_potential() const {
    return !is_integer && lo == -kInf && hi == kInf && obj == 0.0;
  }
};

struct Row {
  double lo = -kInf;
  double hi = kInf;
  std::vector<ColEntry> entries;
  std::string name;
};

/// A mixed-integer linear program.
class Model {
 public:
  Sense sense() const { return sense_; }
  void set_sense(Sense s) { sense_ = s; }

  /// Adds a variable with bounds [lo, hi] and objective coefficient obj.
  int add_col(double lo, double hi, double obj, bool is_integer = false,
              std::string name = {});

  /// Adds a constraint lo <= sum(entries) <= hi. Duplicate column indices
  /// within one row are merged by summing coefficients.
  int add_row(double lo, double hi, std::vector<ColEntry> entries,
              std::string name = {});

  void set_col_bounds(int col, double lo, double hi);
  void set_row_bounds(int row, double lo, double hi);
  void set_obj(int col, double coef);

  int num_cols() const { return static_cast<int>(cols_.size()); }
  int num_rows() const { return static_cast<int>(rows_.size()); }
  const Column& col(int j) const { return cols_[static_cast<std::size_t>(j)]; }
  const Row& row(int i) const { return rows_[static_cast<std::size_t>(i)]; }

  bool has_integers() const;

  /// Structural checks: finite coefficients, consistent bounds, indices in
  /// range. Throws InvalidInputError on violation.
  void validate() const;

  /// Objective value of a given point (no feasibility check).
  double objective_value(const std::vector<double>& x) const;

  /// Maximum row-activity violation and integrality violation of a point;
  /// used by tests and by the solvers' postconditions.
  double max_infeasibility(const std::vector<double>& x) const;

  /// CPLEX LP-format-like rendering for debugging small models.
  std::string to_lp_format() const;

 private:
  Sense sense_ = Sense::kMinimize;
  std::vector<Column> cols_;
  std::vector<Row> rows_;
};

}  // namespace elrr::lp
