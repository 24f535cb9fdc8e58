#pragma once

/// \file cycle_ratio.hpp
/// Minimum cycle ratio: min over directed cycles C of
///   sum_{e in C} cost(e) / sum_{e in C} time(e),   time >= 0.
///
/// For a strongly connected marked graph (no early evaluation) with
/// tokens R0' as costs and buffer counts R' as times, the steady-state
/// throughput equals min(1, MCR).
///
/// Implemented with Lawler's parametric search (binary search on the ratio
/// with Bellman-Ford negative-cycle detection), followed by an exact
/// rational snap when costs and times are integers. This is the test
/// oracle: production scores late-only configurations with Howard's
/// certified policy iteration (howard.hpp), and the property tests check
/// that the two agree bit for bit.

#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"

namespace elrr::graph {

struct CycleRatioResult {
  double ratio = 0.0;
  std::vector<EdgeId> critical_cycle;  ///< a cycle achieving the ratio
  std::int64_t cycle_cost = 0;         ///< exact integer sums on that cycle
  std::int64_t cycle_time = 0;
};

/// Exact minimum cycle ratio for integer costs/times.
/// Requirements: the graph has at least one cycle; `time` is non-negative
/// and every directed cycle has positive total time (no zero-time cycles).
/// Both are validated (zero-time-cycle detection runs first).
CycleRatioResult min_cycle_ratio(const Digraph& g,
                                 const std::vector<std::int64_t>& cost,
                                 const std::vector<std::int64_t>& time);

}  // namespace elrr::graph
