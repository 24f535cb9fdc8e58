#pragma once

/// \file howard.hpp
/// Howard's policy iteration for the minimum cycle ratio, with a
/// certificate. This is the production solver: the late-evaluation
/// throughput of an RRG (core/analysis.hpp) is min(1, MCR) with tokens
/// as costs and buffers as times, and it scores every late-only
/// configuration. Lawler's parametric search (cycle_ratio.hpp) is the
/// independent oracle the property tests check it against.
///
/// Policy iteration in the min-ratio form, over the edges that stay
/// inside a strongly connected component:
///  * a policy picks one such outgoing edge per node; its functional
///    graph has exactly one cycle per component;
///  * evaluation computes each component's exact rational cycle ratio
///    C/T and a bias (node potential) per node, in integers scaled by T;
///  * improvement first switches nodes toward components with smaller
///    ratios, then (within equal ratios) along edges that lower the
///    bias. Termination: the (ratio, bias) pair improves lexically.
/// All arithmetic is exact int64; a round cap of 10n + 64 is a safety
/// net that returns the best cycle seen.
///
/// Certificate: the answer C/T is checked before it is returned. The
/// reported cycle must be a cycle of the graph summing to C and T, and
/// the difference constraints with weights cost(e) T - C time(e) must be
/// feasible, i.e. no cycle has a smaller ratio. A failed certificate is
/// an InternalError: the result is never silently wrong.
///
/// Contract: integer costs, non-negative integer times, at least one
/// cycle, no zero-time cycle, and magnitudes that keep the int64
/// arithmetic exact: sum |cost| < 2^31, sum time < 2^31, and
/// (n + 2) * 2 * sum |cost| * sum time < 2^63, the largest Bellman-Ford
/// distance the certificate can reach. All are checked (InvalidInputError).
/// Works on arbitrary graphs: nodes off every cycle are ignored.

#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"

namespace elrr::graph {

struct HowardResult {
  double ratio = 0.0;  ///< cycle_cost / cycle_time, correctly rounded
  std::vector<EdgeId> critical_cycle;
  std::int64_t cycle_cost = 0;  ///< exact sums on the critical cycle
  std::int64_t cycle_time = 0;
  int iterations = 0;           ///< policy-evaluation rounds
};

HowardResult howard_min_cycle_ratio(const Digraph& g,
                                    const std::vector<std::int64_t>& cost,
                                    const std::vector<std::int64_t>& time);

/// The certificate: true iff `cycle` is a directed cycle of `g` whose
/// costs sum to `cycle_cost` and times to `cycle_time` > 0, and no cycle
/// of `g` has a ratio below cycle_cost / cycle_time (one
/// solve_difference_constraints on cost(e) * cycle_time -
/// cycle_cost * time(e)). Same contract as howard_min_cycle_ratio.
bool certify_min_cycle_ratio(const Digraph& g,
                             const std::vector<std::int64_t>& cost,
                             const std::vector<std::int64_t>& time,
                             const std::vector<EdgeId>& cycle,
                             std::int64_t cycle_cost,
                             std::int64_t cycle_time);

}  // namespace elrr::graph
