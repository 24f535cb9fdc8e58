#pragma once

/// \file analysis.hpp
/// Configuration-level performance metrics:
///  * exact late-evaluation throughput (marked-graph minimum cycle ratio),
///  * LP throughput bound (via tgmg.hpp),
///  * combined tau / theta_lp / xi_lp evaluation of an RC.

#include "core/rrg.hpp"

namespace elrr {

/// Exact steady-state throughput of the RRG *ignoring early evaluation*
/// (all nodes late): min(1, min cycle ratio of tokens/buffers), computed
/// by Howard's policy iteration and certified (graph/howard.hpp), so it
/// is the correctly rounded value of the exact rational ratio.
/// For an acyclic RRG nothing limits the token rate and the result is 1.
double late_eval_throughput(const Rrg& rrg);

/// tau, theta_lp and xi_lp of one configuration (Table 1's columns).
///
/// theta_lp is the optimum of the throughput LP (11), Theta_lp(RC). For a
/// late-only RRG (no early and no telescopic node) that optimum is
/// exactly the minimum cycle ratio of tokens over buffers, and theta_lp
/// is late_eval_throughput(rrg), bit for bit: no LP is solved. Every
/// other RRG gets throughput_upper_bound(rrg) (tgmg.hpp), bit for bit.
struct RcEvaluation {
  double tau = 0.0;
  double theta_lp = 0.0;
  double xi_lp = 0.0;  ///< tau / theta_lp
};

/// Evaluates `config` against `rrg` (validates it first).
RcEvaluation evaluate_config(const Rrg& rrg, const RrConfig& config);

/// Evaluates the RRG's own configuration. Like throughput_upper_bound,
/// throws InvalidInputError ("throughput LP unbounded") for an RRG with
/// no cycle.
RcEvaluation evaluate_rrg(const Rrg& rrg);

}  // namespace elrr
