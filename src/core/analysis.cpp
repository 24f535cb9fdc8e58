#include "core/analysis.hpp"

#include <algorithm>
#include <optional>

#include "core/tgmg.hpp"
#include "graph/howard.hpp"
#include "graph/topo.hpp"
#include "support/error.hpp"

namespace elrr {

namespace {

/// The minimum cycle ratio of tokens over buffers (Howard's, certified),
/// or nothing for an acyclic RRG.
std::optional<double> token_cycle_ratio(const Rrg& rrg) {
  rrg.validate();
  const bool acyclic =
      graph::topological_order(rrg.graph(), [](EdgeId) { return true; })
          .has_value();
  if (acyclic) return std::nullopt;

  std::vector<std::int64_t> cost, time;
  cost.reserve(rrg.num_edges());
  time.reserve(rrg.num_edges());
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    cost.push_back(rrg.tokens(e));
    time.push_back(rrg.buffers(e));
  }
  return graph::howard_min_cycle_ratio(rrg.graph(), cost, time).ratio;
}

bool is_late_only(const Rrg& rrg) {
  for (NodeId n = 0; n < rrg.num_nodes(); ++n) {
    if (rrg.is_early(n) || rrg.is_telescopic(n)) return false;
  }
  return true;
}

}  // namespace

double late_eval_throughput(const Rrg& rrg) {
  // Acyclic graphs are not token limited.
  const std::optional<double> ratio = token_cycle_ratio(rrg);
  return ratio.has_value() ? std::min(1.0, *ratio) : 1.0;
}

RcEvaluation evaluate_config(const Rrg& rrg, const RrConfig& config) {
  return evaluate_rrg(apply_config(rrg, config));
}

RcEvaluation evaluate_rrg(const Rrg& rrg) {
  RcEvaluation eval;
  const CycleTimeResult ct = cycle_time(rrg);
  ELRR_ASSERT(ct.valid, "live RRG cannot have a zero-buffer cycle");
  eval.tau = ct.tau;
  if (is_late_only(rrg)) {
    // Procedure 1 turns a late-only RRG into a plain marked graph whose
    // node delays are buffer counts, so the optimum of LP (11) is the
    // minimum cycle ratio of tokens over buffers, and R >= R0 keeps it at
    // or below 1: late_eval_throughput's value, without the LP's
    // rounding noise.
    const std::optional<double> ratio = token_cycle_ratio(rrg);
    ELRR_REQUIRE(ratio.has_value(),
                 "throughput LP unbounded: the RRG has no token-limited cycle");
    eval.theta_lp = *ratio;
  } else {
    eval.theta_lp = throughput_upper_bound(rrg);
  }
  eval.xi_lp = effective_cycle_time(eval.tau, eval.theta_lp);
  return eval;
}

}  // namespace elrr
