/// \file integration_test.cpp
/// Cross-module integration checks: the documentation example parses to
/// the paper's figure, presolve leaves the real RR MILPs' optima intact,
/// and the three MCR oracles agree with the analysis layer on suite
/// circuits.

#include <gtest/gtest.h>

#include <algorithm>

#include "bench89/generator.hpp"
#include "core/analysis.hpp"
#include "core/figures.hpp"
#include "core/opt.hpp"
#include "graph/cycle_ratio.hpp"
#include "graph/howard.hpp"
#include "io/rrg_format.hpp"

namespace elrr {
namespace {

TEST(Integration, DocsFormatExampleIsFigure2) {
  // The example document in docs/rrg-format.md must parse to the
  // paper's figure 2 (alpha = 0.9) -- keeps the docs honest.
  const io::NamedRrg named = io::read_rrg(R"(
rrg figure2
node m  delay=0 early
node F1 delay=1
node F2 delay=1
node F3 delay=1
node f  delay=0
edge m  F1 tokens=1 buffers=1
edge F1 F2 tokens=1 buffers=1
edge F2 F3 tokens=1 buffers=1
edge F3 f  tokens=0 buffers=0
edge f  m  tokens=1 buffers=1 gamma=0.9   # top channel
edge f  m  tokens=-2 buffers=0 gamma=0.1  # bottom, two anti-tokens
)");
  const Rrg reference = figures::figure2(0.9);
  ASSERT_EQ(named.rrg.num_nodes(), reference.num_nodes());
  ASSERT_EQ(named.rrg.num_edges(), reference.num_edges());
  const RcEvaluation parsed = evaluate_rrg(named.rrg);
  const RcEvaluation expected = evaluate_rrg(reference);
  EXPECT_NEAR(parsed.tau, expected.tau, 1e-12);
  EXPECT_NEAR(parsed.theta_lp, expected.theta_lp, 1e-9);
  EXPECT_NEAR(parsed.theta_lp, figures::figure2_throughput(0.9), 1e-9);
}

TEST(Integration, PresolvePreservesRrMilpOptima) {
  // The RR MILPs carry pinned columns (r(0), sigma(0)) and singleton
  // rows; presolve must not change MIN_CYC / MAX_THR answers.
  for (const char* name : {"s208", "s27"}) {
    const Rrg rrg =
        bench89::make_table2_rrg(bench89::spec_by_name(name), 1);
    OptOptions plain;
    plain.milp.time_limit_s = 20.0;
    OptOptions pre = plain;
    pre.milp.presolve = true;
    const RcSolveResult a = min_cyc(rrg, 1.0, plain);
    const RcSolveResult b = min_cyc(rrg, 1.0, pre);
    ASSERT_TRUE(a.feasible);
    ASSERT_TRUE(b.feasible);
    if (a.exact && b.exact) {
      EXPECT_NEAR(a.objective, b.objective, 1e-6) << name;
    }
    std::string why;
    EXPECT_TRUE(validate_config(rrg, b.config, &why)) << name << ": " << why;
  }
}

TEST(Integration, HowardAgreesWithLateThroughputOnSuiteCircuits) {
  // late_eval_throughput (Howard under the hood) vs Lawler's parametric
  // search, the oracle, on the real token/buffer structures of the
  // Table-2 circuits: the same exact ratio, so the same double.
  for (const char* name : {"s208", "s27", "s838", "s420", "s382"}) {
    const Rrg rrg =
        bench89::make_table2_rrg(bench89::spec_by_name(name), 1);
    std::vector<std::int64_t> cost, time;
    for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
      cost.push_back(rrg.tokens(e));
      time.push_back(rrg.buffers(e));
    }
    // Liveness guarantees every cycle has a token, hence a buffer, hence
    // positive cycle time: both solvers' precondition holds.
    const auto howard =
        graph::howard_min_cycle_ratio(rrg.graph(), cost, time);
    const auto lawler = graph::min_cycle_ratio(rrg.graph(), cost, time);
    const double late = late_eval_throughput(rrg);
    EXPECT_EQ(late, std::min(1.0, lawler.ratio)) << name;
    EXPECT_EQ(howard.ratio, lawler.ratio) << name;
  }
}

TEST(Integration, OptimizedConfigSurvivesSerializationAndReanalysis) {
  // optimize -> apply -> write -> read -> evaluate: identical metrics.
  const Rrg rrg = bench89::make_table2_rrg(bench89::spec_by_name("s208"), 2);
  OptOptions opt;
  opt.milp.time_limit_s = 10.0;
  const MinEffCycResult result = min_eff_cyc(rrg, opt);
  const Rrg tuned = apply_config(rrg, result.best().config);
  const io::NamedRrg back = io::read_rrg(io::write_rrg(tuned, "tuned"));
  const RcEvaluation direct = evaluate_rrg(tuned);
  const RcEvaluation reloaded = evaluate_rrg(back.rrg);
  EXPECT_NEAR(direct.tau, reloaded.tau, 1e-12);
  EXPECT_NEAR(direct.theta_lp, reloaded.theta_lp, 1e-9);
}

}  // namespace
}  // namespace elrr
