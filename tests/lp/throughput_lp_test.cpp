/// \file throughput_lp_test.cpp
/// build_throughput_lp eliminates the firing count of every chained TGMG
/// node -- a simple node whose only input edge is not a self-loop -- by
/// substituting its tight value along the chain. The elimination is
/// exact, so these tests hold the contracted LP's optimum to the full LP
/// (11), which keeps one firing count per node and is built here as the
/// oracle. The drift-repair tests sit here too: the throughput LPs on
/// which a drifted tableau used to end the heuristic.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench89/generator.hpp"
#include "core/rrg.hpp"
#include "core/tgmg.hpp"
#include "flow/circuit_flow.hpp"
#include "heur/heuristic.hpp"
#include "lp/milp.hpp"
#include "lp/mps.hpp"
#include "lp/simplex.hpp"
#include "support/rng.hpp"

namespace elrr {
namespace {

/// LP (11) with one firing count sigma(n) per TGMG node, sigma of node 0
/// pinned: the throughput LP before chain elimination.
lp::Model full_throughput_lp(const Tgmg& tgmg) {
  tgmg.validate();
  const Digraph& g = tgmg.graph();
  lp::Model model;
  model.set_sense(lp::Sense::kMaximize);
  const int phi = model.add_col(0.0, lp::kInf, 1.0, false, "phi");
  std::vector<int> sigma(tgmg.num_nodes());
  for (NodeId n = 0; n < tgmg.num_nodes(); ++n) {
    sigma[n] = model.add_col(-lp::kInf, lp::kInf, 0.0, false,
                             "sigma_" + tgmg.name(n));
  }
  if (!sigma.empty()) model.set_col_bounds(sigma[0], 0.0, 0.0);
  for (NodeId n = 0; n < tgmg.num_nodes(); ++n) {
    if (g.in_degree(n) == 0) continue;
    if (!tgmg.is_early(n)) {
      for (EdgeId e : g.in_edges(n)) {
        model.add_row(-lp::kInf, static_cast<double>(tgmg.tokens(e)),
                      {{phi, tgmg.delay(n)},
                       {sigma[g.src(e)], -1.0},
                       {sigma[n], 1.0}});
      }
    } else {
      std::vector<lp::ColEntry> entries{{phi, tgmg.delay(n)}};
      double rhs = 0.0;
      for (EdgeId e : g.in_edges(n)) {
        rhs += tgmg.gamma(e) * static_cast<double>(tgmg.tokens(e));
        entries.push_back({sigma[g.src(e)], -tgmg.gamma(e)});
        entries.push_back({sigma[n], tgmg.gamma(e)});
      }
      model.add_row(-lp::kInf, rhs, std::move(entries));
    }
  }
  return model;
}

double optimum(const lp::Model& model, const std::string& label) {
  const lp::MilpResult r = lp::solve_milp(model);
  EXPECT_EQ(r.status, lp::MilpStatus::kOptimal) << label;
  return r.objective;
}

/// The contracted LP's optimum is the full LP's within 1e-9 relative.
double expect_oracle_theta(const Tgmg& tgmg, const std::string& label) {
  const double contracted = optimum(build_throughput_lp(tgmg).model, label);
  const double full = optimum(full_throughput_lp(tgmg), label);
  EXPECT_NEAR(contracted, full, 1e-9 * std::abs(full)) << label;
  return contracted;
}

/// A random RRG: a ring (strongly connected, live through edge 0) plus
/// chords; nodes with several inputs turn early, and some nodes
/// telescopic, so every refinement step of Procedures 1 and 2 shows up.
Rrg random_rrg(Rng& rng) {
  const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 14));
  Rrg rrg;
  for (std::size_t i = 0; i < n; ++i) rrg.add_node("", rng.uniform(0.5, 5.0));
  for (std::size_t i = 0; i < n; ++i) {
    const int tokens = static_cast<int>(rng.uniform_int(i == 0 ? 1 : 0, 2));
    rrg.add_edge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n),
                 tokens, tokens + static_cast<int>(rng.uniform_int(0, 3)));
  }
  const std::size_t extra = static_cast<std::size_t>(rng.uniform_int(0, n));
  for (std::size_t k = 0; k < extra; ++k) {
    const auto u = static_cast<NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const auto v = static_cast<NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const int tokens = static_cast<int>(rng.uniform_int(u == v ? 1 : 0, 3));
    rrg.add_edge(u, v, tokens, tokens + static_cast<int>(rng.uniform_int(0, 3)));
  }
  const Digraph& g = rrg.graph();
  for (NodeId v = 0; v < n; ++v) {
    if (g.in_degree(v) >= 2 && rng.bernoulli(0.6)) {
      rrg.set_kind(v, NodeKind::kEarly);
      double sum = 0.0;
      std::vector<double> weights;
      for (std::size_t k = 0; k < g.in_degree(v); ++k) {
        weights.push_back(rng.uniform(0.1, 1.0));
        sum += weights.back();
      }
      for (std::size_t k = 0; k < weights.size(); ++k) {
        rrg.set_gamma(g.in_edges(v)[k], weights[k] / sum);
      }
    } else if (rng.bernoulli(0.25)) {
      rrg.set_telescopic(v, rng.uniform(0.3, 0.95),
                         static_cast<int>(rng.uniform_int(1, 3)));
    }
  }
  return rrg;
}

TEST(ThroughputLp, RandomRrgsMatchTheFullLp) {
  Rng rng(1909);
  int checked = 0;
  int early = 0;
  int telescopic = 0;
  for (int attempt = 0; checked < 200; ++attempt) {
    ASSERT_LT(attempt, 2000) << "too few live random instances";
    const Rrg rrg = random_rrg(rng);
    if (!rrg.is_live()) continue;
    rrg.validate();
    bool any_early = false;
    for (NodeId v = 0; v < rrg.num_nodes(); ++v) any_early |= rrg.is_early(v);
    early += any_early;
    telescopic += rrg.has_telescopic();
    const Tgmg tgmg = refined_tgmg(rrg);
    expect_oracle_theta(tgmg, "attempt " + std::to_string(attempt));
    EXPECT_LT(build_throughput_lp(tgmg).model.num_cols(),
              full_throughput_lp(tgmg).num_cols());
    ++checked;
  }
  EXPECT_GT(early, 50);
  EXPECT_GT(telescopic, 50);
}

TEST(ThroughputLp, HeuristicProbesOfTheLargeCircuitsMatchTheFullLp) {
  // The identities and every configuration the early-evaluation
  // heuristic keeps, on the circuits that run heuristic-only.
  for (const char* circuit : {"s344", "s641", "s953"}) {
    const Rrg rrg = bench89::make_table2_rrg(bench89::spec_by_name(circuit), 1);
    expect_oracle_theta(refined_tgmg(rrg), circuit);
    HeuristicOptions small = flow::scaled_heuristic(rrg);
    small.max_lp_evals = 40;
    const HeuristicResult heur = heur_eff_cyc(rrg, small);
    ASSERT_FALSE(heur.points.empty()) << circuit;
    for (const ParetoPoint& point : heur.points) {
      const Rrg probe = apply_config(rrg, point.config);
      const double theta = expect_oracle_theta(refined_tgmg(probe), circuit);
      EXPECT_EQ(point.theta_lp, theta) << circuit;
    }
  }
}

TEST(ThroughputLp, RingOfSingleInputNodesKeepsOneFiringCount) {
  Tgmg tgmg;
  const NodeId a = tgmg.add_node("a", 1.0);
  const NodeId b = tgmg.add_node("b", 2.0);
  const NodeId c = tgmg.add_node("c", 3.0);
  tgmg.add_edge(c, a, 1);
  tgmg.add_edge(a, b, 0);
  tgmg.add_edge(b, c, 1);
  const ThroughputLp lp = build_throughput_lp(tgmg);
  // phi and sigma(a), pinned; one row 6 phi <= 2.
  ASSERT_EQ(lp.model.num_cols(), 2);
  ASSERT_EQ(lp.model.num_rows(), 1);
  EXPECT_EQ(lp.model.col(1).name, "sigma_a");
  const lp::Row& row = lp.model.row(0);
  ASSERT_EQ(row.entries.size(), 1u);
  EXPECT_EQ(row.entries[0].col, lp.phi_col);
  EXPECT_EQ(row.entries[0].coef, 6.0);
  EXPECT_EQ(row.hi, 2.0);
  EXPECT_NEAR(expect_oracle_theta(tgmg, "ring"), 1.0 / 3.0, 1e-12);
}

TEST(ThroughputLp, TelescopicThrottleBecomesOnePhiRow) {
  Rrg rrg;
  const NodeId a = rrg.add_node("a", 1.0);
  const NodeId b = rrg.add_node("b", 1.0);
  rrg.add_edge(a, b, 1, 1);
  rrg.add_edge(b, a, 1, 1);
  rrg.set_telescopic(b, 0.5, 3);  // service 1.5: phi <= 1 / 2.5
  const ThroughputLp lp = build_throughput_lp(refined_tgmg(rrg));
  // (1 + delta(b)) phi <= 1; the ring a -> b -> a also closes on b, as
  // 3.5 phi <= 2.
  int throttles = 0;
  for (int i = 0; i < lp.model.num_rows(); ++i) {
    const lp::Row& row = lp.model.row(i);
    throttles += row.entries.size() == 1 &&
                 row.entries[0].col == lp.phi_col &&
                 row.entries[0].coef == 2.5 && row.hi == 1.0;
  }
  EXPECT_EQ(throttles, 1);
  EXPECT_NEAR(expect_oracle_theta(refined_tgmg(rrg), "throttle"), 0.4, 1e-12);
}

TEST(ThroughputLp, EarlyNodeFedThroughAChain) {
  // e evaluates early on x2 (through the chain x1 -> x2) or y; the chain
  // nodes keep no firing count of their own.
  Rrg rrg;
  const NodeId e = rrg.add_node("e", 1.0, NodeKind::kEarly);
  const NodeId x1 = rrg.add_node("x1", 1.0);
  const NodeId x2 = rrg.add_node("x2", 2.0);
  const NodeId y = rrg.add_node("y", 1.0);
  rrg.add_edge(e, x1, 1, 1);
  rrg.add_edge(x1, x2, 0, 2);
  rrg.add_edge(x2, e, 0, 1, 0.3);
  rrg.add_edge(e, y, 1, 1);
  rrg.add_edge(y, e, 0, 0, 0.7);
  const Tgmg tgmg = refined_tgmg(rrg);
  const ThroughputLp lp = build_throughput_lp(tgmg);
  for (int j = 0; j < lp.model.num_cols(); ++j) {
    const std::string& name = lp.model.col(j).name;
    EXPECT_NE(name, "sigma_x1");
    EXPECT_NE(name, "sigma_x2");
    EXPECT_NE(name, "sigma_y");
    EXPECT_EQ(name.find("/s"), std::string::npos) << name;
  }
  EXPECT_EQ(lp.model.col(1).name, "sigma_e");
  const double theta = expect_oracle_theta(tgmg, "early chain");
  EXPECT_GT(theta, 0.0);
  EXPECT_LE(theta, 1.0);
}

TEST(ThroughputLp, IdentityLpSizesOfTheLargeCircuits) {
  struct Size {
    const char* circuit;
    int rows, cols;            // contracted
    int full_rows, full_cols;  // one firing count per TGMG node
  };
  const Size sizes[] = {
      {"s953", 305, 167, 712, 574},
      {"s641", 139, 76, 424, 361},
      {"s344", 116, 63, 305, 252},
  };
  for (const Size& s : sizes) {
    const Tgmg tgmg = refined_tgmg(
        bench89::make_table2_rrg(bench89::spec_by_name(s.circuit), 1));
    const lp::Model contracted = build_throughput_lp(tgmg).model;
    const lp::Model full = full_throughput_lp(tgmg);
    EXPECT_EQ(contracted.num_rows(), s.rows) << s.circuit;
    EXPECT_EQ(contracted.num_cols(), s.cols) << s.circuit;
    EXPECT_EQ(full.num_rows(), s.full_rows) << s.circuit;
    EXPECT_EQ(full.num_cols(), s.full_cols) << s.circuit;
  }
}

// ------------------------------------------------------------ drift repair

/// The same LP with its rows in reverse order: the simplex takes another
/// pivot path to the same optimum.
lp::Model reversed_rows(const lp::Model& model) {
  lp::Model out;
  out.set_sense(model.sense());
  for (int j = 0; j < model.num_cols(); ++j) {
    const lp::Column& c = model.col(j);
    out.add_col(c.lo, c.hi, c.obj, c.is_integer, c.name);
  }
  for (int i = model.num_rows() - 1; i >= 0; --i) {
    const lp::Row& r = model.row(i);
    out.add_row(r.lo, r.hi, r.entries, r.name);
  }
  return out;
}

TEST(DriftRepair, FullThroughputLpsSolveLikeTheirReversedRows) {
  // Full throughput LPs (one firing count per TGMG node) of two early
  // heuristic probes, s1494 and s1488 at generator seeds 2 and 5. Their
  // phase 2 drifted so far from the rows that repairing from the drifted
  // values ended in a numeric error, under the default tolerances and
  // the coarser retry alike.
  for (const char* file : {"tput_s1494_seed2.mps", "tput_s1488_seed5.mps"}) {
    std::ifstream in(std::string(ELRR_LP_GOLDEN_DIR) + "/" + file);
    ASSERT_TRUE(in.good()) << "missing golden file " << file;
    std::ostringstream text;
    text << in.rdbuf();
    const lp::Model model = lp::from_mps(text.str());
    lp::SimplexSolver solver(model);
    const lp::LpResult r = solver.solve();
    lp::SimplexSolver reversed_solver(reversed_rows(model));
    const lp::LpResult reversed = reversed_solver.solve();
    ASSERT_EQ(r.status, lp::LpStatus::kOptimal) << file;
    ASSERT_EQ(reversed.status, lp::LpStatus::kOptimal) << file;
    EXPECT_NEAR(r.objective, reversed.objective, 1e-9) << file;
  }
}

TEST(DriftRepair, EarlyHeuristicRunsThatHitTheRepairComplete) {
  struct Run {
    const char* circuit;
    std::uint64_t seed;
  };
  for (const Run& run : {Run{"s1494", 2}, Run{"s1488", 5}, Run{"s1488", 1}}) {
    const Rrg rrg =
        bench89::make_table2_rrg(bench89::spec_by_name(run.circuit), run.seed);
    const HeuristicResult heur = heur_eff_cyc(rrg, flow::scaled_heuristic(rrg));
    ASSERT_FALSE(heur.points.empty()) << run.circuit << " seed " << run.seed;
    EXPECT_GT(heur.best().theta_lp, 0.0);
  }
}

}  // namespace
}  // namespace elrr
