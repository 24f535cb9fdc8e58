/// \file late_throughput_test.cpp
/// evaluate_rrg scores a late-only RRG (no early, no telescopic node)
/// with the certified Howard cycle ratio instead of the throughput LP
/// (11). These tests pin the contract: bit-identical to
/// late_eval_throughput, within 1e-9 of the LP, the LP's bits for every
/// other RRG, Howard equal to Lawler's parametric search bit for bit, and
/// a certificate that refuses a ratio that is not minimal.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench89/generator.hpp"
#include "core/analysis.hpp"
#include "core/figures.hpp"
#include "core/opt.hpp"
#include "core/tgmg.hpp"
#include "flow/circuit_flow.hpp"
#include "graph/cycle_ratio.hpp"
#include "graph/howard.hpp"
#include "graph/scc.hpp"
#include "graph/topo.hpp"
#include "heur/heuristic.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace elrr {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The late-only contract on one RRG: evaluate_rrg's theta is
/// late_eval_throughput's, bit for bit, and the LP's within 1e-9.
void expect_cycle_ratio_theta(const Rrg& rrg, const std::string& label) {
  const double theta = evaluate_rrg(rrg).theta_lp;
  EXPECT_EQ(bits(theta), bits(late_eval_throughput(rrg))) << label;
  const ThroughputBound lp = tgmg_throughput_bound(refined_tgmg(rrg));
  ASSERT_TRUE(lp.bounded) << label;
  EXPECT_NEAR(theta, lp.theta, 1e-9) << label;
}

/// A random late-only RRG: a ring (so it is strongly connected) with
/// R >= R0 everywhere, plus chords that give nodes several inputs.
Rrg random_late_rrg(Rng& rng) {
  const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 14));
  Rrg rrg;
  for (std::size_t i = 0; i < n; ++i) rrg.add_node("", rng.uniform(0.5, 5.0));
  for (std::size_t i = 0; i < n; ++i) {
    const int tokens = static_cast<int>(rng.uniform_int(i == 0 ? 1 : 0, 2));
    rrg.add_edge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n),
                 tokens, tokens + static_cast<int>(rng.uniform_int(0, 3)));
  }
  const std::size_t extra = static_cast<std::size_t>(rng.uniform_int(0, 2 * n));
  for (std::size_t k = 0; k < extra; ++k) {
    const auto u = static_cast<NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const auto v = static_cast<NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const int tokens = static_cast<int>(rng.uniform_int(u == v ? 1 : 0, 3));
    rrg.add_edge(u, v, tokens, tokens + static_cast<int>(rng.uniform_int(0, 3)));
  }
  return rrg;
}

TEST(LateThroughput, RandomLateOnlyRrgsScoreTheCycleRatio) {
  Rng rng(20091);
  int checked = 0;
  for (int attempt = 0; checked < 200; ++attempt) {
    ASSERT_LT(attempt, 2000) << "too few live random instances";
    const Rrg rrg = random_late_rrg(rng);
    if (!rrg.is_live()) continue;
    expect_cycle_ratio_theta(rrg, "attempt " + std::to_string(attempt));
    ++checked;
  }
}

TEST(LateThroughput, LargeCircuitProbesScoreTheCycleRatio) {
  // The all-simple identities of the heuristic-only circuits and every
  // configuration their late heuristic keeps.
  for (const char* circuit : {"s344", "s641", "s953"}) {
    const Rrg rrg = as_all_simple(
        bench89::make_table2_rrg(bench89::spec_by_name(circuit), 1));
    expect_cycle_ratio_theta(rrg, circuit);
    HeuristicOptions small = flow::scaled_heuristic(rrg);
    small.max_lp_evals = 40;
    const HeuristicResult heur = heur_eff_cyc(rrg, small);
    for (const ParetoPoint& point : heur.points) {
      const Rrg probe = apply_config(rrg, point.config);
      expect_cycle_ratio_theta(probe, circuit);
      EXPECT_EQ(bits(point.theta_lp), bits(evaluate_rrg(probe).theta_lp))
          << circuit;
    }
  }
}

TEST(LateThroughput, EarlyAndTelescopicRrgsKeepTheLpBits) {
  const Rrg early = figures::figure1b(0.5, true);
  EXPECT_EQ(bits(evaluate_rrg(early).theta_lp),
            bits(throughput_upper_bound(early)));
  const Rrg s344 = bench89::make_table2_rrg(bench89::spec_by_name("s344"), 1);
  EXPECT_EQ(bits(evaluate_rrg(s344).theta_lp),
            bits(throughput_upper_bound(s344)));

  // One telescopic node is enough to keep the LP: Procedure 1 gives it a
  // fractional delay and a throttle loop.
  Rng rng(77);
  int checked = 0;
  for (int attempt = 0; checked < 20; ++attempt) {
    ASSERT_LT(attempt, 400);
    Rrg rrg = random_late_rrg(rng);
    if (!rrg.is_live()) continue;
    rrg.set_telescopic(0, 0.7, 2);
    EXPECT_EQ(bits(evaluate_rrg(rrg).theta_lp),
              bits(throughput_upper_bound(rrg)))
        << "attempt " << attempt;
    ++checked;
  }
}

TEST(LateThroughput, AcyclicLateOnlyRrgRaisesTheLpError) {
  Rrg rrg;
  const NodeId a = rrg.add_node("a", 1.0);
  const NodeId b = rrg.add_node("b", 2.0);
  rrg.add_edge(a, b, 0, 1);
  EXPECT_DOUBLE_EQ(late_eval_throughput(rrg), 1.0);
  try {
    evaluate_rrg(rrg);
    FAIL() << "an acyclic RRG has no throughput bound";
  } catch (const InvalidInputError& error) {
    EXPECT_NE(std::string(error.what()).find("throughput LP unbounded"),
              std::string::npos)
        << error.what();
  }
}

TEST(LateThroughput, PinnedLateHeuristicOnS344) {
  // The late-evaluation heuristic of the flow on all-simple s344: its
  // probe count and best effective cycle time, to the last bit. Scoring
  // its probes with the throughput LP gave the same two values.
  const Rrg rrg = as_all_simple(
      bench89::make_table2_rrg(bench89::spec_by_name("s344"), 1));
  const HeuristicResult heur = heur_eff_cyc(rrg, flow::scaled_heuristic(rrg));
  char best[64];
  std::snprintf(best, sizeof(best), "%a", heur.best().xi_lp);
  EXPECT_EQ(heur.lp_evals, 295);
  EXPECT_EQ(std::string(best), "0x1.2172fc5c76c48p+6");
}

// ------------------------------------------------------------ Howard

struct RandomGraph {
  graph::Digraph g{0};
  std::vector<std::int64_t> cost, time;
};

/// Random edges between random nodes -- often several SCCs, some nodes
/// off every cycle. Zero-time edges only point forward, so no cycle has
/// zero time.
RandomGraph random_graph(Rng& rng) {
  RandomGraph out;
  const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 39));
  out.g = graph::Digraph(n);
  const std::size_t m = static_cast<std::size_t>(rng.uniform_int(1, 3 * n));
  for (std::size_t k = 0; k < m; ++k) {
    const auto u = static_cast<NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const auto v = static_cast<NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    out.g.add_edge(u, v);
    out.cost.push_back(rng.uniform_int(-4, 9));
    out.time.push_back(u < v ? rng.uniform_int(0, 5) : rng.uniform_int(1, 5));
  }
  return out;
}

TEST(HowardCertified, AgreesWithLawlerBitForBit) {
  Rng rng(4242);
  int checked = 0;
  int split = 0;
  for (int attempt = 0; checked < 400; ++attempt) {
    ASSERT_LT(attempt, 4000);
    const RandomGraph r = random_graph(rng);
    if (graph::topological_order(r.g, [](EdgeId) { return true; })) {
      EXPECT_THROW(graph::howard_min_cycle_ratio(r.g, r.cost, r.time),
                   InvalidInputError);
      continue;  // acyclic: no ratio to compare
    }
    const auto lawler = graph::min_cycle_ratio(r.g, r.cost, r.time);
    const auto howard = graph::howard_min_cycle_ratio(r.g, r.cost, r.time);
    EXPECT_EQ(bits(howard.ratio), bits(lawler.ratio))
        << "attempt " << attempt << ": howard " << howard.cycle_cost << "/"
        << howard.cycle_time << ", lawler " << lawler.cycle_cost << "/"
        << lawler.cycle_time;
    EXPECT_TRUE(graph::certify_min_cycle_ratio(r.g, r.cost, r.time,
                                               howard.critical_cycle,
                                               howard.cycle_cost,
                                               howard.cycle_time));
    ++checked;
    split += graph::strongly_connected_components(r.g).num_components > 1;
  }
  EXPECT_GT(split, 100) << "too few graphs that are not strongly connected";
}

TEST(HowardCertified, CertificateRefusesARatioThatIsNotMinimal) {
  // Two cycles through node 0: 0->1->0 at 2/2 and 0->2->0 at 1/3.
  graph::Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(0, 2);
  g.add_edge(2, 0);
  const std::vector<std::int64_t> cost{1, 1, 1, 0};
  const std::vector<std::int64_t> time{1, 1, 1, 2};
  EXPECT_TRUE(graph::certify_min_cycle_ratio(g, cost, time, {2, 3}, 1, 3));
  // The other cycle is a cycle, but its ratio 1 is not the minimum.
  EXPECT_FALSE(graph::certify_min_cycle_ratio(g, cost, time, {0, 1}, 2, 2));
  // A minimal ratio claimed for a cycle that does not sum to it.
  EXPECT_FALSE(graph::certify_min_cycle_ratio(g, cost, time, {0, 1}, 1, 3));
  // Edges that do not close a cycle.
  EXPECT_FALSE(graph::certify_min_cycle_ratio(g, cost, time, {0, 2}, 2, 2));
  EXPECT_FALSE(graph::certify_min_cycle_ratio(g, cost, time, {}, 1, 3));
  const auto howard = graph::howard_min_cycle_ratio(g, cost, time);
  EXPECT_EQ(howard.cycle_cost, 1);
  EXPECT_EQ(howard.cycle_time, 3);
}

TEST(HowardCertified, RejectsMagnitudesThatCouldOverflow) {
  graph::Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  constexpr std::int64_t kBig = std::int64_t{1} << 31;
  EXPECT_THROW(graph::howard_min_cycle_ratio(g, {kBig, 0}, {1, 1}),
               InvalidInputError);
  EXPECT_THROW(graph::howard_min_cycle_ratio(g, {1, 1}, {kBig - 1, 1}),
               InvalidInputError);
  EXPECT_THROW(graph::howard_min_cycle_ratio(g, {-kBig, 1}, {1, 1}),
               InvalidInputError);
  EXPECT_THROW(graph::certify_min_cycle_ratio(g, {kBig, 0}, {1, 1}, {0, 1},
                                              kBig, 2),
               InvalidInputError);
  // Below each sum's limit but past the certificate's distance bound.
  EXPECT_THROW(graph::howard_min_cycle_ratio(g, {kBig / 2, 1}, {kBig / 2, 1}),
               InvalidInputError);
  // Just inside every bound.
  const auto ok = graph::howard_min_cycle_ratio(g, {3, 4}, {kBig / 1024, 1});
  EXPECT_EQ(ok.cycle_cost, 7);
}

}  // namespace
}  // namespace elrr
