/// \file howard_karp_test.cpp
/// Howard policy iteration (the production minimum-cycle-ratio solver)
/// and Karp minimum mean cycle, cross-checked against Lawler's
/// parametric search (cycle_ratio.hpp, the oracle) on hand cases and
/// random graphs.

#include <gtest/gtest.h>

#include "graph/cycle_ratio.hpp"
#include "graph/howard.hpp"
#include "graph/karp.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace elrr::graph {
namespace {

TEST(Howard, SingleLoop) {
  Digraph g(1);
  g.add_edge(0, 0);
  const auto r = howard_min_cycle_ratio(g, {3}, {4});
  EXPECT_DOUBLE_EQ(r.ratio, 0.75);
  EXPECT_EQ(r.cycle_cost, 3);
  EXPECT_EQ(r.cycle_time, 4);
  EXPECT_EQ(r.critical_cycle.size(), 1u);
}

TEST(Howard, PicksSmallerOfTwoCycles) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(0, 2);
  g.add_edge(2, 0);
  const auto r = howard_min_cycle_ratio(g, {1, 1, 1, 0}, {1, 1, 1, 2});
  EXPECT_NEAR(r.ratio, 1.0 / 3.0, 1e-12);
}

TEST(Howard, NegativeCostsAllowed) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  const auto r = howard_min_cycle_ratio(g, {3, -2}, {2, 1});
  EXPECT_NEAR(r.ratio, 1.0 / 3.0, 1e-12);
}

TEST(Howard, MultipleSccs) {
  // Two disjoint rings; the second has the smaller ratio.
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(2, 3);
  g.add_edge(3, 2);
  const auto r = howard_min_cycle_ratio(g, {2, 2, 1, 0}, {1, 1, 2, 2});
  EXPECT_NEAR(r.ratio, 0.25, 1e-12);
  EXPECT_EQ(r.cycle_cost, 1);
  EXPECT_EQ(r.cycle_time, 4);
}

TEST(Howard, RejectsZeroTimeCycle) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  EXPECT_THROW(howard_min_cycle_ratio(g, {1, 1}, {0, 0}), elrr::Error);
}

TEST(Howard, RejectsAcyclicGraph) {
  Digraph g(2);
  g.add_edge(0, 1);
  EXPECT_THROW(howard_min_cycle_ratio(g, {1}, {1}), elrr::Error);
}

TEST(Karp, SingleLoop) {
  Digraph g(1);
  g.add_edge(0, 0);
  const auto r = karp_min_mean_cycle(g, {5});
  EXPECT_DOUBLE_EQ(r.mean, 5.0);
  EXPECT_EQ(r.cycle_length, 1);
}

TEST(Karp, PicksSmallerMean) {
  // Ring 0->1->0 mean 3/2; self-loop at 2... not connected to the ring:
  // separate SCCs both considered.
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(2, 2);
  const auto r = karp_min_mean_cycle(g, {1, 2, 1});
  EXPECT_DOUBLE_EQ(r.mean, 1.0);
  EXPECT_EQ(r.cycle_length, 1);
}

TEST(Karp, NegativeCosts) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  const auto r = karp_min_mean_cycle(g, {-3, 1});
  EXPECT_DOUBLE_EQ(r.mean, -1.0);
}

TEST(Karp, RejectsAcyclicGraph) {
  Digraph g(2);
  g.add_edge(0, 1);
  EXPECT_THROW(karp_min_mean_cycle(g, {1}), elrr::Error);
}

/// Shared random-instance builder: a ring plus chords, possibly plus a
/// detached second component.
struct RandomInstance {
  Digraph g{0};
  std::vector<std::int64_t> cost;
  std::vector<std::int64_t> time;
};

RandomInstance make_instance(std::uint64_t seed, bool unit_time) {
  elrr::Rng rng(seed * 733 + 13);
  const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 7));
  RandomInstance inst;
  inst.g = Digraph(n);
  const auto add = [&](NodeId u, NodeId v) {
    inst.g.add_edge(u, v);
    inst.cost.push_back(rng.uniform_int(-3, 9));
    inst.time.push_back(unit_time ? 1 : rng.uniform_int(1, 5));
  };
  for (std::size_t v = 0; v < n; ++v) {
    add(static_cast<NodeId>(v), static_cast<NodeId>((v + 1) % n));
  }
  const std::size_t extra = static_cast<std::size_t>(rng.uniform_int(0, 10));
  for (std::size_t k = 0; k < extra; ++k) {
    add(static_cast<NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)),
        static_cast<NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)));
  }
  return inst;
}

class HowardVsLawler : public ::testing::TestWithParam<int> {};

TEST_P(HowardVsLawler, SameRatio) {
  const RandomInstance inst =
      make_instance(static_cast<std::uint64_t>(GetParam()), false);
  const auto lawler = min_cycle_ratio(inst.g, inst.cost, inst.time);
  const auto howard = howard_min_cycle_ratio(inst.g, inst.cost, inst.time);
  // Exact rational agreement.
  EXPECT_EQ(howard.cycle_cost * lawler.cycle_time,
            lawler.cycle_cost * howard.cycle_time)
      << "howard " << howard.cycle_cost << "/" << howard.cycle_time
      << " vs lawler " << lawler.cycle_cost << "/" << lawler.cycle_time;
  // The reported cycle achieves the reported ratio.
  std::int64_t c = 0, t = 0;
  for (EdgeId e : howard.critical_cycle) {
    c += inst.cost[e];
    t += inst.time[e];
  }
  EXPECT_EQ(c, howard.cycle_cost);
  EXPECT_EQ(t, howard.cycle_time);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HowardVsLawler, ::testing::Range(0, 60));

class KarpVsLawler : public ::testing::TestWithParam<int> {};

TEST_P(KarpVsLawler, SameMeanOnUnitTimes) {
  const RandomInstance inst =
      make_instance(static_cast<std::uint64_t>(GetParam()) + 1000, true);
  const auto lawler = min_cycle_ratio(inst.g, inst.cost, inst.time);
  const auto karp = karp_min_mean_cycle(inst.g, inst.cost);
  EXPECT_EQ(karp.cycle_cost * lawler.cycle_time,
            lawler.cycle_cost * karp.cycle_length);
  std::int64_t c = 0;
  for (EdgeId e : karp.critical_cycle) c += inst.cost[e];
  EXPECT_EQ(c, karp.cycle_cost);
  EXPECT_EQ(static_cast<std::int64_t>(karp.critical_cycle.size()),
            karp.cycle_length);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KarpVsLawler, ::testing::Range(0, 60));

class ThreeOracles : public ::testing::TestWithParam<int> {};

TEST_P(ThreeOracles, AgreeOnUnitTimeInstances) {
  const RandomInstance inst =
      make_instance(static_cast<std::uint64_t>(GetParam()) + 5000, true);
  const auto lawler = min_cycle_ratio(inst.g, inst.cost, inst.time);
  const auto howard = howard_min_cycle_ratio(inst.g, inst.cost, inst.time);
  const auto karp = karp_min_mean_cycle(inst.g, inst.cost);
  EXPECT_NEAR(lawler.ratio, howard.ratio, 1e-12);
  EXPECT_NEAR(lawler.ratio, karp.mean, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThreeOracles, ::testing::Range(0, 30));

}  // namespace
}  // namespace elrr::graph
