/// \file session_test.cpp
/// The persistent MILP session's exactness contract: warm-off solves are
/// bit-identical to stateless solve_milp, warm-on solves are pinned to
/// the cold path across bound sweeps and full Pareto walks (frontier and
/// argmin, all MILPs proven exact), and the `milp.warm` fail point is
/// contained inside the session -- a corrupt basis snapshot degrades to
/// a cold solve without changing a single bit of the results.

#include "lp/session.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "bench89/generator.hpp"
#include "core/opt.hpp"
#include "lp/milp.hpp"
#include "lp/mps.hpp"
#include "support/failpoint.hpp"

namespace elrr::lp {
namespace {

/// A real walk-step MILP (the s208 MIN_CYC model at x = 1): small enough
/// that every solve proves optimality, rich enough to exercise the
/// integer machinery (39 columns, 60 rows, integral buffer counts).
Model step_model(const char* circuit = "s208", double x = 1.0) {
  const Rrg rrg =
      bench89::make_table2_rrg(bench89::spec_by_name(circuit), 1);
  return build_min_cyc_model(rrg, x);
}

/// Bit-identity of two solves of `model`; its potentials, whose values
/// the simplex does not keep, must read NaN in both.
void expect_same_result(const Model& model, const MilpResult& a,
                        const MilpResult& b, const char* what) {
  ASSERT_EQ(a.status, b.status) << what;
  EXPECT_EQ(a.objective, b.objective) << what;
  ASSERT_EQ(a.x.size(), b.x.size()) << what;
  for (std::size_t j = 0; j < a.x.size(); ++j) {
    if (model.col(static_cast<int>(j)).is_potential()) {
      EXPECT_TRUE(std::isnan(a.x[j]) && std::isnan(b.x[j]))
          << what << " potential col " << j;
    } else {
      EXPECT_EQ(a.x[j], b.x[j]) << what << " col " << j;
    }
  }
}

/// The bound sweep both differential tests drive: a handful of row-bound
/// retargets on the same rows a Pareto walk's x-parameterization moves.
const double kSweep[] = {1.0, 1.1, 1.3, 1.15, 2.0, 1.05};

TEST(MilpSession, WarmOffIsBitIdenticalToSolveMilp) {
  Model reference = step_model();
  MilpSession session(step_model());
  session.set_warm(false);
  for (const double scale : kSweep) {
    // Retarget a few G rows the way solve_rr_session retargets the
    // x-dependent throughput rows.
    for (int i = 0; i < reference.num_rows(); i += 7) {
      const double lo = reference.row(i).lo;
      if (!std::isfinite(lo) || lo == reference.row(i).hi) continue;
      reference.set_row_bounds(i, lo - (scale - 1.0), reference.row(i).hi);
      session.set_row_bounds(i, lo - (scale - 1.0), reference.row(i).hi);
    }
    expect_same_result(reference, session.solve(), solve_milp(reference),
                       "warm-off");
  }
  EXPECT_EQ(session.stats().solves, static_cast<std::int64_t>(std::size(kSweep)));
  EXPECT_EQ(session.stats().warm_attempts, 0);
  EXPECT_EQ(session.stats().cold_solves, session.stats().solves);
}

TEST(MilpSession, WarmSolvesMatchColdAcrossABoundSweep) {
  // What warm starts are allowed to change: the *vertex* the simplex
  // lands on among tied/degenerate optima, i.e. low bits of continuous
  // coordinates and the objective's last ulp. What they must preserve:
  // proven optimality and every integer decision, bit for bit -- the
  // walk recomputes tau/theta/xi from the integral buffer counts, which
  // is how the walk-level differentials below get full bit-identity.
  Model reference = step_model();
  MilpSession session(step_model());  // warm on by default
  for (const double scale : kSweep) {
    for (int i = 0; i < reference.num_rows(); i += 7) {
      const double lo = reference.row(i).lo;
      if (!std::isfinite(lo) || lo == reference.row(i).hi) continue;
      reference.set_row_bounds(i, lo - (scale - 1.0), reference.row(i).hi);
      session.set_row_bounds(i, lo - (scale - 1.0), reference.row(i).hi);
    }
    const MilpResult warm = session.solve();
    const MilpResult cold = solve_milp(reference);
    ASSERT_EQ(warm.status, MilpStatus::kOptimal);
    ASSERT_EQ(cold.status, MilpStatus::kOptimal);
    EXPECT_NEAR(warm.objective, cold.objective,
                1e-9 * (1.0 + std::abs(cold.objective)));
    ASSERT_EQ(warm.x.size(), cold.x.size());
    for (std::size_t j = 0; j < warm.x.size(); ++j) {
      if (session.model().col(static_cast<int>(j)).is_integer) {
        EXPECT_EQ(warm.x[j], cold.x[j]) << "integer col " << j;
      }
    }
  }
  // The sweep must actually have exercised the warm path, or this test
  // proves nothing.
  EXPECT_GT(session.stats().warm_attempts, 0);
  EXPECT_GT(session.stats().warm_roots, 0);
  EXPECT_EQ(session.stats().warm_fallbacks, 0);
}

TEST(MilpSession, InvalidateWarmForcesAColdSolve) {
  MilpSession session(step_model());
  (void)session.solve();
  const std::int64_t cold_before = session.stats().cold_solves;
  session.invalidate_warm();
  expect_same_result(session.model(), session.solve(),
                     solve_milp(session.model()), "post-invalidate");
  EXPECT_EQ(session.stats().cold_solves, cold_before + 1);
}

TEST(MilpSession, WarmFailPointFallsBackToAColdSolveInvisibly) {
  failpoint::configure("milp.warm=once");
  MilpSession session(step_model());
  const MilpResult first = session.solve();   // no warm state yet: cold
  const MilpResult second = session.solve();  // warm restore trips -> cold
  const MilpResult third = session.solve();   // warm path healthy again
  failpoint::reset();
  expect_same_result(session.model(), first, second, "fallback solve");
  expect_same_result(session.model(), first, third, "recovered solve");
  EXPECT_GE(session.stats().warm_fallbacks, 1);
  expect_same_result(session.model(), first, solve_milp(session.model()),
                     "vs stateless");
}

TEST(MilpSession, BoundingAPotentialRebuildsTheEngine) {
  // A warm session over the s208 step model, whose retiming potentials
  // and firing counts are potentials of its engine. Bounding one drops
  // the engine; the next solve is a fresh engine on the bounded model.
  MilpSession session(step_model());
  const MilpResult first = session.solve();
  (void)session.solve();  // warm: the engine holds a root basis
  int potential = -1;
  for (int j = 0; j < session.model().num_cols() && potential < 0; ++j) {
    if (session.model().col(j).is_potential()) potential = j;
  }
  ASSERT_GE(potential, 0);
  const std::int64_t cold_before = session.stats().cold_solves;
  session.set_col_bounds(potential, 0.0, 0.0);
  EXPECT_FALSE(session.model().col(potential).is_potential());
  const MilpResult bounded = session.solve();
  EXPECT_EQ(session.stats().cold_solves, cold_before + 1);
  ASSERT_TRUE(bounded.has_solution());
  EXPECT_EQ(bounded.x[static_cast<std::size_t>(potential)], 0.0);
  expect_same_result(session.model(), bounded, solve_milp(session.model()),
                     "bounded potential");
  // Re-imposing (-inf, inf) keeps the engine, as apply_current_bounds does.
  session.set_col_bounds(potential, -kInf, kInf);
  const MilpResult freed = session.solve();
  EXPECT_EQ(session.stats().cold_solves, cold_before + 1);
  ASSERT_EQ(freed.status, first.status);
  EXPECT_NEAR(freed.objective, first.objective, 1e-9);
}

// ------------------------------------------------- walk-level differential

OptOptions walk_options(bool warm) {
  OptOptions options;
  options.epsilon = 0.05;
  options.milp.time_limit_s = 30.0;  // never reached on these circuits
  options.milp_warm = warm;
  return options;
}

void expect_same_frontier(const MinEffCycResult& warm,
                          const MinEffCycResult& cold, const char* circuit) {
  // all_exact is the precondition of the bit-identity contract: a
  // budget-hit MILP returns a wall-clock-dependent incumbent and the
  // comparison below would be meaningless (see src/lp/README.md).
  ASSERT_TRUE(warm.all_exact) << circuit;
  ASSERT_TRUE(cold.all_exact) << circuit;
  ASSERT_EQ(warm.points.size(), cold.points.size()) << circuit;
  EXPECT_EQ(warm.best_index, cold.best_index) << circuit;
  EXPECT_EQ(warm.milp_calls, cold.milp_calls) << circuit;
  for (std::size_t i = 0; i < warm.points.size(); ++i) {
    EXPECT_EQ(warm.points[i].tau, cold.points[i].tau) << circuit << " #" << i;
    EXPECT_EQ(warm.points[i].theta_lp, cold.points[i].theta_lp)
        << circuit << " #" << i;
    EXPECT_EQ(warm.points[i].xi_lp, cold.points[i].xi_lp)
        << circuit << " #" << i;
    EXPECT_TRUE(warm.points[i].config == cold.points[i].config)
        << circuit << " #" << i;
  }
}

TEST(MilpSession, WarmWalksAreBitIdenticalToColdWalks) {
  for (const char* circuit : {"s838", "s208", "s420"}) {
    const Rrg rrg =
        bench89::make_table2_rrg(bench89::spec_by_name(circuit), 1);
    const MinEffCycResult warm = min_eff_cyc(rrg, walk_options(true));
    const MinEffCycResult cold = min_eff_cyc(rrg, walk_options(false));
    expect_same_frontier(warm, cold, circuit);
  }
}

TEST(MilpSession, WarmWalkActuallyRunsWarm) {
  // Guard against the differential above silently comparing cold to
  // cold: a warm walk's session must report warm re-optimizations.
  const Rrg rrg = bench89::make_table2_rrg(bench89::spec_by_name("s420"), 1);
  ParetoWalk walk(rrg, walk_options(true));
  while (walk.advance()) {
  }
  const SessionStats stats = walk.milp_stats();
  EXPECT_GT(stats.solves, 1);
  EXPECT_GT(stats.warm_attempts, 0);
  EXPECT_GT(stats.warm_roots, 0);

  ParetoWalk cold_walk(rrg, walk_options(false));
  while (cold_walk.advance()) {
  }
  EXPECT_EQ(cold_walk.milp_stats().warm_attempts, 0);
}

TEST(MilpSession, WalkSurvivesWarmFailPointsBitExactly) {
  // The fail point models stale/corrupt basis snapshots mid-walk; the
  // session absorbs every trip and the frontier must not move at all.
  const Rrg rrg = bench89::make_table2_rrg(bench89::spec_by_name("s208"), 1);
  const MinEffCycResult oracle = min_eff_cyc(rrg, walk_options(false));

  failpoint::configure("milp.warm=once");
  ParetoWalk walk(rrg, walk_options(true));
  while (walk.advance()) {
  }
  const MinEffCycResult chaotic = walk.finish();
  const SessionStats stats = walk.milp_stats();
  failpoint::reset();

  EXPECT_GE(stats.warm_fallbacks, 1)
      << stats.warm_attempts
      << " warm attempts and the fail point never fired -- not wired";
  expect_same_frontier(chaotic, oracle, "s208 under milp.warm chaos");
}

// ------------------------------------------------- search-tree identity

// Pinned branch & bound trees: node count, optimum and the exact number
// of simplex iterations. Skipping dead rows (basic potentials) changes
// no pivot, so none of them may move. Every infeasible node of these
// trees certifies from its Farkas row: a cold re-check here means the
// certificate has slid back.

struct GoldenTree {
  const char* file;
  std::int64_t nodes;
  double objective;
  std::int64_t iterations;
};

const GoldenTree kGoldenTrees[] = {
    {"s208_min_cyc_x1.mps", 39, 29.961546206663407, 839},
    {"s420_min_cyc_x1.25.mps", 151, 52.800295013874006, 4372},
};

TEST(MilpSession, GoldenModelsKeepTheirSearchTrees) {
  for (const GoldenTree& g : kGoldenTrees) {
    std::ifstream in(std::string(ELRR_LP_GOLDEN_DIR) + "/" + g.file);
    ASSERT_TRUE(in.good()) << "missing golden file " << g.file;
    std::ostringstream text;
    text << in.rdbuf();
    MilpOptions options;
    options.time_limit_s = 60.0;  // never reached
    const MilpResult r = solve_milp(from_mps(text.str()), options);
    ASSERT_EQ(r.status, MilpStatus::kOptimal) << g.file;
    EXPECT_EQ(r.nodes, g.nodes) << g.file;
    EXPECT_EQ(r.objective, g.objective) << g.file;
    EXPECT_EQ(r.lp_iterations, g.iterations) << g.file;
    EXPECT_GT(r.infeasible_certified, 0) << g.file;
    EXPECT_EQ(r.infeasible_cold, 0) << g.file;
  }
}

struct WalkTree {
  const char* circuit;
  std::int64_t nodes;
  double best_xi_lp;
  std::int64_t iterations;
};

const WalkTree kWalkTrees[] = {
    {"s208", 177, 24.94217624912034, 5048},
    {"s420", 450, 55.077654747122189, 11229},
    {"s838", 204, 27.693514165189313, 3920},
};

TEST(MilpSession, FullWalksKeepTheirSearchTrees) {
  for (const WalkTree& w : kWalkTrees) {
    const Rrg rrg =
        bench89::make_table2_rrg(bench89::spec_by_name(w.circuit), 1);
    ParetoWalk walk(rrg, walk_options(true));
    while (walk.advance()) {
    }
    const MinEffCycResult result = walk.finish();
    const SessionStats stats = walk.milp_stats();
    ASSERT_TRUE(result.all_exact) << w.circuit;
    EXPECT_EQ(stats.nodes, w.nodes) << w.circuit;
    EXPECT_EQ(result.best().xi_lp, w.best_xi_lp) << w.circuit;
    EXPECT_EQ(stats.lp_iterations, w.iterations) << w.circuit;
    EXPECT_GT(stats.infeasible_certified, 0) << w.circuit;
    EXPECT_EQ(stats.infeasible_cold, 0) << w.circuit;
  }
}

}  // namespace
}  // namespace elrr::lp
