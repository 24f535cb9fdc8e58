#include "graph/howard.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "graph/bellman_ford.hpp"
#include "graph/scc.hpp"
#include "graph/topo.hpp"
#include "support/error.hpp"

namespace elrr::graph {

namespace {

constexpr std::uint32_t kNone = ~std::uint32_t{0};

/// An exact ratio c / t in lowest terms with t > 0, so that equal ratios
/// are equal pairs.
struct Ratio {
  std::int64_t c = 0;
  std::int64_t t = 1;
};

Ratio reduced(std::int64_t c, std::int64_t t) {
  const std::int64_t g = std::gcd(c, t);  // t > 0, so g > 0
  return {c / g, t / g};
}

/// a < b. Under check_cycle_ratio_magnitudes |c| and t stay below 2^31,
/// so the products stay below 2^62.
bool less(const Ratio& a, const Ratio& b) { return a.c * b.t < b.c * a.t; }

bool same(const Ratio& a, const Ratio& b) { return a.c == b.c && a.t == b.t; }

/// The magnitude part of the contract (howard.hpp): every product and
/// sum below then fits in int64.
void check_cycle_ratio_magnitudes(const Digraph& g,
                                  const std::vector<std::int64_t>& cost,
                                  const std::vector<std::int64_t>& time) {
  constexpr std::int64_t kLimit = std::int64_t{1} << 31;
  // Each term is clamped to kLimit before it is added, so the sums
  // themselves cannot overflow on the way to the check.
  const auto clamped_abs = [](std::int64_t v) {
    return v >= kLimit || v <= -kLimit ? kLimit : (v < 0 ? -v : v);
  };
  std::int64_t sum_cost = 0;
  std::int64_t sum_time = 0;
  for (std::size_t e = 0; e < cost.size(); ++e) {
    sum_cost = std::min(kLimit, sum_cost + clamped_abs(cost[e]));
    sum_time = std::min(kLimit, sum_time + clamped_abs(time[e]));
  }
  const __int128 distance_bound = static_cast<__int128>(g.num_nodes() + 2) *
                                  2 * sum_cost * sum_time;
  ELRR_REQUIRE(sum_cost < kLimit && sum_time < kLimit &&
                   distance_bound <= INT64_MAX,
               "cycle ratio magnitudes too large for exact int64 arithmetic: "
               "sum |cost| ",
               sum_cost, ", sum time ", sum_time, " over ", g.num_nodes(),
               " nodes");
}

}  // namespace

bool certify_min_cycle_ratio(const Digraph& g,
                             const std::vector<std::int64_t>& cost,
                             const std::vector<std::int64_t>& time,
                             const std::vector<EdgeId>& cycle,
                             std::int64_t cycle_cost,
                             std::int64_t cycle_time) {
  ELRR_REQUIRE(cost.size() == g.num_edges() && time.size() == g.num_edges(),
               "cost/time vector size mismatch");
  check_cycle_ratio_magnitudes(g, cost, time);
  if (cycle.empty() || cycle_time <= 0) return false;
  // The cycle: simple (so its sums obey the magnitude bounds), closed,
  // and summing to the claimed ratio.
  std::vector<std::uint8_t> on_cycle(g.num_nodes(), 0);
  std::int64_t c = 0;
  std::int64_t t = 0;
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    const EdgeId e = cycle[i];
    if (e >= g.num_edges() || on_cycle[g.src(e)]) return false;
    on_cycle[g.src(e)] = 1;
    if (g.dst(e) != g.src(cycle[(i + 1) % cycle.size()])) return false;
    c += cost[e];
    t += time[e];
  }
  if (c != cycle_cost || t != cycle_time) return false;
  // Minimality: every cycle has sum(cost) T - C sum(time) >= 0, i.e. no
  // negative cycle under these weights.
  std::vector<std::int64_t> weight(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    weight[e] = cost[e] * cycle_time - cycle_cost * time[e];
  }
  return solve_difference_constraints(g, weight).feasible;
}

HowardResult howard_min_cycle_ratio(const Digraph& g,
                                    const std::vector<std::int64_t>& cost,
                                    const std::vector<std::int64_t>& time) {
  ELRR_REQUIRE(cost.size() == g.num_edges() && time.size() == g.num_edges(),
               "cost/time vector size mismatch");
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    ELRR_REQUIRE(time[e] >= 0, "negative time on edge ", e);
  }
  check_cycle_ratio_magnitudes(g, cost, time);
  ELRR_REQUIRE(
      topological_order(g, [&](EdgeId e) { return time[e] == 0; }).has_value(),
      "graph has a zero-time cycle");

  // Policies use only the edges inside a strongly connected component:
  // every node on a cycle has one, and every other node is ignored.
  const std::size_t n = g.num_nodes();
  const SccResult sccs = strongly_connected_components(g);
  const auto inside = [&](EdgeId e) {
    return sccs.component[g.src(e)] == sccs.component[g.dst(e)];
  };
  // Initial policy: the cheapest inside edge (first on ties).
  std::vector<EdgeId> policy(n, kNoEdge);
  for (NodeId u = 0; u < n; ++u) {
    for (EdgeId e : g.out_edges(u)) {
      if (inside(e) && (policy[u] == kNoEdge || cost[e] < cost[policy[u]])) {
        policy[u] = e;
      }
    }
  }
  // (cost(e) - r time(e)) r.t: an edge's weight at ratio r, scaled to an
  // integer by the ratio's denominator.
  const auto weight = [&](EdgeId e, const Ratio& r) {
    return cost[e] * r.t - r.c * time[e];
  };

  // Evaluation state: the policy cycle each node drains into, that
  // cycle's ratio, and the node's bias scaled by the ratio's denominator
  // (bias(anchor) = 0, bias(u) = weight(policy(u)) + bias(successor)).
  std::vector<std::uint32_t> comp(n);
  std::vector<std::uint32_t> stamp(n);
  std::vector<std::int64_t> bias(n);
  std::vector<Ratio> ratios;
  std::vector<NodeId> chain;

  HowardResult result;
  Ratio best;
  bool found = false;
  const int max_rounds = static_cast<int>(10 * n + 64);
  for (int round = 0; round < max_rounds; ++round) {
    ++result.iterations;
    // --- policy evaluation ------------------------------------------
    std::fill(comp.begin(), comp.end(), kNone);
    std::fill(stamp.begin(), stamp.end(), kNone);
    ratios.clear();
    for (NodeId s = 0; s < n; ++s) {
      if (policy[s] == kNoEdge || comp[s] != kNone) continue;
      NodeId u = s;
      while (comp[u] == kNone && stamp[u] != s) {
        stamp[u] = s;
        u = g.dst(policy[u]);
      }
      if (comp[u] == kNone) {
        // The walk from s closed a new policy cycle at u, its anchor.
        chain.clear();
        std::int64_t c = 0;
        std::int64_t t = 0;
        NodeId v = u;
        do {
          chain.push_back(v);
          c += cost[policy[v]];
          t += time[policy[v]];
          v = g.dst(policy[v]);
        } while (v != u);
        ELRR_ASSERT(t > 0, "zero-time policy cycle");
        const Ratio r = reduced(c, t);
        const auto id = static_cast<std::uint32_t>(ratios.size());
        ratios.push_back(r);
        if (!found || less(r, best)) {
          best = r;
          found = true;
          result.cycle_cost = c;
          result.cycle_time = t;
          result.critical_cycle.clear();
          for (NodeId w : chain) result.critical_cycle.push_back(policy[w]);
        }
        for (NodeId w : chain) comp[w] = id;
        bias[u] = 0;
        for (std::size_t i = chain.size(); i-- > 1;) {
          const EdgeId e = policy[chain[i]];
          bias[chain[i]] = weight(e, r) + bias[g.dst(e)];
        }
      }
      // The tail from s up to the first node already labelled.
      chain.clear();
      for (NodeId v = s; comp[v] == kNone; v = g.dst(policy[v])) {
        chain.push_back(v);
      }
      for (std::size_t i = chain.size(); i-- > 0;) {
        const EdgeId e = policy[chain[i]];
        const NodeId next = g.dst(e);
        comp[chain[i]] = comp[next];
        bias[chain[i]] = weight(e, ratios[comp[next]]) + bias[next];
      }
    }

    // --- policy improvement -----------------------------------------
    // First toward strictly smaller ratios (the lowest bias among the
    // edges reaching the smallest one) ...
    bool changed = false;
    for (NodeId u = 0; u < n; ++u) {
      if (policy[u] == kNoEdge) continue;
      Ratio to = ratios[comp[u]];
      EdgeId pick = kNoEdge;
      std::int64_t pick_bias = 0;
      for (EdgeId e : g.out_edges(u)) {
        if (!inside(e)) continue;
        const NodeId v = g.dst(e);
        const Ratio& r = ratios[comp[v]];
        const bool smaller = less(r, to);
        if (!smaller && (pick == kNoEdge || !same(r, to))) continue;
        const std::int64_t b = weight(e, r) + bias[v];
        if (smaller || b < pick_bias) {
          to = r;
          pick = e;
          pick_bias = b;
        }
      }
      if (pick != kNoEdge) {
        policy[u] = pick;
        changed = true;
      }
    }
    // ... then, with no smaller ratio in reach, along a lower bias.
    if (!changed) {
      for (NodeId u = 0; u < n; ++u) {
        if (policy[u] == kNoEdge) continue;
        const Ratio& r = ratios[comp[u]];
        std::int64_t lowest = bias[u];
        for (EdgeId e : g.out_edges(u)) {
          const NodeId v = g.dst(e);
          if (!inside(e) || !same(ratios[comp[v]], r)) continue;
          const std::int64_t b = weight(e, r) + bias[v];
          if (b < lowest) {
            lowest = b;
            policy[u] = e;
            changed = true;
          }
        }
      }
    }
    if (!changed) break;
  }
  ELRR_REQUIRE(found, "graph has no directed cycle");

  result.ratio = static_cast<double>(result.cycle_cost) /
                 static_cast<double>(result.cycle_time);
  ELRR_ASSERT(certify_min_cycle_ratio(g, cost, time, result.critical_cycle,
                                      result.cycle_cost, result.cycle_time),
              "Howard's cycle ratio ", result.cycle_cost, "/",
              result.cycle_time, " failed its certificate after ",
              result.iterations, " rounds");
  return result;
}

}  // namespace elrr::graph
