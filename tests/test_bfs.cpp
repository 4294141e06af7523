// BFS property suite: push, pull, direction-optimizing, async and
// message-passing variants against the serial oracle; parent-tree validity.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <tuple>
#include <vector>

#include "algorithms/bfs.hpp"
#include "core/execution.hpp"
#include "core/telemetry.hpp"
#include "generators/generators.hpp"
#include "graph/graph.hpp"

namespace alg = essentials::algorithms;
namespace ex = essentials::execution;
namespace g = essentials::graph;
namespace gen = essentials::generators;
namespace tel = essentials::telemetry;
using essentials::direction_t;
using essentials::vertex_t;

namespace {

g::graph_push_pull make_graph(std::string const& family, std::uint64_t seed) {
  g::coo_t<> coo;
  if (family == "rmat") {
    gen::rmat_options opt;
    opt.scale = 8;
    opt.edge_factor = 8;
    opt.seed = seed;
    coo = gen::rmat(opt);
  } else if (family == "er") {
    coo = gen::erdos_renyi(500, 4000, {}, seed);
  } else if (family == "grid") {
    coo = gen::grid_2d(20, 20, {}, seed);
  } else {
    coo = gen::star(300, {}, seed);
  }
  g::remove_self_loops(coo);
  return g::from_coo<g::graph_push_pull>(std::move(coo));
}

/// A parent tree is valid iff every reached non-source vertex has a reached
/// parent exactly one level shallower, connected by a real edge.
template <typename G>
void expect_valid_parents(G const& graph, alg::bfs_result<> const& r,
                          vertex_t source) {
  for (vertex_t v = 0; v < graph.get_num_vertices(); ++v) {
    if (v == source || r.depths[static_cast<std::size_t>(v)] == -1)
      continue;
    vertex_t const p = r.parents[static_cast<std::size_t>(v)];
    ASSERT_NE(p, -1) << "reached vertex " << v << " has no parent";
    EXPECT_EQ(r.depths[static_cast<std::size_t>(p)] + 1,
              r.depths[static_cast<std::size_t>(v)]);
    bool edge_exists = false;
    for (auto const e : graph.get_edges(p))
      edge_exists |= (graph.get_dest_vertex(e) == v);
    EXPECT_TRUE(edge_exists) << "no edge " << p << " -> " << v;
  }
}

}  // namespace

using BfsParam = std::tuple<std::string, std::uint64_t>;
class BfsAllVariants : public ::testing::TestWithParam<BfsParam> {};

TEST_P(BfsAllVariants, EveryVariantMatchesSerialDepths) {
  auto const& [family, seed] = GetParam();
  auto const graph = make_graph(family, seed);
  vertex_t const source = 0;
  auto const oracle = alg::bfs_serial(graph, source);

  auto const push_seq = alg::bfs(ex::seq, graph, source);
  auto const push_par = alg::bfs(ex::par, graph, source);
  auto const pull = alg::bfs_pull(ex::par, graph, source);
  auto const dobfs = alg::bfs_direction_optimizing(ex::par, graph, source);
  auto const async = alg::bfs_async(graph, source, 4);

  EXPECT_EQ(push_seq.depths, oracle.depths) << family << "/push-seq";
  EXPECT_EQ(push_par.depths, oracle.depths) << family << "/push-par";
  EXPECT_EQ(pull.depths, oracle.depths) << family << "/pull";
  EXPECT_EQ(dobfs.depths, oracle.depths) << family << "/direction-optimizing";
  EXPECT_EQ(async.depths, oracle.depths) << family << "/async";

  expect_valid_parents(graph, push_par, source);
  expect_valid_parents(graph, pull, source);
  expect_valid_parents(graph, dobfs, source);
}

INSTANTIATE_TEST_SUITE_P(
    Families, BfsAllVariants,
    ::testing::Combine(::testing::Values("rmat", "er", "grid", "star"),
                       ::testing::Values(1u, 13u)),
    [](auto const& info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Bfs, MessagePassingMatchesSerial) {
  for (auto const family : {"er", "grid"}) {
    auto const graph = make_graph(family, 3);
    auto const oracle = alg::bfs_serial(graph, 0);
    for (int ranks : {1, 2, 4}) {
      auto const mp = alg::bfs_message_passing(graph, 0, ranks);
      EXPECT_EQ(mp.depths, oracle.depths)
          << family << " ranks=" << ranks;
    }
  }
}

TEST(Bfs, DisconnectedComponentUnreached) {
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 5;
  coo.push_back(0, 1, 1.f);
  coo.push_back(1, 2, 1.f);
  coo.push_back(3, 4, 1.f);
  auto const graph = g::from_coo<g::graph_push_pull>(std::move(coo));
  auto const r = alg::bfs(ex::par, graph, 0);
  EXPECT_EQ(r.depths[2], 2);
  EXPECT_EQ(r.depths[3], -1);
  EXPECT_EQ(r.depths[4], -1);
}

TEST(Bfs, IterationCountEqualsEccentricity) {
  auto coo = gen::chain(64);
  auto const graph = g::from_coo<g::graph_push_pull>(std::move(coo));
  auto const r = alg::bfs(ex::par, graph, 0);
  EXPECT_EQ(r.depths[63], 63);
  EXPECT_EQ(r.iterations, 64u);  // 63 productive + 1 draining superstep
}

TEST(Bfs, DirectionOptimizingSwitchesOnDenseGraph) {
  // A complete-ish graph saturates in one hop; DOBFS must still be exact.
  auto coo = gen::complete(100);
  auto const graph = g::from_coo<g::graph_push_pull>(std::move(coo));
  auto const oracle = alg::bfs_serial(graph, 0);
  auto const dobfs = alg::bfs_direction_optimizing(ex::par, graph, 0);
  EXPECT_EQ(dobfs.depths, oracle.depths);
}

TEST(Bfs, SelfSourceDepthZero) {
  auto const graph = make_graph("er", 9);
  auto const r = alg::bfs(ex::par, graph, 42);
  EXPECT_EQ(r.depths[42], 0);
  EXPECT_EQ(r.parents[42], -1);
}

TEST(Bfs, InvalidSourceThrows) {
  auto const graph = make_graph("grid", 1);
  EXPECT_THROW(alg::bfs(ex::par, graph, -1), essentials::graph_error);
  EXPECT_THROW(alg::bfs_pull(ex::par, graph, 100000),
               essentials::graph_error);
}

// ---------------------------------------------------------------------------
// Pull work follows the unvisited vertices
// ---------------------------------------------------------------------------

namespace {

/// A push-pull graph that counts, per vertex, how often an operator asked
/// for its in-edges.
struct in_scan_counting_graph : g::graph_push_pull {
  explicit in_scan_counting_graph(g::graph_push_pull base)
      : g::graph_push_pull(std::move(base)),
        scans(static_cast<std::size_t>(get_num_vertices())) {}

  auto get_in_edges(vertex_t v) const {
    scans[static_cast<std::size_t>(v)].fetch_add(1, std::memory_order_relaxed);
    return g::graph_push_pull::get_in_edges(v);
  }

  mutable std::vector<std::atomic<int>> scans;
};

/// Pull supersteps among the first `before` supersteps of a trace.
int pull_steps_before(tel::trace const& t, std::size_t before) {
  int pulls = 0;
  for (auto const& s : t.supersteps)
    pulls += s.index < before && s.direction == direction_t::pull ? 1 : 0;
  return pulls;
}

}  // namespace

TEST(Bfs, PullScansNoInEdgeOfASettledVertex) {
  // Superstep k settles depth k+1, so a vertex of depth d is scanned in
  // supersteps 0..d-1 and never again; unreached vertices in every one.
  for (auto const family : {"rmat", "er", "grid"}) {
    in_scan_counting_graph const graph(make_graph(family, 7));
    auto const r = alg::bfs_pull(ex::par, graph, 0);
    EXPECT_EQ(r.depths, alg::bfs_serial(graph, 0).depths) << family;
    for (std::size_t v = 0; v < r.depths.size(); ++v) {
      int const want = r.depths[v] == -1 ? static_cast<int>(r.iterations)
                                         : static_cast<int>(r.depths[v]);
      EXPECT_EQ(graph.scans[v].load(), want) << family << " vertex " << v;
    }
  }
}

TEST(Bfs, DirectionOptimizingScansNoInEdgeOfASettledVertex) {
  if (!tel::compiled_in)
    GTEST_SKIP() << "needs the per-superstep direction from telemetry";
  for (auto const family : {"rmat", "er", "star"}) {
    in_scan_counting_graph const graph(make_graph(family, 7));
    tel::trace t;
    alg::bfs_result<> r;
    {
      tel::scoped_recording rec(t, "dobfs");
      r = alg::bfs_direction_optimizing(ex::par, graph, 0);
    }
    EXPECT_EQ(r.depths, alg::bfs_serial(graph, 0).depths) << family;
    ASSERT_GT(pull_steps_before(t, t.supersteps.size()), 0) << family;
    // A pull superstep k scans exactly the vertices unsettled before it:
    // those of depth > k, and the unreached ones.
    for (std::size_t v = 0; v < r.depths.size(); ++v) {
      std::size_t const settled_after =
          r.depths[v] == -1 ? t.supersteps.size()
                            : static_cast<std::size_t>(r.depths[v]);
      EXPECT_EQ(graph.scans[v].load(), pull_steps_before(t, settled_after))
          << family << " vertex " << v;
    }
  }
}

TEST(Bfs, DirectionOptimizingPullsWhenFewHubsCarryTheEdgeWork) {
  if (!tel::compiled_in)
    GTEST_SKIP() << "needs the per-superstep direction from telemetry";
  // 0 -> four hubs -> 1000 leaves each, both directions.  After superstep
  // 0 the frontier is the four hubs: 4 of 4005 vertices (the vertex-density
  // rule, 1/alpha of |V|, would keep pushing), but their 4004 out-edges
  // exceed 1/alpha of the 4000 in-edges left to the unvisited leaves.
  constexpr vertex_t hubs = 4, leaves = 1000;
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 1 + hubs + hubs * leaves;
  for (vertex_t h = 1; h <= hubs; ++h) {
    coo.push_back(0, h, 1.f);
    coo.push_back(h, 0, 1.f);
    for (vertex_t l = 0; l < leaves; ++l) {
      vertex_t const leaf = 1 + hubs + (h - 1) * leaves + l;
      coo.push_back(h, leaf, 1.f);
      coo.push_back(leaf, h, 1.f);
    }
  }
  auto const graph = g::from_coo<g::graph_push_pull>(std::move(coo));
  double const hub_density = static_cast<double>(hubs) /
                             static_cast<double>(graph.get_num_vertices());
  ASSERT_LT(hub_density, 1.0 / alg::dobfs_options{}.alpha);

  tel::trace t;
  alg::bfs_result<> r;
  {
    tel::scoped_recording rec(t, "dobfs.hubs");
    r = alg::bfs_direction_optimizing(ex::par, graph, 0);
  }
  EXPECT_EQ(r.depths, alg::bfs_serial(graph, 0).depths);
  expect_valid_parents(graph, r, 0);
  ASSERT_GE(t.supersteps.size(), 2u);
  EXPECT_EQ(t.supersteps[0].direction, direction_t::push);
  EXPECT_EQ(t.supersteps[1].frontier_in, static_cast<std::size_t>(hubs));
  EXPECT_EQ(t.supersteps[1].direction, direction_t::pull);
  EXPECT_TRUE(t.supersteps[1].switched_direction);
}
