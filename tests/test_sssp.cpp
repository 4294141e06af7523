// SSSP property suite: every parallel/async/distributed variant must match
// the Dijkstra oracle on every generator family, across seeds and sources.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "algorithms/sssp.hpp"
#include "algorithms/sssp_async_mp.hpp"
#include "algorithms/sssp_delta.hpp"
#include "core/execution.hpp"
#include "core/telemetry.hpp"
#include "generators/generators.hpp"
#include "graph/graph.hpp"

namespace alg = essentials::algorithms;
namespace ex = essentials::execution;
namespace g = essentials::graph;
namespace gen = essentials::generators;
namespace tel = essentials::telemetry;
using essentials::vertex_t;
using essentials::weight_t;
using essentials::infinity_v;

namespace {

g::graph_push_pull make_graph(std::string const& family, std::uint64_t seed) {
  gen::weight_options w{0.5f, 4.0f};
  g::coo_t<> coo;
  if (family == "rmat") {
    gen::rmat_options opt;
    opt.scale = 8;
    opt.edge_factor = 8;
    opt.seed = seed;
    opt.weights = w;
    coo = gen::rmat(opt);
  } else if (family == "er") {
    coo = gen::erdos_renyi(400, 3200, w, seed);
  } else if (family == "grid") {
    coo = gen::grid_2d(18, 20, w, seed);
  } else if (family == "chain") {
    coo = gen::chain(300, w, seed);
  } else if (family == "star") {
    coo = gen::star(200, w, seed);
  } else {
    coo = gen::watts_strogatz(250, 3, 0.2, w, seed);
  }
  g::remove_self_loops(coo);
  return g::from_coo<g::graph_push_pull>(std::move(coo),
                                         g::duplicate_policy::keep_min);
}

void expect_distances_equal(std::vector<weight_t> const& got,
                            std::vector<weight_t> const& want,
                            std::string const& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t v = 0; v < want.size(); ++v) {
    if (want[v] == infinity_v<weight_t>) {
      EXPECT_EQ(got[v], infinity_v<weight_t>) << label << " vertex " << v;
    } else {
      // Float relaxations may associate differently; tolerance covers it.
      EXPECT_NEAR(got[v], want[v], 1e-3f) << label << " vertex " << v;
    }
  }
}

}  // namespace

using SsspParam = std::tuple<std::string, std::uint64_t>;

class SsspAllVariants : public ::testing::TestWithParam<SsspParam> {};

TEST_P(SsspAllVariants, EveryVariantMatchesDijkstra) {
  auto const& [family, seed] = GetParam();
  auto const graph = make_graph(family, seed);
  vertex_t const source = 0;

  auto const oracle = alg::dijkstra(graph, source);

  expect_distances_equal(alg::sssp(ex::seq, graph, source).distances,
                         oracle.distances, family + "/push-seq");
  expect_distances_equal(alg::sssp(ex::par, graph, source).distances,
                         oracle.distances, family + "/push-par");
  expect_distances_equal(alg::sssp_pull(ex::par, graph, source).distances,
                         oracle.distances, family + "/pull-par");
  expect_distances_equal(alg::sssp_async(graph, source, 4).distances,
                         oracle.distances, family + "/async");
  expect_distances_equal(
      alg::sssp_message_passing(graph, source, 3).distances,
      oracle.distances, family + "/message-passing");
  expect_distances_equal(
      alg::sssp_async_message_passing(graph, source, 3).distances,
      oracle.distances, family + "/async-message-passing");
  expect_distances_equal(
      alg::sssp_delta_stepping(ex::par, graph, source).distances,
      oracle.distances, family + "/delta-stepping");
  expect_distances_equal(
      alg::sssp_message_passing(graph, source, 2, {}, 2).distances,
      oracle.distances, family + "/hybrid");
  expect_distances_equal(alg::bellman_ford(graph, source).distances,
                         oracle.distances, family + "/bellman-ford");
}

INSTANTIATE_TEST_SUITE_P(
    Families, SsspAllVariants,
    ::testing::Combine(::testing::Values("rmat", "er", "grid", "chain",
                                         "star", "ws"),
                       ::testing::Values(1u, 7u)),
    [](auto const& info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// --- targeted edge cases -------------------------------------------------------

TEST(Sssp, SourceOnlyGraph) {
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 1;
  auto const graph = g::from_coo<g::graph_push_pull>(std::move(coo));
  auto const r = alg::sssp(ex::par, graph, 0);
  ASSERT_EQ(r.distances.size(), 1u);
  EXPECT_FLOAT_EQ(r.distances[0], 0.0f);
  EXPECT_EQ(r.iterations, 1u);  // one superstep that expands nothing... and drains
}

TEST(Sssp, UnreachableVerticesStayInfinite) {
  // Two disconnected components: 0->1 and 2->3.
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 4;
  coo.push_back(0, 1, 1.f);
  coo.push_back(2, 3, 1.f);
  auto const graph = g::from_coo<g::graph_push_pull>(std::move(coo));
  auto const r = alg::sssp(ex::par, graph, 0);
  EXPECT_FLOAT_EQ(r.distances[1], 1.0f);
  EXPECT_EQ(r.distances[2], infinity_v<weight_t>);
  EXPECT_EQ(r.distances[3], infinity_v<weight_t>);
}

TEST(Sssp, PicksShorterOfTwoPaths) {
  // Listing 4's behaviour on the classic diamond with unequal arms.
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 4;
  coo.push_back(0, 1, 1.f);
  coo.push_back(0, 2, 10.f);
  coo.push_back(1, 3, 1.f);
  coo.push_back(2, 3, 1.f);
  auto const graph = g::from_coo<g::graph_push_pull>(std::move(coo));
  for (auto const& dist :
       {alg::sssp(ex::par, graph, 0).distances,
        alg::sssp_pull(ex::par, graph, 0).distances,
        alg::sssp_async(graph, 0, 2).distances}) {
    EXPECT_FLOAT_EQ(dist[3], 2.0f);
    EXPECT_FLOAT_EQ(dist[2], 10.0f);  // still reached, via the long arm
  }
}

TEST(Sssp, InvalidSourceThrows) {
  auto const graph = make_graph("chain", 1);
  EXPECT_THROW(alg::sssp(ex::par, graph, -1), essentials::graph_error);
  EXPECT_THROW(alg::sssp(ex::par, graph, graph.get_num_vertices()),
               essentials::graph_error);
  EXPECT_THROW(alg::dijkstra(graph, -5), essentials::graph_error);
}

TEST(Sssp, ZeroWeightEdgesAreHandled) {
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 3;
  coo.push_back(0, 1, 0.f);
  coo.push_back(1, 2, 0.f);
  auto const graph = g::from_coo<g::graph_push_pull>(std::move(coo));
  auto const r = alg::sssp(ex::par, graph, 0);
  EXPECT_FLOAT_EQ(r.distances[2], 0.0f);
}

TEST(Sssp, BspIterationCountIsGraphDiameterish) {
  // On a chain with unit weights, BSP SSSP needs exactly n-1 expansions
  // plus the final empty check.
  auto coo = gen::chain(50, {1.0f, 1.0f});
  auto const graph = g::from_coo<g::graph_push_pull>(std::move(coo));
  auto const r = alg::sssp(ex::par, graph, 0);
  EXPECT_EQ(r.iterations, 50u);  // 49 productive supersteps + 1 draining
}

TEST(Sssp, MessagePassingAgreesAcrossRankCounts) {
  auto const graph = make_graph("er", 3);
  auto const oracle = alg::dijkstra(graph, 0);
  for (int ranks : {1, 2, 5}) {
    expect_distances_equal(
        alg::sssp_message_passing(graph, 0, ranks).distances,
        oracle.distances, "ranks=" + std::to_string(ranks));
  }
}

TEST(Sssp, AsyncAgreesAcrossWorkerCounts) {
  auto const graph = make_graph("rmat", 5);
  auto const oracle = alg::dijkstra(graph, 0);
  for (std::size_t workers : {1u, 2u, 8u}) {
    expect_distances_equal(alg::sssp_async(graph, 0, workers).distances,
                           oracle.distances,
                           "workers=" + std::to_string(workers));
  }
}

// Integer distances on a push-pull graph.  A pull superstep folds every
// in-edge, also those out of vertices the source never reaches, whose
// distance stays at infinity_v<int>: they must offer nothing, since
// INT_MAX + w overflows (UBSan stops the run at it), and the distances
// must equal Dijkstra's.
TEST(Sssp, IntegerWeightsPullPastUnreachedSources) {
  using int_graph =
      g::graph_t<g::csr_view<vertex_t, essentials::edge_t, int>,
                 g::csc_view<vertex_t, essentials::edge_t, int>>;
  gen::rmat_options opt;
  opt.scale = 10;
  opt.edge_factor = 8;
  opt.seed = 3;
  opt.weights = {1.0f, 64.0f};
  auto const drawn = gen::rmat(opt);
  g::coo_t<vertex_t, essentials::edge_t, int> coo;
  coo.num_rows = drawn.num_rows;
  coo.num_cols = drawn.num_cols;
  for (std::size_t i = 0; i < drawn.row_indices.size(); ++i)
    if (drawn.row_indices[i] != drawn.column_indices[i])
      coo.push_back(drawn.row_indices[i], drawn.column_indices[i],
                    static_cast<int>(drawn.values[i]));
  auto const graph =
      g::from_coo<int_graph>(std::move(coo), g::duplicate_policy::keep_min);

  auto const oracle = alg::dijkstra(graph, 0).distances;
  bool unreached_source = false;
  for (vertex_t v = 0; v < graph.get_num_vertices(); ++v)
    unreached_source =
        unreached_source || (oracle[static_cast<std::size_t>(v)] ==
                                 infinity_v<int> &&
                             graph.get_out_degree(v) > 0);
  ASSERT_TRUE(unreached_source);

  std::size_t pulls = 0;  // relax_bsp's pull supersteps, seq and par
  auto const run = [&](auto policy) {
    tel::trace t;
    std::vector<int> distances;
    {
      tel::scoped_recording rec(t, "sssp");
      distances = alg::sssp(policy, graph, 0).distances;
    }
    for (auto const& s : t.supersteps)
      pulls += s.direction == essentials::direction_t::pull ? 1 : 0;
    return distances;
  };
  EXPECT_EQ(run(ex::seq), oracle);
  EXPECT_EQ(run(ex::par), oracle);
  EXPECT_EQ(alg::sssp_pull(ex::par, graph, 0).distances, oracle);
  if (tel::compiled_in) {
    EXPECT_GT(pulls, 0u);
  }
}

TEST(Sssp, DifferentSourcesOnSameGraph) {
  auto const graph = make_graph("grid", 2);
  for (vertex_t source : {0, 17, 359}) {
    auto const oracle = alg::dijkstra(graph, source);
    expect_distances_equal(alg::sssp(ex::par, graph, source).distances,
                           oracle.distances,
                           "source=" + std::to_string(source));
  }
}
