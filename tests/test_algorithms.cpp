// Tests for the wider algorithm suite: PageRank, HITS, connected
// components, triangle counting, k-core, coloring, betweenness, SpMV —
// each parallel variant against its serial oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>

#include "algorithms/betweenness.hpp"
#include "algorithms/coloring.hpp"
#include "algorithms/connected_components.hpp"
#include "algorithms/hits.hpp"
#include "algorithms/incremental.hpp"
#include "algorithms/kcore.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/spmv.hpp"
#include "algorithms/triangle_counting.hpp"
#include "core/execution.hpp"
#include "generators/generators.hpp"
#include "graph/graph.hpp"

namespace alg = essentials::algorithms;
namespace ex = essentials::execution;
namespace g = essentials::graph;
namespace gen = essentials::generators;
using essentials::vertex_t;

namespace {

/// Symmetrized, deduplicated, loop-free graph — what the undirected
/// algorithms require.
g::graph_full undirected(g::coo_t<> coo) {
  g::remove_self_loops(coo);
  g::symmetrize(coo);
  return g::from_coo<g::graph_full>(std::move(coo));
}

g::graph_full directed(g::coo_t<> coo) {
  g::remove_self_loops(coo);
  return g::from_coo<g::graph_full>(std::move(coo));
}

}  // namespace

// --- PageRank --------------------------------------------------------------

TEST(PageRank, RanksSumToOne) {
  auto const graph = directed(gen::erdos_renyi(300, 2400, {}, 3));
  auto const r = alg::pagerank(ex::par, graph);
  double const sum =
      std::accumulate(r.ranks.begin(), r.ranks.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(PageRank, ParMatchesSerial) {
  auto const graph = directed(gen::erdos_renyi(200, 1500, {}, 7));
  auto const serial = alg::pagerank_serial(graph);
  auto const par = alg::pagerank(ex::par, graph);
  ASSERT_EQ(serial.ranks.size(), par.ranks.size());
  for (std::size_t v = 0; v < par.ranks.size(); ++v)
    EXPECT_NEAR(par.ranks[v], serial.ranks[v], 1e-9) << v;
}

TEST(PageRank, PushMatchesPull) {
  gen::rmat_options opt;
  opt.scale = 7;
  opt.edge_factor = 6;
  auto const graph = directed(gen::rmat(opt));
  auto const pull = alg::pagerank(ex::par, graph);
  auto const push = alg::pagerank_push(ex::par, graph);
  for (std::size_t v = 0; v < pull.ranks.size(); ++v)
    EXPECT_NEAR(push.ranks[v], pull.ranks[v], 1e-7) << v;
}

TEST(PageRank, StarHubDominates) {
  auto const graph = undirected(gen::star(50));
  auto const r = alg::pagerank(ex::par, graph);
  for (std::size_t v = 1; v < r.ranks.size(); ++v)
    EXPECT_GT(r.ranks[0], r.ranks[v]);
}

TEST(PageRank, DanglingMassConserved) {
  // A graph where every edge points at vertex 0, which has no out-edges.
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 5;
  for (vertex_t v = 1; v < 5; ++v)
    coo.push_back(v, 0, 1.f);
  auto const graph = g::from_coo<g::graph_full>(std::move(coo));
  auto const r = alg::pagerank(ex::par, graph);
  double const sum = std::accumulate(r.ranks.begin(), r.ranks.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-6);
  EXPECT_GT(r.ranks[0], r.ranks[1]);
}

TEST(PageRank, ConvergesWithinIterationCap) {
  auto const graph = directed(gen::erdos_renyi(100, 600, {}, 2));
  alg::pagerank_options opt;
  opt.tolerance = 1e-8;
  auto const r = alg::pagerank(ex::par, graph, opt);
  EXPECT_LT(r.iterations, opt.max_iterations);
  EXPECT_LT(r.final_delta, opt.tolerance);
}

// --- HITS --------------------------------------------------------------------

TEST(Hits, HubAndAuthoritySeparation) {
  // Bipartite-ish: 0,1 point at 8,9 — hubs {0,1}, authorities {8,9}.
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 10;
  for (vertex_t h : {0, 1})
    for (vertex_t a : {8, 9})
      coo.push_back(h, a, 1.f);
  auto const graph = g::from_coo<g::graph_full>(std::move(coo));
  auto const r = alg::hits(ex::par, graph);
  EXPECT_GT(r.hubs[0], r.hubs[8]);
  EXPECT_GT(r.authorities[8], r.authorities[0]);
}

TEST(Hits, SeqMatchesPar) {
  auto const graph = directed(gen::erdos_renyi(150, 900, {}, 11));
  auto const s = alg::hits(ex::seq, graph);
  auto const p = alg::hits(ex::par, graph);
  for (std::size_t v = 0; v < s.hubs.size(); ++v) {
    EXPECT_NEAR(s.hubs[v], p.hubs[v], 1e-9);
    EXPECT_NEAR(s.authorities[v], p.authorities[v], 1e-9);
  }
}

// --- connected components -------------------------------------------------------

TEST(ConnectedComponents, LabelPropagationMatchesUnionFind) {
  auto const graph = undirected(gen::erdos_renyi(300, 500, {}, 5));
  auto const oracle = alg::connected_components_serial(graph);
  auto const lp = alg::connected_components(ex::par, graph);
  EXPECT_EQ(lp.num_components, oracle.num_components);
  // Same partition: labels agree up to renaming — min-label propagation and
  // min-union-find both canonicalize to the component minimum.
  EXPECT_EQ(lp.labels, oracle.labels);
}

TEST(ConnectedComponents, HookMatchesUnionFind) {
  auto const graph = undirected(gen::erdos_renyi(300, 500, {}, 6));
  auto const oracle = alg::connected_components_serial(graph);
  auto const hook = alg::connected_components_hook(ex::par, graph);
  EXPECT_EQ(hook.num_components, oracle.num_components);
  // Hook labels are roots, not necessarily minima; compare partitions.
  for (vertex_t u = 0; u < graph.get_num_vertices(); ++u) {
    for (vertex_t v = u + 1; v < graph.get_num_vertices(); ++v) {
      EXPECT_EQ(oracle.labels[u] == oracle.labels[v],
                hook.labels[u] == hook.labels[v])
          << u << "," << v;
    }
  }
}

TEST(ConnectedComponents, CountsIslandsAndClusters) {
  // Three known components: a triangle, an edge, an isolated vertex.
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 6;
  coo.push_back(0, 1, 1.f);
  coo.push_back(1, 2, 1.f);
  coo.push_back(2, 0, 1.f);
  coo.push_back(3, 4, 1.f);
  auto const graph = undirected(std::move(coo));
  auto const r = alg::connected_components(ex::par, graph);
  EXPECT_EQ(r.num_components, 3u);
  EXPECT_EQ(r.labels[0], r.labels[2]);
  EXPECT_EQ(r.labels[3], r.labels[4]);
  EXPECT_NE(r.labels[0], r.labels[3]);
  EXPECT_EQ(r.labels[5], 5);
}

TEST(ConnectedComponents, EveryVariantCountsIsolatedVertices) {
  // A sparse random graph on ids [0, 200) of 260: many small components,
  // and ids 200..259 isolated, one component each.  Every variant's count
  // must equal union-find's, which must equal its distinct labels.
  auto coo = gen::erdos_renyi(200, 150, {}, 9);
  coo.num_rows = coo.num_cols = 260;
  g::remove_self_loops(coo);
  std::size_t const half = coo.row_indices.size() / 2;
  g::coo_t<> first_half;
  first_half.num_rows = first_half.num_cols = 260;
  g::edge_delta_t<> delta;
  delta.complete = true;
  for (std::size_t i = 0; i < coo.row_indices.size(); ++i) {
    vertex_t const u = coo.row_indices[i], v = coo.column_indices[i];
    if (i < half) {
      first_half.push_back(u, v, coo.values[i]);
    } else {
      delta.records.push_back({u, v, coo.values[i], g::delta_op::insert});
      delta.records.push_back({v, u, coo.values[i], g::delta_op::insert});
    }
  }
  auto const graph = undirected(coo);
  g::coo_t<> symmetric = coo;
  g::symmetrize(symmetric);
  auto const push_only = g::from_coo<g::graph_csr>(std::move(symmetric));

  auto const oracle = alg::connected_components_serial(graph);
  std::size_t const distinct =
      std::set<vertex_t>(oracle.labels.begin(), oracle.labels.end()).size();
  ASSERT_GT(distinct, 60u);
  EXPECT_EQ(oracle.num_components, distinct);
  EXPECT_EQ(alg::connected_components(ex::seq, graph).num_components,
            distinct);
  EXPECT_EQ(alg::connected_components(ex::par, graph).num_components,
            distinct);
  EXPECT_EQ(alg::connected_components(ex::par, push_only).num_components,
            distinct);
  EXPECT_EQ(alg::connected_components_hook(ex::par, graph).num_components,
            distinct);
  alg::incremental_outcome out;
  auto const warm = alg::connected_components_incremental(
      ex::par, graph,
      alg::connected_components(ex::par, undirected(std::move(first_half))),
      delta, &out);
  EXPECT_TRUE(out.warm_started);
  EXPECT_EQ(warm.num_components, distinct);
}

// --- triangle counting ------------------------------------------------------------

TEST(TriangleCounting, KnownCounts) {
  // A 4-clique has C(4,3) = 4 triangles.
  auto const clique = undirected(gen::complete(4));
  EXPECT_EQ(alg::triangle_count(ex::par, clique), 4u);
  // A 4-cycle has none.
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 4;
  coo.push_back(0, 1, 1.f);
  coo.push_back(1, 2, 1.f);
  coo.push_back(2, 3, 1.f);
  coo.push_back(3, 0, 1.f);
  auto const cycle = undirected(std::move(coo));
  EXPECT_EQ(alg::triangle_count(ex::par, cycle), 0u);
}

TEST(TriangleCounting, ParMatchesSerialOracle) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    auto const graph = undirected(gen::erdos_renyi(120, 1200, {}, seed));
    EXPECT_EQ(alg::triangle_count(ex::par, graph),
              alg::triangle_count_serial(graph))
        << "seed " << seed;
  }
}

TEST(TriangleCounting, CompleteGraphFormula) {
  auto const graph = undirected(gen::complete(10));
  // C(10,3) = 120
  EXPECT_EQ(alg::triangle_count(ex::par, graph), 120u);
}

// --- k-core ------------------------------------------------------------------------

TEST(KCore, CliqueCoreness) {
  auto const graph = undirected(gen::complete(6));
  auto const r = alg::kcore(ex::par, graph);
  for (auto const c : r.coreness)
    EXPECT_EQ(c, 5);
  EXPECT_EQ(r.max_core, 5);
}

TEST(KCore, ChainCorenessIsOne) {
  auto coo = gen::chain(20);
  auto const graph = undirected(std::move(coo));
  auto const r = alg::kcore(ex::par, graph);
  for (auto const c : r.coreness)
    EXPECT_EQ(c, 1);
}

TEST(KCore, ParMatchesSerial) {
  for (std::uint64_t seed : {4u, 9u}) {
    auto const graph = undirected(gen::erdos_renyi(200, 1600, {}, seed));
    auto const par = alg::kcore(ex::par, graph);
    auto const ser = alg::kcore_serial(graph);
    EXPECT_EQ(par.coreness, ser.coreness) << "seed " << seed;
    EXPECT_EQ(par.max_core, ser.max_core);
  }
}

// --- coloring -----------------------------------------------------------------------

TEST(Coloring, JonesPlassmannProducesValidColoring) {
  for (std::uint64_t seed : {1u, 5u}) {
    auto const graph = undirected(gen::erdos_renyi(250, 2000, {}, seed));
    auto const r = alg::color_jones_plassmann(ex::par, graph, seed);
    EXPECT_TRUE(alg::is_valid_coloring(graph, r.colors)) << "seed " << seed;
    EXPECT_GE(r.num_colors, 1);
  }
}

TEST(Coloring, SerialFirstFitValid) {
  auto const graph = undirected(gen::watts_strogatz(150, 3, 0.3, {}, 2));
  auto const r = alg::color_serial(graph);
  EXPECT_TRUE(alg::is_valid_coloring(graph, r.colors));
}

TEST(Coloring, BipartiteNeedsTwoColors) {
  // Star graphs are bipartite: hub one color, spokes another.
  auto const graph = undirected(gen::star(40));
  auto const jp = alg::color_jones_plassmann(ex::par, graph);
  EXPECT_TRUE(alg::is_valid_coloring(graph, jp.colors));
  EXPECT_LE(jp.num_colors, 2);
}

TEST(Coloring, CliqueNeedsNColors) {
  auto const graph = undirected(gen::complete(7));
  auto const jp = alg::color_jones_plassmann(ex::par, graph);
  EXPECT_TRUE(alg::is_valid_coloring(graph, jp.colors));
  EXPECT_EQ(jp.num_colors, 7);
}

// --- betweenness ---------------------------------------------------------------------

TEST(Betweenness, ParallelMatchesBrandesOracle) {
  auto const graph = undirected(gen::erdos_renyi(80, 500, {}, 8));
  auto const oracle = alg::betweenness_serial(graph);
  auto const par = alg::betweenness(ex::par, graph);
  ASSERT_EQ(par.centrality.size(), oracle.centrality.size());
  for (std::size_t v = 0; v < oracle.centrality.size(); ++v)
    EXPECT_NEAR(par.centrality[v], oracle.centrality[v], 1e-6) << v;
}

TEST(Betweenness, PathCenterHasHighestCentrality) {
  auto coo = gen::chain(9);
  auto const graph = undirected(std::move(coo));
  auto const r = alg::betweenness(ex::par, graph);
  // Middle of a path mediates the most shortest paths.
  for (std::size_t v = 0; v < 9; ++v) {
    if (v != 4) {
      EXPECT_GE(r.centrality[4], r.centrality[v]);
    }
  }
  EXPECT_DOUBLE_EQ(r.centrality[0], 0.0);
}

TEST(Betweenness, StarHubTakesAll) {
  auto const graph = undirected(gen::star(10));
  auto const r = alg::betweenness(ex::par, graph);
  // Every spoke-to-spoke shortest path routes through the hub: 9*8 ordered
  // pairs.
  EXPECT_NEAR(r.centrality[0], 72.0, 1e-9);
  for (std::size_t v = 1; v < 10; ++v)
    EXPECT_NEAR(r.centrality[v], 0.0, 1e-12);
}

TEST(Betweenness, SampledSourcesSubsetOfExact) {
  auto const graph = undirected(gen::erdos_renyi(60, 400, {}, 4));
  auto const sampled = alg::betweenness(ex::par, graph, 10);
  auto const oracle = alg::betweenness_serial(graph, 10);
  for (std::size_t v = 0; v < oracle.centrality.size(); ++v)
    EXPECT_NEAR(sampled.centrality[v], oracle.centrality[v], 1e-6);
}

// --- SpMV ---------------------------------------------------------------------------

TEST(Spmv, MatchesManualComputation) {
  // 2x2: A = [[0, 2], [3, 0]] as a graph: 0->1 w2, 1->0 w3.
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 2;
  coo.push_back(0, 1, 2.f);
  coo.push_back(1, 0, 3.f);
  auto const graph = g::from_coo<g::graph_full>(std::move(coo));
  std::vector<double> x{10.0, 100.0};
  auto const y = alg::spmv(ex::par, graph, x);
  EXPECT_DOUBLE_EQ(y[0], 200.0);  // 2 * x[1]
  EXPECT_DOUBLE_EQ(y[1], 30.0);   // 3 * x[0]
}

TEST(Spmv, TransposeMatchesTransposedGraph) {
  auto coo = gen::erdos_renyi(100, 900, {0.1f, 2.0f}, 6);
  g::sort_and_deduplicate(coo);
  auto const graph = g::from_coo<g::graph_full>(coo);
  g::transpose(coo);
  auto const graph_t = g::from_coo<g::graph_full>(std::move(coo));

  std::vector<double> x(100);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = static_cast<double>(i % 13) * 0.5;

  auto const scatter = alg::spmv_transpose(ex::par, graph, x);
  auto const gather = alg::spmv(ex::par, graph_t, x);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(scatter[i], gather[i], 1e-9) << i;
}

TEST(Spmv, ParMatchesSerial) {
  auto const graph = directed(gen::erdos_renyi(200, 2000, {0.5f, 1.5f}, 9));
  std::vector<double> x(200, 1.0);
  auto const s = alg::spmv_serial(graph, x);
  auto const p = alg::spmv(ex::par, graph, x);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(s[i], p[i], 1e-12);
}

TEST(Spmv, DimensionMismatchThrows) {
  auto const graph = directed(gen::chain(5));
  std::vector<double> wrong(3, 1.0);
  EXPECT_THROW(alg::spmv(ex::par, graph, wrong), essentials::graph_error);
}
