// Tests for the wider algorithm suite: PageRank, HITS, connected
// components, triangle counting, k-core, coloring, betweenness, SpMV —
// each parallel variant against its serial oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <numeric>
#include <set>
#include <string>
#include <vector>

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
#include "core/telemetry.hpp"
#include "generators/generators.hpp"
#include "generators/random.hpp"
#include "graph/compressed.hpp"
#include "graph/graph.hpp"
#include "io/mapped.hpp"
#include "partition/partition.hpp"
#include "partition/partitioned_graph.hpp"

namespace alg = essentials::algorithms;
namespace ex = essentials::execution;
namespace g = essentials::graph;
namespace gen = essentials::generators;
namespace tel = essentials::telemetry;
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

/// Cold CC under seq and par equals union-find bit for bit, and counts
/// Afforest's link phases.
template <typename G>
void expect_cc_matches_union_find(G const& graph, std::string const& label) {
  auto const oracle = alg::connected_components_serial(graph);
  auto const seq = alg::connected_components(ex::seq, graph);
  auto const par = alg::connected_components(ex::par, graph);
  EXPECT_EQ(seq.labels, oracle.labels) << label << "/seq";
  EXPECT_EQ(par.labels, oracle.labels) << label << "/par";
  EXPECT_EQ(seq.num_components, oracle.num_components) << label << "/seq";
  EXPECT_EQ(par.num_components, oracle.num_components) << label << "/par";
  EXPECT_EQ(seq.iterations, alg::detail::afforest_phases) << label << "/seq";
  EXPECT_EQ(par.iterations, alg::detail::afforest_phases) << label << "/par";
}

/// `coo` with every vertex v renamed n - 1 - v.
g::coo_t<> reversed_ids(g::coo_t<> coo) {
  vertex_t const last = coo.num_rows - 1;
  for (auto& u : coo.row_indices)
    u = last - u;
  for (auto& v : coo.column_indices)
    v = last - v;
  return coo;
}

/// `coo` with its vertex ids shuffled by a seeded permutation.
g::coo_t<> shuffled_ids(g::coo_t<> coo, std::uint64_t seed) {
  std::vector<vertex_t> perm(static_cast<std::size_t>(coo.num_rows));
  std::iota(perm.begin(), perm.end(), vertex_t{0});
  gen::rng_t rng(seed);
  for (std::size_t i = perm.size(); i > 1; --i)
    std::swap(perm[i - 1], perm[rng.next_below(i)]);
  for (auto& u : coo.row_indices)
    u = perm[static_cast<std::size_t>(u)];
  for (auto& v : coo.column_indices)
    v = perm[static_cast<std::size_t>(v)];
  return coo;
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
  // Same labels, not just the same partition: Afforest's roots and
  // min-union-find both name a component by its minimum.
  EXPECT_EQ(lp.labels, oracle.labels);
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
  alg::incremental_outcome out;
  auto const warm = alg::connected_components_incremental(
      ex::par, graph,
      alg::connected_components(ex::par, undirected(std::move(first_half))),
      delta, &out);
  EXPECT_TRUE(out.warm_started);
  EXPECT_EQ(warm.num_components, distinct);
}

TEST(ConnectedComponents, EveryInputShapeMatchesUnionFind) {
  expect_cc_matches_union_find(undirected(gen::grid_2d(30, 40)), "grid");
  // Every vertex's out-edges are its sampled ones: the last phase links
  // nothing, in id order and with the ids shuffled.
  expect_cc_matches_union_find(undirected(gen::chain(5000)), "chain");
  expect_cc_matches_union_find(
      undirected(shuffled_ids(gen::chain(5000), 3)), "shuffled chain");
  // The hub has the largest id, so every spoke's only edge points up and
  // the hub's tree must end under spoke 0.
  expect_cc_matches_union_find(undirected(reversed_ids(gen::star(2000))),
                               "star");
  gen::rmat_options opt;
  opt.scale = 11;
  opt.edge_factor = 8;
  opt.seed = 17;
  expect_cc_matches_union_find(undirected(gen::rmat(opt)), "rmat");
  // Cliques on the even and on the odd ids, joined by the edge (50, 51),
  // which sits past the first two out-edges of both ends: the sampling
  // rounds leave two trees, and only the last phase joins them.
  g::coo_t<> cliques;
  cliques.num_rows = cliques.num_cols = 100;
  for (vertex_t u = 0; u < 100; ++u)
    for (vertex_t v = u + 2; v < 100; v += 2)
      cliques.push_back(u, v, 1.f);
  cliques.push_back(50, 51, 1.f);
  expect_cc_matches_union_find(undirected(std::move(cliques)), "cliques");
}

TEST(ConnectedComponents, VotedLabelOfASingletonSkipsOnlyThatVertex) {
  // Four pairs on ids 0-7 and 200 isolated vertices: the vote lands on an
  // isolated vertex's label, so the last phase skips one vertex that has
  // no edges and links every other vertex's remaining out-edges.
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 208;
  for (vertex_t u = 0; u < 8; u += 2)
    coo.push_back(u, u + 1, 1.f);
  auto const graph = undirected(std::move(coo));
  auto const oracle = alg::connected_components_serial(graph);
  // Every component is whole after the first sampling round, so the
  // vote sees the final labels.
  vertex_t const voted =
      alg::detail::afforest_vote(oracle.labels.data(), oracle.labels.size());
  ASSERT_EQ(std::count(oracle.labels.begin(), oracle.labels.end(), voted), 1)
      << "the vote falls on a pair; this input no longer tests a singleton";
  expect_cc_matches_union_find(graph, "isolated vertices and pairs");
}

TEST(ConnectedComponents, EmptyGraphAndSelfLoop) {
  g::coo_t<> empty;
  auto const none = g::from_coo<g::graph_push_pull>(std::move(empty));
  expect_cc_matches_union_find(none, "empty");
  EXPECT_EQ(alg::connected_components(ex::par, none).num_components, 0u);

  g::coo_t<> loop;
  loop.num_rows = loop.num_cols = 1;
  loop.push_back(0, 0, 1.f);
  auto const one = g::from_coo<g::graph_push_pull>(std::move(loop));
  expect_cc_matches_union_find(one, "self-loop");
  EXPECT_EQ(alg::connected_components(ex::seq, one).labels,
            std::vector<vertex_t>{0});
}

TEST(ConnectedComponents, RecordedCallHasOneSuperstepPerLinkPhase) {
  gen::rmat_options opt;
  opt.scale = 10;
  opt.seed = 23;
  auto const graph = undirected(gen::rmat(opt));
  auto const n = static_cast<std::size_t>(graph.get_num_vertices());
  auto const m = static_cast<std::size_t>(graph.get_num_edges());
  auto const check = [&](auto policy, char const* label) {
    tel::trace t;
    alg::cc_result<> r;
    {
      tel::scoped_recording rec(t, "cc");
      r = alg::connected_components(policy, graph);
    }
    if (!tel::compiled_in) {
      EXPECT_EQ(t.num_supersteps(), 0u) << label;
      return;
    }
    EXPECT_EQ(t.num_supersteps(), r.iterations) << label;
    std::size_t offered = 0, hooked = 0;
    for (auto const& s : t.supersteps) {
      ASSERT_EQ(s.ops.size(), 2u) << label;
      EXPECT_EQ(s.ops[0].name, "cc.link") << label;
      EXPECT_EQ(s.ops[1].name, "cc.compress") << label;
      EXPECT_EQ(s.ops[1].edges_inspected, 0u) << label;
      offered += s.ops[0].edges_inspected;
      hooked += s.ops[0].edges_relaxed;
    }
    // Every hook joins two trees, and no out-edge is offered twice.
    EXPECT_EQ(hooked, n - r.num_components) << label;
    EXPECT_LE(offered, m) << label;
  };
  check(ex::seq, "seq");
  check(ex::par, "par");
}

TEST(ConnectedComponents, EveryRepresentationMatchesPlainCsr) {
  // One symmetric R-MAT behind every graph with a CSR view: the others
  // reach "the r-th out-edge" through get_edges and their accessors.
  gen::rmat_options opt;
  opt.scale = 11;
  opt.edge_factor = 8;
  opt.seed = 29;
  auto coo = gen::rmat(opt);
  g::remove_self_loops(coo);
  g::symmetrize(coo);
  g::sort_and_deduplicate(coo, g::duplicate_policy::keep_min);
  auto const csr = g::build_csr(coo);
  g::graph_csr plain;
  plain.set_csr(csr);
  auto const want = alg::connected_components_serial(plain).labels;
  ASSERT_LT(std::set<vertex_t>(want.begin(), want.end()).size(), want.size());

  auto const expect_want = [&want](auto const& graph, char const* label) {
    EXPECT_EQ(alg::connected_components(ex::seq, graph).labels, want)
        << label << "/seq";
    EXPECT_EQ(alg::connected_components(ex::par, graph).labels, want)
        << label << "/par";
  };
  expect_want(plain, "csr");
  expect_want(g::compressed_graph<>(csr), "compressed");
  expect_want(essentials::partition::partitioned_graph_t<>(
                  csr, essentials::partition::partition_random(
                           csr.num_rows, 4, 31)),
              "partitioned");

  auto const dir = std::filesystem::temp_directory_path() /
                   "essentials-cc-representations";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto const path = (dir / "g.blk").string();
  essentials::io::write_mapped_graph(path, csr);
  expect_want(essentials::io::mapped_graph<>(path), "mapped");
  std::filesystem::remove_all(dir);
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
