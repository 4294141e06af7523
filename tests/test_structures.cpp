// Tests for the structural extensions: parallel sort, vertex reordering,
// subgraph extraction, the dynamic (mutable) graph, and random walks.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "algorithms/random_walk.hpp"
#include "essentials.hpp"

namespace e = essentials;
namespace g = e::graph;
using e::vertex_t;

// --- parallel sort -------------------------------------------------------------

TEST(ParallelSort, MatchesStdSortOnRandomData) {
  e::parallel::thread_pool pool(4);
  for (std::size_t n : {0u, 1u, 100u, 4096u, 100'000u}) {
    std::vector<int> data(n);
    e::generators::rng_t rng(n + 1);
    for (auto& d : data)
      d = static_cast<int>(rng.next_below(1'000'000));
    auto expected = data;
    std::sort(expected.begin(), expected.end());
    e::parallel::sort(pool, data);
    EXPECT_EQ(data, expected) << "n=" << n;
  }
}

TEST(ParallelSort, CustomComparator) {
  e::parallel::thread_pool pool(3);
  std::vector<int> data(50'000);
  e::generators::rng_t rng(9);
  for (auto& d : data)
    d = static_cast<int>(rng.next_below(1000));
  e::parallel::sort(pool, data, std::greater<int>{});
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end(), std::greater<int>{}));
}

TEST(ParallelSort, AlreadySortedAndReversed) {
  e::parallel::thread_pool pool(4);
  std::vector<int> inc(50'000);
  std::iota(inc.begin(), inc.end(), 0);
  auto dec = inc;
  std::reverse(dec.begin(), dec.end());
  auto const want = inc;
  e::parallel::sort(pool, inc);
  e::parallel::sort(pool, dec);
  EXPECT_EQ(inc, want);
  EXPECT_EQ(dec, want);
}

TEST(ParallelSort, PairsSortLexicographically) {
  e::parallel::thread_pool pool(4);
  std::vector<std::pair<int, int>> data(30'000);
  e::generators::rng_t rng(2);
  for (auto& d : data)
    d = {static_cast<int>(rng.next_below(100)),
         static_cast<int>(rng.next_below(100))};
  auto expected = data;
  std::sort(expected.begin(), expected.end());
  e::parallel::sort(pool, data);
  EXPECT_EQ(data, expected);
}

// --- reorder ---------------------------------------------------------------------

TEST(Reorder, DegreeOrderPutsHubFirst) {
  auto coo = e::generators::star(100);
  g::sort_and_deduplicate(coo);
  auto const csr = g::build_csr(coo);
  auto const perm = g::order_by_degree(csr);
  EXPECT_EQ(perm[0], 0);  // hub keeps position 0 (it has max degree)
}

TEST(Reorder, PermutationIsABijection) {
  e::generators::rmat_options opt;
  opt.scale = 8;
  opt.edge_factor = 4;
  auto coo = e::generators::rmat(opt);
  g::sort_and_deduplicate(coo);
  auto const csr = g::build_csr(coo);
  for (auto const& perm : {g::order_by_degree(csr), g::order_by_bfs(csr, 0)}) {
    std::set<vertex_t> ids(perm.begin(), perm.end());
    EXPECT_EQ(ids.size(), perm.size());
    EXPECT_EQ(*ids.begin(), 0);
    EXPECT_EQ(*ids.rbegin(), static_cast<vertex_t>(perm.size() - 1));
  }
}

TEST(Reorder, InverseRoundTrips) {
  auto coo = e::generators::grid_2d(8, 8);
  g::sort_and_deduplicate(coo);
  auto const csr = g::build_csr(coo);
  auto const perm = g::order_by_bfs(csr, 5);
  auto const inv = g::permutation_inverse(perm);
  for (std::size_t v = 0; v < perm.size(); ++v)
    EXPECT_EQ(inv[static_cast<std::size_t>(perm[v])],
              static_cast<vertex_t>(v));
}

TEST(Reorder, RelabeledGraphIsIsomorphic) {
  // SSSP distances on the reordered graph, mapped back through the
  // permutation, must equal distances on the original.
  auto coo = e::generators::erdos_renyi(200, 1600, {1.0f, 3.0f}, 7);
  g::remove_self_loops(coo);
  g::sort_and_deduplicate(coo, g::duplicate_policy::keep_min);
  auto const csr = g::build_csr(coo);
  auto const perm = g::order_by_degree(csr);

  auto relabeled = g::apply_permutation(coo, perm);
  auto const orig = g::from_coo<g::graph_csr>(std::move(coo),
                                              g::duplicate_policy::keep_min);
  auto const relab = g::from_coo<g::graph_csr>(std::move(relabeled),
                                               g::duplicate_policy::keep_min);

  auto const d_orig = e::algorithms::dijkstra(orig, 0).distances;
  auto const d_relab = e::algorithms::dijkstra(relab, perm[0]).distances;
  for (std::size_t v = 0; v < d_orig.size(); ++v)
    EXPECT_FLOAT_EQ(d_relab[static_cast<std::size_t>(perm[v])], d_orig[v])
        << v;
}

TEST(Reorder, BfsOrderImprovesEdgeSpanOnMeshes) {
  // Shuffle a grid's ids, then show BFS ordering restores locality.
  auto coo = e::generators::grid_2d(32, 32);
  g::sort_and_deduplicate(coo);
  auto const csr = g::build_csr(coo);

  // "Random" permutation via degree order on a shuffled key: emulate by
  // multiplying ids by a co-prime constant mod n.
  std::size_t const n = static_cast<std::size_t>(csr.num_rows);
  g::permutation_t<vertex_t> scrambled(n);
  for (std::size_t v = 0; v < n; ++v)
    scrambled[v] = static_cast<vertex_t>((v * 421) % n);  // 421 coprime to 1024
  auto scrambled_coo = g::apply_permutation(coo, scrambled);
  g::sort_and_deduplicate(scrambled_coo);
  auto const scrambled_csr = g::build_csr(scrambled_coo);

  g::permutation_t<vertex_t> identity(n);
  std::iota(identity.begin(), identity.end(), 0);
  auto const bfs_perm = g::order_by_bfs(scrambled_csr, 0);
  EXPECT_LT(g::average_edge_span(scrambled_csr, bfs_perm),
            g::average_edge_span(scrambled_csr, identity));
}

// --- subgraph ---------------------------------------------------------------------

TEST(Subgraph, InducedKeepsOnlyInternalEdges) {
  // Path 0-1-2-3-4 (directed chain); keep {1, 2, 3}.
  auto coo = e::generators::chain(5);
  auto const csr = g::build_csr(coo);
  std::vector<bool> keep{false, true, true, true, false};
  auto const sub = g::induced_subgraph(csr, keep);
  EXPECT_EQ(sub.to_global, (std::vector<vertex_t>{1, 2, 3}));
  EXPECT_EQ(sub.edges.num_edges(), 2);  // 1->2, 2->3 survive
  EXPECT_EQ(sub.to_local[0], e::invalid_vertex<vertex_t>);
  EXPECT_EQ(sub.to_local[2], 1);
}

TEST(Subgraph, EgoNetworkRadius) {
  auto coo = e::generators::chain(10);
  auto const csr = g::build_csr(coo);
  auto const ego = g::ego_network(csr, vertex_t{2}, 3);
  // Directed chain: 2 reaches 3, 4, 5 within 3 hops (plus itself).
  EXPECT_EQ(ego.to_global, (std::vector<vertex_t>{2, 3, 4, 5}));
  EXPECT_EQ(ego.edges.num_edges(), 3);
}

TEST(Subgraph, EgoZeroHopsIsJustTheCenter) {
  auto coo = e::generators::star(10);
  g::sort_and_deduplicate(coo);
  auto const csr = g::build_csr(coo);
  auto const ego = g::ego_network(csr, vertex_t{0}, 0);
  EXPECT_EQ(ego.to_global, (std::vector<vertex_t>{0}));
  EXPECT_EQ(ego.edges.num_edges(), 0);
}

TEST(Subgraph, AlgorithmsRunOnExtractedSubgraph) {
  // Extract the 2-hop ego net of a hub and run CC on it — the pipeline an
  // analyst actually runs.
  e::generators::rmat_options opt;
  opt.scale = 9;
  opt.edge_factor = 8;
  auto coo = e::generators::rmat(opt);
  g::remove_self_loops(coo);
  g::symmetrize(coo);
  g::sort_and_deduplicate(coo);
  auto const csr = g::build_csr(coo);
  auto const ego = g::ego_network(csr, vertex_t{0}, 2);
  ASSERT_GT(ego.to_global.size(), 1u);
  auto const sub_graph = g::from_coo<g::graph_full>(ego.edges);
  auto const cc = e::algorithms::connected_components(e::execution::par,
                                                      sub_graph);
  // An ego network grown along symmetric edges is connected.
  EXPECT_EQ(cc.num_components, 1u);
}

// --- dynamic graph ------------------------------------------------------------------

TEST(DynamicGraph, InsertQueryRemove) {
  g::dynamic_graph_t<> dyn(4);
  EXPECT_EQ(dyn.num_edges(), 0u);
  dyn.add_edge(0, 1, 2.0f);
  dyn.add_edge(0, 2, 3.0f);
  EXPECT_TRUE(dyn.has_edge(0, 1));
  EXPECT_FALSE(dyn.has_edge(1, 0));
  EXPECT_EQ(dyn.out_degree(0), 2);
  EXPECT_TRUE(dyn.remove_edge(0, 1));
  EXPECT_FALSE(dyn.remove_edge(0, 1));
  EXPECT_FALSE(dyn.has_edge(0, 1));
  EXPECT_EQ(dyn.num_edges(), 1u);
}

TEST(DynamicGraph, DuplicateInsertUpdatesWeight) {
  g::dynamic_graph_t<> dyn(2);
  dyn.add_edge(0, 1, 1.0f);
  dyn.add_edge(0, 1, 9.0f);
  EXPECT_EQ(dyn.num_edges(), 1u);
  auto const coo = dyn.to_coo();
  EXPECT_FLOAT_EQ(coo.values[0], 9.0f);
}

TEST(DynamicGraph, ConcurrentIngestLosesNothing) {
  g::dynamic_graph_t<> dyn(1000);
  e::parallel::thread_pool pool(4);
  pool.run_blocked(999, [&dyn](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      dyn.add_edge(static_cast<vertex_t>(i), static_cast<vertex_t>(i + 1),
                   1.0f);
  });
  EXPECT_EQ(dyn.num_edges(), 999u);
}

TEST(DynamicGraph, SnapshotFeedsAnalytics) {
  // Streaming ingest -> snapshot -> SSSP epoch, twice, with an edge update
  // between epochs changing the answer.
  g::dynamic_graph_t<> dyn(3);
  dyn.add_edge(0, 1, 1.0f);
  dyn.add_edge(1, 2, 1.0f);
  dyn.add_edge(0, 2, 5.0f);
  auto const g1 = dyn.snapshot<g::graph_csr>();
  EXPECT_FLOAT_EQ(e::algorithms::sssp(e::execution::par, g1, 0).distances[2],
                  2.0f);
  dyn.add_edge(0, 2, 0.5f);  // direct shortcut gets cheap
  auto const g2 = dyn.snapshot<g::graph_csr>();
  EXPECT_FLOAT_EQ(e::algorithms::sssp(e::execution::par, g2, 0).distances[2],
                  0.5f);
}

TEST(DynamicGraph, SnapshotMatchesSortedCoo) {
  // Removals swap the last neighbor forward, so buckets are out of column
  // order; the snapshot's one sort must still give the canonical graph.
  g::dynamic_graph_t<> dyn(64);
  e::generators::rng_t rng(9);
  for (int i = 0; i < 900; ++i) {
    auto const u = static_cast<vertex_t>(rng.next_below(64));
    auto const v = static_cast<vertex_t>(rng.next_below(64));
    if (i % 5 == 4)
      dyn.remove_edge(u, v);
    else
      dyn.add_edge(u, v, rng.next_float(0.5f, 2.0f));
  }
  auto const coo = dyn.to_coo();
  EXPECT_TRUE(std::is_sorted(
      coo.row_indices.begin(), coo.row_indices.end()));
  auto const want = g::from_coo<g::graph_full>(coo);
  auto const got = dyn.snapshot<g::graph_full>();
  EXPECT_EQ(got.csr().row_offsets, want.csr().row_offsets);
  EXPECT_EQ(got.csr().column_indices, want.csr().column_indices);
  EXPECT_EQ(got.csr().values, want.csr().values);
  EXPECT_EQ(got.csc().column_offsets, want.csc().column_offsets);
  EXPECT_EQ(got.csc().row_indices, want.csc().row_indices);
  EXPECT_EQ(got.csc().values, want.csc().values);
  EXPECT_EQ(got.coo().row_indices, coo.row_indices);
  EXPECT_EQ(got.coo().column_indices, coo.column_indices);
  EXPECT_EQ(got.coo().values, coo.values);
}

TEST(DynamicGraph, OutOfRangeThrows) {
  g::dynamic_graph_t<> dyn(2);
  EXPECT_THROW(dyn.add_edge(0, 5, 1.0f), e::graph_error);
  EXPECT_THROW(dyn.add_edge(-1, 0, 1.0f), e::graph_error);
}

// --- random walks --------------------------------------------------------------------

TEST(RandomWalks, WalksFollowEdges) {
  e::generators::rmat_options opt;
  opt.scale = 7;
  opt.edge_factor = 8;
  auto coo = e::generators::rmat(opt);
  g::remove_self_loops(coo);
  auto const gr = g::from_coo<g::graph_csr>(std::move(coo));
  auto const r = e::algorithms::random_walks(
      e::execution::par, gr, {0, 1, 2}, {.num_walks = 4, .walk_length = 6});
  ASSERT_EQ(r.walks.size(), 12u);
  for (auto const& walk : r.walks) {
    ASSERT_GE(walk.size(), 1u);
    for (std::size_t i = 1; i < walk.size(); ++i) {
      bool edge_exists = false;
      for (auto const e2 : gr.get_edges(walk[i - 1]))
        edge_exists |= (gr.get_dest_vertex(e2) == walk[i]);
      EXPECT_TRUE(edge_exists)
          << walk[i - 1] << " -> " << walk[i] << " is not an edge";
    }
  }
}

TEST(RandomWalks, DeterministicAcrossPolicies) {
  auto coo = e::generators::erdos_renyi(100, 1000, {}, 3);
  g::remove_self_loops(coo);
  auto const gr = g::from_coo<g::graph_csr>(std::move(coo));
  std::vector<vertex_t> starts{0, 5, 9};
  e::algorithms::random_walk_options opt{.num_walks = 8, .walk_length = 10,
                                         .weighted = false, .seed = 42};
  auto const seq = e::algorithms::random_walks(e::execution::seq, gr, starts, opt);
  auto const par = e::algorithms::random_walks(e::execution::par, gr, starts, opt);
  ASSERT_EQ(seq.walks.size(), par.walks.size());
  for (std::size_t w = 0; w < seq.walks.size(); ++w)
    EXPECT_EQ(seq.walks[w], par.walks[w]) << "walk " << w;
}

TEST(RandomWalks, SinkStopsWalk) {
  auto coo = e::generators::chain(3);  // 0 -> 1 -> 2 (2 is a sink)
  auto const gr = g::from_coo<g::graph_csr>(std::move(coo));
  auto const r = e::algorithms::random_walks(
      e::execution::seq, gr, {0}, {.num_walks = 1, .walk_length = 10});
  EXPECT_EQ(r.walks[0], (std::vector<vertex_t>{0, 1, 2}));
}

TEST(RandomWalks, WeightedSamplingPrefersHeavyEdges) {
  // 0 -> 1 (weight 99), 0 -> 2 (weight 1): walks overwhelmingly pick 1.
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 3;
  coo.push_back(0, 1, 99.0f);
  coo.push_back(0, 2, 1.0f);
  auto const gr = g::from_coo<g::graph_csr>(std::move(coo));
  auto const r = e::algorithms::random_walks(
      e::execution::seq, gr, {0},
      {.num_walks = 200, .walk_length = 1, .weighted = true, .seed = 7});
  int to_heavy = 0;
  for (auto const& walk : r.walks)
    to_heavy += (walk.size() > 1 && walk[1] == 1);
  EXPECT_GT(to_heavy, 170);
}

TEST(RandomWalks, VisitFrequenciesSumToOne) {
  auto coo = e::generators::grid_2d(6, 6);
  auto const gr = g::from_coo<g::graph_csr>(std::move(coo));
  auto const r = e::algorithms::random_walks(
      e::execution::par, gr, {0, 18, 35}, {.num_walks = 10, .walk_length = 12});
  auto const freq = e::algorithms::visit_frequencies(
      r, static_cast<std::size_t>(gr.get_num_vertices()));
  double sum = 0.0;
  for (double const f : freq)
    sum += f;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}
