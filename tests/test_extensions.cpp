// Tests for the extension features beyond the paper's minimal surface:
// delta-stepping SSSP, Luby MIS, and label-propagation communities.
#include <gtest/gtest.h>

#include "algorithms/label_propagation.hpp"
#include "algorithms/mis.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/sssp_delta.hpp"
#include "essentials.hpp"

namespace e = essentials;
using e::vertex_t;

namespace {

e::graph::graph_csr skewed_graph(std::uint64_t seed = 5) {
  e::generators::rmat_options opt;
  opt.scale = 9;
  opt.edge_factor = 8;
  opt.seed = seed;
  opt.weights = {0.5f, 3.0f};
  auto coo = e::generators::rmat(opt);
  e::graph::remove_self_loops(coo);
  return e::graph::from_coo<e::graph::graph_csr>(
      std::move(coo), e::graph::duplicate_policy::keep_min);
}

e::graph::graph_full undirected(e::graph::coo_t<> coo) {
  e::graph::remove_self_loops(coo);
  e::graph::symmetrize(coo);
  return e::graph::from_coo<e::graph::graph_full>(std::move(coo));
}

}  // namespace

// --- delta-stepping -------------------------------------------------------------

TEST(DeltaStepping, MatchesDijkstraAcrossDeltas) {
  auto const g = skewed_graph(11);
  auto const oracle = e::algorithms::dijkstra(g, 0).distances;
  for (float delta : {0.0f /*auto*/, 0.25f, 1.0f, 100.0f /*~Bellman-Ford*/}) {
    auto const r =
        e::algorithms::sssp_delta_stepping(e::execution::par, g, 0, delta);
    ASSERT_EQ(r.distances.size(), oracle.size());
    for (std::size_t v = 0; v < oracle.size(); ++v) {
      if (oracle[v] == e::infinity_v<float>)
        EXPECT_EQ(r.distances[v], e::infinity_v<float>) << v;
      else
        EXPECT_NEAR(r.distances[v], oracle[v], 1e-3f)
            << "delta=" << delta << " vertex " << v;
    }
  }
}

TEST(DeltaStepping, GridRoadNetwork) {
  auto coo = e::generators::grid_2d(15, 15, {1.0f, 10.0f}, 2);
  auto const g = e::graph::from_coo<e::graph::graph_csr>(std::move(coo));
  auto const oracle = e::algorithms::dijkstra(g, 0).distances;
  auto const r = e::algorithms::sssp_delta_stepping(e::execution::par, g, 0);
  for (std::size_t v = 0; v < oracle.size(); ++v)
    EXPECT_NEAR(r.distances[v], oracle[v], 1e-3f) << v;
}

TEST(DeltaStepping, SmallDeltaDoesMoreRoundsThanLargeDelta) {
  auto const g = skewed_graph(13);
  auto const fine =
      e::algorithms::sssp_delta_stepping(e::execution::seq, g, 0, 0.1f);
  auto const coarse =
      e::algorithms::sssp_delta_stepping(e::execution::seq, g, 0, 1000.0f);
  EXPECT_GE(fine.iterations, coarse.iterations);
}

TEST(DeltaStepping, SeqMatchesPar) {
  auto const g = skewed_graph(17);
  auto const s =
      e::algorithms::sssp_delta_stepping(e::execution::seq, g, 0, 0.5f);
  auto const p =
      e::algorithms::sssp_delta_stepping(e::execution::par, g, 0, 0.5f);
  for (std::size_t v = 0; v < s.distances.size(); ++v) {
    if (s.distances[v] == e::infinity_v<float>)
      EXPECT_EQ(p.distances[v], e::infinity_v<float>);
    else
      EXPECT_NEAR(p.distances[v], s.distances[v], 1e-3f) << v;
  }
}

// --- maximal independent set ------------------------------------------------------

TEST(Mis, LubyProducesValidMisAcrossSeedsAndFamilies) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    auto const er = undirected(e::generators::erdos_renyi(300, 2000, {}, seed));
    auto const r = e::algorithms::maximal_independent_set(e::execution::par,
                                                          er, seed);
    EXPECT_TRUE(e::algorithms::is_valid_mis(er, r.in_set)) << "er seed " << seed;
    auto const ws =
        undirected(e::generators::watts_strogatz(200, 3, 0.2, {}, seed));
    auto const r2 = e::algorithms::maximal_independent_set(e::execution::par,
                                                           ws, seed);
    EXPECT_TRUE(e::algorithms::is_valid_mis(ws, r2.in_set)) << "ws seed " << seed;
  }
}

TEST(Mis, SerialGreedyIsValid) {
  auto const g = undirected(e::generators::erdos_renyi(250, 1500, {}, 4));
  auto const r = e::algorithms::maximal_independent_set_serial(g);
  EXPECT_TRUE(e::algorithms::is_valid_mis(g, r.in_set));
}

TEST(Mis, CliqueYieldsExactlyOne) {
  auto const g = undirected(e::generators::complete(20));
  auto const r = e::algorithms::maximal_independent_set(e::execution::par, g);
  EXPECT_EQ(r.set_size, 1u);
}

TEST(Mis, StarYieldsSpokes) {
  auto const g = undirected(e::generators::star(30));
  auto const r = e::algorithms::maximal_independent_set(e::execution::par, g);
  // Either the hub alone or all 29 spokes — both are valid MIS; Luby with
  // random priorities almost surely picks the spokes (any spoke beating the
  // hub excludes the hub).  Assert validity + the size dichotomy.
  EXPECT_TRUE(e::algorithms::is_valid_mis(g, r.in_set));
  EXPECT_TRUE(r.set_size == 1 || r.set_size == 29) << r.set_size;
}

TEST(Mis, LogarithmicRounds) {
  auto const g = undirected(e::generators::erdos_renyi(2000, 16000, {}, 8));
  auto const r = e::algorithms::maximal_independent_set(e::execution::par, g);
  EXPECT_LE(r.rounds, 30u);  // expected O(log n), generous bound
}

// --- label propagation communities ---------------------------------------------------

TEST(Lpa, DisjointCliquesAreSeparated) {
  // Three disjoint 8-cliques: LPA must find exactly 3 communities with
  // perfect modularity structure.
  e::graph::coo_t<> coo;
  coo.num_rows = coo.num_cols = 24;
  for (int c = 0; c < 3; ++c)
    for (vertex_t u = 0; u < 8; ++u)
      for (vertex_t v = 0; v < 8; ++v)
        if (u != v)
          coo.push_back(c * 8 + u, c * 8 + v, 1.f);
  auto const g = e::graph::from_coo<e::graph::graph_full>(std::move(coo));
  auto const r = e::algorithms::label_propagation_communities(
      e::execution::par, g);
  EXPECT_EQ(r.num_communities, 3u);
  for (int c = 0; c < 3; ++c)
    for (vertex_t v = 1; v < 8; ++v)
      EXPECT_EQ(r.labels[static_cast<std::size_t>(c * 8 + v)],
                r.labels[static_cast<std::size_t>(c * 8)]);
}

TEST(Lpa, PlantedCommunitiesHavePositiveModularity) {
  // Two dense blocks joined by one bridge edge.
  e::graph::coo_t<> coo;
  coo.num_rows = coo.num_cols = 40;
  e::generators::rng_t rng(5);
  for (vertex_t u = 0; u < 20; ++u)
    for (vertex_t v = 0; v < 20; ++v)
      if (u != v && rng.next_bool(0.4))
        coo.push_back(u, v, 1.f);
  for (vertex_t u = 20; u < 40; ++u)
    for (vertex_t v = 20; v < 40; ++v)
      if (u != v && rng.next_bool(0.4))
        coo.push_back(u, v, 1.f);
  coo.push_back(0, 20, 1.f);
  coo.push_back(20, 0, 1.f);
  auto const g = undirected(std::move(coo));
  auto const r = e::algorithms::label_propagation_communities(
      e::execution::par, g);
  EXPECT_GE(r.num_communities, 2u);
  EXPECT_GT(e::algorithms::modularity(g, r.labels), 0.2);
}

TEST(Lpa, ConvergesAndIsStable) {
  auto const g = undirected(e::generators::watts_strogatz(300, 4, 0.05, {}, 3));
  auto const r1 = e::algorithms::label_propagation_communities(
      e::execution::par, g);
  auto const r2 = e::algorithms::label_propagation_communities(
      e::execution::par, g);
  EXPECT_EQ(r1.labels, r2.labels);  // synchronous updates => deterministic
  EXPECT_LE(r1.rounds, 50u);
}

TEST(Lpa, SeqMatchesPar) {
  auto const g = undirected(e::generators::erdos_renyi(200, 800, {}, 9));
  auto const s =
      e::algorithms::label_propagation_communities(e::execution::seq, g);
  auto const p =
      e::algorithms::label_propagation_communities(e::execution::par, g);
  EXPECT_EQ(s.labels, p.labels);
}

TEST(Lpa, IsolatedVerticesKeepOwnLabels) {
  e::graph::coo_t<> coo;
  coo.num_rows = coo.num_cols = 5;
  coo.push_back(0, 1, 1.f);
  coo.push_back(1, 0, 1.f);
  auto const g = e::graph::from_coo<e::graph::graph_full>(std::move(coo));
  auto const r = e::algorithms::label_propagation_communities(
      e::execution::par, g);
  EXPECT_EQ(r.labels[2], 2);
  EXPECT_EQ(r.labels[3], 3);
  EXPECT_EQ(r.labels[4], 4);
  EXPECT_EQ(r.num_communities, 4u);  // {0,1}, {2}, {3}, {4}
}
