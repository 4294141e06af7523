// Tests for the hierarchical/hybrid and multi-search extensions: hybrid
// SSSP (message-passing SSSP with a shared-memory pool inside each rank),
// bit-parallel multi-source BFS, and geolocation inference.
#include <gtest/gtest.h>

#include "algorithms/geo.hpp"
#include "algorithms/msbfs.hpp"
#include "algorithms/sssp.hpp"
#include "essentials.hpp"

namespace e = essentials;
namespace g = e::graph;
using e::vertex_t;

namespace {

g::graph_csr make_weighted(std::string const& family, std::uint64_t seed) {
  e::generators::weight_options w{0.5f, 4.0f};
  g::coo_t<> coo;
  if (family == "rmat") {
    e::generators::rmat_options opt;
    opt.scale = 9;
    opt.edge_factor = 8;
    opt.seed = seed;
    opt.weights = w;
    coo = e::generators::rmat(opt);
  } else if (family == "grid") {
    coo = e::generators::grid_2d(16, 16, w, seed);
  } else {
    coo = e::generators::erdos_renyi(400, 3200, w, seed);
  }
  g::remove_self_loops(coo);
  return g::from_coo<g::graph_csr>(std::move(coo),
                                   g::duplicate_policy::keep_min);
}

}  // namespace

// --- hybrid SSSP ---------------------------------------------------------------

TEST(HybridSssp, MatchesDijkstraAcrossFamilies) {
  for (auto const family : {"rmat", "grid", "er"}) {
    auto const gr = make_weighted(family, 3);
    auto const want = e::algorithms::dijkstra(gr, 0).distances;
    auto const got = e::algorithms::sssp_message_passing(
                         gr, 0, /*num_ranks=*/3, /*owner=*/{},
                         /*threads_per_rank=*/2)
                         .distances;
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t v = 0; v < want.size(); ++v) {
      if (want[v] == e::infinity_v<float>)
        EXPECT_EQ(got[v], want[v]) << family << " v" << v;
      else
        EXPECT_NEAR(got[v], want[v], 1e-3f) << family << " v" << v;
    }
  }
}

TEST(HybridSssp, VariousRankAndThreadShapes) {
  auto const gr = make_weighted("er", 8);
  auto const want = e::algorithms::dijkstra(gr, 5).distances;
  for (auto const& [ranks, threads] :
       {std::pair{1, 4}, std::pair{2, 1}, std::pair{4, 2}}) {
    auto const got =
        e::algorithms::sssp_message_passing(
            gr, 5, ranks, {}, static_cast<std::size_t>(threads))
            .distances;
    for (std::size_t v = 0; v < want.size(); ++v) {
      if (want[v] == e::infinity_v<float>) {
        EXPECT_EQ(got[v], want[v]);
      } else {
        EXPECT_NEAR(got[v], want[v], 1e-3f)
            << "ranks=" << ranks << " threads=" << threads << " v" << v;
      }
    }
  }
}

TEST(HybridSssp, PartitionDerivedOwnership) {
  auto const gr = make_weighted("grid", 2);
  auto const p = e::partition::partition_bfs_grow(gr.csr(), 3, 7);
  auto const want = e::algorithms::dijkstra(gr, 0).distances;
  auto const got =
      e::algorithms::sssp_message_passing(
          gr, 0, 3, [&p](vertex_t v) { return p.part_of(v); }, 2)
          .distances;
  for (std::size_t v = 0; v < want.size(); ++v)
    EXPECT_NEAR(got[v], want[v], 1e-3f) << v;
}

// --- multi-source BFS --------------------------------------------------------------

TEST(MsBfs, EachLaneMatchesSingleSourceBfs) {
  auto const gr = make_weighted("er", 4);
  std::vector<vertex_t> const sources{0, 7, 42, 199};
  auto const multi =
      e::algorithms::multi_source_bfs(e::execution::par, gr, sources);
  ASSERT_EQ(multi.depth.size(), sources.size());
  for (std::size_t s = 0; s < sources.size(); ++s) {
    auto const single = e::algorithms::bfs_serial(gr, sources[s]).depths;
    EXPECT_EQ(multi.depth[s], single) << "source " << sources[s];
  }
}

TEST(MsBfs, SixtyFourLanes) {
  auto const gr = make_weighted("rmat", 6);
  std::vector<vertex_t> sources;
  for (vertex_t s = 0; s < 64; ++s)
    sources.push_back(s * 3);
  auto const multi =
      e::algorithms::multi_source_bfs(e::execution::par, gr, sources);
  // Spot check lanes 0, 31, 63 against single-source runs.
  for (std::size_t lane : {0u, 31u, 63u}) {
    auto const single = e::algorithms::bfs_serial(gr, sources[lane]).depths;
    EXPECT_EQ(multi.depth[lane], single) << "lane " << lane;
  }
}

TEST(MsBfs, IterationCountIsMaxEccentricityOfSources) {
  auto coo = e::generators::chain(30);
  auto const gr = g::from_coo<g::graph_csr>(std::move(coo));
  auto const multi = e::algorithms::multi_source_bfs(
      e::execution::par, gr, std::vector<vertex_t>{0, 25});
  // Source 0 reaches depth 29; the sweep runs 29 productive levels + 1.
  EXPECT_EQ(multi.depth[0][29], 29);
  EXPECT_EQ(multi.depth[1][29], 4);
  EXPECT_EQ(multi.depth[1][0], -1);  // chain is directed
  EXPECT_EQ(multi.iterations, 30u);
}

TEST(MsBfs, RejectsBadSourceCounts) {
  auto const gr = make_weighted("er", 1);
  EXPECT_THROW(e::algorithms::multi_source_bfs(e::execution::par, gr,
                                               std::vector<vertex_t>{}),
               e::graph_error);
  std::vector<vertex_t> too_many(65, 0);
  EXPECT_THROW(
      e::algorithms::multi_source_bfs(e::execution::par, gr, too_many),
      e::graph_error);
}

// --- geolocation ----------------------------------------------------------------------

TEST(Geo, HaversineKnownDistances) {
  e::algorithms::geo_point const paris{48.8566, 2.3522, true};
  e::algorithms::geo_point const london{51.5074, -0.1278, true};
  double const d = e::algorithms::haversine_km(paris, london);
  EXPECT_NEAR(d, 344.0, 10.0);  // ~344 km
  EXPECT_NEAR(e::algorithms::haversine_km(paris, paris), 0.0, 1e-9);
}

TEST(Geo, UnlocatedVertexMovesToNeighborMean) {
  // Star: hub unlabeled, two spokes at known positions.
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 3;
  coo.push_back(0, 1, 1.f);
  coo.push_back(0, 2, 1.f);
  coo.push_back(1, 0, 1.f);
  coo.push_back(2, 0, 1.f);
  auto const gr = g::from_coo<g::graph_csr>(std::move(coo));
  std::vector<e::algorithms::geo_point> seeds(3);
  seeds[1] = {10.0, 20.0, true};
  seeds[2] = {12.0, 22.0, true};
  auto const r = e::algorithms::geolocate(e::execution::par, gr, seeds);
  EXPECT_EQ(r.located, 3u);
  EXPECT_NEAR(r.positions[0].latitude, 11.0, 0.1);
  EXPECT_NEAR(r.positions[0].longitude, 21.0, 0.1);
  // Anchored vertices never move.
  EXPECT_DOUBLE_EQ(r.positions[1].latitude, 10.0);
}

TEST(Geo, PropagatesAlongChains) {
  // 0(known) - 1 - 2 - 3: everyone converges to vertex 0's position.
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 4;
  for (vertex_t v = 0; v + 1 < 4; ++v) {
    coo.push_back(v, v + 1, 1.f);
    coo.push_back(v + 1, v, 1.f);
  }
  auto const gr = g::from_coo<g::graph_csr>(std::move(coo));
  std::vector<e::algorithms::geo_point> seeds(4);
  seeds[0] = {45.0, -120.0, true};
  auto const r = e::algorithms::geolocate(e::execution::par, gr, seeds);
  EXPECT_EQ(r.located, 4u);
  for (int v = 1; v < 4; ++v) {
    EXPECT_NEAR(r.positions[static_cast<std::size_t>(v)].latitude, 45.0, 0.5);
    EXPECT_NEAR(r.positions[static_cast<std::size_t>(v)].longitude, -120.0,
                0.5);
  }
}

TEST(Geo, DisconnectedVerticesStayUnlocated) {
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 3;
  coo.push_back(0, 1, 1.f);
  coo.push_back(1, 0, 1.f);
  auto const gr = g::from_coo<g::graph_csr>(std::move(coo));
  std::vector<e::algorithms::geo_point> seeds(3);
  seeds[0] = {1.0, 1.0, true};
  auto const r = e::algorithms::geolocate(e::execution::par, gr, seeds);
  EXPECT_TRUE(r.positions[1].located);
  EXPECT_FALSE(r.positions[2].located);
  EXPECT_EQ(r.located, 2u);
}

TEST(Geo, AntimeridianSafeAveraging) {
  // Neighbors at longitude +179 and -179: naive averaging says 0 (wrong
  // hemisphere); spherical mean says ~180.
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 3;
  coo.push_back(0, 1, 1.f);
  coo.push_back(0, 2, 1.f);
  auto const gr = g::from_coo<g::graph_csr>(std::move(coo));
  std::vector<e::algorithms::geo_point> seeds(3);
  seeds[1] = {0.0, 179.0, true};
  seeds[2] = {0.0, -179.0, true};
  auto const r = e::algorithms::geolocate(e::execution::par, gr, seeds);
  ASSERT_TRUE(r.positions[0].located);
  EXPECT_NEAR(std::abs(r.positions[0].longitude), 180.0, 0.5);
}
