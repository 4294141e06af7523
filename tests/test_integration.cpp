// Integration tests: multi-module pipelines that mirror how a downstream
// user strings the framework together — IO -> build -> views -> operators
// -> enactor -> algorithm -> verify; plus the Table I cells as assertions
// (the bench prints them, these tests gate them).
#include <gtest/gtest.h>

#include <sstream>

#include "algorithms/bfs.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/sssp.hpp"
#include "essentials.hpp"

namespace e = essentials;
using e::vertex_t;

namespace {

bool near(std::vector<float> const& a, std::vector<float> const& b,
          float tol = 1e-3f) {
  if (a.size() != b.size())
    return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == e::infinity_v<float> || b[i] == e::infinity_v<float>) {
      if (a[i] != b[i])
        return false;
    } else if (std::abs(a[i] - b[i]) > tol) {
      return false;
    }
  }
  return true;
}

}  // namespace

// --- end-to-end pipelines -----------------------------------------------------

TEST(Integration, MatrixMarketToSsspPipeline) {
  // Generate -> serialize to .mtx -> parse back -> build graph -> SSSP.
  auto coo = e::generators::erdos_renyi(200, 1600, {1.0f, 3.0f}, 4);
  e::graph::remove_self_loops(coo);
  e::graph::sort_and_deduplicate(coo, e::graph::duplicate_policy::keep_min);

  std::stringstream mtx;
  e::io::write_matrix_market(mtx, coo);
  auto const parsed = e::io::read_matrix_market(mtx);
  auto const g = e::graph::from_coo<e::graph::graph_csr>(
      parsed, e::graph::duplicate_policy::keep_min);

  auto const got = e::algorithms::sssp(e::execution::par, g, 0).distances;
  auto const want = e::algorithms::dijkstra(g, 0).distances;
  EXPECT_TRUE(near(got, want));
}

TEST(Integration, DimacsRoadPipeline) {
  // DIMACS .gr road snippet -> SSSP -> route distances.
  auto grid = e::generators::grid_2d(10, 10, {1.0f, 9.0f}, 8);
  for (auto& w : grid.values)
    w = static_cast<float>(static_cast<long long>(w));
  std::stringstream gr;
  e::io::write_dimacs(gr, grid);
  auto const parsed = e::io::read_dimacs(gr);
  auto const g = e::graph::from_coo<e::graph::graph_csr>(parsed);
  auto const r = e::algorithms::sssp(e::execution::par, g, 0);
  auto const oracle = e::algorithms::dijkstra(g, 0);
  EXPECT_TRUE(near(r.distances, oracle.distances));
}

TEST(Integration, BinarySnapshotPreservesAlgorithmResults) {
  e::generators::rmat_options opt;
  opt.scale = 8;
  opt.edge_factor = 8;
  opt.weights = {1.0f, 2.0f};
  auto coo = e::generators::rmat(opt);
  e::graph::remove_self_loops(coo);
  e::graph::sort_and_deduplicate(coo, e::graph::duplicate_policy::keep_min);
  auto const csr = e::graph::build_csr(coo);

  std::stringstream bin(std::ios::in | std::ios::out | std::ios::binary);
  e::io::write_binary_csr(bin, csr);
  auto const reloaded = e::io::read_binary_csr(bin);

  e::graph::graph_csr a, b;
  a.set_csr(csr);
  b.set_csr(reloaded);
  EXPECT_TRUE(near(e::algorithms::sssp(e::execution::par, a, 0).distances,
                   e::algorithms::sssp(e::execution::par, b, 0).distances,
                   0.0f));
}

TEST(Integration, HandWrittenOperatorPipeline) {
  // A user-composed traversal: advance -> filter -> compute, inside a
  // bsp_loop with a composed convergence condition.  Computes the set of
  // vertices within 3 hops of the source having even ids.
  auto coo = e::generators::watts_strogatz(300, 3, 0.1, {}, 6);
  e::graph::remove_self_loops(coo);
  auto const g = e::graph::from_coo<e::graph::graph_csr>(std::move(coo));

  std::vector<char> seen(static_cast<std::size_t>(g.get_num_vertices()), 0);
  seen[0] = 1;
  std::vector<char> out_flags(seen.size(), 0);
  char* const seen_p = seen.data();

  e::frontier::sparse_frontier<vertex_t> f;
  f.add_vertex(0);
  auto const stats = e::enactor::bsp_loop(
      std::move(f),
      [&](e::frontier::sparse_frontier<vertex_t> in, std::size_t) {
        auto next = e::operators::neighbors_expand(
            e::execution::par, g, in,
            [seen_p](vertex_t, vertex_t dst, e::edge_t, e::weight_t) {
              return e::atomic::exchange(&seen_p[dst], char{1}) == 0;
            });
        auto const evens = e::operators::filter(
            e::execution::par, next, [](vertex_t v) { return v % 2 == 0; });
        e::operators::compute(e::execution::par, evens, [&out_flags](vertex_t v) {
          out_flags[static_cast<std::size_t>(v)] = 1;
        });
        return next;
      },
      e::enactor::either{e::enactor::frontier_empty{},
                         e::enactor::max_iterations{3}});
  EXPECT_LE(stats.iterations, 3u);

  // Oracle: serial BFS to depth 3.
  auto const depths = e::algorithms::bfs_serial(g, 0).depths;
  for (vertex_t v = 1; v < g.get_num_vertices(); ++v) {
    bool const expected =
        depths[static_cast<std::size_t>(v)] != -1 &&
        depths[static_cast<std::size_t>(v)] <= 3 && v % 2 == 0;
    EXPECT_EQ(out_flags[static_cast<std::size_t>(v)] != 0, expected)
        << "vertex " << v << " depth " << depths[static_cast<std::size_t>(v)];
  }
}

// --- Table I cells as assertions -------------------------------------------------

class TableOneCells : public ::testing::Test {
 protected:
  static e::graph::graph_push_pull const& graph() {
    static auto const g = [] {
      e::generators::rmat_options opt;
      opt.scale = 9;
      opt.edge_factor = 8;
      opt.weights = {1.0f, 4.0f};
      auto coo = e::generators::rmat(opt);
      e::graph::remove_self_loops(coo);
      return e::graph::from_coo<e::graph::graph_push_pull>(
          std::move(coo), e::graph::duplicate_policy::keep_min);
    }();
    return g;
  }
  static std::vector<float> const& oracle() {
    static auto const d = e::algorithms::dijkstra(graph(), 0).distances;
    return d;
  }
};

TEST_F(TableOneCells, TimingBulkSynchronous) {
  EXPECT_TRUE(near(
      e::algorithms::sssp(e::execution::par, graph(), 0).distances, oracle()));
}

TEST_F(TableOneCells, TimingAsynchronous) {
  EXPECT_TRUE(near(e::algorithms::sssp_async(graph(), 0, 4).distances,
                   oracle()));
}

TEST_F(TableOneCells, CommunicationSharedMemory) {
  EXPECT_TRUE(near(
      e::algorithms::sssp_pull(e::execution::par, graph(), 0).distances,
      oracle()));
}

TEST_F(TableOneCells, CommunicationMessagePassing) {
  EXPECT_TRUE(near(
      e::algorithms::sssp_message_passing(graph(), 0, 4).distances, oracle()));
}

TEST_F(TableOneCells, ExecutionPushVsPull) {
  auto const serial = e::algorithms::bfs_serial(graph(), 0).depths;
  EXPECT_EQ(e::algorithms::bfs(e::execution::par, graph(), 0).depths, serial);
  EXPECT_EQ(e::algorithms::bfs_pull(e::execution::par, graph(), 0).depths,
            serial);
  EXPECT_EQ(e::algorithms::bfs_direction_optimizing(e::execution::par,
                                                    graph(), 0)
                .depths,
            serial);
}

TEST_F(TableOneCells, PartitioningRandomAndMetisLike) {
  for (bool metis_like : {false, true}) {
    auto const p =
        metis_like
            ? e::partition::partition_bfs_grow(graph().csr(), 4, 1)
            : e::partition::partition_random<vertex_t>(
                  graph().get_num_vertices(), 4, 1);
    e::partition::partitioned_graph_t<> pg(graph().csr(), p);
    EXPECT_TRUE(near(
        e::algorithms::sssp(e::execution::par, pg, 0).distances, oracle()))
        << (metis_like ? "bfs-grow" : "random");
  }
}

// --- cross-module consistency ------------------------------------------------------

TEST(Integration, PagerankOrderIsDegreeCorrelatedOnStar) {
  // Sanity across generators + algorithms + operators: on a star the hub
  // must come first under PageRank and under plain degree.
  auto coo = e::generators::star(100);
  auto const g = e::graph::from_coo<e::graph::graph_full>(std::move(coo));
  auto const pr = e::algorithms::pagerank(e::execution::par, g);
  auto const max_rank_vertex = static_cast<vertex_t>(
      std::max_element(pr.ranks.begin(), pr.ranks.end()) - pr.ranks.begin());
  EXPECT_EQ(max_rank_vertex, 0);
}

TEST(Integration, AllFrontierRepresentationsDriveTheSameBfs) {
  // The §III-B punchline: swap the frontier representation, keep the
  // algorithm.  Sparse drives push BFS, dense drives pull BFS, the queue
  // drives async BFS; all agree with the serial oracle.
  auto coo = e::generators::erdos_renyi(400, 3200, {}, 12);
  e::graph::remove_self_loops(coo);
  auto const g = e::graph::from_coo<e::graph::graph_push_pull>(std::move(coo));
  auto const want = e::algorithms::bfs_serial(g, 0).depths;
  EXPECT_EQ(e::algorithms::bfs(e::execution::par, g, 0).depths, want);
  EXPECT_EQ(e::algorithms::bfs_pull(e::execution::par, g, 0).depths, want);
  EXPECT_EQ(e::algorithms::bfs_async(g, 0, 4).depths, want);
  EXPECT_EQ(e::algorithms::bfs_message_passing(g, 0, 3).depths, want);
}
