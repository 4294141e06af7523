// Property-based suite: algorithm-independent *invariants* checked over a
// parameterized sweep of graph families and seeds.  Where the oracle tests
// compare implementations pairwise, these check the mathematical contract
// of each result directly — so a bug shared by implementation and oracle
// still gets caught.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <tuple>

#include "algorithms/bfs.hpp"
#include "algorithms/kcore.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/sssp.hpp"
#include "essentials.hpp"

namespace e = essentials;
namespace g = e::graph;
namespace op = e::operators;
using e::vertex_t;

namespace {

g::graph_push_pull make_graph(std::string const& family, std::uint64_t seed) {
  e::generators::weight_options w{0.5f, 4.0f};
  g::coo_t<> coo;
  if (family == "rmat") {
    e::generators::rmat_options opt;
    opt.scale = 8;
    opt.edge_factor = 8;
    opt.seed = seed;
    opt.weights = w;
    coo = e::generators::rmat(opt);
  } else if (family == "er") {
    coo = e::generators::erdos_renyi(300, 2400, w, seed);
  } else if (family == "grid") {
    coo = e::generators::grid_2d(15, 17, w, seed);
  } else {
    coo = e::generators::watts_strogatz(250, 3, 0.2, w, seed);
  }
  g::remove_self_loops(coo);
  return g::from_coo<g::graph_push_pull>(std::move(coo),
                                         g::duplicate_policy::keep_min);
}

auto const always = [](vertex_t, vertex_t, e::edge_t, e::weight_t) {
  return true;
};

std::vector<vertex_t> sorted(std::vector<vertex_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace

using Param = std::tuple<std::string, std::uint64_t>;

class GraphProperty : public ::testing::TestWithParam<Param> {
 protected:
  g::graph_push_pull graph_ = make_graph(std::get<0>(GetParam()),
                                         std::get<1>(GetParam()));
};

// --- SSSP fixpoint invariants ----------------------------------------------------

TEST_P(GraphProperty, SsspDistancesAreARelaxationFixpoint) {
  auto const d = e::algorithms::sssp(e::execution::par, graph_, 0).distances;
  // No edge can further relax: d[v] <= d[u] + w(u, v) for every edge.
  for (vertex_t u = 0; u < graph_.get_num_vertices(); ++u) {
    if (d[static_cast<std::size_t>(u)] == e::infinity_v<float>)
      continue;
    for (auto const ed : graph_.get_edges(u)) {
      auto const v = graph_.get_dest_vertex(ed);
      EXPECT_LE(d[static_cast<std::size_t>(v)],
                d[static_cast<std::size_t>(u)] + graph_.get_edge_weight(ed) +
                    1e-4f)
          << u << " -> " << v;
    }
  }
}

TEST_P(GraphProperty, SsspDistancesAreAttainedByRealPaths) {
  auto const d = e::algorithms::sssp(e::execution::par, graph_, 0).distances;
  // Every finite non-source distance is witnessed by an incoming edge that
  // achieves it exactly.
  for (vertex_t v = 1; v < graph_.get_num_vertices(); ++v) {
    if (d[static_cast<std::size_t>(v)] == e::infinity_v<float>)
      continue;
    bool witnessed = false;
    for (auto const ed : graph_.get_in_edges(v)) {
      auto const u = graph_.get_in_source_vertex(ed);
      if (d[static_cast<std::size_t>(u)] == e::infinity_v<float>)
        continue;
      if (std::abs(d[static_cast<std::size_t>(u)] +
                   graph_.get_in_edge_weight(ed) -
                   d[static_cast<std::size_t>(v)]) < 1e-3f) {
        witnessed = true;
        break;
      }
    }
    EXPECT_TRUE(witnessed) << "vertex " << v << " distance "
                           << d[static_cast<std::size_t>(v)]
                           << " has no witnessing edge";
  }
}

TEST_P(GraphProperty, SsspReachabilityMatchesBfsReachability) {
  auto const d = e::algorithms::sssp(e::execution::par, graph_, 0).distances;
  auto const reach = g::reachable_from(graph_.csr(), vertex_t{0});
  for (vertex_t v = 0; v < graph_.get_num_vertices(); ++v)
    EXPECT_EQ(d[static_cast<std::size_t>(v)] != e::infinity_v<float>,
              static_cast<bool>(reach[static_cast<std::size_t>(v)]))
        << v;
}

// --- BFS level invariants -----------------------------------------------------------

TEST_P(GraphProperty, BfsLevelsDifferByAtMostOneAcrossEdges) {
  auto const depths = e::algorithms::bfs(e::execution::par, graph_, 0).depths;
  for (vertex_t u = 0; u < graph_.get_num_vertices(); ++u) {
    if (depths[static_cast<std::size_t>(u)] == -1)
      continue;
    for (auto const ed : graph_.get_edges(u)) {
      auto const v = graph_.get_dest_vertex(ed);
      ASSERT_NE(depths[static_cast<std::size_t>(v)], -1)
          << "reached vertex has unreached successor";
      EXPECT_LE(depths[static_cast<std::size_t>(v)],
                depths[static_cast<std::size_t>(u)] + 1);
    }
  }
}

TEST_P(GraphProperty, BfsDepthsLowerBoundSsspHops) {
  // With weights >= 0.5, sssp distance >= 0.5 * hop count.
  auto const depths = e::algorithms::bfs(e::execution::par, graph_, 0).depths;
  auto const d = e::algorithms::sssp(e::execution::par, graph_, 0).distances;
  for (vertex_t v = 0; v < graph_.get_num_vertices(); ++v) {
    if (depths[static_cast<std::size_t>(v)] == -1)
      continue;
    EXPECT_GE(d[static_cast<std::size_t>(v)] + 1e-4f,
              0.5f * static_cast<float>(depths[static_cast<std::size_t>(v)]))
        << v;
  }
}

// --- operator overload equivalence (the §III-A contract) ----------------------------

TEST_P(GraphProperty, EveryAdvanceOverloadComputesTheSameSet) {
  e::frontier::sparse_frontier<vertex_t> in;
  for (vertex_t v = 0; v < graph_.get_num_vertices(); v += 5)
    in.add_vertex(v);

  auto const reference =
      sorted(op::advance_push(e::execution::seq, graph_, in, always)
                 .to_vector());

  EXPECT_EQ(sorted(op::advance_push(e::execution::par, graph_, in, always)
                       .to_vector()),
            reference);
  EXPECT_EQ(sorted(op::neighbors_expand_listing3(e::execution::par, graph_,
                                                 in, always)
                       .to_vector()),
            reference);

  e::execution::parallel_nosync_policy nosync;
  e::frontier::sparse_frontier<vertex_t> nosync_out;
  op::advance_push(nosync, graph_, in, always, nosync_out);
  nosync.pool().wait_idle();
  EXPECT_EQ(sorted(nosync_out.to_vector()), reference);

  // Dense output equals the deduplicated reference.
  auto dedup = reference;
  dedup.erase(std::unique(dedup.begin(), dedup.end()), dedup.end());
  EXPECT_EQ(op::advance_push_to_dense(e::execution::par, graph_, in, always)
                .to_vector(),
            dedup);
}

TEST_P(GraphProperty, PushAndPullAdvanceAgreeOnActivatedSet) {
  e::frontier::sparse_frontier<vertex_t> sparse_in;
  e::frontier::dense_frontier<vertex_t> dense_in(
      static_cast<std::size_t>(graph_.get_num_vertices()));
  for (vertex_t v = 0; v < graph_.get_num_vertices(); v += 7) {
    sparse_in.add_vertex(v);
    dense_in.add_vertex(v);
  }
  auto push = op::advance_push(e::execution::par, graph_, sparse_in, always);
  op::uniquify(e::execution::seq, push);
  auto const pull =
      op::advance_pull<false>(e::execution::par, graph_, dense_in, always);
  EXPECT_EQ(push.to_vector(), pull.to_vector());
}

// --- PageRank invariants --------------------------------------------------------------

TEST_P(GraphProperty, PagerankIsAProbabilityDistribution) {
  auto const r = e::algorithms::pagerank(e::execution::par, graph_);
  double const sum =
      std::accumulate(r.ranks.begin(), r.ranks.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-6);
  double const floor = (1.0 - 0.85) / graph_.get_num_vertices();
  for (double const rank : r.ranks)
    EXPECT_GE(rank, floor - 1e-12);
}

// --- k-core invariant --------------------------------------------------------------------

TEST_P(GraphProperty, KCoreMembersHaveEnoughCoreNeighbors) {
  // Build the undirected version for the k-core contract.
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = graph_.get_num_vertices();
  for (vertex_t u = 0; u < graph_.get_num_vertices(); ++u)
    for (auto const ed : graph_.get_edges(u))
      coo.push_back(u, graph_.get_dest_vertex(ed), 1.0f);
  g::symmetrize(coo);
  auto const und = g::from_coo<g::graph_csr>(std::move(coo));

  auto const r = e::algorithms::kcore(e::execution::par, und);
  vertex_t const k = r.max_core;
  if (k < 1)
    return;
  // Every vertex with coreness >= k must have >= k neighbors with
  // coreness >= k (the defining property of the k-core).
  for (vertex_t v = 0; v < und.get_num_vertices(); ++v) {
    if (r.coreness[static_cast<std::size_t>(v)] < k)
      continue;
    int core_neighbors = 0;
    for (auto const ed : und.get_edges(v))
      core_neighbors +=
          r.coreness[static_cast<std::size_t>(und.get_dest_vertex(ed))] >= k;
    EXPECT_GE(core_neighbors, k) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndSeeds, GraphProperty,
    ::testing::Combine(::testing::Values("rmat", "er", "grid", "ws"),
                       ::testing::Values(1u, 5u, 23u)),
    [](auto const& info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });
