// Unit tests for graph formats, builders/transformations, the variadic
// graph_t views, and structural property checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "generators/generators.hpp"
#include "graph/build.hpp"
#include "graph/formats.hpp"
#include "graph/graph.hpp"
#include "graph/properties.hpp"

namespace g = essentials::graph;
using essentials::vertex_t;
using essentials::edge_t;
using essentials::weight_t;

namespace {

g::coo_t<> diamond() {
  // 0 -> 1 -> 3, 0 -> 2 -> 3 (weights = dst for checking)
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 4;
  coo.push_back(0, 1, 1.0f);
  coo.push_back(0, 2, 2.0f);
  coo.push_back(1, 3, 3.0f);
  coo.push_back(2, 3, 3.0f);
  return coo;
}

/// An R-MAT multigraph with random weights: hubs, repeated edges and
/// self-loops, in generation order.
g::coo_t<> rmat_multigraph(int scale, std::uint64_t seed, double a = 0.57) {
  essentials::generators::rmat_options opt;
  opt.scale = scale;
  opt.edge_factor = 8;
  opt.a = a;
  opt.b = opt.c = (1.0 - a) / 3.0;
  opt.weights = {0.5f, 4.0f};
  opt.seed = seed;
  return essentials::generators::rmat(opt);
}

/// `in` sorted by (row, column): std::stable_sort of (row, column, input
/// index), so repeated edges stay in input order.
g::coo_t<> reference_sort(g::coo_t<> const& in) {
  std::vector<std::tuple<vertex_t, vertex_t, std::size_t>> keyed;
  for (std::size_t i = 0; i < in.row_indices.size(); ++i)
    keyed.emplace_back(in.row_indices[i], in.column_indices[i], i);
  std::stable_sort(keyed.begin(), keyed.end());
  g::coo_t<> out;
  out.num_rows = in.num_rows;
  out.num_cols = in.num_cols;
  for (auto const& [r, c, i] : keyed)
    out.push_back(r, c, in.values[i]);
  return out;
}

/// The builder's specification, kept independent of it: reference_sort,
/// then each run of equal (row, column) merged in order under `policy`.
g::coo_t<> reference_sort_dedup(g::coo_t<> const& in,
                                g::duplicate_policy policy) {
  auto const sorted = reference_sort(in);
  g::coo_t<> out;
  out.num_rows = in.num_rows;
  out.num_cols = in.num_cols;
  for (std::size_t k = 0; k < sorted.row_indices.size(); ++k) {
    vertex_t const r = sorted.row_indices[k];
    vertex_t const c = sorted.column_indices[k];
    weight_t const w = sorted.values[k];
    if (out.row_indices.empty() || out.row_indices.back() != r ||
        out.column_indices.back() != c) {
      out.push_back(r, c, w);
    } else if (policy == g::duplicate_policy::keep_min) {
      out.values.back() = std::min(out.values.back(), w);
    } else if (policy == g::duplicate_policy::sum) {
      out.values.back() += w;
    }
  }
  return out;
}

/// Same dimensions and edges, with weights equal bit for bit.
void expect_same_coo(g::coo_t<> const& got, g::coo_t<> const& want) {
  EXPECT_EQ(got.num_rows, want.num_rows);
  EXPECT_EQ(got.num_cols, want.num_cols);
  EXPECT_EQ(got.row_indices, want.row_indices);
  EXPECT_EQ(got.column_indices, want.column_indices);
  ASSERT_EQ(got.values.size(), want.values.size());
  for (std::size_t k = 0; k < got.values.size(); ++k)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got.values[k]),
              std::bit_cast<std::uint32_t>(want.values[k]))
        << "edge " << k;
}

/// Test-name suffix of a duplicate_policy parameter.
std::string policy_name(
    ::testing::TestParamInfo<g::duplicate_policy> const& info) {
  char const* const names[] = {"keep_first", "keep_min", "sum"};
  return names[static_cast<int>(info.param)];
}

/// Run sort_and_deduplicate on a copy of `in` and compare it with the
/// reference.
void expect_matches_reference(g::coo_t<> const& in,
                              g::duplicate_policy policy) {
  auto got = in;
  g::sort_and_deduplicate(got, policy);
  expect_same_coo(got, reference_sort_dedup(in, policy));
}

}  // namespace

// --- builders ----------------------------------------------------------------

TEST(Build, CsrFromCooHasCorrectStructure) {
  auto const csr = g::build_csr(diamond());
  EXPECT_TRUE(g::is_valid_csr(csr));
  EXPECT_EQ(csr.num_rows, 4);
  EXPECT_EQ(csr.num_edges(), 4);
  EXPECT_EQ(std::vector<edge_t>(csr.row_offsets.begin(),
                                csr.row_offsets.end()),
            (std::vector<edge_t>{0, 2, 3, 4, 4}));
  EXPECT_EQ(std::vector<vertex_t>(csr.column_indices.begin(),
                                  csr.column_indices.end()),
            (std::vector<vertex_t>{1, 2, 3, 3}));
}

TEST(Build, CsrRejectsOutOfRangeIndices) {
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 2;
  coo.push_back(0, 5, 1.0f);
  EXPECT_THROW(g::build_csr(coo), essentials::graph_error);
}

TEST(Build, CscMirrorsInEdges) {
  auto const csc = g::build_csc(diamond());
  // Vertex 3 has two in-edges (from 1 and 2); vertex 0 has none.
  EXPECT_EQ(csc.column_offsets[4] - csc.column_offsets[3], 2);
  EXPECT_EQ(csc.column_offsets[1] - csc.column_offsets[0], 0);
}

TEST(Build, TransposeToCscAgreesWithBuildCsc) {
  for (auto coo : {diamond(), rmat_multigraph(10, 3)}) {
    g::sort_and_deduplicate(coo);
    auto const csr = g::build_csr(coo);
    // A sorted COO is the CSR's edge order.
    EXPECT_EQ(csr.column_indices, coo.column_indices);
    EXPECT_EQ(csr.values, coo.values);
    auto const a = g::build_csc(coo);
    auto const b = g::transpose_to_csc(csr);
    EXPECT_EQ(a.column_offsets, b.column_offsets);
    EXPECT_EQ(a.row_indices, b.row_indices);
    EXPECT_EQ(a.values, b.values);
  }
}

TEST(Build, CscAndSortRejectOutOfRangeIndices) {
  for (auto [r, c] : {std::pair{0, 2}, std::pair{2, 0}, std::pair{0, -1},
                      std::pair{-1, 0}}) {
    g::coo_t<> coo;
    coo.num_rows = coo.num_cols = 2;
    coo.push_back(1, 0, 2.0f);
    coo.push_back(r, c, 1.0f);
    coo.push_back(0, 1, 3.0f);
    EXPECT_THROW(g::build_csc(coo), essentials::graph_error)
        << "(" << r << ", " << c << ")";
    auto const before = coo;
    EXPECT_THROW(g::sort_and_deduplicate(coo), essentials::graph_error)
        << "(" << r << ", " << c << ")";
    expect_same_coo(coo, before);  // nothing written before the throw
  }
}

TEST(Build, SortAndDeduplicateKeepFirst) {
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 2;
  coo.push_back(0, 1, 5.0f);
  coo.push_back(0, 1, 3.0f);
  g::sort_and_deduplicate(coo, g::duplicate_policy::keep_first);
  ASSERT_EQ(coo.num_edges(), 1);
  EXPECT_FLOAT_EQ(coo.values[0], 5.0f);
}

TEST(Build, SortAndDeduplicateKeepMin) {
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 2;
  coo.push_back(0, 1, 5.0f);
  coo.push_back(0, 1, 3.0f);
  coo.push_back(0, 1, 9.0f);
  g::sort_and_deduplicate(coo, g::duplicate_policy::keep_min);
  ASSERT_EQ(coo.num_edges(), 1);
  EXPECT_FLOAT_EQ(coo.values[0], 3.0f);
}

TEST(Build, SortAndDeduplicateSum) {
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 2;
  coo.push_back(1, 0, 1.0f);
  coo.push_back(1, 0, 2.0f);
  coo.push_back(0, 1, 4.0f);
  g::sort_and_deduplicate(coo, g::duplicate_policy::sum);
  ASSERT_EQ(coo.num_edges(), 2);
  EXPECT_FLOAT_EQ(coo.values[0], 4.0f);  // (0,1)
  EXPECT_FLOAT_EQ(coo.values[1], 3.0f);  // (1,0) summed
}

TEST(Build, RemoveSelfLoops) {
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 3;
  coo.push_back(0, 0, 1.0f);
  coo.push_back(0, 1, 1.0f);
  coo.push_back(2, 2, 1.0f);
  g::remove_self_loops(coo);
  EXPECT_EQ(coo.num_edges(), 1);
  EXPECT_EQ(coo.row_indices[0], 0);
  EXPECT_EQ(coo.column_indices[0], 1);
}

TEST(Build, SymmetrizeMakesSymmetric) {
  auto coo = diamond();
  g::symmetrize(coo);
  g::sort_and_deduplicate(coo);
  auto const csr = g::build_csr(coo);
  EXPECT_TRUE(g::is_symmetric(csr));
}

// symmetrize + sort_and_deduplicate gives a symmetric edge set under every
// duplicate policy, but symmetric weights only where the policy makes them
// so: with (0,1,5) and (1,0,2) in the input, keep_first keeps each
// direction's own weight and keep_min keeps 2 both ways.
TEST(Build, SymmetrizeWeightsFollowTheDuplicatePolicy) {
  auto const two_edges = [] {
    g::coo_t<> coo;
    coo.num_rows = coo.num_cols = 2;
    coo.push_back(0, 1, 5.0f);
    coo.push_back(1, 0, 2.0f);
    g::symmetrize(coo);
    return coo;
  };
  for (auto const policy :
       {g::duplicate_policy::keep_first, g::duplicate_policy::keep_min,
        g::duplicate_policy::sum}) {
    auto coo = two_edges();
    g::sort_and_deduplicate(coo, policy);
    ASSERT_EQ(coo.num_edges(), 2);
    EXPECT_TRUE(g::is_symmetric(g::build_csr(coo)));
  }

  auto first = two_edges();
  g::sort_and_deduplicate(first, g::duplicate_policy::keep_first);
  EXPECT_FLOAT_EQ(first.values[0], 5.0f);  // (0,1)
  EXPECT_FLOAT_EQ(first.values[1], 2.0f);  // (1,0)

  auto min = two_edges();
  g::sort_and_deduplicate(min, g::duplicate_policy::keep_min);
  EXPECT_FLOAT_EQ(min.values[0], 2.0f);  // (0,1)
  EXPECT_FLOAT_EQ(min.values[1], 2.0f);  // (1,0)
}

TEST(Build, TransposeSwapsEndpoints) {
  auto coo = diamond();
  g::transpose(coo);
  EXPECT_EQ(coo.row_indices[0], 1);
  EXPECT_EQ(coo.column_indices[0], 0);
}

TEST(Build, AdjacencyListRoundTrip) {
  auto coo = diamond();
  g::sort_and_deduplicate(coo);
  auto const csr = g::build_csr(coo);
  auto const adj = g::to_adjacency_list(csr);
  EXPECT_EQ(adj.num_vertices(), 4);
  EXPECT_EQ(adj.num_edges(), 4u);
  auto coo2 = g::to_coo(adj);
  g::sort_and_deduplicate(coo2);
  auto const csr2 = g::build_csr(coo2);
  EXPECT_EQ(csr.row_offsets, csr2.row_offsets);
  EXPECT_EQ(csr.column_indices, csr2.column_indices);
  EXPECT_EQ(csr.values, csr2.values);
}

// --- sort_and_deduplicate against the reference, under every policy ----------

class BuildDifferential : public ::testing::TestWithParam<g::duplicate_policy> {
};

TEST_P(BuildDifferential, RmatMultigraphsMatchReference) {
  // The default R-MAT skew and a steeper one: hubs with many repeats.
  for (double const a : {0.57, 0.75}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      auto const coo = rmat_multigraph(9, seed, a);
      auto const ref = reference_sort_dedup(coo, GetParam());
      ASSERT_LT(ref.row_indices.size(), coo.row_indices.size())
          << "the input has repeated edges";
      expect_matches_reference(coo, GetParam());
    }
  }
}

TEST_P(BuildDifferential, SortedInputMatchesReference) {
  // The snapshot path hands over rows in order.  Input already sorted by
  // (row, column), with or without its repeats, must match too.
  auto const raw = rmat_multigraph(8, 5);
  expect_matches_reference(reference_sort(raw), GetParam());
  auto canonical = raw;
  g::sort_and_deduplicate(canonical, GetParam());
  expect_matches_reference(canonical, GetParam());
}

TEST_P(BuildDifferential, EmptyGraphsAndEmptyRows) {
  g::coo_t<> none;  // 0 vertices, 0 edges
  expect_matches_reference(none, GetParam());
  g::coo_t<> edgeless;
  edgeless.num_rows = edgeless.num_cols = 7;
  expect_matches_reference(edgeless, GetParam());

  // Only every fifth row has edges, the first and last rows none; each
  // row's columns run backwards, twice.
  g::coo_t<> sparse;
  sparse.num_rows = sparse.num_cols = 101;
  for (vertex_t r = 5; r < 100; r += 5)
    for (vertex_t k = 0; k < 12; ++k)
      sparse.push_back(r, 100 - 7 * (k % 6),
                       0.25f * static_cast<weight_t>(k + r));
  expect_matches_reference(sparse, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Policies, BuildDifferential,
                         ::testing::Values(g::duplicate_policy::keep_first,
                                           g::duplicate_policy::keep_min,
                                           g::duplicate_policy::sum),
                         policy_name);

// --- graph_t ------------------------------------------------------------------

TEST(GraphT, CsrViewAnswersListing1Queries) {
  auto const graph = g::from_coo<g::graph_csr>(diamond());
  EXPECT_EQ(graph.get_num_vertices(), 4);
  EXPECT_EQ(graph.get_num_edges(), 4);
  EXPECT_EQ(graph.get_out_degree(0), 2);
  EXPECT_EQ(graph.get_out_degree(3), 0);

  std::vector<vertex_t> dsts;
  for (auto const e : graph.get_edges(0))
    dsts.push_back(graph.get_dest_vertex(e));
  EXPECT_EQ(dsts, (std::vector<vertex_t>{1, 2}));
  EXPECT_FLOAT_EQ(graph.get_edge_weight(0), 1.0f);
}

TEST(GraphT, SourceVertexBinarySearch) {
  auto const graph = g::from_coo<g::graph_csr>(diamond());
  for (vertex_t v = 0; v < graph.get_num_vertices(); ++v)
    for (auto const e : graph.get_edges(v))
      EXPECT_EQ(graph.get_source_vertex(e), v) << "edge " << e;
}

TEST(GraphT, PushPullViewsAgreeOnEdgeMultiset) {
  auto const graph = g::from_coo<g::graph_push_pull>(diamond());
  // Every out-edge (u, v) must appear as an in-edge of v from u.
  std::vector<std::pair<vertex_t, vertex_t>> push, pull;
  for (vertex_t u = 0; u < graph.get_num_vertices(); ++u)
    for (auto const e : graph.get_edges(u))
      push.emplace_back(u, graph.get_dest_vertex(e));
  for (vertex_t v = 0; v < graph.get_num_vertices(); ++v)
    for (auto const e : graph.get_in_edges(v))
      pull.emplace_back(graph.get_in_source_vertex(e), v);
  std::sort(push.begin(), push.end());
  std::sort(pull.begin(), pull.end());
  EXPECT_EQ(push, pull);
}

TEST(GraphT, InDegreeMatchesTransposedOutDegree) {
  auto const graph = g::from_coo<g::graph_push_pull>(diamond());
  EXPECT_EQ(graph.get_in_degree(3), 2);
  EXPECT_EQ(graph.get_in_degree(0), 0);
  EXPECT_FLOAT_EQ(graph.get_in_edge_weight(*graph.get_in_edges(3).begin()),
                  3.0f);
}

TEST(GraphT, CooViewKeepsRawEdges) {
  auto const graph = g::from_coo<g::graph_full>(diamond());
  EXPECT_EQ(graph.coo_num_edges(), 4);
  EXPECT_EQ(graph.coo_source(0), 0);
  EXPECT_EQ(graph.coo_dest(0), 1);
}

TEST(GraphT, IdRangeIterationAndSize) {
  g::id_range<edge_t> r(3, 7);
  EXPECT_EQ(r.size(), 4u);
  EXPECT_FALSE(r.empty());
  edge_t expect = 3;
  for (auto const e : r)
    EXPECT_EQ(e, expect++);
  EXPECT_EQ(expect, 7);
  g::id_range<edge_t> empty(5, 5);
  EXPECT_TRUE(empty.empty());
}

// --- properties ----------------------------------------------------------------

TEST(Properties, DegreeStats) {
  auto const csr = g::build_csr(diamond());
  auto const s = g::out_degree_stats(csr);
  EXPECT_EQ(s.min_degree, 0u);
  EXPECT_EQ(s.max_degree, 2u);
  EXPECT_DOUBLE_EQ(s.mean_degree, 1.0);
  EXPECT_EQ(s.isolated_vertices, 1u);  // vertex 3
}

TEST(Properties, SymmetryDetection) {
  auto const directed = g::build_csr(diamond());
  EXPECT_FALSE(g::is_symmetric(directed));
  auto coo = diamond();
  g::symmetrize(coo);
  g::sort_and_deduplicate(coo);
  EXPECT_TRUE(g::is_symmetric(g::build_csr(coo)));
}

TEST(Properties, DuplicateAndSelfLoopChecks) {
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 2;
  coo.push_back(0, 1, 1.0f);
  coo.push_back(0, 1, 1.0f);
  coo.push_back(1, 1, 1.0f);
  auto const dirty = g::build_csr(coo);
  EXPECT_FALSE(g::has_no_duplicate_edges(dirty));
  EXPECT_FALSE(g::has_no_self_loops(dirty));

  g::sort_and_deduplicate(coo);
  g::remove_self_loops(coo);
  auto const clean = g::build_csr(coo);
  EXPECT_TRUE(g::has_no_duplicate_edges(clean));
  EXPECT_TRUE(g::has_no_self_loops(clean));
}

TEST(Properties, ReachabilityOracle) {
  auto const csr = g::build_csr(diamond());
  auto const seen = g::reachable_from(csr, 0);
  EXPECT_TRUE(seen[0] && seen[1] && seen[2] && seen[3]);
  auto const from3 = g::reachable_from(csr, 3);
  EXPECT_TRUE(from3[3]);
  EXPECT_FALSE(from3[0] || from3[1] || from3[2]);
}

TEST(Properties, EmptyGraphIsValid) {
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 0;
  auto const csr = g::build_csr(coo);
  EXPECT_TRUE(g::is_valid_csr(csr));
  EXPECT_EQ(csr.num_edges(), 0);
}

TEST(Properties, IsolatedVerticesOnlyGraph) {
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 5;
  auto const graph = g::from_coo<g::graph_csr>(std::move(coo));
  EXPECT_EQ(graph.get_num_vertices(), 5);
  EXPECT_EQ(graph.get_num_edges(), 0);
  for (vertex_t v = 0; v < 5; ++v)
    EXPECT_TRUE(graph.get_edges(v).empty());
}
