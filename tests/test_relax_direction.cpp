// Direction differential suite for relax_bsp: on a graph with a CSC view
// the min-plus loop pulls its dense supersteps; SSSP, CC and the warm
// (incremental) paths must land on the same fixed points as the oracles
// and the cold runs, under seq and par, and graphs with only a CSR view
// must never pull.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "algorithms/connected_components.hpp"
#include "algorithms/incremental.hpp"
#include "algorithms/sssp.hpp"
#include "core/execution.hpp"
#include "core/operators/advance.hpp"
#include "core/telemetry.hpp"
#include "generators/generators.hpp"
#include "graph/graph.hpp"

namespace alg = essentials::algorithms;
namespace ex = essentials::execution;
namespace fr = essentials::frontier;
namespace g = essentials::graph;
namespace gen = essentials::generators;
namespace op = essentials::operators;
namespace tel = essentials::telemetry;
using essentials::direction_t;
using essentials::edge_t;
using essentials::vertex_t;
using essentials::weight_t;

namespace {

/// A family's directed edge list, self-loops removed.
g::coo_t<> family_edges(std::string const& family, std::uint64_t seed) {
  gen::weight_options const w{0.5f, 4.0f};
  g::coo_t<> coo;
  if (family == "rmat") {
    gen::rmat_options opt;
    opt.scale = 9;
    opt.edge_factor = 8;
    opt.seed = seed;
    opt.weights = w;
    coo = gen::rmat(opt);
  } else if (family == "er") {
    coo = gen::erdos_renyi(600, 4800, w, seed);
  } else if (family == "grid") {
    coo = gen::grid_2d(20, 24, w, seed);
  } else {
    coo = gen::star(400, w, seed);
  }
  g::remove_self_loops(coo);
  return coo;
}

/// Edges [lo, hi) of `edges`, symmetrized, as a graph.
template <typename G>
G symmetric_graph(g::coo_t<> const& edges, std::size_t lo, std::size_t hi) {
  g::coo_t<> coo;
  coo.num_rows = edges.num_rows;
  coo.num_cols = edges.num_cols;
  for (std::size_t i = lo; i < hi; ++i)
    coo.push_back(edges.row_indices[i], edges.column_indices[i],
                  edges.values[i]);
  g::symmetrize(coo);
  return g::from_coo<G>(std::move(coo), g::duplicate_policy::keep_min);
}

/// The insert-only delta that adds edges [from, end) (both directions).
g::edge_delta_t<> insert_delta(g::coo_t<> const& edges, std::size_t from) {
  g::edge_delta_t<> delta;
  delta.complete = true;
  for (std::size_t i = from; i < edges.row_indices.size(); ++i) {
    vertex_t const u = edges.row_indices[i], v = edges.column_indices[i];
    weight_t const w = edges.values[i];
    delta.records.push_back({u, v, w, g::delta_op::insert});
    delta.records.push_back({v, u, w, g::delta_op::insert});
  }
  return delta;
}

/// Pull supersteps of a recorded run.
std::size_t pulls(tel::trace const& t) {
  return static_cast<std::size_t>(
      std::count_if(t.supersteps.begin(), t.supersteps.end(),
                    [](auto const& s) { return s.direction == direction_t::pull; }));
}

/// Runs `f` under a recording scope and returns how many supersteps pulled.
template <typename F>
std::size_t pulls_of(F&& f) {
  tel::trace t;
  {
    tel::scoped_recording rec(t, "relax");
    f();
  }
  return pulls(t);
}

/// Cold SSSP and CC against their oracles, the three warm paths against
/// the cold runs; returns the pull supersteps of (cold SSSP, cold CC).
template <typename G, typename P>
std::pair<std::size_t, std::size_t> check_relax(P policy,
                                                g::coo_t<> const& edges,
                                                std::string const& label) {
  std::size_t const m = edges.row_indices.size();
  std::size_t const split = m - m / 16;  // the last sixteenth is the delta
  auto const base = symmetric_graph<G>(edges, 0, split);
  auto const full = symmetric_graph<G>(edges, 0, m);
  auto const delta = insert_delta(edges, split);
  vertex_t const source = 0;

  alg::sssp_result<> cold_sssp;
  alg::cc_result<> cold_cc;
  std::size_t const sssp_pulls =
      pulls_of([&] { cold_sssp = alg::sssp(policy, full, source); });
  std::size_t const cc_pulls =
      pulls_of([&] { cold_cc = alg::connected_components(policy, full); });
  EXPECT_EQ(cold_sssp.distances, alg::dijkstra(full, source).distances)
      << label << "/sssp";
  EXPECT_EQ(cold_cc.labels, alg::connected_components_serial(full).labels)
      << label << "/cc";

  alg::incremental_outcome out_s, out_b, out_c;
  auto const warm_sssp = alg::sssp_incremental(
      policy, full, source, alg::sssp(policy, base, source), delta, &out_s);
  auto const warm_bfs = alg::bfs_incremental(
      policy, full, source, alg::bfs(policy, base, source), delta, &out_b);
  auto const warm_cc = alg::connected_components_incremental(
      policy, full, alg::connected_components(policy, base), delta, &out_c);
  EXPECT_TRUE(out_s.warm_started && out_b.warm_started && out_c.warm_started)
      << label;
  EXPECT_EQ(warm_sssp.distances, cold_sssp.distances) << label << "/warm sssp";
  EXPECT_EQ(warm_bfs.depths, alg::bfs_serial(full, source).depths)
      << label << "/warm bfs";
  for (std::size_t v = 0; v < warm_bfs.depths.size(); ++v) {
    if (warm_bfs.depths[v] <= 0)
      continue;
    auto const p = static_cast<std::size_t>(warm_bfs.parents[v]);
    EXPECT_EQ(warm_bfs.depths[p] + 1, warm_bfs.depths[v])
        << label << "/warm bfs parent of " << v;
  }
  EXPECT_EQ(warm_cc.labels, cold_cc.labels) << label << "/warm cc";
  return {sssp_pulls, cc_pulls};
}

}  // namespace

using RelaxDirectionParam = std::string;
class RelaxDirection : public ::testing::TestWithParam<RelaxDirectionParam> {};

TEST_P(RelaxDirection, PushPullGraphsMatchOraclesAndPullDenseSupersteps) {
  std::string const family = GetParam();
  auto const edges = family_edges(family, 5);
  auto const [seq_sssp, seq_cc] =
      check_relax<g::graph_push_pull>(ex::seq, edges, family + "/seq");
  auto const [par_sssp, par_cc] =
      check_relax<g::graph_push_pull>(ex::par, edges, family + "/par");
  if (!tel::compiled_in)
    return;
  // CC seeds every vertex, a frontier whose out-edges are all the edges;
  // SSSP's frontier grows past 1/alpha of the edges on all but the grid.
  EXPECT_GT(seq_cc, 0u) << family;
  EXPECT_GT(par_cc, 0u) << family;
  if (family != "grid") {
    EXPECT_GT(seq_sssp, 0u) << family;
    EXPECT_GT(par_sssp, 0u) << family;
  }
}

TEST_P(RelaxDirection, CsrOnlyGraphsNeverPull) {
  std::string const family = GetParam();
  auto const edges = family_edges(family, 5);
  auto const [seq_sssp, seq_cc] =
      check_relax<g::graph_csr>(ex::seq, edges, family + "/seq");
  auto const [par_sssp, par_cc] =
      check_relax<g::graph_csr>(ex::par, edges, family + "/par");
  EXPECT_EQ(seq_sssp + seq_cc + par_sssp + par_cc, 0u) << family;
}

INSTANTIATE_TEST_SUITE_P(Families, RelaxDirection,
                         ::testing::Values("rmat", "er", "grid", "star"),
                         [](auto const& info) { return info.param; });

// On a directed (unsymmetrized) R-MAT the pull step must walk in-edges:
// given one frontier, pull evaluates exactly the (src, dst, weight) edges
// push evaluates over out-edges, and SSSP — pulling its dense supersteps —
// still equals Dijkstra.
TEST(RelaxDirectionDirected, PullRelaxesTheEdgesPushRelaxes) {
  auto const graph =
      g::from_coo<g::graph_push_pull>(family_edges("rmat", 9),
                                      g::duplicate_policy::keep_min);
  auto const n = static_cast<std::size_t>(graph.get_num_vertices());
  fr::sparse_frontier<vertex_t> sparse;
  for (std::size_t v = 0; v < n; v += 7)
    sparse.add_vertex(static_cast<vertex_t>(v));
  auto const dense = fr::to_dense(sparse, n);

  using triple = std::tuple<vertex_t, vertex_t, weight_t>;
  std::mutex lock;
  std::vector<triple> pushed, pulled;
  auto const recorder = [&lock](std::vector<triple>& into) {
    return [&lock, &into](vertex_t src, vertex_t dst, edge_t, weight_t w) {
      std::lock_guard<std::mutex> guard(lock);
      into.emplace_back(src, dst, w);
      return false;
    };
  };
  op::advance_push(ex::par, graph, sparse, recorder(pushed));
  op::advance_pull<false>(ex::par, graph, dense, recorder(pulled));
  std::sort(pushed.begin(), pushed.end());
  std::sort(pulled.begin(), pulled.end());
  EXPECT_FALSE(pushed.empty());
  EXPECT_EQ(pulled, pushed);

  auto const oracle = alg::dijkstra(graph, 0).distances;
  alg::sssp_result<> seq_run, par_run;
  std::size_t const seq_pulls =
      pulls_of([&] { seq_run = alg::sssp(ex::seq, graph, 0); });
  std::size_t const par_pulls =
      pulls_of([&] { par_run = alg::sssp(ex::par, graph, 0); });
  EXPECT_EQ(seq_run.distances, oracle);
  EXPECT_EQ(par_run.distances, oracle);
  if (tel::compiled_in) {
    EXPECT_GT(seq_pulls, 0u);
    EXPECT_GT(par_pulls, 0u);
  }
}

// One pull superstep on a hand-built graph: the step folds every in-edge,
// whichever vertices the input frontier holds, and activates exactly the
// destinations whose value fell.  No vertex that falls is the source of an
// edge, so the outcome does not depend on the order lanes fold in.
TEST(RelaxDirectionPullStep, FoldsEveryInEdgeAndActivatesWhatFell) {
  float const inf = essentials::infinity_v<weight_t>;
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 7;
  coo.push_back(0, 1, 1.0f);  // 1 falls from 5 to 1
  coo.push_back(2, 1, 3.0f);  // offers 4: folded, not the best
  coo.push_back(0, 3, 2.0f);  // 3 falls from infinity to 2
  coo.push_back(4, 3, 1.0f);  // 4 is unreached: offers nothing
  coo.push_back(4, 5, 1.0f);
  coo.push_back(2, 5, 2.0f);  // offers 3, not below 5's 2
  coo.push_back(5, 0, 1.0f);  // offers 3, not below 0
  auto const graph = g::from_coo<g::graph_push_pull>(std::move(coo));
  std::size_t const m = 7;
  std::vector<weight_t> const start{0, 5, 1, inf, inf, 2, inf};
  std::vector<weight_t> const fell{0, 1, 1, 2, inf, 2, inf};
  std::vector<vertex_t> const activated{1, 3};

  std::vector<std::vector<vertex_t>> const inputs{
      {}, {0}, {4}, {1, 3, 6}, {0, 1, 2, 3, 4, 5, 6}};
  auto const check = [&](auto policy, char const* label) {
    for (auto const& members : inputs) {
      fr::dense_frontier<vertex_t> in(7);
      for (vertex_t const v : members)
        in.add_vertex(v);
      std::vector<weight_t> value = start;
      tel::trace t;
      fr::dense_frontier<vertex_t> out;
      {
        tel::scoped_recording rec(t, "relax_pull");
        out = alg::relax_pull(policy, graph, in,
                              alg::min_plus_condition(value.data()));
      }
      std::string const where =
          std::string(label) + " with " + std::to_string(members.size()) +
          " input vertices";
      EXPECT_EQ(out.to_vector(), activated) << where;
      EXPECT_EQ(value, fell) << where;
      if (!tel::compiled_in)
        continue;
      std::size_t ops = 0;
      for (auto const& s : t.supersteps)
        for (auto const& op : s.ops) {
          if (op.name != "advance_pull")
            continue;
          ++ops;
          EXPECT_EQ(op.edges_inspected, m) << where;
          EXPECT_EQ(op.edges_relaxed, activated.size()) << where;
          EXPECT_EQ(op.items_out, activated.size()) << where;
        }
      EXPECT_EQ(ops, 1u) << where;
    }
  };
  check(ex::seq, "seq");
  check(ex::par, "par");
}
