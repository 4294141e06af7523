// Direction differential suite for relax_bsp: on a graph with a CSC view
// the min-plus loop pulls its dense supersteps; SSSP, label propagation
// and the warm (incremental) paths must land on the same fixed points as
// the oracles and the cold runs, under seq and par, and graphs with only a
// CSR view must never pull.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "algorithms/connected_components.hpp"
#include "algorithms/incremental.hpp"
#include "algorithms/sssp.hpp"
#include "core/execution.hpp"
#include "core/operators/advance.hpp"
#include "core/telemetry.hpp"
#include "generators/generators.hpp"
#include "graph/compressed.hpp"
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

/// Cold SSSP, cold CC and label propagation from every vertex against
/// their oracles, the three warm paths against the cold runs; returns the
/// pull supersteps of (cold SSSP, label propagation).
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
  std::size_t const sssp_pulls =
      pulls_of([&] { cold_sssp = alg::sssp(policy, full, source); });
  // The CC program warm paths run, seeded with every vertex: a frontier
  // whose out-edges are all the edges.
  std::vector<vertex_t> every_vertex(
      static_cast<std::size_t>(full.get_num_vertices()));
  std::iota(every_vertex.begin(), every_vertex.end(), vertex_t{0});
  std::vector<vertex_t> lp_labels = every_vertex;
  std::size_t const cc_pulls = pulls_of([&] {
    alg::relax_bsp(
        policy, full, every_vertex,
        alg::min_plus_condition<alg::constant_cost<vertex_t{0}>>(
            lp_labels.data()));
  });
  auto const cold_cc = alg::connected_components(policy, full);
  auto const oracle_cc = alg::connected_components_serial(full);
  EXPECT_EQ(cold_sssp.distances, alg::dijkstra(full, source).distances)
      << label << "/sssp";
  EXPECT_EQ(cold_cc.labels, oracle_cc.labels) << label << "/cc";
  EXPECT_EQ(lp_labels, oracle_cc.labels) << label << "/label propagation";

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
  // Label propagation seeds every vertex, a frontier whose out-edges are
  // all the edges; SSSP's frontier grows past 1/alpha of the edges on all
  // but the grid.
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

// One push superstep (`relax_push`) on a hand-built directed graph, for a
// float min-plus program, an integer cost-0 program (CC labels) and the
// packed (depth, parent) word of warm BFS, on the flat CSR and on the
// block-coded graph (which keeps its accessors), under seq and par.
namespace {

using word_program = alg::detail::depth_parent_program;

/// The step's program over `value`, for each value type under test.
template <typename T>
auto push_program(T* value) {
  if constexpr (std::is_same_v<T, weight_t>)
    return alg::min_plus_condition(value);
  else if constexpr (std::is_same_v<T, std::uint64_t>)
    return word_program{value};
  else
    return alg::min_plus_condition<alg::constant_cost<T{0}>>(value);
}

/// The edges_inspected / edges_relaxed / items_out of the one push op a
/// recorded run holds.
struct push_counts {
  std::size_t ops = 0, inspected = 0, relaxed = 0, items_out = 0;
};
push_counts push_ops(tel::trace const& t) {
  push_counts c;
  for (auto const& s : t.supersteps)
    for (auto const& op : s.ops)
      if (op.name == "advance_push.seq" || op.name == "advance_push.par") {
        ++c.ops;
        c.inspected += op.edges_inspected;
        c.relaxed += op.edges_relaxed;
        c.items_out += op.items_out;
      }
  return c;
}

/// Runs one relax_push of `program` from `members` under a recording scope.
template <typename P, typename G, typename Prog>
std::pair<std::vector<vertex_t>, push_counts> push_once(
    P policy, G const& graph, std::vector<vertex_t> const& members,
    Prog const& program) {
  fr::sparse_frontier<vertex_t> in(members);
  tel::trace t;
  fr::sparse_frontier<vertex_t> out;
  {
    tel::scoped_recording rec(t, "relax_push");
    out = alg::relax_push(policy, graph, in, program);
  }
  return {out.active(), push_ops(t)};
}

//   0 -> 1, 3, 4     (0 is in the frontier, reached)
//   1 -> 7           (1 is not in the frontier: never inspected)
//   2 -> 1, 6        (2 is in the frontier, reached)
//   5 -> 0, 7        (5 is in the frontier, unreached: offers nothing)
// Each improvable destination (1, 3, 6) has one improving in-edge from
// the frontier and no frontier vertex falls, so the outcome does not
// depend on the order lanes push in.
g::graph_csr step_graph() {
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 8;
  coo.push_back(0, 1, 1.0f);
  coo.push_back(0, 3, 2.0f);
  coo.push_back(0, 4, 4.0f);
  coo.push_back(1, 7, 1.0f);
  coo.push_back(2, 1, 10.0f);
  coo.push_back(2, 6, 0.5f);
  coo.push_back(5, 0, 1.0f);
  coo.push_back(5, 7, 1.0f);
  return g::from_coo<g::graph_csr>(std::move(coo));
}
std::vector<vertex_t> const step_frontier{0, 2, 5};
std::size_t const step_out_degrees = 3 + 2 + 2;
std::vector<vertex_t> const step_lowered{1, 3, 6};

/// Start and expected values per program on step_graph().
template <typename T>
std::pair<std::vector<T>, std::vector<T>> step_values() {
  if constexpr (std::is_same_v<T, weight_t>) {
    T const inf = essentials::infinity_v<T>;
    return {{0, 5, 1, inf, 3, inf, inf, inf},
            {0, 1, 1, 2, 3, inf, 1.5f, inf}};
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    auto const w = [](std::uint32_t d, std::uint32_t p) {
      return word_program::pack(d, p);
    };
    T const unset = w(word_program::unset, word_program::unset);
    // 2 offers depth 2 to 1, which is at depth 2 already: no improvement.
    return {{w(0, 0), w(2, 9), w(1, 0), unset, w(1, 0), unset, unset, unset},
            {w(0, 0), w(1, 0), w(1, 0), w(1, 0), w(1, 0), unset, w(2, 2),
             unset}};
  } else {
    T const inf = essentials::infinity_v<T>;
    // Labels: 2 offers its label 6 to 1, which holds 5: no improvement.
    return {{0, 5, 6, inf, 0, inf, inf, inf}, {0, 0, 6, 0, 0, inf, 6, inf}};
  }
}

template <typename T>
class RelaxPushStep : public ::testing::Test {};
using push_value_types = ::testing::Types<weight_t, vertex_t, std::uint64_t>;
TYPED_TEST_SUITE(RelaxPushStep, push_value_types);

}  // namespace

TYPED_TEST(RelaxPushStep, LowersAndEmitsExactlyTheImprovableDestinations) {
  using T = TypeParam;
  auto const csr = step_graph();
  g::compressed_graph<> const blocks(csr.csr());
  auto const [start, lowered] = step_values<T>();
  auto const check = [&](auto policy, auto const& graph, char const* label) {
    std::vector<T> value = start;
    auto [out, counts] =
        push_once(policy, graph, step_frontier, push_program(value.data()));
    std::sort(out.begin(), out.end());
    EXPECT_EQ(out, step_lowered) << label;
    EXPECT_EQ(value, lowered) << label;
    if (!tel::compiled_in)
      return;
    EXPECT_EQ(counts.ops, 1u) << label;
    EXPECT_EQ(counts.inspected, step_out_degrees) << label;
    EXPECT_EQ(counts.relaxed, step_lowered.size()) << label;
    EXPECT_EQ(counts.items_out, step_lowered.size()) << label;
  };
  check(ex::seq, csr, "seq/csr");
  check(ex::par, csr, "par/csr");
  check(ex::seq, blocks, "seq/compressed");
  check(ex::par, blocks, "par/compressed");
}

// An unreached integer source offers infinity, not infinity + cost: with
// a unit cost the sum would overflow and could "improve" a destination.
TEST(RelaxPushStep, UnreachedIntegerSourceOffersNothing) {
  auto const graph = step_graph();
  vertex_t const inf = essentials::infinity_v<vertex_t>;
  std::vector<vertex_t> const start{0, 5, 6, inf, 0, inf, inf, inf};
  auto const check = [&](auto policy, auto program_of, char const* label) {
    std::vector<vertex_t> value = start;
    auto const [out, counts] =
        push_once(policy, graph, {5}, program_of(value.data()));
    EXPECT_TRUE(out.empty()) << label;
    EXPECT_EQ(value, start) << label;
    if (!tel::compiled_in)
      return;
    EXPECT_EQ(counts.inspected, 2u) << label;  // 5 -> 0 and 5 -> 7
    EXPECT_EQ(counts.relaxed, 0u) << label;
  };
  auto const hops = [](vertex_t* v) {
    return alg::min_plus_condition<alg::constant_cost<vertex_t{1}>>(v);
  };
  auto const labels = [](vertex_t* v) {
    return alg::min_plus_condition<alg::constant_cost<vertex_t{0}>>(v);
  };
  check(ex::seq, hops, "seq/hops");
  check(ex::par, hops, "par/hops");
  check(ex::seq, labels, "seq/labels");
  check(ex::par, labels, "par/labels");
}

// Contention: every vertex of a large frontier offers to one hub in the
// same step, each offer below the one before it in frontier order, so a
// serial push lowers the hub once per edge and a parallel one between
// once and that often.  Whatever the interleaving, the hub ends at the
// serial minimum, every lowering CAS emits it once (edges_relaxed ==
// output size), and uniquify leaves it once.
TYPED_TEST(RelaxPushStep, ContendedHubEndsAtTheSerialMinimumAndAppearsOnce) {
  using T = TypeParam;
  constexpr vertex_t kSources = 4096;
  vertex_t const hub = kSources;
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = kSources + 1;
  std::vector<vertex_t> members;
  for (vertex_t v = 0; v < kSources; ++v) {
    coo.push_back(v, hub, 1.0f);
    members.push_back(v);
  }
  auto const graph = g::from_coo<g::graph_csr>(std::move(coo));
  // Source v holds kSources - v, so the last source offers the least.
  std::vector<T> start(static_cast<std::size_t>(kSources) + 1);
  for (vertex_t v = 0; v < kSources; ++v) {
    auto const x = static_cast<std::uint32_t>(kSources - v);
    if constexpr (std::is_same_v<T, std::uint64_t>)
      start[static_cast<std::size_t>(v)] = word_program::pack(x, 0);
    else
      start[static_cast<std::size_t>(v)] = static_cast<T>(x);
  }
  T expected_hub;
  if constexpr (std::is_same_v<T, std::uint64_t>) {
    start[static_cast<std::size_t>(hub)] =
        word_program::pack(word_program::unset, word_program::unset);
    expected_hub = word_program::pack(2, static_cast<std::uint32_t>(kSources - 1));
  } else {
    start[static_cast<std::size_t>(hub)] = essentials::infinity_v<T>;
    expected_hub = std::is_same_v<T, weight_t> ? T{2} : T{1};
  }

  auto const check = [&](auto policy, char const* label) {
    std::vector<T> value = start;
    auto [out, counts] =
        push_once(policy, graph, members, push_program(value.data()));
    EXPECT_EQ(value[static_cast<std::size_t>(hub)], expected_hub) << label;
    ASSERT_FALSE(out.empty()) << label;
    EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                            [hub](vertex_t v) { return v == hub; }))
        << label;
    fr::sparse_frontier<vertex_t> unique(std::move(out));
    alg::detail::uniquify_vertices(policy, unique,
                                   static_cast<std::size_t>(kSources) + 1);
    EXPECT_EQ(unique.active(), std::vector<vertex_t>{hub}) << label;
    if (!tel::compiled_in)
      return;
    EXPECT_EQ(counts.inspected, static_cast<std::size_t>(kSources)) << label;
    EXPECT_EQ(counts.relaxed, counts.items_out) << label;
    EXPECT_GE(counts.relaxed, 1u) << label;
  };
  check(ex::seq, "seq");
  check(ex::par, "par");
  // A serial push meets the offers in decreasing order: every one lowers.
  std::vector<T> value = start;
  auto const [out, counts] =
      push_once(ex::seq, graph, members, push_program(value.data()));
  EXPECT_EQ(out.size(), static_cast<std::size_t>(kSources));
}
