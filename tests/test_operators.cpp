// Tests for the operator family: advance (push/pull/edge-centric, every
// policy), filter, uniquify, compute, reduce.  The key property throughout:
// every overload of an operator computes the same function — the paper's
// requirement that functionality be identical as execution changes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>

#include "core/execution.hpp"
#include "core/operators/advance.hpp"
#include "core/operators/compute.hpp"
#include "core/operators/filter.hpp"
#include "core/operators/neighbor_reduce.hpp"
#include "core/operators/reduce.hpp"
#include "core/telemetry.hpp"
#include "generators/generators.hpp"
#include "graph/graph.hpp"

namespace ex = essentials::execution;
namespace op = essentials::operators;
namespace fr = essentials::frontier;
namespace g = essentials::graph;
namespace gen = essentials::generators;
namespace tel = essentials::telemetry;
using essentials::vertex_t;
using essentials::edge_t;
using essentials::weight_t;

namespace {

g::graph_push_pull small_graph() {
  // 0 -> {1, 2}, 1 -> {2, 3}, 2 -> {3}, 3 -> {0}
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 4;
  coo.push_back(0, 1, 1.f);
  coo.push_back(0, 2, 1.f);
  coo.push_back(1, 2, 1.f);
  coo.push_back(1, 3, 1.f);
  coo.push_back(2, 3, 1.f);
  coo.push_back(3, 0, 1.f);
  return g::from_coo<g::graph_push_pull>(std::move(coo));
}

g::graph_push_pull rmat_graph(int scale = 8) {
  gen::rmat_options opt;
  opt.scale = scale;
  opt.edge_factor = 8;
  auto coo = gen::rmat(opt);
  g::remove_self_loops(coo);
  return g::from_coo<g::graph_push_pull>(std::move(coo));
}

auto const always = [](vertex_t, vertex_t, edge_t, weight_t) { return true; };

std::vector<vertex_t> sorted(std::vector<vertex_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace

// --- push advance -----------------------------------------------------------

TEST(AdvancePush, SeqExpandsAllNeighbors) {
  auto const graph = small_graph();
  fr::sparse_frontier<vertex_t> in(std::vector<vertex_t>{0, 1});
  auto const out = op::advance_push(ex::seq, graph, in, always);
  EXPECT_EQ(sorted(out.to_vector()), (std::vector<vertex_t>{1, 2, 2, 3}));
}

TEST(AdvancePush, ParMatchesSeqAsMultiset) {
  auto const graph = rmat_graph();
  fr::sparse_frontier<vertex_t> in(std::vector<vertex_t>{0, 1, 2, 3, 4, 5});
  auto const s = op::advance_push(ex::seq, graph, in, always);
  auto const p = op::advance_push(ex::par, graph, in, always);
  EXPECT_EQ(sorted(s.to_vector()), sorted(p.to_vector()));
}

TEST(AdvancePush, ConditionFilters) {
  auto const graph = small_graph();
  fr::sparse_frontier<vertex_t> in(std::vector<vertex_t>{0, 1, 2});
  auto const out = op::advance_push(
      ex::par, graph, in,
      [](vertex_t, vertex_t dst, edge_t, weight_t) { return dst == 3; });
  EXPECT_EQ(sorted(out.to_vector()), (std::vector<vertex_t>{3, 3}));
}

TEST(AdvancePush, EmptyFrontierYieldsEmpty) {
  auto const graph = small_graph();
  fr::sparse_frontier<vertex_t> in;
  EXPECT_TRUE(op::advance_push(ex::seq, graph, in, always).empty());
  EXPECT_TRUE(op::advance_push(ex::par, graph, in, always).empty());
}

TEST(AdvancePush, NosyncCompletesAfterWaitIdle) {
  auto const graph = rmat_graph();
  fr::sparse_frontier<vertex_t> in(std::vector<vertex_t>{0, 1, 2, 3});
  auto const expected =
      sorted(op::advance_push(ex::seq, graph, in, always).to_vector());

  ex::parallel_nosync_policy nosync;
  fr::sparse_frontier<vertex_t> out;
  op::advance_push(nosync, graph, in, always, out);
  nosync.pool().wait_idle();  // the caller-owned barrier
  EXPECT_EQ(sorted(out.to_vector()), expected);
}

TEST(AdvancePush, Listing3MutexVariantMatches) {
  auto const graph = rmat_graph();
  fr::sparse_frontier<vertex_t> in(std::vector<vertex_t>{0, 1, 2, 3, 4});
  auto const fast = op::advance_push(ex::par, graph, in, always);
  auto const listing3 = op::neighbors_expand_listing3(ex::par, graph, in, always);
  EXPECT_EQ(sorted(fast.to_vector()), sorted(listing3.to_vector()));
}

TEST(AdvancePush, DenseOutputDeduplicates) {
  auto const graph = small_graph();
  fr::sparse_frontier<vertex_t> in(std::vector<vertex_t>{0, 1, 2});
  auto const dense = op::advance_push_to_dense(ex::par, graph, in, always);
  // Neighbors: {1,2} u {2,3} u {3} = {1,2,3} after bitmap dedupe.
  EXPECT_EQ(dense.to_vector(), (std::vector<vertex_t>{1, 2, 3}));
}

TEST(AdvancePush, DenseInputDenseOutput) {
  auto const graph = small_graph();
  fr::dense_frontier<vertex_t> in(4);
  in.add_vertex(0);
  in.add_vertex(3);
  auto const out = op::advance_push(ex::par, graph, in, always);
  EXPECT_EQ(out.to_vector(), (std::vector<vertex_t>{0, 1, 2}));
  auto const out_seq = op::advance_push(ex::seq, graph, in, always);
  EXPECT_EQ(out_seq.to_vector(), out.to_vector());
}

// --- pull advance ------------------------------------------------------------

TEST(AdvancePull, FindsVerticesWithActivePredecessors) {
  auto const graph = small_graph();
  fr::dense_frontier<vertex_t> in(4);
  in.add_vertex(0);  // 0 -> 1, 0 -> 2
  auto const out = op::advance_pull<false>(ex::par, graph, in, always);
  EXPECT_EQ(out.to_vector(), (std::vector<vertex_t>{1, 2}));
}

TEST(AdvancePull, MatchesPushOnRandomGraph) {
  auto const graph = rmat_graph();
  fr::dense_frontier<vertex_t> dense_in(
      static_cast<std::size_t>(graph.get_num_vertices()));
  fr::sparse_frontier<vertex_t> sparse_in;
  for (vertex_t v = 0; v < 40; ++v) {
    dense_in.add_vertex(v);
    sparse_in.add_vertex(v);
  }
  auto const pull = op::advance_pull<false>(ex::par, graph, dense_in, always);
  auto push = op::advance_push(ex::par, graph, sparse_in, always);
  op::uniquify(ex::seq, push);
  EXPECT_EQ(pull.to_vector(), push.to_vector());
}

TEST(AdvancePull, EarlyExitStillFindsEveryReachableVertex) {
  auto const graph = rmat_graph(7);
  fr::dense_frontier<vertex_t> in(
      static_cast<std::size_t>(graph.get_num_vertices()));
  for (vertex_t v = 0; v < 10; ++v)
    in.add_vertex(v);
  auto const all = op::advance_pull<false>(ex::par, graph, in, always);
  auto const first = op::advance_pull<true>(ex::par, graph, in, always);
  EXPECT_EQ(all.to_vector(), first.to_vector());
}

TEST(AdvancePull, SeqMatchesPar) {
  auto const graph = rmat_graph(7);
  fr::dense_frontier<vertex_t> in(
      static_cast<std::size_t>(graph.get_num_vertices()));
  for (vertex_t v = 0; v < graph.get_num_vertices(); v += 7)
    in.add_vertex(v);
  auto const s = op::advance_pull<false>(ex::seq, graph, in, always);
  auto const p = op::advance_pull<false>(ex::par, graph, in, always);
  EXPECT_EQ(s.to_vector(), p.to_vector());
}

// Given a visited bitmap, the candidates are its complement: the condition
// never runs for a visited destination (a whole visited word included),
// and what activates is marked visited by the operator itself.
template <typename P>
void expect_pull_skips_visited(P policy) {
  auto const graph = rmat_graph(9);
  auto const n = static_cast<std::size_t>(graph.get_num_vertices());
  fr::dense_frontier<vertex_t> in(n);
  for (std::size_t v = 0; v < n; v += 3)
    in.add_vertex(static_cast<vertex_t>(v));
  essentials::parallel::atomic_bitset visited(n);
  std::vector<bool> was_visited(n, false);
  for (std::size_t v = 0; v < n; ++v)
    if (v % 5 == 0 || (v >= 64 && v < 128)) {
      visited.set(v);
      was_visited[v] = true;
    }

  std::vector<std::atomic<int>> evaluated(n);
  auto const counting = [&evaluated](vertex_t, vertex_t dst, edge_t,
                                     weight_t) {
    evaluated[static_cast<std::size_t>(dst)].fetch_add(
        1, std::memory_order_relaxed);
    return true;
  };
  auto const out = op::advance_pull<true>(policy, graph, in, counting,
                                          &visited);
  auto const unrestricted = op::advance_pull<true>(policy, graph, in, always);

  std::size_t activated = 0;
  for (std::size_t v = 0; v < n; ++v) {
    auto const id = static_cast<vertex_t>(v);
    if (was_visited[v]) {
      EXPECT_EQ(evaluated[v].load(), 0) << "visited vertex " << v;
      EXPECT_FALSE(out.contains(id)) << v;
    } else {
      EXPECT_EQ(out.contains(id), unrestricted.contains(id)) << v;
      EXPECT_LE(evaluated[v].load(), 1) << v;  // early exit: one parent
    }
    EXPECT_EQ(visited.test(v), was_visited[v] || out.contains(id)) << v;
    activated += out.contains(id) ? 1 : 0;
  }
  EXPECT_GT(activated, 0u);
}

TEST(AdvancePull, VisitedBitmapExcludesDestinationsSeq) {
  expect_pull_skips_visited(ex::seq);
}

TEST(AdvancePull, VisitedBitmapExcludesDestinationsPar) {
  expect_pull_skips_visited(ex::par);
}

// --- edge-centric ---------------------------------------------------------------

TEST(AdvanceEdges, ExpandAndConsumeEdgeFrontier) {
  auto const graph = small_graph();
  fr::sparse_frontier<vertex_t> vf(std::vector<vertex_t>{0, 1});
  auto const ef = op::expand_to_edges(ex::par, graph, vf);
  EXPECT_EQ(ef.size(), 4u);  // deg(0)=2, deg(1)=2

  // Consume the edge frontier: keep destinations of edges out of vertex 0.
  auto const vf2 = op::advance_edges(
      ex::par, graph, ef,
      [](vertex_t src, vertex_t, edge_t, weight_t) { return src == 0; });
  EXPECT_EQ(sorted(vf2.to_vector()), (std::vector<vertex_t>{1, 2}));
}

TEST(AdvanceEdges, SeqMatchesPar) {
  auto const graph = rmat_graph(7);
  fr::sparse_frontier<vertex_t> vf(std::vector<vertex_t>{1, 2, 3});
  auto const es = op::expand_to_edges(ex::seq, graph, vf);
  auto const ep = op::expand_to_edges(ex::par, graph, vf);
  auto se = es.to_vector();
  auto pe = ep.to_vector();
  std::sort(se.begin(), se.end());
  std::sort(pe.begin(), pe.end());
  EXPECT_EQ(se, pe);
}

// --- filter / uniquify ------------------------------------------------------------

TEST(Filter, SeqAndParAgree) {
  fr::sparse_frontier<vertex_t> in(
      std::vector<vertex_t>{5, 2, 9, 4, 7, 0, 3, 8, 1, 6});
  auto const keep_even = [](vertex_t v) { return v % 2 == 0; };
  auto const s = op::filter(ex::seq, in, keep_even);
  auto const p = op::filter(ex::par, in, keep_even);
  EXPECT_EQ(s.to_vector(), (std::vector<vertex_t>{2, 4, 0, 8, 6}));
  EXPECT_EQ(sorted(p.to_vector()), (std::vector<vertex_t>{0, 2, 4, 6, 8}));
}

TEST(Filter, DenseKeepsOnlyMatching) {
  fr::dense_frontier<vertex_t> in(128);
  for (vertex_t v = 0; v < 128; ++v)
    in.add_vertex(v);
  auto const out =
      op::filter(ex::par, in, [](vertex_t v) { return v % 16 == 0; });
  EXPECT_EQ(out.to_vector(),
            (std::vector<vertex_t>{0, 16, 32, 48, 64, 80, 96, 112}));
  auto const out_seq =
      op::filter(ex::seq, in, [](vertex_t v) { return v % 16 == 0; });
  EXPECT_EQ(out_seq.to_vector(), out.to_vector());
}

TEST(Uniquify, SortBasedRemovesDuplicates) {
  fr::sparse_frontier<vertex_t> f(std::vector<vertex_t>{3, 1, 3, 2, 1, 3});
  op::uniquify(ex::seq, f);
  EXPECT_EQ(f.to_vector(), (std::vector<vertex_t>{1, 2, 3}));
}

TEST(Uniquify, BitmapBasedMatchesSortBased) {
  fr::sparse_frontier<vertex_t> a(
      std::vector<vertex_t>{9, 9, 0, 4, 4, 4, 7, 0, 9});
  auto b = a;
  op::uniquify(ex::seq, a);
  op::uniquify(ex::par, b, 10);
  EXPECT_EQ(a.to_vector(), sorted(b.to_vector()));
}

TEST(Uniquify, EmptyFrontier) {
  fr::sparse_frontier<vertex_t> f;
  op::uniquify(ex::seq, f);
  EXPECT_TRUE(f.empty());
  op::uniquify(ex::par, f, 10);
  EXPECT_TRUE(f.empty());
}

// --- compute / reduce ---------------------------------------------------------------

TEST(Compute, AppliesToEveryActiveElement) {
  fr::sparse_frontier<vertex_t> f(std::vector<vertex_t>{1, 3, 5});
  std::vector<int> hits(8, 0);
  op::compute(ex::par, f, [&hits](vertex_t v) { hits[v] = 1; });
  EXPECT_EQ(hits, (std::vector<int>{0, 1, 0, 1, 0, 1, 0, 0}));
}

TEST(Compute, DenseFrontierVariant) {
  fr::dense_frontier<vertex_t> f(70);
  f.add_vertex(0);
  f.add_vertex(69);
  std::atomic<int> sum{0};
  op::compute(ex::par, f, [&sum](vertex_t v) { sum.fetch_add(v); });
  EXPECT_EQ(sum.load(), 69);
}

TEST(Compute, VerticesSweepCoversWholeGraph) {
  auto const graph = small_graph();
  std::vector<std::atomic<int>> hits(4);
  op::compute_vertices(ex::par, graph,
                       [&hits](vertex_t v) { hits[v].fetch_add(1); });
  for (auto const& h : hits)
    EXPECT_EQ(h.load(), 1);
}

TEST(Compute, NosyncVertexSweepAfterWait) {
  auto const graph = rmat_graph(7);
  std::vector<std::atomic<int>> hits(
      static_cast<std::size_t>(graph.get_num_vertices()));
  ex::parallel_nosync_policy nosync;
  op::compute_vertices(nosync, graph,
                       [&hits](vertex_t v) { hits[v].fetch_add(1); });
  nosync.pool().wait_idle();
  for (auto const& h : hits)
    EXPECT_EQ(h.load(), 1);
}

TEST(Reduce, FrontierSum) {
  fr::sparse_frontier<vertex_t> f(std::vector<vertex_t>{1, 2, 3, 4});
  auto const seq_sum = op::reduce(ex::seq, f, 0L,
                                  [](vertex_t v) { return long{v}; },
                                  [](long a, long b) { return a + b; });
  auto const par_sum = op::reduce(ex::par, f, 0L,
                                  [](vertex_t v) { return long{v}; },
                                  [](long a, long b) { return a + b; });
  EXPECT_EQ(seq_sum, 10);
  EXPECT_EQ(par_sum, 10);
}

TEST(Reduce, VertexDegreeSumEqualsEdgeCount) {
  auto const graph = rmat_graph();
  auto const total = op::reduce_vertices(
      ex::par, graph, 0LL,
      [&graph](vertex_t v) {
        return static_cast<long long>(graph.get_out_degree(v));
      },
      [](long long a, long long b) { return a + b; });
  EXPECT_EQ(total, static_cast<long long>(graph.get_num_edges()));
}

// --- policy semantics (the §III-A claim) ---------------------------------------

TEST(ExecutionPolicies, TypesAreDistinctAndTagged) {
  static_assert(ex::execution_policy<ex::sequenced_policy>);
  static_assert(ex::execution_policy<ex::parallel_policy>);
  static_assert(ex::execution_policy<ex::parallel_nosync_policy>);
  static_assert(ex::synchronous_policy<ex::sequenced_policy>);
  static_assert(ex::synchronous_policy<ex::parallel_policy>);
  static_assert(!ex::synchronous_policy<ex::parallel_nosync_policy>);
  static_assert(ex::asynchronous_policy<ex::parallel_nosync_policy>);
  static_assert(!ex::execution_policy<int>);
  SUCCEED();
}

TEST(ExecutionPolicies, PolicyCarriesItsPool) {
  essentials::parallel::thread_pool pool(2);
  ex::parallel_policy policy(pool);
  EXPECT_EQ(&policy.pool(), &pool);
  ex::parallel_policy defaulted;
  EXPECT_EQ(&defaulted.pool(), &essentials::parallel::default_pool());
}

TEST(ExecutionPolicies, BuildersComposeWithoutMutatingTheSource) {
  auto const p = ex::par.with_edge_grain(4).with_grain(128);
  EXPECT_EQ(p.edge_grain, 4u);
  EXPECT_EQ(p.grain, 128u);
  // The shared const instance is untouched.
  EXPECT_EQ(ex::par.grain, ex::default_grain);
  EXPECT_EQ(ex::par.edge_grain, ex::default_edge_grain);

  auto const ns = ex::par_nosync.with_grain(64).with_edge_grain(8);
  EXPECT_EQ(ns.grain, 64u);
  EXPECT_EQ(ns.edge_grain, 8u);
  EXPECT_EQ(ex::par_nosync.grain, ex::default_grain);
  EXPECT_EQ(ex::par_nosync.edge_grain, ex::default_edge_grain);
}

TEST(ExecutionPolicies, AdvanceHonorsCustomEdgeGrain) {
  auto const graph = rmat_graph();
  fr::sparse_frontier<vertex_t> in(std::vector<vertex_t>{0, 1, 2, 3, 4, 5});
  auto const ref = sorted(op::advance_push(ex::seq, graph, in, always).to_vector());
  for (std::size_t grain : {1, 2, 64, 100000}) {
    auto const out =
        op::advance_push(ex::par.with_edge_grain(grain), graph, in, always);
    EXPECT_EQ(sorted(out.to_vector()), ref) << "edge_grain=" << grain;
  }
}

// --- neighbor_reduce_activate ----------------------------------------------

TEST(NeighborReduceActivate, GathersAndActivates) {
  auto const graph = small_graph();
  fr::sparse_frontier<vertex_t> in(std::vector<vertex_t>{0, 1, 2, 3});
  std::vector<float> sums(4, -1.f);
  // Gather: sum of edge weights (all 1) == out-degree.  Activate vertices
  // with at least two out-edges.
  auto const out = op::neighbor_reduce_activate(
      ex::par, graph, in, 0.f,
      [](vertex_t, vertex_t, edge_t, weight_t w) { return w; },
      [](float a, float b) { return a + b; },
      [](vertex_t, float acc) { return acc >= 2.f; }, sums.data());
  EXPECT_EQ(sorted(out.to_vector()), (std::vector<vertex_t>{0, 1}));
  EXPECT_EQ(sums, (std::vector<float>{2.f, 2.f, 1.f, 1.f}));
}

TEST(NeighborReduceActivate, SeqMatchesPar) {
  auto const graph = rmat_graph();
  std::size_t const n = static_cast<std::size_t>(graph.get_num_vertices());
  std::vector<vertex_t> seeds;
  for (vertex_t v = 0; v < static_cast<vertex_t>(n); v += 3)
    seeds.push_back(v);
  fr::sparse_frontier<vertex_t> const in(std::move(seeds));

  auto const map = [](vertex_t, vertex_t d, edge_t, weight_t) {
    return static_cast<long>(d);
  };
  auto const combine = [](long a, long b) { return a + b; };
  auto const activate = [](vertex_t, long acc) { return acc % 2 == 1; };

  std::vector<long> ref_sums(n, 0);
  auto const ref = op::neighbor_reduce_activate(ex::seq, graph, in, 0L, map,
                                                combine, activate,
                                                ref_sums.data());
  auto const ref_sorted = sorted(ref.to_vector());

  std::vector<long> sums(n, 0);
  auto const out = op::neighbor_reduce_activate(ex::par, graph, in, 0L, map,
                                                combine, activate,
                                                sums.data());
  EXPECT_EQ(sorted(out.to_vector()), ref_sorted);
  EXPECT_EQ(sums, ref_sums);
}

TEST(NeighborReduceActivate, FrontierRestriction) {
  auto const graph = small_graph();
  fr::sparse_frontier<vertex_t> in(std::vector<vertex_t>{1});
  std::vector<int> counts(4, -7);
  auto const out = op::neighbor_reduce_activate(
      ex::par, graph, in, 0,
      [](vertex_t, vertex_t, edge_t, weight_t) { return 1; },
      [](int a, int b) { return a + b; },
      [](vertex_t, int) { return true; }, counts.data());
  EXPECT_EQ(out.to_vector(), (std::vector<vertex_t>{1}));
  // Only vertex 1's slot was written; inactive slots untouched.
  EXPECT_EQ(counts, (std::vector<int>{-7, 2, -7, -7}));
}

TEST(AdvancePush, ScratchReuseTicksOnWarmSuperstep) {
  auto const graph = rmat_graph();
  std::vector<vertex_t> seeds;
  for (vertex_t v = 0; v < 256; v += 2)
    seeds.push_back(v);
  fr::sparse_frontier<vertex_t> const in(std::move(seeds));
  auto const cond = [](vertex_t, vertex_t, edge_t, weight_t) { return true; };

  tel::trace t;
  {
    tel::scoped_recording rec(t, "advance_push.scratch");
    op::advance_push(ex::par, graph, in, cond);  // warm up
    op::advance_push(ex::par, graph, in, cond);  // reuse
  }
  if (tel::compiled_in) {
    std::vector<essentials::telemetry::op_record const*> records;
    for (auto const& s : t.supersteps)
      for (auto const& o : s.ops)
        if (o.name == "advance_push.par")
          records.push_back(&o);
    ASSERT_EQ(records.size(), 2u);
    // The second superstep finds the lane scratch warm.
    EXPECT_TRUE(records[1]->scratch_reused);
  }
}

TEST(NeighborReduceActivate, StarHubFoldsEverySpoke) {
  // star(5000): one hub with 4999 out-edges shares the frontier with two
  // spokes, so a single lane folds the hub's whole neighbourhood.
  auto const graph = g::from_coo<g::graph_push_pull>(gen::star(5000));
  std::size_t const n = static_cast<std::size_t>(graph.get_num_vertices());
  fr::sparse_frontier<vertex_t> const in(std::vector<vertex_t>{0, 1, 2});
  std::vector<long> out(n, 0);

  tel::trace t;
  {
    tel::scoped_recording rec(t, "nra.star_hub");
    op::neighbor_reduce_activate(
        ex::par, graph, in, 0L,
        [](vertex_t, vertex_t d, edge_t, weight_t) { return (long)d; },
        [](long a, long b) { return a + b; },
        [](vertex_t, long acc) { return acc > 0; }, out.data());
  }
  if (tel::compiled_in) {
    bool saw = false;
    for (auto const& s : t.supersteps)
      for (auto const& o : s.ops)
        saw = saw || o.name == "neighbor_reduce_activate";
    EXPECT_TRUE(saw);
  }
  // The hub folded the sum of all spoke ids: n*(n-1)/2 with ids 1..4999.
  EXPECT_EQ(out[0], static_cast<long>(4999) * 5000 / 2);
}
