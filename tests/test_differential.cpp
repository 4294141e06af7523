// Differential equivalence suite for the operator matrix (paper §III-C):
// every overload of advance — push seq/par/par_nosync, the Listing 3
// baseline, sparse->dense push, and pull — must compute the same function
// on the same input, across seeded random graphs and the pathological
// shapes (star, chain, self loops, isolated vertices) that historically
// expose frontier-invariant bugs.
//
// Beyond output equality, the suite cross-checks the telemetry layer:
// edges_inspected / edges_relaxed must agree across execution policies of
// one direction, and — for a pure condition without early exit — across
// *directions*, which is the comparability contract core/telemetry.hpp
// documents.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <vector>

#include "core/execution.hpp"
#include "core/frontier/frontier.hpp"
#include "core/operators/advance.hpp"
#include "core/operators/filter.hpp"
#include "core/operators/neighbor_reduce.hpp"
#include "core/telemetry.hpp"
#include "generators/generators.hpp"
#include "graph/graph.hpp"
#include "lane_slots.hpp"
#include "parallel/thread_pool.hpp"

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

std::vector<vertex_t> sorted(std::vector<vertex_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<vertex_t> deduped(std::vector<vertex_t> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

// --- the graph family -------------------------------------------------------

g::graph_push_pull random_graph(std::uint64_t seed) {
  auto coo = gen::erdos_renyi(/*n=*/200, /*m=*/1500, {}, seed);
  return g::from_coo<g::graph_push_pull>(std::move(coo));
}

g::graph_push_pull star_graph() {
  return g::from_coo<g::graph_push_pull>(gen::star(64));
}

/// One celebrity hub: star(5000)'s center has out-degree 4999, so a single
/// lane expands a neighbourhood as large as the rest of the frontier.
g::graph_push_pull celebrity_graph() {
  return g::from_coo<g::graph_push_pull>(gen::star(5000));
}

/// A skewed power-law graph (R-MAT): a few hubs among many low-degree
/// vertices.
g::graph_push_pull skewed_rmat_graph() {
  gen::rmat_options opt;
  opt.scale = 9;
  opt.edge_factor = 8;
  opt.seed = 5;
  auto coo = gen::rmat(opt);
  g::remove_self_loops(coo);
  return g::from_coo<g::graph_push_pull>(std::move(coo),
                                         g::duplicate_policy::keep_min);
}

g::graph_push_pull chain_graph() {
  return g::from_coo<g::graph_push_pull>(gen::chain(32));
}

/// Self loops on every vertex plus a cycle — push must emit the loop
/// endpoint, pull must see the loop edge as an active in-edge.
g::graph_push_pull self_loop_graph() {
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 6;
  for (vertex_t v = 0; v < 6; ++v) {
    coo.push_back(v, v, 1.f);                          // self loop
    coo.push_back(v, static_cast<vertex_t>((v + 1) % 6), 1.f);  // cycle
  }
  return g::from_coo<g::graph_push_pull>(std::move(coo));
}

/// Vertices 8..11 have no edges at all; the frontier may still contain
/// them (push expands nothing, pull never activates them).
g::graph_push_pull isolated_graph() {
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 12;
  coo.push_back(0, 1, 1.f);
  coo.push_back(1, 2, 1.f);
  coo.push_back(2, 3, 1.f);
  coo.push_back(3, 0, 1.f);
  coo.push_back(1, 3, 1.f);
  return g::from_coo<g::graph_push_pull>(std::move(coo));
}

// --- conditions -------------------------------------------------------------

auto const always = [](vertex_t, vertex_t, edge_t, weight_t) { return true; };

/// Pure (side-effect-free, deterministic in the edge endpoints) condition
/// that accepts roughly two thirds of the edges — the shape for which push
/// and pull must agree edge-for-edge.
auto const pure_mod = [](vertex_t s, vertex_t d, edge_t, weight_t) {
  return (static_cast<std::size_t>(s) * 7 + static_cast<std::size_t>(d) * 13) %
             3 !=
         0;
};

// --- the differential harness -----------------------------------------------

/// Run every advance variant on (graph, seeds, cond); assert the outputs
/// agree (as multisets where the representation preserves duplicates, as
/// sets where it deduplicates) and the recorded edge counts match.
template <typename Cond>
void expect_variants_agree(g::graph_push_pull const& graph,
                           std::vector<vertex_t> seeds, Cond cond) {
  std::size_t const n = static_cast<std::size_t>(graph.get_num_vertices());
  fr::sparse_frontier<vertex_t> const in(std::move(seeds));

  tel::trace t_seq, t_par, t_nosync, t_l3, t_dense, t_pull, t_uniq;

  // Sequential push: the reference semantics.
  std::vector<vertex_t> ref_multiset;
  {
    tel::scoped_recording rec(t_seq, "advance.seq");
    ref_multiset = sorted(op::advance_push(ex::seq, graph, in, cond).to_vector());
  }
  std::vector<vertex_t> const ref_set = deduped(ref_multiset);

  {
    tel::scoped_recording rec(t_par, "advance.par");
    auto const out = op::advance_push(ex::par, graph, in, cond);
    EXPECT_EQ(sorted(out.to_vector()), ref_multiset);
  }
  {
    tel::scoped_recording rec(t_nosync, "advance.par_nosync");
    fr::sparse_frontier<vertex_t> out;
    op::advance_push(ex::par_nosync, graph, in, cond, out);
    ex::par_nosync.pool().wait_idle();  // scope outlives the barrier
    EXPECT_EQ(sorted(out.to_vector()), ref_multiset);
  }
  {
    tel::scoped_recording rec(t_l3, "listing3");
    auto const out = op::neighbors_expand_listing3(ex::par, graph, in, cond);
    EXPECT_EQ(sorted(out.to_vector()), ref_multiset);
  }
  // uniquify turns the sparse multiset into a set (when the input frontier
  // is itself duplicate-free, which every caller of this harness
  // guarantees).
  {
    auto out = op::advance_push(ex::par, graph, in, cond);
    tel::scoped_recording rec(t_uniq, "uniquify.par");
    op::uniquify(ex::par, out, n);
    EXPECT_EQ(sorted(out.to_vector()), ref_set);
  }
  // The scan path's output order is deterministic for a fixed pool and
  // grain: two identical runs must produce bit-identical vectors (the
  // locked paths promise only multiset equality).
  {
    auto const a = op::advance_push(ex::par, graph, in, cond);
    auto const b = op::advance_push(ex::par, graph, in, cond);
    EXPECT_EQ(a.to_vector(), b.to_vector());
  }
  {
    tel::scoped_recording rec(t_dense, "advance.to_dense");
    auto const out = op::advance_push_to_dense(ex::par, graph, in, cond);
    EXPECT_EQ(out.to_vector(), ref_set);  // bitmap deduplicates
  }
  {
    tel::scoped_recording rec(t_pull, "advance.pull");
    auto const din = fr::to_dense(in, n);
    auto const out = op::advance_pull<false>(ex::par, graph, din, cond);
    EXPECT_EQ(out.to_vector(), ref_set);
  }

  if (tel::compiled_in) {
    // Work counts are invariant across execution policies of one direction…
    auto const insp = t_seq.total_edges_inspected();
    auto const relx = t_seq.total_edges_relaxed();
    EXPECT_EQ(relx, ref_multiset.size());
    EXPECT_EQ(t_par.total_edges_inspected(), insp);
    EXPECT_EQ(t_par.total_edges_relaxed(), relx);
    EXPECT_EQ(t_nosync.total_edges_inspected(), insp);
    EXPECT_EQ(t_nosync.total_edges_relaxed(), relx);
    EXPECT_EQ(t_l3.total_edges_inspected(), insp);
    EXPECT_EQ(t_l3.total_edges_relaxed(), relx);
    EXPECT_EQ(t_dense.total_edges_inspected(), insp);
    EXPECT_EQ(t_dense.total_edges_relaxed(), relx);
    // …and across *directions* for a pure condition without early exit
    // (the input frontier holds unique ids, so CSR-side and CSC-side
    // traversals see the same edge set).
    EXPECT_EQ(t_pull.total_edges_inspected(), insp);
    EXPECT_EQ(t_pull.total_edges_relaxed(), relx);

    // Emit accounting: scan publishes lock-free, Listing 3 publishes under
    // a lock, and every relaxation is exactly one emit.
    EXPECT_EQ(t_par.total_emits_scan(), relx);
    EXPECT_EQ(t_par.total_emits_lock(), 0u);
    EXPECT_EQ(t_par.total_dedup_hits(), 0u);
    EXPECT_EQ(t_l3.total_emits_lock(), relx);
    EXPECT_EQ(t_l3.total_emits_scan(), 0u);
    // uniquify publishes the set and counts each repeat it dropped:
    // emitted + dropped == its input, the relaxed multiset.
    EXPECT_EQ(t_uniq.total_emits_scan() + t_uniq.total_dedup_hits(), relx);
    EXPECT_EQ(t_uniq.total_emits_scan(), ref_set.size());
    EXPECT_EQ(t_uniq.total_emits_lock(), 0u);
  }
}

}  // namespace

// --- seeded random graphs ---------------------------------------------------

TEST(Differential, RandomGraphsAllVariantsAgree) {
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    auto const graph = random_graph(seed);
    std::vector<vertex_t> seeds;
    for (vertex_t v = 0; v < 50; v += 3)
      seeds.push_back(v);
    expect_variants_agree(graph, seeds, always);
    expect_variants_agree(graph, seeds, pure_mod);
  }
  auto const skewed = skewed_rmat_graph();
  std::vector<vertex_t> seeds;
  for (vertex_t v = 0; v < 512; v += 3)
    seeds.push_back(v);
  expect_variants_agree(skewed, seeds, pure_mod);
  // Full frontier: hubs and low-degree vertices share one superstep.
  std::vector<vertex_t> all(512);
  for (std::size_t i = 0; i < all.size(); ++i)
    all[i] = static_cast<vertex_t>(i);
  expect_variants_agree(skewed, all, always);
}

TEST(Differential, FullFrontierOnRandomGraph) {
  auto const graph = random_graph(99);
  std::vector<vertex_t> seeds(static_cast<std::size_t>(graph.get_num_vertices()));
  for (std::size_t i = 0; i < seeds.size(); ++i)
    seeds[i] = static_cast<vertex_t>(i);
  expect_variants_agree(graph, seeds, pure_mod);
}

// --- pathological shapes ----------------------------------------------------

TEST(Differential, StarHubFrontier) {
  auto const graph = star_graph();
  expect_variants_agree(graph, {0}, always);       // hub: 63-way fan-out
  expect_variants_agree(graph, {0}, pure_mod);
  auto const celebrity = celebrity_graph();
  expect_variants_agree(celebrity, {0}, always);  // 4999-way fan-out
  expect_variants_agree(celebrity, {0}, pure_mod);
}

TEST(Differential, StarSpokeFrontier) {
  auto const graph = star_graph();
  std::vector<vertex_t> spokes;
  for (vertex_t v = 1; v < 64; ++v)
    spokes.push_back(v);  // all spokes point at the hub: max duplication
  expect_variants_agree(graph, spokes, always);
  expect_variants_agree(graph, spokes, pure_mod);
}

TEST(Differential, ChainSingleAndMulti) {
  auto const graph = chain_graph();
  expect_variants_agree(graph, {0}, always);
  expect_variants_agree(graph, {0, 5, 10, 31}, pure_mod);  // 31 has no out-edge
}

TEST(Differential, SelfLoops) {
  auto const graph = self_loop_graph();
  expect_variants_agree(graph, {0, 2, 4}, always);
  expect_variants_agree(graph, {0, 1, 2, 3, 4, 5}, pure_mod);
}

TEST(Differential, IsolatedVerticesInFrontier) {
  auto const graph = isolated_graph();
  expect_variants_agree(graph, {0, 8, 10, 11}, always);  // 8/10/11 are isolated
  expect_variants_agree(graph, {1, 9}, pure_mod);
}

// --- frontier-invariant regressions ----------------------------------------

// A vertex with several relaxing in-edges joins the pull output exactly
// once, while the condition is still evaluated (and counted) for every
// active in-edge when early_exit is false.
TEST(Differential, PullActivatesSharedNeighborOnce) {
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 4;
  coo.push_back(0, 2, 1.f);
  coo.push_back(1, 2, 1.f);
  coo.push_back(0, 3, 1.f);
  auto const graph = g::from_coo<g::graph_push_pull>(std::move(coo));

  auto const in =
      fr::to_dense(fr::sparse_frontier<vertex_t>(std::vector<vertex_t>{0, 1}), 4);

  std::atomic<std::size_t> evaluated{0};
  auto const counting = [&evaluated](vertex_t, vertex_t, edge_t, weight_t) {
    evaluated.fetch_add(1, std::memory_order_relaxed);
    return true;
  };

  tel::trace t;
  {
    tel::scoped_recording rec(t, "pull.shared");
    auto const out = op::advance_pull<false>(ex::seq, graph, in, counting);
    EXPECT_EQ(out.to_vector(), (std::vector<vertex_t>{2, 3}));
    EXPECT_EQ(out.size(), 2u);
  }
  // Both in-edges of 2 and the single in-edge of 3 were evaluated — no
  // early-out just because the vertex was already activated.
  EXPECT_EQ(evaluated.load(), 3u);
  if (tel::compiled_in) {
    EXPECT_EQ(t.total_edges_inspected(), 3u);
    EXPECT_EQ(t.total_edges_relaxed(), 3u);
  }
}

// early_exit=true is the BFS-shaped "any parent" query: scanning stops at
// the first relaxing in-edge, so at most one relaxation per output vertex
// is recorded.
TEST(Differential, PullEarlyExitStopsAtFirstHit) {
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = 4;
  coo.push_back(0, 2, 1.f);
  coo.push_back(1, 2, 1.f);
  coo.push_back(0, 3, 1.f);
  auto const graph = g::from_coo<g::graph_push_pull>(std::move(coo));

  auto const in =
      fr::to_dense(fr::sparse_frontier<vertex_t>(std::vector<vertex_t>{0, 1}), 4);

  tel::trace t;
  {
    tel::scoped_recording rec(t, "pull.early_exit");
    auto const out = op::advance_pull<true>(ex::seq, graph, in, always);
    EXPECT_EQ(out.to_vector(), (std::vector<vertex_t>{2, 3}));
  }
  if (tel::compiled_in) {
    EXPECT_EQ(t.total_edges_relaxed(), 2u);      // one hit per output vertex
    EXPECT_LE(t.total_edges_inspected(), 3u);    // 2's scan stopped early
    EXPECT_GE(t.total_edges_inspected(), 2u);
  }
}

// The Listing 3 baseline must preserve duplicates exactly like the
// sequential reference: its per-element serialization now routes through
// sparse_frontier::add_vertex (the public API), not a raw push_back into
// the active vector.
TEST(Differential, Listing3PreservesDuplicateMultiset) {
  auto const graph = star_graph();
  std::vector<vertex_t> spokes;
  for (vertex_t v = 1; v < 64; ++v)
    spokes.push_back(v);
  fr::sparse_frontier<vertex_t> const in(std::move(spokes));

  auto const s = op::advance_push(ex::seq, graph, in, always);
  auto const l3 = op::neighbors_expand_listing3(ex::par, graph, in, always);
  EXPECT_EQ(sorted(l3.to_vector()), sorted(s.to_vector()));
  EXPECT_EQ(l3.size(), 63u);  // every spoke contributes the hub once
}

// Dense push output deduplicates by construction; its telemetry still
// reports every relaxation.
TEST(Differential, DensePushCountsAllRelaxationsDespiteDedup) {
  auto const graph = star_graph();
  std::vector<vertex_t> spokes;
  for (vertex_t v = 1; v < 64; ++v)
    spokes.push_back(v);
  fr::sparse_frontier<vertex_t> const in(std::move(spokes));

  tel::trace t;
  {
    tel::scoped_recording rec(t, "to_dense.star");
    auto const out = op::advance_push_to_dense(ex::par, graph, in, always);
    EXPECT_EQ(out.to_vector(), (std::vector<vertex_t>{0}));  // just the hub
  }
  if (tel::compiled_in) {
    EXPECT_EQ(t.total_edges_relaxed(), 63u);
    EXPECT_EQ(t.total_edges_inspected(), 63u);
  }
}

// --- the rest of the wired operator matrix --------------------------------

// The edge-centric pipeline (expand_to_edges -> advance_edges) matches the
// vertex-centric push.
TEST(Differential, EdgeCentricPipelineMatchesPush) {
  auto const graph = random_graph(23);
  std::vector<vertex_t> seeds;
  for (vertex_t v = 0; v < 200; v += 5)
    seeds.push_back(v);
  fr::sparse_frontier<vertex_t> const in(std::move(seeds));

  auto const ref =
      sorted(op::advance_push(ex::seq, graph, in, pure_mod).to_vector());

  auto const edges = op::expand_to_edges(ex::par, graph, in);
  auto const out = op::advance_edges(ex::par, graph, edges, pure_mod);
  EXPECT_EQ(sorted(out.to_vector()), ref);
}

// uniquify's two strategies, sort + unique (seq) and the claim bitmap
// (par), keep the same set; par counts every repeat it dropped.
TEST(Differential, UniquifyStrategiesProduceTheSameSet) {
  std::vector<vertex_t> dups;
  for (vertex_t v = 0; v < 512; ++v) {
    dups.push_back(v % 97);
    dups.push_back(v % 31);
  }
  auto const ref = deduped(dups);

  fr::sparse_frontier<vertex_t> f_seq{dups};
  op::uniquify(ex::seq, f_seq);
  EXPECT_EQ(f_seq.to_vector(), ref);

  fr::sparse_frontier<vertex_t> f{dups};
  tel::trace t;
  {
    tel::scoped_recording rec(t, "uniquify");
    op::uniquify(ex::par, f, /*universe=*/97);
  }
  EXPECT_EQ(sorted(f.to_vector()), ref);
  if (tel::compiled_in) {
    EXPECT_EQ(t.total_dedup_hits(), dups.size() - ref.size());
    EXPECT_EQ(t.total_emits_scan(), ref.size());
    EXPECT_EQ(t.total_emits_lock(), 0u);
  }
}

// --- operator matrix vs the sequential reference ---------------------------

// `execution::seq` is the documented reference every parallel overload must
// match.  The scan path must be *bit-identical* to it on an 8-worker pool
// (scan output order is chunk-major, input order within a chunk — the
// sequential order); the locked Listing 3 advance promises multiset
// equality.
TEST(Differential, AdvanceMatrixMatchesSeq) {
  essentials::parallel::thread_pool pool(8);
  ex::parallel_policy const on_pool(pool);

  for (std::uint64_t seed : {3u, 11u}) {
    auto const graph = random_graph(seed);
    std::vector<vertex_t> seeds;
    for (vertex_t v = 0; v < 200; v += 2)
      seeds.push_back(v);
    fr::sparse_frontier<vertex_t> const in(std::move(seeds));
    auto const ref = op::advance_push(ex::seq, graph, in, pure_mod).to_vector();

    auto const a = op::advance_push(on_pool, graph, in, pure_mod);
    EXPECT_EQ(a.to_vector(), ref) << "scan must be bit-identical";
    auto const l3 =
        op::neighbors_expand_listing3(on_pool, graph, in, pure_mod);
    EXPECT_EQ(sorted(l3.to_vector()), sorted(ref));
  }
}

TEST(Differential, FilterMatrixMatchesSeq) {
  essentials::parallel::thread_pool pool(8);
  ex::parallel_policy const on_pool(pool);

  std::vector<vertex_t> ids;
  for (vertex_t v = 0; v < 10'000; ++v)
    ids.push_back(v);
  fr::sparse_frontier<vertex_t> const in(std::move(ids));
  auto const pred = [](vertex_t v) { return v % 7 != 2; };
  auto const ref = op::filter(ex::seq, in, pred).to_vector();

  auto const a = op::filter(on_pool, in, pred);
  EXPECT_EQ(a.to_vector(), ref);  // deterministic input order
}

TEST(Differential, NeighborReduceMatrixMatchesSeq) {
  essentials::parallel::thread_pool pool(8);
  ex::parallel_policy const on_pool(pool);

  auto const graph = random_graph(31);
  std::size_t const n = static_cast<std::size_t>(graph.get_num_vertices());
  std::vector<vertex_t> seeds;
  for (vertex_t v = 0; v < 200; v += 3)
    seeds.push_back(v);
  fr::sparse_frontier<vertex_t> const in(std::move(seeds));

  auto const map_w = [](vertex_t, vertex_t d, edge_t, weight_t w) {
    return static_cast<double>(w) + static_cast<double>(d);
  };
  auto const combine = [](double a, double b) { return a + b; };
  auto const activate = [](vertex_t, double acc) { return acc > 8.0; };

  std::vector<double> out_ref(n, -1.0);
  auto const f_ref = op::neighbor_reduce_activate(
      ex::seq, graph, in, 0.0, map_w, combine, activate, out_ref.data());

  std::vector<double> out(n, -1.0);
  auto const f = op::neighbor_reduce_activate(on_pool, graph, in, 0.0, map_w,
                                              combine, activate, out.data());
  // out[v] is one lane's in-order fold of v's edges regardless of
  // scheduling, so it is exact.
  EXPECT_EQ(out, out_ref);
  EXPECT_EQ(f.to_vector(), f_ref.to_vector());
}

// --- operator matrix across the pool's two queues --------------------------

// A caller that holds a lane queues its run_blocked chunks on its own lane
// deque; a caller that cannot claim one (every external slot held) queues
// them on the locked FIFO injector.  Both follow the same chunking
// contract, so the scan path is bit-identical across the two and the
// Listing 3 advance agrees as a multiset.
TEST(Differential, AdvanceMatrixAgreesAcrossQueueSubstrates) {
  essentials::parallel::thread_pool deques(8);
  essentials::parallel::thread_pool injector(8);
  essentials::test_support::external_lanes_held const held(injector);
  ex::parallel_policy const on_deques(deques);
  ex::parallel_policy const on_injector(injector);

  for (std::uint64_t seed : {3u, 11u}) {
    auto const graph = random_graph(seed);
    std::vector<vertex_t> seeds;
    for (vertex_t v = 0; v < 200; v += 2)
      seeds.push_back(v);
    fr::sparse_frontier<vertex_t> const in(std::move(seeds));

    auto const a = op::advance_push(on_deques, graph, in, pure_mod);
    auto const b = op::advance_push(on_injector, graph, in, pure_mod);
    EXPECT_EQ(a.to_vector(), b.to_vector()) << "scan must be bit-identical";
    auto const la =
        op::neighbors_expand_listing3(on_deques, graph, in, pure_mod);
    auto const lb =
        op::neighbors_expand_listing3(on_injector, graph, in, pure_mod);
    EXPECT_EQ(sorted(la.to_vector()), sorted(lb.to_vector()));
  }
  EXPECT_EQ(deques.lane_id(), deques.size());  // claimed an external lane
  EXPECT_EQ(injector.lane_id(), essentials::parallel::thread_pool::no_lane);
}

TEST(Differential, FilterMatrixAgreesAcrossQueueSubstrates) {
  essentials::parallel::thread_pool deques(8);
  essentials::parallel::thread_pool injector(8);
  essentials::test_support::external_lanes_held const held(injector);
  ex::parallel_policy const on_deques(deques);
  ex::parallel_policy const on_injector(injector);

  std::vector<vertex_t> ids;
  for (vertex_t v = 0; v < 10'000; ++v)
    ids.push_back(v);
  fr::sparse_frontier<vertex_t> const in(std::move(ids));
  auto const pred = [](vertex_t v) { return v % 7 != 2; };

  auto const a = op::filter(on_deques, in, pred);
  auto const b = op::filter(on_injector, in, pred);
  EXPECT_EQ(a.to_vector(), b.to_vector());
  EXPECT_EQ(injector.lane_id(), essentials::parallel::thread_pool::no_lane);
}

TEST(Differential, NeighborReduceMatrixAgreesAcrossQueueSubstrates) {
  essentials::parallel::thread_pool deques(8);
  essentials::parallel::thread_pool injector(8);
  essentials::test_support::external_lanes_held const held(injector);
  ex::parallel_policy const on_deques(deques);
  ex::parallel_policy const on_injector(injector);

  auto const graph = random_graph(31);
  std::size_t const n = static_cast<std::size_t>(graph.get_num_vertices());
  std::vector<vertex_t> seeds;
  for (vertex_t v = 0; v < 200; v += 3)
    seeds.push_back(v);
  fr::sparse_frontier<vertex_t> const in(std::move(seeds));

  auto const map_w = [](vertex_t, vertex_t d, edge_t, weight_t w) {
    return static_cast<double>(w) + static_cast<double>(d);
  };
  auto const combine = [](double a, double b) { return a + b; };
  auto const activate = [](vertex_t, double acc) { return acc > 8.0; };

  std::vector<double> out_a(n, -1.0), out_b(n, -1.0);
  auto const fa = op::neighbor_reduce_activate(
      on_deques, graph, in, 0.0, map_w, combine, activate, out_a.data());
  auto const fb = op::neighbor_reduce_activate(
      on_injector, graph, in, 0.0, map_w, combine, activate, out_b.data());
  EXPECT_EQ(out_a, out_b);
  EXPECT_EQ(fa.to_vector(), fb.to_vector());
  EXPECT_EQ(injector.lane_id(), essentials::parallel::thread_pool::no_lane);
}

// Dense->dense push agrees with the sparse->dense path on the same input
// set.
TEST(Differential, DenseToDenseMatchesSparseToDense) {
  auto const graph = random_graph(5);
  std::vector<vertex_t> seeds;
  for (vertex_t v = 0; v < 200; v += 7)
    seeds.push_back(v);
  fr::sparse_frontier<vertex_t> const in(std::move(seeds));
  auto const din = fr::to_dense(in, 200);

  auto const a = op::advance_push_to_dense(ex::par, graph, in, pure_mod);
  auto const b = op::advance_push(ex::par, graph, din, pure_mod);
  EXPECT_EQ(a.to_vector(), b.to_vector());

  auto const a_seq = op::advance_push_to_dense(ex::seq, graph, in, pure_mod);
  auto const b_seq = op::advance_push(ex::seq, graph, din, pure_mod);
  EXPECT_EQ(a_seq.to_vector(), a.to_vector());
  EXPECT_EQ(b_seq.to_vector(), b.to_vector());
}
