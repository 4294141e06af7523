// Delta-recompute subsystem tests: the edge-delta log on dynamic_graph_t,
// record compaction, the registry delta chain, the incremental (warm-start)
// enactors for SSSP / BFS / CC, and the engine's end-to-end warm path.
//
// The load-bearing suites are *differential*: every incremental enactment
// is compared field-for-field against a cold enactment on the same
// snapshot — across randomized insert streams, insert+delete streams,
// weight updates, truncated logs and crafted spurious records.  The
// Delta-prefixed suites also join the CI TSAN matrix: the epoch-stamping
// regression (seal-after-snapshot, graph/dynamic.hpp) is exercised with
// concurrent writers under publish.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "algorithms/bfs.hpp"
#include "algorithms/connected_components.hpp"
#include "algorithms/incremental.hpp"
#include "algorithms/sssp.hpp"
#include "core/execution.hpp"
#include "core/telemetry.hpp"
#include "engine/engine.hpp"
#include "engine/registry.hpp"
#include "engine/warm_jobs.hpp"
#include "generators/generators.hpp"
#include "graph/delta.hpp"
#include "graph/dynamic.hpp"
#include "graph/graph.hpp"

namespace alg = essentials::algorithms;
namespace eng = essentials::engine;
namespace exec = essentials::execution;
namespace gr = essentials::graph;
namespace tel = essentials::telemetry;
using essentials::vertex_t;
using essentials::weight_t;

using dyn_t = gr::dynamic_graph_t<>;
using delta_t = dyn_t::delta_type;
using record_t = dyn_t::delta_record;
using engine_t = eng::analytics_engine<gr::graph_csr>;
using sssp_res = alg::sssp_result<weight_t>;
using bfs_res = alg::bfs_result<vertex_t>;
using cc_res = alg::cc_result<vertex_t>;

namespace {

/// The edge set of a CSR snapshot as ordered (src, dst, weight) triples.
std::set<std::tuple<vertex_t, vertex_t, weight_t>> edge_set(
    gr::graph_csr const& g) {
  std::set<std::tuple<vertex_t, vertex_t, weight_t>> out;
  auto const& csr = g.csr();
  for (vertex_t v = 0; v < csr.num_rows; ++v)
    for (auto e = csr.row_offsets[static_cast<std::size_t>(v)];
         e < csr.row_offsets[static_cast<std::size_t>(v) + 1]; ++e)
      out.emplace(v, csr.column_indices[static_cast<std::size_t>(e)],
                  csr.values[static_cast<std::size_t>(e)]);
  return out;
}

void expect_same_distances(sssp_res const& warm, sssp_res const& cold) {
  ASSERT_EQ(warm.distances.size(), cold.distances.size());
  for (std::size_t v = 0; v < cold.distances.size(); ++v)
    EXPECT_EQ(warm.distances[v], cold.distances[v]) << "vertex " << v;
}

void expect_same_depths(bfs_res const& warm, bfs_res const& cold) {
  ASSERT_EQ(warm.depths.size(), cold.depths.size());
  for (std::size_t v = 0; v < cold.depths.size(); ++v)
    EXPECT_EQ(warm.depths[v], cold.depths[v]) << "vertex " << v;
}

/// Parents are run-dependent; what must hold is the BFS-tree invariant:
/// depth[v] == depth[parent[v]] + 1 and the tree edge exists in g.
template <typename G>
void expect_valid_bfs_tree(bfs_res const& r, G const& g, vertex_t source) {
  for (std::size_t v = 0; v < r.depths.size(); ++v) {
    if (r.depths[v] <= 0) {
      if (static_cast<vertex_t>(v) == source) {
        EXPECT_EQ(r.depths[v], 0);
      }
      continue;  // unreached (-1) or the source (0): no parent edge
    }
    vertex_t const p = r.parents[v];
    ASSERT_GE(p, 0) << "reached vertex " << v << " lacks a parent";
    EXPECT_EQ(r.depths[static_cast<std::size_t>(p)] + 1, r.depths[v]);
    bool found = false;
    auto const& csr = g.csr();
    for (auto e = csr.row_offsets[static_cast<std::size_t>(p)];
         e < csr.row_offsets[static_cast<std::size_t>(p) + 1]; ++e)
      if (csr.column_indices[static_cast<std::size_t>(e)] ==
          static_cast<vertex_t>(v))
        found = true;
    EXPECT_TRUE(found) << "parent edge " << p << "->" << v << " not in graph";
  }
}

void expect_same_labels(cc_res const& warm, cc_res const& cold) {
  ASSERT_EQ(warm.labels.size(), cold.labels.size());
  for (std::size_t v = 0; v < cold.labels.size(); ++v)
    EXPECT_EQ(warm.labels[v], cold.labels[v]) << "vertex " << v;
  EXPECT_EQ(warm.num_components, cold.num_components);
}

}  // namespace

// ---------------------------------------------------------------------------
// Compaction (graph/delta.hpp)
// ---------------------------------------------------------------------------

TEST(DeltaCompact, RemoveIsStickyAndLatestWeightWins) {
  std::vector<record_t> records{
      {0, 1, 1.0f, gr::delta_op::insert},
      {2, 3, 5.0f, gr::delta_op::insert},
      {0, 1, 0.5f, gr::delta_op::insert},  // same pair, newer weight
      {2, 3, 2.0f, gr::delta_op::remove},  // taints (2,3)
      {2, 3, 9.0f, gr::delta_op::insert},  // remove stays sticky
  };
  gr::compact(records);
  ASSERT_EQ(records.size(), 2u);
  // First-appearance order is preserved.
  EXPECT_EQ(records[0].src, 0);
  EXPECT_EQ(records[0].dst, 1);
  EXPECT_EQ(records[0].op, gr::delta_op::insert);
  EXPECT_EQ(records[0].weight, 0.5f);
  EXPECT_EQ(records[1].src, 2);
  EXPECT_EQ(records[1].op, gr::delta_op::remove);  // sticky
  EXPECT_EQ(records[1].weight, 9.0f);              // latest observation
}

TEST(DeltaCompact, InsertOnlyGate) {
  delta_t d;
  d.complete = true;
  d.records = {{0, 1, 1.0f, gr::delta_op::insert}};
  EXPECT_TRUE(d.insert_only());
  d.records.push_back({1, 2, 1.0f, gr::delta_op::remove});
  EXPECT_FALSE(d.insert_only());
}

// ---------------------------------------------------------------------------
// The delta log on dynamic_graph_t
// ---------------------------------------------------------------------------

TEST(DeltaLog, RecordsSealAndConcatenateAcrossEpochs) {
  dyn_t g(8);
  g.add_edge(0, 1, 1.0f);
  g.add_edge(1, 2, 2.0f);
  auto [s1, e1] = g.publish_epoch<gr::graph_csr>();
  EXPECT_EQ(e1, 1u);

  g.add_edge(2, 3, 3.0f);
  auto [s2, e2] = g.publish_epoch<gr::graph_csr>();
  EXPECT_EQ(e2, 2u);

  auto const d01 = g.delta_since(0);
  EXPECT_TRUE(d01.complete);
  EXPECT_EQ(d01.size(), 3u);
  EXPECT_TRUE(d01.insert_only());

  auto const d12 = g.delta_since(1);
  EXPECT_TRUE(d12.complete);
  ASSERT_EQ(d12.size(), 1u);
  EXPECT_EQ(d12.records[0].src, 2);
  EXPECT_EQ(d12.records[0].dst, 3);

  auto const d22 = g.delta_since(2);
  EXPECT_TRUE(d22.complete);
  EXPECT_TRUE(d22.empty());

  EXPECT_FALSE(g.delta_since(3).complete);  // the future is unknowable
}

TEST(DeltaLog, WeightSemanticsDecreaseInsertsIncreaseRemoves) {
  dyn_t g(4);
  g.add_edge(0, 1, 5.0f);
  g.publish_epoch<gr::graph_csr>();

  g.add_edge(0, 1, 2.0f);  // decrease: monotone improvement
  g.publish_epoch<gr::graph_csr>();
  auto const d = g.delta_since(1);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d.records[0].op, gr::delta_op::insert);
  EXPECT_EQ(d.records[0].weight, 2.0f);

  g.add_edge(0, 1, 9.0f);  // increase: breaks the upper-bound property
  g.publish_epoch<gr::graph_csr>();
  auto const d2 = g.delta_since(2);
  ASSERT_EQ(d2.size(), 1u);
  EXPECT_EQ(d2.records[0].op, gr::delta_op::remove);
  EXPECT_FALSE(d2.insert_only());
}

TEST(DeltaLog, RemoveEdgeRecordsRemove) {
  dyn_t g(4);
  g.add_edge(0, 1, 1.0f);
  g.publish_epoch<gr::graph_csr>();
  EXPECT_TRUE(g.remove_edge(0, 1));
  EXPECT_FALSE(g.remove_edge(0, 1));  // second removal: no phantom record
  g.publish_epoch<gr::graph_csr>();
  auto const d = g.delta_since(1);
  EXPECT_TRUE(d.complete);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d.records[0].op, gr::delta_op::remove);
}

TEST(DeltaLog, CompactionCollapsesRepeatedUpdatesOfOnePair) {
  dyn_t g(4);
  for (int i = 0; i < 100; ++i)
    g.add_edge(0, 1, static_cast<weight_t>(100 - i));  // decreasing
  g.publish_epoch<gr::graph_csr>();
  auto const d = g.delta_since(0);
  EXPECT_TRUE(d.complete);
  ASSERT_EQ(d.size(), 1u);  // per-segment compaction collapsed them
  EXPECT_EQ(d.records[0].weight, 1.0f);
  EXPECT_EQ(d.records[0].op, gr::delta_op::insert);
}

TEST(DeltaLog, TruncationDegradesToIncompleteThenRecovers) {
  dyn_t g(64);
  g.set_delta_log_capacity(8);
  for (vertex_t v = 0; v + 1 < 32; ++v)
    g.add_edge(v, v + 1, 1.0f);  // 31 distinct pairs > capacity 8
  g.publish_epoch<gr::graph_csr>();
  EXPECT_FALSE(g.delta_since(0).complete);  // truncated: full recompute
  EXPECT_EQ(g.delta_floor(), 1u);

  // After the truncated epoch, history restarts and is usable again.
  g.add_edge(40, 41, 1.0f);
  g.publish_epoch<gr::graph_csr>();
  auto const d = g.delta_since(1);
  EXPECT_TRUE(d.complete);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_FALSE(g.delta_since(0).complete);  // pre-truncation stays lost
}

TEST(DeltaLog, OldEpochsScrollOutUnderCapacityPressure) {
  dyn_t g(256);
  g.set_delta_log_capacity(16);
  for (int epoch = 0; epoch < 8; ++epoch) {
    for (int i = 0; i < 4; ++i)
      g.add_edge(static_cast<vertex_t>(epoch * 8 + i),
                 static_cast<vertex_t>(epoch * 8 + i + 1), 1.0f);
    g.publish_epoch<gr::graph_csr>();
  }
  // 8 epochs x 4 records > 16: the floor moved past epoch 0.
  EXPECT_GT(g.delta_floor(), 0u);
  EXPECT_FALSE(g.delta_since(0).complete);
  // Recent history is still answerable.
  auto const recent = g.delta_since(g.delta_floor());
  EXPECT_TRUE(recent.complete);
  EXPECT_FALSE(recent.empty());
}

TEST(DeltaLog, CapacityZeroDisablesLogging) {
  dyn_t g(8);
  g.set_delta_log_capacity(0);
  g.add_edge(0, 1, 1.0f);
  g.publish_epoch<gr::graph_csr>();
  EXPECT_FALSE(g.delta_since(0).complete);
  g.publish_epoch<gr::graph_csr>();
  EXPECT_FALSE(g.delta_since(1).complete);
}

TEST(DeltaLog, QuiescentPublishKeepsHistoryDense) {
  dyn_t g(8);
  g.add_edge(0, 1, 1.0f);
  g.publish_epoch<gr::graph_csr>();
  g.publish_epoch<gr::graph_csr>();  // nothing changed
  g.add_edge(1, 2, 1.0f);
  g.publish_epoch<gr::graph_csr>();
  auto const d = g.delta_since(1);  // spans the quiescent epoch 2
  EXPECT_TRUE(d.complete);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d.records[0].src, 1);
}

// ---------------------------------------------------------------------------
// Incremental enactors: differential vs cold (the tentpole's acceptance)
// ---------------------------------------------------------------------------

namespace {

/// Drives a randomized evolution of a dynamic graph and, at every epoch,
/// differentially checks all three incremental enactors (seq and par)
/// against cold enactments on the same snapshot.  `p_delete` > 0 exercises
/// the deletion-fallback path; symmetric insertion keeps CC meaningful.
void differential_stream(std::uint64_t seed, int epochs, int batch,
                         double p_delete, std::size_t log_capacity) {
  constexpr vertex_t n = 96;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<vertex_t> pick(0, n - 1);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<int> wdist(1, 9);

  dyn_t g(n);
  if (log_capacity != dyn_t::kDefaultDeltaCapacity)
    g.set_delta_log_capacity(log_capacity);

  // Epoch 1: a connected-ish base so warm-starts have work to do.
  for (vertex_t v = 0; v + 1 < n; ++v) {
    g.add_edge(v, v + 1, static_cast<weight_t>(1 + (v % 5)));
    g.add_edge(v + 1, v, static_cast<weight_t>(1 + (v % 5)));
  }
  auto [snap, epoch] = g.publish_epoch<gr::graph_csr>();

  vertex_t const source = 0;
  auto prev_sssp = alg::sssp(exec::seq, *snap, source);
  auto prev_bfs = alg::bfs(exec::seq, *snap, source);
  auto prev_cc = alg::connected_components(exec::seq, *snap);

  for (int round = 0; round < epochs; ++round) {
    for (int i = 0; i < batch; ++i) {
      vertex_t const a = pick(rng);
      vertex_t const b = pick(rng);
      if (a == b)
        continue;
      if (coin(rng) < p_delete) {
        g.remove_edge(a, b);
        g.remove_edge(b, a);
      } else {
        auto const w = static_cast<weight_t>(wdist(rng));
        g.add_edge(a, b, w);
        g.add_edge(b, a, w);
      }
    }
    auto [next, e] = g.publish_epoch<gr::graph_csr>();
    auto const delta = g.delta_since(e - 1);

    auto const cold_sssp = alg::sssp(exec::seq, *next, source);
    auto const cold_bfs = alg::bfs(exec::seq, *next, source);
    auto const cold_cc = alg::connected_components(exec::seq, *next);

    alg::incremental_outcome out_s, out_b, out_c;
    auto const warm_sssp = alg::sssp_incremental(exec::seq, *next, source,
                                                 prev_sssp, delta, &out_s);
    auto const warm_bfs =
        alg::bfs_incremental(exec::seq, *next, source, prev_bfs, delta, &out_b);
    auto const warm_cc = alg::connected_components_incremental(
        exec::seq, *next, prev_cc, delta, &out_c);

    expect_same_distances(warm_sssp, cold_sssp);
    expect_same_depths(warm_bfs, cold_bfs);
    expect_valid_bfs_tree(warm_bfs, *next, source);
    expect_same_labels(warm_cc, cold_cc);

    // Parallel incremental agrees too (atomic relaxations, CAS parents).
    auto const par_sssp = alg::sssp_incremental(exec::par, *next, source,
                                                prev_sssp, delta, nullptr);
    auto const par_bfs = alg::bfs_incremental(exec::par, *next, source,
                                              prev_bfs, delta, nullptr);
    auto const par_cc = alg::connected_components_incremental(
        exec::par, *next, prev_cc, delta, nullptr);
    expect_same_distances(par_sssp, cold_sssp);
    expect_same_depths(par_bfs, cold_bfs);
    expect_valid_bfs_tree(par_bfs, *next, source);
    expect_same_labels(par_cc, cold_cc);

    // Outcome classification matches the delta's character.
    bool const expect_warm = delta.complete && delta.insert_only();
    EXPECT_EQ(out_s.warm_started, expect_warm);
    EXPECT_EQ(out_b.warm_started, expect_warm);
    EXPECT_EQ(out_c.warm_started, expect_warm);

    prev_sssp = cold_sssp;  // warm next round from the verified result
    prev_bfs = cold_bfs;
    prev_cc = cold_cc;
    snap = next;
  }
}

}  // namespace

TEST(DeltaIncremental, InsertStreamsWarmEqualsCold) {
  differential_stream(/*seed=*/1, /*epochs=*/6, /*batch=*/24,
                      /*p_delete=*/0.0, dyn_t::kDefaultDeltaCapacity);
  differential_stream(/*seed=*/2, /*epochs=*/4, /*batch=*/3,
                      /*p_delete=*/0.0, dyn_t::kDefaultDeltaCapacity);
}

TEST(DeltaIncremental, InsertDeleteStreamsFallBackAndStayExact) {
  differential_stream(/*seed=*/3, /*epochs=*/6, /*batch=*/24,
                      /*p_delete=*/0.3, dyn_t::kDefaultDeltaCapacity);
}

TEST(DeltaIncremental, TruncatedLogFallsBackAndStaysExact) {
  // Capacity far below the batch size: every epoch truncates, every
  // incremental call must detect `complete == false` and run cold.
  differential_stream(/*seed=*/4, /*epochs=*/4, /*batch=*/32,
                      /*p_delete=*/0.0, /*log_capacity=*/4);
}

TEST(DeltaIncremental, WeightDecreaseRidesTheWarmPath) {
  dyn_t g(16);
  for (vertex_t v = 0; v + 1 < 16; ++v)
    g.add_edge(v, v + 1, 4.0f);
  g.add_edge(0, 15, 100.0f);  // long shortcut, initially useless
  auto [s1, e1] = g.publish_epoch<gr::graph_csr>();
  auto prev = alg::sssp(exec::seq, *s1, 0);

  g.add_edge(0, 15, 2.0f);  // in-place decrease: now the best path
  auto [s2, e2] = g.publish_epoch<gr::graph_csr>();
  auto const delta = g.delta_since(e1);
  ASSERT_TRUE(delta.complete);
  ASSERT_TRUE(delta.insert_only());

  alg::incremental_outcome out;
  auto const warm = alg::sssp_incremental(exec::seq, *s2, 0, prev, delta, &out);
  EXPECT_TRUE(out.warm_started);
  auto const cold = alg::sssp(exec::seq, *s2, 0);
  expect_same_distances(warm, cold);
  EXPECT_EQ(warm.distances[15], 2.0f);
}

TEST(DeltaIncremental, SpuriousRecordsAreHarmless) {
  // Superset semantics: records for edges that did not actually change may
  // appear; they seed extra vertices whose relaxations fail.
  dyn_t g(16);
  for (vertex_t v = 0; v + 1 < 16; ++v)
    g.add_edge(v, v + 1, 1.0f);
  auto [s1, e1] = g.publish_epoch<gr::graph_csr>();
  auto prev = alg::sssp(exec::seq, *s1, 0);

  g.add_edge(3, 9, 1.0f);
  auto [s2, e2] = g.publish_epoch<gr::graph_csr>();
  auto delta = g.delta_since(e1);
  // Craft spurious inserts: existing unchanged edges + an advisory weight
  // that deliberately lies (warm-starts must relax against the snapshot).
  delta.records.push_back({5, 6, 0.001f, gr::delta_op::insert});
  delta.records.push_back({0, 1, 0.001f, gr::delta_op::insert});

  alg::incremental_outcome out;
  auto const warm = alg::sssp_incremental(exec::seq, *s2, 0, prev, delta, &out);
  EXPECT_TRUE(out.warm_started);
  expect_same_distances(warm, alg::sssp(exec::seq, *s2, 0));
}

TEST(DeltaIncremental, SupersavedSupersteps) {
  // A long path re-published with one appended edge: the warm start should
  // converge in a handful of supersteps instead of ~n.
  constexpr vertex_t n = 512;
  dyn_t g(n);
  for (vertex_t v = 0; v + 1 < n - 1; ++v)
    g.add_edge(v, v + 1, 1.0f);
  auto [s1, e1] = g.publish_epoch<gr::graph_csr>();
  auto prev = alg::sssp(exec::seq, *s1, 0);

  g.add_edge(n - 2, n - 1, 1.0f);  // extend the path tip
  auto [s2, e2] = g.publish_epoch<gr::graph_csr>();
  auto const delta = g.delta_since(e1);

  alg::incremental_outcome out;
  auto const warm = alg::sssp_incremental(exec::seq, *s2, 0, prev, delta, &out);
  EXPECT_TRUE(out.warm_started);
  expect_same_distances(warm, alg::sssp(exec::seq, *s2, 0));
  EXPECT_LT(out.supersteps, 8u);
  EXPECT_GT(out.supersteps_saved, static_cast<std::size_t>(n) / 2);
}

TEST(DeltaIncremental, WarmEqualsColdAfterAHubFanOut) {
  // A skewed R-MAT republished with an insert-only delta: a fan-out that
  // turns vertex 0 into a hub of more than 4096 edges (so the first warm
  // superstep expands it), then random symmetric edges.  Under the
  // parallel policy every warm start must land on the cold fixed point.
  essentials::generators::rmat_options opt;
  opt.scale = 13;
  opt.edge_factor = 2;
  opt.weights = {1.0f, 9.0f};
  opt.seed = 11;
  auto const coo = essentials::generators::rmat(opt);
  vertex_t const n = coo.num_rows;
  dyn_t g(n);
  for (std::size_t i = 0; i < coo.row_indices.size(); ++i) {
    g.add_edge(coo.row_indices[i], coo.column_indices[i], coo.values[i]);
    g.add_edge(coo.column_indices[i], coo.row_indices[i], coo.values[i]);
  }
  auto [base, e1] = g.publish_epoch<gr::graph_csr>();

  // Fan-out weights sit below every R-MAT weight, and the random edges
  // below those, so no insert raises an existing weight (which would log a
  // remove and force the cold fallback).
  for (vertex_t v = 1; v < n; ++v) {
    g.add_edge(0, v, 0.75f);
    g.add_edge(v, 0, 0.75f);
  }
  std::mt19937_64 rng(5);
  std::uniform_int_distribution<vertex_t> pick(0, n - 1);
  for (int i = 0; i < 64; ++i) {
    vertex_t const a = pick(rng);
    vertex_t const b = pick(rng);
    g.add_edge(a, b, 0.5f);
    g.add_edge(b, a, 0.5f);
  }
  auto [next, e2] = g.publish_epoch<gr::graph_csr>();
  auto const delta = g.delta_since(e1);
  ASSERT_TRUE(delta.complete);
  ASSERT_TRUE(delta.insert_only());

  vertex_t const source = coo.row_indices[0];
  auto const prev_sssp = alg::sssp(exec::seq, *base, source);
  auto const prev_bfs = alg::bfs(exec::seq, *base, source);
  auto const prev_cc = alg::connected_components(exec::seq, *base);

  auto const policy = exec::par;
  alg::incremental_outcome out_s, out_b, out_c;
  expect_same_distances(
      alg::sssp_incremental(policy, *next, source, prev_sssp, delta, &out_s),
      alg::sssp(policy, *next, source));
  auto const warm_bfs =
      alg::bfs_incremental(policy, *next, source, prev_bfs, delta, &out_b);
  expect_same_depths(warm_bfs, alg::bfs(policy, *next, source));
  expect_valid_bfs_tree(warm_bfs, *next, source);
  expect_same_labels(
      alg::connected_components_incremental(policy, *next, prev_cc, delta,
                                            &out_c),
      alg::connected_components(policy, *next));
  EXPECT_TRUE(out_s.warm_started);
  EXPECT_TRUE(out_b.warm_started);
  EXPECT_TRUE(out_c.warm_started);
}

TEST(DeltaIncremental, WarmBfsPullsToColdDepthsAndAValidTree) {
  // A symmetrized R-MAT on a push-pull graph, republished with the last
  // quarter of its edges inserted.  The delta's sources seed a frontier
  // whose out-edges pass 1/alpha of the edges, so the warm run pulls, and
  // its pulls fold the packed (depth, parent) words — isolated vertices'
  // unset words among them.
  essentials::generators::rmat_options opt;
  opt.scale = 10;
  opt.edge_factor = 8;
  opt.seed = 21;
  auto drawn = essentials::generators::rmat(opt);
  gr::remove_self_loops(drawn);
  std::size_t const m = drawn.row_indices.size();
  std::size_t const split = m - m / 4;
  auto const graph_of = [&drawn](std::size_t end) {
    gr::coo_t<> coo;
    coo.num_rows = drawn.num_rows;
    coo.num_cols = drawn.num_cols;
    for (std::size_t i = 0; i < end; ++i)
      coo.push_back(drawn.row_indices[i], drawn.column_indices[i],
                    drawn.values[i]);
    gr::symmetrize(coo);
    return gr::from_coo<gr::graph_push_pull>(std::move(coo),
                                             gr::duplicate_policy::keep_min);
  };
  auto const base = graph_of(split);
  auto const full = graph_of(m);
  gr::edge_delta_t<> delta;
  delta.complete = true;
  for (std::size_t i = split; i < m; ++i) {
    vertex_t const u = drawn.row_indices[i], v = drawn.column_indices[i];
    delta.records.push_back({u, v, drawn.values[i], gr::delta_op::insert});
    delta.records.push_back({v, u, drawn.values[i], gr::delta_op::insert});
  }

  auto const check = [&](auto policy, char const* label) {
    vertex_t const source = 0;
    auto const prev = alg::bfs(policy, base, source);
    alg::incremental_outcome out;
    tel::trace t;
    bfs_res warm;
    {
      tel::scoped_recording rec(t, "bfs_incremental");
      warm = alg::bfs_incremental(policy, full, source, prev, delta, &out);
    }
    EXPECT_TRUE(out.warm_started) << label;
    expect_same_depths(warm, alg::bfs(policy, full, source));
    expect_valid_bfs_tree(warm, full, source);
    if (tel::compiled_in) {
      std::size_t pulls = 0;
      for (auto const& s : t.supersteps)
        pulls += s.direction == essentials::direction_t::pull ? 1 : 0;
      EXPECT_GT(pulls, 0u) << label;
    }
  };
  check(exec::seq, "seq");
  check(exec::par, "par");
}

// ---------------------------------------------------------------------------
// Registry delta chains
// ---------------------------------------------------------------------------

TEST(DeltaRegistry, DynPublishCarriesChainPlainPublishBreaksIt) {
  eng::graph_registry<gr::graph_csr> reg;
  dyn_t dyn(16);
  dyn.add_edge(0, 1, 1.0f);
  auto const p1 = reg.publish("g", dyn);  // non-const: delta-capable
  EXPECT_EQ(p1.epoch, 1u);

  dyn.add_edge(1, 2, 1.0f);
  auto const p2 = reg.publish("g", dyn);
  EXPECT_EQ(p2.epoch, 2u);

  auto const d12 = reg.delta_between("g", 1, 2);
  EXPECT_TRUE(d12.complete);
  ASSERT_EQ(d12.size(), 1u);
  EXPECT_EQ(d12.records[0].src, 1);
  EXPECT_EQ(d12.records[0].dst, 2);

  // Same-epoch span: empty and complete.
  EXPECT_TRUE(reg.delta_between("g", 2, 2).complete);
  // The first transition (0 -> 1) was never explained: incomplete.
  EXPECT_FALSE(reg.delta_between("g", 0, 2).complete);
  // Unknown name / future epochs: incomplete.
  EXPECT_FALSE(reg.delta_between("nope", 1, 2).complete);
  EXPECT_FALSE(reg.delta_between("g", 1, 7).complete);

  dyn.add_edge(2, 3, 1.0f);
  auto const p3 = reg.publish("g", dyn);
  EXPECT_EQ(p3.epoch, 3u);
  auto const d13 = reg.delta_between("g", 1, 3);  // spliced across 2
  EXPECT_TRUE(d13.complete);
  EXPECT_EQ(d13.size(), 2u);

  // A plain publish (no delta) breaks the chain...
  reg.publish_shared("g",
                     std::make_shared<gr::graph_csr const>(
                         dyn.snapshot<gr::graph_csr>()));
  EXPECT_FALSE(reg.delta_between("g", 3, 4).complete);
  // ...and a subsequent dyn publish cannot bridge the break either,
  // because the source continuity was interrupted.
  dyn.add_edge(3, 4, 1.0f);
  auto const p5 = reg.publish("g", dyn);
  EXPECT_EQ(p5.epoch, 5u);
  EXPECT_FALSE(reg.delta_between("g", 3, 5).complete);
}

TEST(DeltaRegistry, SwitchingSourceGraphsBreaksTheChain) {
  eng::graph_registry<gr::graph_csr> reg;
  dyn_t a(8), b(8);
  a.add_edge(0, 1, 1.0f);
  b.add_edge(0, 2, 1.0f);
  reg.publish("g", a);
  reg.publish("g", b);  // different source: transition unexplained
  EXPECT_FALSE(reg.delta_between("g", 1, 2).complete);
}

// ---------------------------------------------------------------------------
// Engine end-to-end: warm submissions
// ---------------------------------------------------------------------------

namespace {

eng::job_desc sssp_desc(std::string graph, vertex_t src,
                        bool record_trace = false) {
  eng::job_desc d;
  d.graph = std::move(graph);
  d.algorithm = "sssp";
  d.params = "src=" + std::to_string(src);
  d.record_trace = record_trace;
  return d;
}

}  // namespace

TEST(DeltaEngine, WarmSubmitIsBitIdenticalAndCounted) {
  engine_t engine({/*num_runners=*/2, /*max_queued=*/16, /*cache=*/32});
  dyn_t dyn(64);
  for (vertex_t v = 0; v + 1 < 64; ++v)
    dyn.add_edge(v, v + 1, 1.0f);
  engine.registry().publish("g", dyn);

  // Cold first run populates the cache at epoch 1.
  auto j1 = engine.run(sssp_desc("g", 0),
                       eng::sssp_cold_job<gr::graph_csr>(exec::seq, 0),
                       eng::sssp_warm_job<gr::graph_csr>(exec::seq, 0));
  ASSERT_EQ(j1->status(), eng::job_status::completed);
  EXPECT_FALSE(j1->warm_started());

  // Publish a small-delta epoch: entry demoted to warm, chain intact.
  dyn.add_edge(0, 63, 1.5f);
  engine.registry().publish("g", dyn);

  auto j2 = engine.run(sssp_desc("g", 0, /*record_trace=*/true),
                       eng::sssp_cold_job<gr::graph_csr>(exec::seq, 0),
                       eng::sssp_warm_job<gr::graph_csr>(exec::seq, 0));
  ASSERT_EQ(j2->status(), eng::job_status::completed);
  EXPECT_TRUE(j2->warm_started());
  EXPECT_GE(j2->delta_edges(), 1u);
  EXPECT_GT(j2->supersteps_saved(), 0u);

  // Bit-identical to a cold oracle on the same pinned snapshot.
  auto const pin = engine.registry().lookup("g");
  auto const oracle = alg::sssp(exec::seq, *pin.graph, 0);
  auto const served = j2->result_as<sssp_res>();
  ASSERT_NE(served, nullptr);
  expect_same_distances(*served, oracle);
  EXPECT_EQ(served->distances[63], 1.5f);  // the delta edge mattered

  // Counters + telemetry v4.
  auto const s = engine.stats();
  EXPECT_EQ(s.warm_start_hits, 1u);
  EXPECT_EQ(s.delta_fallbacks, 0u);
  EXPECT_GE(s.cache_demotions, 1u);
  EXPECT_TRUE(j2->trace().warm_start);
  EXPECT_GE(j2->trace().delta_edges, 1u);
  std::ostringstream json;
  eng::write_json(s, json);
  EXPECT_NE(json.str().find("\"warm_start_hits\":1"), std::string::npos);
  EXPECT_NE(json.str().find("\"engine_stats_version\":5"), std::string::npos);
}

TEST(DeltaEngine, DeletionForcesFallbackStillExact) {
  engine_t engine({2, 16, 32});
  dyn_t dyn(32);
  for (vertex_t v = 0; v + 1 < 32; ++v)
    dyn.add_edge(v, v + 1, 1.0f);
  dyn.add_edge(0, 31, 1.0f);
  engine.registry().publish("g", dyn);
  auto j1 = engine.run(sssp_desc("g", 0),
                       eng::sssp_cold_job<gr::graph_csr>(exec::seq, 0),
                       eng::sssp_warm_job<gr::graph_csr>(exec::seq, 0));
  ASSERT_EQ(j1->status(), eng::job_status::completed);

  dyn.remove_edge(0, 31);  // deletion: warm seed exists but can't be used
  engine.registry().publish("g", dyn);

  auto j2 = engine.run(sssp_desc("g", 0),
                       eng::sssp_cold_job<gr::graph_csr>(exec::seq, 0),
                       eng::sssp_warm_job<gr::graph_csr>(exec::seq, 0));
  ASSERT_EQ(j2->status(), eng::job_status::completed);
  EXPECT_FALSE(j2->warm_started());
  EXPECT_TRUE(j2->delta_fallback());

  auto const pin = engine.registry().lookup("g");
  auto const oracle = alg::sssp(exec::seq, *pin.graph, 0);
  expect_same_distances(*j2->result_as<sssp_res>(), oracle);
  EXPECT_EQ(oracle.distances[31], 31.0f);  // shortcut really gone

  auto const s = engine.stats();
  EXPECT_EQ(s.warm_start_hits, 0u);
  EXPECT_EQ(s.delta_fallbacks, 1u);
}

TEST(DeltaEngine, BrokenChainCountsFallbackRunsCold) {
  engine_t engine({2, 16, 32});
  dyn_t dyn(16);
  for (vertex_t v = 0; v + 1 < 16; ++v)
    dyn.add_edge(v, v + 1, 1.0f);
  engine.registry().publish("g", dyn);
  auto j1 = engine.run(sssp_desc("g", 0),
                       eng::sssp_cold_job<gr::graph_csr>(exec::seq, 0),
                       eng::sssp_warm_job<gr::graph_csr>(exec::seq, 0));
  ASSERT_EQ(j1->status(), eng::job_status::completed);

  // Plain snapshot publish: epoch bumps, no delta — chain broken.
  dyn.add_edge(0, 15, 2.0f);
  engine.registry().publish("g", dyn.snapshot<gr::graph_csr>());

  auto j2 = engine.run(sssp_desc("g", 0),
                       eng::sssp_cold_job<gr::graph_csr>(exec::seq, 0),
                       eng::sssp_warm_job<gr::graph_csr>(exec::seq, 0));
  ASSERT_EQ(j2->status(), eng::job_status::completed);
  EXPECT_FALSE(j2->warm_started());
  EXPECT_TRUE(j2->delta_fallback());
  auto const pin = engine.registry().lookup("g");
  expect_same_distances(*j2->result_as<sssp_res>(),
                        alg::sssp(exec::seq, *pin.graph, 0));
}

// A queued duplicate of a warm-capable query that the cache answers at
// dequeue retires `cache_hit` with the first job's result object: the
// pair counts one enactment.
TEST(DeltaEngine, QueuedWarmDuplicateRetiresCacheHit) {
  engine_t engine({/*num_runners=*/1, /*max_queued=*/16, /*cache=*/32});
  dyn_t dyn(16);
  for (vertex_t v = 0; v + 1 < 16; ++v)
    dyn.add_edge(v, v + 1, 1.0f);
  engine.registry().publish("g", dyn);

  std::atomic<bool> release{false};
  eng::job_desc bd = sssp_desc("g", 0);
  bd.algorithm = "blocker";
  bd.use_cache = false;
  auto blocker = engine.submit(
      bd, [&release](gr::graph_csr const&,
                     eng::job_context&) -> std::shared_ptr<void const> {
        while (!release.load(std::memory_order_acquire))
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return nullptr;
      });
  auto first = engine.submit(sssp_desc("g", 0),
                             eng::sssp_cold_job<gr::graph_csr>(exec::seq, 0),
                             eng::sssp_warm_job<gr::graph_csr>(exec::seq, 0));
  auto second = engine.submit(sssp_desc("g", 0),
                              eng::sssp_cold_job<gr::graph_csr>(exec::seq, 0),
                              eng::sssp_warm_job<gr::graph_csr>(exec::seq, 0));
  release.store(true, std::memory_order_release);

  ASSERT_EQ(first->wait(), eng::job_status::completed);
  ASSERT_EQ(second->wait(), eng::job_status::cache_hit);
  EXPECT_EQ(second->result(), first->result());
  EXPECT_FALSE(second->warm_started());
  blocker->wait();
  auto const s = engine.stats();
  EXPECT_EQ(s.jobs_enacted, 2u);  // the blocker and the first query
  EXPECT_EQ(s.completed, 2u);
  EXPECT_EQ(s.cache_hits, 1u);
}

TEST(DeltaEngine, BfsAndCcWarmJobsAgreeWithOracles) {
  engine_t engine({2, 16, 32});
  dyn_t dyn(48);
  for (vertex_t v = 0; v + 1 < 48; ++v) {
    dyn.add_edge(v, v + 1, 1.0f);
    dyn.add_edge(v + 1, v, 1.0f);
  }
  engine.registry().publish("g", dyn);

  eng::job_desc bfs_d;
  bfs_d.graph = "g";
  bfs_d.algorithm = "bfs";
  bfs_d.params = "src=0";
  eng::job_desc cc_d;
  cc_d.graph = "g";
  cc_d.algorithm = "cc";

  engine.run(bfs_d, eng::bfs_cold_job<gr::graph_csr>(exec::seq, 0),
             eng::bfs_warm_job<gr::graph_csr>(exec::seq, 0));
  engine.run(cc_d, eng::cc_cold_job<gr::graph_csr>(exec::seq),
             eng::cc_warm_job<gr::graph_csr>(exec::seq));

  dyn.add_edge(0, 47, 1.0f);
  dyn.add_edge(47, 0, 1.0f);
  engine.registry().publish("g", dyn);

  auto jb = engine.run(bfs_d, eng::bfs_cold_job<gr::graph_csr>(exec::seq, 0),
                       eng::bfs_warm_job<gr::graph_csr>(exec::seq, 0));
  auto jc = engine.run(cc_d, eng::cc_cold_job<gr::graph_csr>(exec::seq),
                       eng::cc_warm_job<gr::graph_csr>(exec::seq));
  ASSERT_EQ(jb->status(), eng::job_status::completed);
  ASSERT_EQ(jc->status(), eng::job_status::completed);
  EXPECT_TRUE(jb->warm_started());
  EXPECT_TRUE(jc->warm_started());

  auto const pin = engine.registry().lookup("g");
  expect_same_depths(*jb->result_as<bfs_res>(),
                     alg::bfs(exec::seq, *pin.graph, 0));
  expect_valid_bfs_tree(*jb->result_as<bfs_res>(), *pin.graph, 0);
  expect_same_labels(*jc->result_as<cc_res>(),
                     alg::connected_components(exec::seq, *pin.graph));
  EXPECT_EQ(engine.stats().warm_start_hits, 2u);
}

// ---------------------------------------------------------------------------
// Concurrency: epoch stamping under concurrent writers (TSAN regression)
// ---------------------------------------------------------------------------

// The satellite bugfix's proof obligation: a mutation visible in snapshot e
// must appear in the delta chain ending at e (superset semantics allow
// extras, never omissions).  Mutating writers race publish_epoch; the
// seal-after-snapshot ordering in dynamic.hpp is what makes this pass.
TEST(DeltaTsanEpochStamping, SnapshotVisibleMutationsAreNeverDroppedFromDeltas) {
  constexpr vertex_t n = 128;
  constexpr int kWriters = 4;
  constexpr int kEpochs = 20;
  // Each writer's budget keeps the total below the delta-log capacity
  // (4 * 14'000 < 65'536 records): writers fast enough to overflow the log
  // would legitimately truncate it and mark deltas incomplete — that is
  // capacity policy, not the seal-after-snapshot race this test targets.
  constexpr int kWritesPerWriter = 14'000;
  dyn_t g(n);

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&g, t, &stop] {
      std::mt19937_64 rng(0x51edull * (t + 1));
      std::uniform_int_distribution<vertex_t> pick(0, n - 1);
      for (int w = 0;
           w < kWritesPerWriter && !stop.load(std::memory_order_relaxed); ++w)
        g.add_edge(pick(rng), pick(rng),
                   static_cast<weight_t>(1 + (pick(rng) % 7)));
    });
  }

  std::vector<std::shared_ptr<gr::graph_csr const>> snaps;
  std::vector<delta_t> deltas;
  for (int i = 0; i < kEpochs; ++i) {
    auto [snap, e] = g.publish_epoch<gr::graph_csr>();
    snaps.push_back(std::move(snap));
    deltas.push_back(g.delta_since(e - 1));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : writers)
    w.join();

  // Offline verification: every edge that differs between consecutive
  // snapshots must be covered by a record in that transition's delta.
  for (std::size_t i = 1; i < snaps.size(); ++i) {
    ASSERT_TRUE(deltas[i].complete);
    std::set<std::pair<vertex_t, vertex_t>> recorded;
    for (auto const& r : deltas[i].records)
      recorded.emplace(r.src, r.dst);
    auto const before = edge_set(*snaps[i - 1]);
    auto const after = edge_set(*snaps[i]);
    for (auto const& e : after) {
      if (before.count(e))
        continue;  // unchanged (same weight): no record required
      EXPECT_TRUE(recorded.count({std::get<0>(e), std::get<1>(e)}))
          << "edge " << std::get<0>(e) << "->" << std::get<1>(e)
          << " changed in epoch " << i + 1 << " but is missing from its delta";
    }
  }
}

TEST(DeltaTsanLogReaders, DeltaSinceRacesMutationsAndPublishesSafely) {
  constexpr vertex_t n = 64;
  dyn_t g(n);
  std::atomic<bool> stop{false};

  std::thread writer([&g, &stop] {
    std::mt19937_64 rng(7);
    std::uniform_int_distribution<vertex_t> pick(0, n - 1);
    while (!stop.load(std::memory_order_relaxed)) {
      g.add_edge(pick(rng), pick(rng), 1.0f);
      if ((rng() & 0xff) == 0)
        g.remove_edge(pick(rng), pick(rng));
    }
  });
  std::thread reader([&g, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto const d = g.delta_since(g.delta_floor());
      (void)d;
    }
  });
  for (int i = 0; i < 10; ++i)
    g.publish_epoch<gr::graph_csr>();
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  reader.join();
  SUCCEED();  // the assertions are TSAN's
}
