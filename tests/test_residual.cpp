// Residual engine tests (src/residual/): the accumulator algebras, the
// bucketed priority scheduler, the wave-based re-convergence loop, and
// standing queries wired through the analytics engine.
//
// The load-bearing suites are *differential*, mirroring the delta/NUMA
// pattern: every residual result is compared against the framework's
// reference enactment on the same snapshot — bit-identical for the
// min-lattices (SSSP vs dijkstra, reachability vs BFS depths), within ε
// for the weighted sums (PageRank vs power iteration, PPR vs forward
// push, spread vs a Jacobi reference computed in-test).  The SSSP suite
// coordinates its waves both from a lane-holding thread and from a
// lane-less one (the injector route, whose inline stages land in the
// buckets' overflow slot).  The Residual-prefixed suites join the CI
// TSAN matrix; the storm test hammers a threaded standing query with
// publishes and concurrent snapshot readers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/bfs.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/personalized_pagerank.hpp"
#include "algorithms/sssp.hpp"
#include "core/enactor.hpp"
#include "core/execution.hpp"
#include "core/telemetry.hpp"
#include "engine/engine.hpp"
#include "graph/dynamic.hpp"
#include "graph/graph.hpp"
#include "lane_slots.hpp"
#include "parallel/thread_pool.hpp"
#include "residual/algebras.hpp"
#include "residual/buckets.hpp"
#include "residual/standing.hpp"
#include "residual/state.hpp"
#include "residual/striped_counter.hpp"

namespace alg = essentials::algorithms;
namespace en = essentials::enactor;
namespace eng = essentials::engine;
namespace ex = essentials::execution;
namespace gr = essentials::graph;
namespace p = essentials::parallel;
namespace res = essentials::residual;
namespace tel = essentials::telemetry;
using essentials::vertex_t;
using essentials::weight_t;
using essentials::infinity_v;

using dyn_t = gr::dynamic_graph_t<>;
using engine_t = eng::analytics_engine<gr::graph_csr>;

namespace {

/// Random digraph with a guaranteed ring (every vertex has out-degree >= 1
/// — no dangling vertices, the PageRank differential precondition) plus
/// `extra` random edges.  Weights in [0.5, 2).
gr::graph_csr ring_plus_random(vertex_t n, std::size_t extra,
                               std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<vertex_t> pick(0, n - 1);
  std::uniform_real_distribution<float> w(0.5f, 2.0f);
  gr::coo_t<> coo;
  coo.num_rows = coo.num_cols = n;
  for (vertex_t v = 0; v < n; ++v)
    coo.push_back(v, (v + 1) % n, w(rng));
  for (std::size_t i = 0; i < extra; ++i) {
    vertex_t const a = pick(rng), b = pick(rng);
    if (a != b)
      coo.push_back(a, b, w(rng));
  }
  return gr::from_coo<gr::graph_csr>(std::move(coo));
}

std::vector<weight_t> residual_sssp(gr::graph_csr const& g, vertex_t source,
                                    p::thread_pool& pool,
                                    res::residual_options opt = {}) {
  res::residual_state<res::min_plus_algebra<weight_t>> st(
      static_cast<std::size_t>(g.get_num_vertices()),
      res::min_plus_algebra<weight_t>{}, opt, pool);
  res::seed_source(st, source);
  auto const stats = st.reconverge(g);
  EXPECT_TRUE(stats.converged);
  return st.values();
}

void expect_bit_identical(std::vector<weight_t> const& got,
                          std::vector<weight_t> const& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t v = 0; v < want.size(); ++v)
    EXPECT_EQ(got[v], want[v]) << "vertex " << v;
}

}  // namespace

// ---------------------------------------------------------------------------
// Algebra + counter basics
// ---------------------------------------------------------------------------

TEST(ResidualAlgebra, BucketOfOrdersByMagnitude) {
  std::size_t const nb = 64;
  // Monotone: larger magnitude -> lower (more urgent) bucket index.
  EXPECT_LE(res::bucket_of(1e18, nb), res::bucket_of(1e6, nb));
  EXPECT_LE(res::bucket_of(1e6, nb), res::bucket_of(1.0, nb));
  EXPECT_LE(res::bucket_of(1.0, nb), res::bucket_of(1e-6, nb));
  // The anchored top: anything >= 2^31 is maximally urgent.
  EXPECT_EQ(res::bucket_of(1e18, nb), 0u);
  EXPECT_EQ(res::bucket_of(4.0e9, nb), 0u);
  // Factor-of-two bands: same band, same bucket.
  EXPECT_EQ(res::bucket_of(1.0, nb), res::bucket_of(1.5, nb));
  EXPECT_EQ(res::bucket_of(1.0, nb) + 1, res::bucket_of(0.75, nb));
  // Non-positive magnitudes park in the least-urgent bucket.
  EXPECT_EQ(res::bucket_of(0.0, nb), nb - 1);
  EXPECT_EQ(res::bucket_of(-1.0, nb), nb - 1);
}

TEST(ResidualAlgebra, StripedCounterTracksMass) {
  res::striped_counter c;
  for (std::size_t lane = 0; lane < 40; ++lane)
    c.add(0.25, lane);
  EXPECT_NEAR(c.total(), 10.0, 1e-12);
  c.add(-10.0, 3);
  EXPECT_NEAR(c.total(), 0.0, 1e-12);
  c.reset();
  EXPECT_EQ(c.total(), 0.0);
}

TEST(ResidualAlgebra, MinPlusMagnitudeIsImprovement) {
  res::min_plus_algebra<weight_t> a;
  EXPECT_EQ(a.magnitude(5.0f, 7.0f), 0.0);  // no improvement: unschedulable
  EXPECT_EQ(a.magnitude(5.0f, 5.0f), 0.0);
  EXPECT_DOUBLE_EQ(a.magnitude(5.0f, 3.0f), 2.0);
  EXPECT_EQ(a.magnitude(infinity_v<weight_t>, 3.0f), 1e18);  // discovery
}

TEST(ResidualAlgebra, SumAlgebraRebaseClaimInvertsCombine) {
  res::ppr_algebra a{0.15};
  // combine applies claims with coefficient alpha; rebase_claim undoes it.
  double const claims = 3.7;
  double const value = a.combine(0.0, claims);
  EXPECT_NEAR(a.rebase_claim(value), claims, 1e-12);
  res::spread_algebra s{0.25};
  EXPECT_NEAR(s.rebase_claim(s.combine(0.0, claims)), claims, 1e-12);
}

// ---------------------------------------------------------------------------
// Bucketed priority queue
// ---------------------------------------------------------------------------

TEST(ResidualBuckets, TakeWaveDrainsMostUrgentFirst) {
  res::residual_buckets<vertex_t> b(8, 2);
  b.stage(5, 0, 50);
  b.stage(2, 1, 20);
  b.stage(2, 0, 21);
  b.stage(7, 0, 70);
  std::vector<vertex_t> wave;
  EXPECT_EQ(b.take_wave(wave), 2u);
  ASSERT_EQ(wave.size(), 2u);
  EXPECT_EQ(b.take_wave(wave), 5u);
  EXPECT_EQ(wave, std::vector<vertex_t>{50});
  EXPECT_EQ(b.take_wave(wave), 7u);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.take_wave(wave), res::residual_buckets<vertex_t>::npos);
}

TEST(ResidualBuckets, OverflowLaneIsNeverLost) {
  res::residual_buckets<vertex_t> b(4, 2);
  // Lane ids beyond the lane array (including thread_pool::no_lane for
  // unregistered threads) must route to the shared overflow bin.
  b.stage(1, p::thread_pool::no_lane, 7);
  b.stage(1, 99, 8);
  b.stage(1, 0, 9);
  std::vector<vertex_t> wave;
  EXPECT_EQ(b.take_wave(wave), 1u);
  EXPECT_EQ(wave.size(), 3u);
}

// ---------------------------------------------------------------------------
// SSSP: bit-identical to dijkstra on both scheduling routes
// ---------------------------------------------------------------------------

TEST(ResidualSssp, MatchesDijkstraAcrossSubstrates) {
  auto const g = ring_plus_random(200, 1000, 42);
  for (vertex_t const source : {vertex_t{0}, vertex_t{57}, vertex_t{133}}) {
    auto const want = alg::dijkstra(g, source).distances;
    {
      p::thread_pool pool(4);
      expect_bit_identical(residual_sssp(g, source, pool), want);
    }
    {
      p::thread_pool pool(4);
      essentials::test_support::external_lanes_held const held(pool);
      expect_bit_identical(residual_sssp(g, source, pool), want);
    }
  }
}

TEST(ResidualSssp, LargeWavesTakeTheParallelPath) {
  // seq_threshold 0 forces every wave through run_blocked — exercises the
  // pool path even on waves the default would process inline.
  auto const g = ring_plus_random(300, 2000, 7);
  p::thread_pool pool(4);
  res::residual_options opt;
  opt.seq_threshold = 0;
  expect_bit_identical(residual_sssp(g, 0, pool, opt),
                       alg::dijkstra(g, 0).distances);
}

TEST(ResidualSssp, CancelledReconvergeResumesExactly) {
  auto const g = ring_plus_random(150, 600, 11);
  p::thread_pool pool(2);
  res::residual_state<res::min_plus_algebra<weight_t>> st(
      static_cast<std::size_t>(g.get_num_vertices()),
      res::min_plus_algebra<weight_t>{}, {}, pool);
  res::seed_source(st, vertex_t{0});

  en::cancelled_or_deadline stop;
  stop.token.request_cancel();  // already cancelled: zero waves run
  auto const first = st.reconverge(g, stop);
  EXPECT_FALSE(first.converged);
  EXPECT_EQ(first.stop_reason, en::cancelled_or_deadline::reason::cancelled);
  EXPECT_EQ(first.waves, 0u);

  // Staged residuals survived the interruption; a clean call finishes.
  auto const second = st.reconverge(g);
  EXPECT_TRUE(second.converged);
  expect_bit_identical(st.values(), alg::dijkstra(g, 0).distances);
}

// ---------------------------------------------------------------------------
// Reachability: depths identical to BFS
// ---------------------------------------------------------------------------

TEST(ResidualReachability, MatchesBfsDepths) {
  auto const g = ring_plus_random(180, 700, 5);
  auto const want = alg::bfs(ex::par, g, vertex_t{3}).depths;
  p::thread_pool pool(4);
  res::residual_state<res::reachability_algebra> st(
      static_cast<std::size_t>(g.get_num_vertices()),
      res::reachability_algebra{}, {}, pool);
  res::seed_source(st, vertex_t{3});
  EXPECT_TRUE(st.reconverge(g).converged);
  ASSERT_EQ(st.values().size(), want.size());
  for (std::size_t v = 0; v < want.size(); ++v) {
    std::int32_t const depth =
        st.values()[v] == infinity_v<std::int32_t> ? -1 : st.values()[v];
    EXPECT_EQ(depth, want[v]) << "vertex " << v;
  }
}

// ---------------------------------------------------------------------------
// Weighted sums: PageRank / PPR / spread within epsilon of references
// ---------------------------------------------------------------------------

TEST(ResidualPagerank, MatchesPowerIterationOnRingGraph) {
  // Ring guarantees out-degree >= 1 everywhere: the no-dangling
  // precondition under which the residual fixed point equals pagerank()'s.
  auto const g = ring_plus_random(120, 500, 9);
  alg::pagerank_options popt;
  popt.tolerance = 1e-12;
  popt.max_iterations = 500;
  auto const want = alg::pagerank_push(ex::seq, g, popt).ranks;

  p::thread_pool pool(4);
  res::residual_options opt;
  opt.epsilon = 1e-12;
  res::residual_state<res::pagerank_algebra> st(
      static_cast<std::size_t>(g.get_num_vertices()), res::pagerank_algebra{},
      opt, pool);
  res::seed_pagerank(st);
  EXPECT_TRUE(st.reconverge(g).converged);
  EXPECT_LT(st.residual_mass(), opt.epsilon);
  ASSERT_EQ(st.values().size(), want.size());
  for (std::size_t v = 0; v < want.size(); ++v)
    EXPECT_NEAR(st.values()[v], want[v], 1e-8) << "vertex " << v;
}

TEST(ResidualPpr, MatchesForwardPush) {
  auto const g = ring_plus_random(100, 400, 21);
  alg::ppr_options popt;
  popt.alpha = 0.15;
  popt.epsilon = 1e-12;
  auto const want = alg::personalized_pagerank(g, vertex_t{17}, popt);

  p::thread_pool pool(4);
  res::residual_options opt;
  opt.epsilon = 1e-12;
  res::residual_state<res::ppr_algebra> st(
      static_cast<std::size_t>(g.get_num_vertices()), res::ppr_algebra{0.15},
      opt, pool);
  res::seed_source_mass(st, vertex_t{17});
  EXPECT_TRUE(st.reconverge(g).converged);
  for (std::size_t v = 0; v < want.estimate.size(); ++v)
    EXPECT_NEAR(st.values()[v], want.estimate[v], 1e-8) << "vertex " << v;
}

TEST(ResidualSpread, MatchesJacobiReference) {
  // Weights <= 1 keep the spread operator a contraction, so the in-test
  // Jacobi solve converges to the same fixed point.
  vertex_t const n = 60;
  std::mt19937 rng(31);
  std::uniform_real_distribution<float> w(0.1f, 1.0f);
  gr::coo_t<> coo;
  coo.num_rows = coo.num_cols = n;
  for (vertex_t v = 0; v < n; ++v) {
    coo.push_back(v, (v + 1) % n, w(rng));
    coo.push_back(v, (v + 7) % n, w(rng));
  }
  auto const g = gr::from_coo<gr::graph_csr>(std::move(coo));

  double const retain = 0.25;
  vertex_t const source = 4;
  // Jacobi on the claims system: c = seed + sum_in (1-retain)*w/deg * c_u.
  std::vector<double> claims(n, 0.0);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<double> next(n, 0.0);
    next[source] = 1.0;
    for (vertex_t u = 0; u < n; ++u) {
      std::size_t const deg = static_cast<std::size_t>(g.get_out_degree(u));
      for (auto const e : g.get_edges(u))
        next[static_cast<std::size_t>(g.get_dest_vertex(e))] +=
            (1.0 - retain) * claims[static_cast<std::size_t>(u)] *
            static_cast<double>(g.get_edge_weight(e)) /
            static_cast<double>(deg);
    }
    claims.swap(next);
  }

  p::thread_pool pool(4);
  res::residual_options opt;
  opt.epsilon = 1e-12;
  res::residual_state<res::spread_algebra> st(
      static_cast<std::size_t>(n), res::spread_algebra{retain}, opt, pool);
  res::seed_source_mass(st, source);
  EXPECT_TRUE(st.reconverge(g).converged);
  for (std::size_t v = 0; v < claims.size(); ++v)
    EXPECT_NEAR(st.values()[v], retain * claims[v], 1e-8) << "vertex " << v;
}

// ---------------------------------------------------------------------------
// Standing queries: epoch injection through the engine
// ---------------------------------------------------------------------------

namespace {

res::standing_options sync_opts() {
  res::standing_options opt;
  opt.service_thread = false;  // apply inline on the publishing thread
  return opt;
}

/// dynamic_graph_t is deliberately immovable: seed the ring + random
/// chords in place.
void seed_dyn(dyn_t& dyn, vertex_t n, std::size_t edges,
              std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<vertex_t> pick(0, n - 1);
  std::uniform_real_distribution<float> w(0.5f, 2.0f);
  for (vertex_t v = 0; v < n; ++v)
    dyn.add_edge(v, (v + 1) % n, w(rng));
  for (std::size_t i = 0; i < edges; ++i) {
    vertex_t const a = pick(rng), b = pick(rng);
    if (a != b)
      dyn.add_edge(a, b, w(rng));
  }
}

}  // namespace

TEST(ResidualStanding, SsspInsertOnlyEpochsStayBitIdentical) {
  vertex_t const n = 150;
  engine_t engine;
  dyn_t dyn(n);
  seed_dyn(dyn, n, 500, 3);
  engine.registry().publish("g", dyn);

  auto q = engine.submit_standing(
      "g", res::min_plus_algebra<weight_t>{},
      [](auto& st, auto const&) { res::seed_source(st, vertex_t{0}); },
      sync_opts());
  ASSERT_NE(q, nullptr);

  std::mt19937 rng(77);
  std::uniform_int_distribution<vertex_t> pick(0, n - 1);
  float next_w = 0.45f;  // strictly below every base weight and decreasing:
                         // re-adding an existing pair is always a monotone
                         // weight *decrease*, so the delta stays insert-only
  for (int epoch = 0; epoch < 6; ++epoch) {
    // Monotone fast path: absorbed by endpoint injection, never a full
    // recompute.
    for (int i = 0; i < 8; ++i) {
      vertex_t const a = pick(rng), b = pick(rng);
      if (a != b)
        dyn.add_edge(a, b, next_w *= 0.98f);
    }
    auto const pin = engine.registry().publish("g", dyn);
    ASSERT_TRUE(pin);
    EXPECT_EQ(q->processed_epoch(), pin.epoch);  // sync: absorbed inline
    expect_bit_identical(q->values(),
                         alg::dijkstra(*pin.graph, 0).distances);
    EXPECT_FALSE(q->last_update().fallback);
  }
  auto const s = engine.stats();
  EXPECT_EQ(s.standing_queries, 1u);
  EXPECT_EQ(s.residual_reconverges, 6u);
  EXPECT_EQ(s.residual_fallbacks, 0u);
  EXPECT_GT(s.residual_injections, 0u);
  EXPECT_GT(s.residual_edges_cold_estimate, 0u);
}

TEST(ResidualStanding, RemovalFallsBackAndStaysCorrect) {
  vertex_t const n = 100;
  engine_t engine;
  dyn_t dyn(n);
  seed_dyn(dyn, n, 300, 13);
  engine.registry().publish("g", dyn);
  auto q = engine.submit_standing(
      "g", res::min_plus_algebra<weight_t>{},
      [](auto& st, auto const&) { res::seed_source(st, vertex_t{0}); },
      sync_opts());
  ASSERT_NE(q, nullptr);

  // A removal breaks the monotone upper bound: the query must fall back to
  // a full re-init and still land on the exact new fixed point.
  ASSERT_TRUE(dyn.remove_edge(2, 3));
  auto const pin = engine.registry().publish("g", dyn);
  expect_bit_identical(q->values(), alg::dijkstra(*pin.graph, 0).distances);
  EXPECT_TRUE(q->last_update().fallback);
  EXPECT_EQ(engine.stats().residual_fallbacks, 1u);
}

TEST(ResidualStanding, PagerankRebaseAbsorbsArbitraryDeltas) {
  vertex_t const n = 90;
  engine_t engine;
  dyn_t dyn(n);
  seed_dyn(dyn, n, 350, 23);
  engine.registry().publish("g", dyn);

  res::pagerank_algebra const a{};
  double const base = (1.0 - a.damping) / static_cast<double>(n);
  auto q = engine.submit_standing(
      "g", a, [](auto& st, auto const&) { res::seed_pagerank(st); },
      sync_opts(), [base](vertex_t) { return base; });
  ASSERT_NE(q, nullptr);

  // Removals included: the sum-algebra rebase is exact for arbitrary
  // deltas, so no epoch may fall back.  Removals only target chord edges
  // added by a *previous* epoch — the ring edges stay, keeping every
  // vertex at out-degree >= 1 (the no-dangling differential precondition).
  std::mt19937 rng(41);
  std::uniform_int_distribution<vertex_t> pick(0, n - 1);
  std::vector<std::pair<vertex_t, vertex_t>> added;
  for (int epoch = 0; epoch < 4; ++epoch) {
    for (int i = 0; i < 5; ++i) {
      vertex_t const v = pick(rng);
      dyn.add_edge(v, (v + 3) % n, 1.0f);
      added.emplace_back(v, (v + 3) % n);
    }
    if (epoch > 0) {
      auto const [src, dst] = added.front();
      added.erase(added.begin());
      ASSERT_TRUE(dyn.remove_edge(src, dst));
    }
    auto const pin = engine.registry().publish("g", dyn);
    ASSERT_TRUE(pin);
    alg::pagerank_options popt;
    popt.tolerance = 1e-12;
    popt.max_iterations = 500;
    auto const want = alg::pagerank_push(ex::seq, *pin.graph, popt).ranks;
    ASSERT_EQ(q->values().size(), want.size());
    for (std::size_t v = 0; v < want.size(); ++v)
      EXPECT_NEAR(q->values()[v], want[v], 1e-7)
          << "epoch " << epoch << " vertex " << v;
    EXPECT_FALSE(q->last_update().fallback);
  }
  EXPECT_EQ(engine.stats().residual_fallbacks, 0u);
}

TEST(ResidualStanding, DroppedHandleDeregisters) {
  engine_t engine;
  dyn_t dyn(40);
  seed_dyn(dyn, 40, 100, 51);
  engine.registry().publish("g", dyn);
  auto q = engine.submit_standing(
      "g", res::min_plus_algebra<weight_t>{},
      [](auto& st, auto const&) { res::seed_source(st, vertex_t{0}); },
      sync_opts());
  ASSERT_NE(q, nullptr);
  dyn.add_edge(5, 9, 0.1f);
  engine.registry().publish("g", dyn);
  auto const after_first = engine.stats().residual_reconverges;
  EXPECT_EQ(after_first, 1u);

  q.reset();  // engine holds only a weak reference
  dyn.add_edge(6, 9, 0.1f);
  engine.registry().publish("g", dyn);
  EXPECT_EQ(engine.stats().residual_reconverges, after_first);
}

TEST(ResidualStanding, UnknownGraphReturnsNull) {
  engine_t engine;
  auto q = engine.submit_standing(
      "nope", res::min_plus_algebra<weight_t>{},
      [](auto& st, auto const&) { res::seed_source(st, vertex_t{0}); });
  EXPECT_EQ(q, nullptr);
}

// ---------------------------------------------------------------------------
// Threaded standing queries
// ---------------------------------------------------------------------------

TEST(ResidualEngine, ThreadedQueryAbsorbsPublishesAsynchronously) {
  vertex_t const n = 120;
  engine_t engine;
  dyn_t dyn(n);
  seed_dyn(dyn, n, 400, 61);
  engine.registry().publish("g", dyn);

  auto q = engine.submit_standing(
      "g", res::min_plus_algebra<weight_t>{},
      [](auto& st, auto const&) { res::seed_source(st, vertex_t{0}); });
  ASSERT_NE(q, nullptr);

  std::uint64_t last_epoch = 0;
  for (int i = 0; i < 10; ++i) {
    dyn.add_edge((vertex_t)(i % n), (vertex_t)((i * 13 + 1) % n), 0.2f);
    last_epoch = engine.registry().publish("g", dyn).epoch;
  }
  EXPECT_EQ(q->wait_processed(last_epoch), last_epoch);

  auto const snap = q->snapshot();
  ASSERT_NE(snap, nullptr);
  auto const pin = engine.registry().lookup("g");
  expect_bit_identical(*snap, alg::dijkstra(*pin.graph, 0).distances);
}

TEST(ResidualEngine, CancelDoesNotHangShutdown) {
  engine_t engine;
  dyn_t dyn(80);
  seed_dyn(dyn, 80, 200, 71);
  engine.registry().publish("g", dyn);
  auto q = engine.submit_standing(
      "g", res::min_plus_algebra<weight_t>{},
      [](auto& st, auto const&) { res::seed_source(st, vertex_t{0}); });
  ASSERT_NE(q, nullptr);
  q->cancel();
  dyn.add_edge(1, 5, 0.1f);
  engine.registry().publish("g", dyn);
  q->shutdown();  // must not deadlock with a cancelled in-flight update
  // Engine destructor then re-runs shutdown (idempotent) on exit.
}

TEST(ResidualEngine, StatsSnapshotExposesV4Counters) {
  engine_t engine;
  dyn_t dyn(50);
  seed_dyn(dyn, 50, 120, 81);
  engine.registry().publish("g", dyn);
  auto q = engine.submit_standing(
      "g", res::min_plus_algebra<weight_t>{},
      [](auto& st, auto const&) { res::seed_source(st, vertex_t{0}); },
      sync_opts());
  ASSERT_NE(q, nullptr);
  dyn.add_edge(3, 7, 0.1f);
  engine.registry().publish("g", dyn);

  auto const s = engine.stats();
  EXPECT_EQ(s.standing_queries, 1u);
  EXPECT_EQ(s.residual_reconverges, 1u);
  EXPECT_GT(s.residual_edges_cold_estimate, 0u);
  EXPECT_GE(s.residual_pass_ratio(), 0.0);
  EXPECT_LE(s.residual_pass_ratio(), 1.0);

  std::ostringstream os;
  eng::write_json(s, os);
  std::string const json = os.str();
  EXPECT_NE(json.find("\"engine_stats_version\":5"), std::string::npos);
  EXPECT_NE(json.find("\"standing_queries\":1"), std::string::npos);
  EXPECT_NE(json.find("\"residual_reconverges\":1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Telemetry: schema v6 standing traces
// ---------------------------------------------------------------------------

TEST(ResidualTelemetry, StandingTraceCarriesResidualFields) {
  engine_t engine;
  dyn_t dyn(60);
  seed_dyn(dyn, 60, 150, 91);
  engine.registry().publish("g", dyn);
  auto opt = sync_opts();
  opt.record_trace = true;
  auto q = engine.submit_standing(
      "g", res::min_plus_algebra<weight_t>{},
      [](auto& st, auto const&) { res::seed_source(st, vertex_t{0}); }, opt);
  ASSERT_NE(q, nullptr);
  dyn.add_edge(2, 9, 0.05f);
  auto const pin = engine.registry().publish("g", dyn);

  if (tel::compiled_in) {
    auto const trace = q->last_trace();
    EXPECT_TRUE(trace.standing);
    EXPECT_EQ(trace.graph_epoch, pin.epoch);
    EXPECT_GT(trace.residual_injections, 0u);
    EXPECT_EQ(trace.residual_waves, trace.supersteps.size());
    EXPECT_EQ(trace.residual_final, 0.0);  // min-lattice: mass unused

    std::ostringstream os;
    tel::write_json(trace, os);
    std::string const json = os.str();
    EXPECT_NE(json.find("\"standing\":true"), std::string::npos);
    EXPECT_NE(json.find("\"residual_waves\":"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// TSAN storm: threaded standing query under publish + reader pressure
// ---------------------------------------------------------------------------

TEST(ResidualTsanStandingStorm, PublishesRacingSnapshotReaders) {
  vertex_t const n = 200;
  engine_t engine;
  dyn_t dyn(n);
  seed_dyn(dyn, n, 600, 101);
  engine.registry().publish("g", dyn);
  auto q = engine.submit_standing(
      "g", res::min_plus_algebra<weight_t>{},
      [](auto& st, auto const&) { res::seed_source(st, vertex_t{0}); });
  ASSERT_NE(q, nullptr);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t)
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        if (auto snap = q->snapshot()) {
          weight_t sum = 0;
          for (weight_t const d : *snap)
            if (d != infinity_v<weight_t>)
              sum += d;
          EXPECT_GE(sum, 0.0f);
        }
        (void)q->processed_epoch();
      }
    });

  std::uint64_t last_epoch = 0;
  for (int i = 0; i < 30; ++i) {
    dyn.add_edge((vertex_t)((i * 17) % n), (vertex_t)((i * 29 + 1) % n),
                 0.25f);
    last_epoch = engine.registry().publish("g", dyn).epoch;
  }
  EXPECT_EQ(q->wait_processed(last_epoch), last_epoch);
  stop.store(true, std::memory_order_release);
  for (auto& r : readers)
    r.join();

  auto const pin = engine.registry().lookup("g");
  expect_bit_identical(*q->snapshot(), alg::dijkstra(*pin.graph, 0).distances);
}
