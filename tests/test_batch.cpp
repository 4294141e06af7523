// Tests for the engine's request batcher: dequeue-time fusion of
// compatible same-graph queries into bit-lane multi-source enactments
// (engine/batcher.hpp + engine/batch_jobs.hpp + the scheduler's fusion
// window), plus the lane-level machinery it rests on (lane masks and the
// lane-packed multi-source SSSP in algorithms/msbfs.hpp).
//
// The load-bearing property throughout: a query's result is bit-identical
// whether it ran alone or fused with up to 63 others — verified
// differentially against single-source oracles in every value-checking
// test below.  Every suite is named Batch* so the CI TSAN matrix picks up
// the whole file.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/bfs.hpp"
#include "algorithms/msbfs.hpp"
#include "algorithms/sssp.hpp"
#include "core/execution.hpp"
#include "core/telemetry.hpp"
#include "engine/batch_jobs.hpp"
#include "engine/batcher.hpp"
#include "engine/engine.hpp"
#include "engine/result_cache.hpp"
#include "engine/scheduler.hpp"
#include "engine/stats.hpp"
#include "graph/build.hpp"
#include "graph/graph.hpp"

namespace eng = essentials::engine;
namespace gr = essentials::graph;
namespace alg = essentials::algorithms;
namespace exec = essentials::execution;
namespace tel = essentials::telemetry;
using essentials::vertex_t;
using essentials::weight_t;
using namespace std::chrono_literals;

using engine_t = eng::analytics_engine<gr::graph_csr>;
using bfs_lanes = eng::bfs_lanes_result<vertex_t>;
using sssp_lanes = eng::sssp_lanes_result<weight_t>;

namespace {

/// Weighted path 0 -> 1 -> ... -> n-1 (unit weights), optional shortcut
/// 0 -> n-1 — toggling the shortcut between epochs changes depth profiles.
gr::graph_csr path_graph(vertex_t n, bool shortcut = false) {
  gr::coo_t<> coo;
  coo.num_rows = coo.num_cols = n;
  for (vertex_t v = 0; v + 1 < n; ++v)
    coo.push_back(v, v + 1, 1.0f);
  if (shortcut)
    coo.push_back(0, n - 1, 1.0f);
  return gr::from_coo<gr::graph_csr>(std::move(coo));
}

/// Small pseudo-random weighted digraph (deterministic LCG).
gr::graph_csr random_graph(vertex_t n, std::size_t edges,
                           std::uint64_t seed) {
  gr::coo_t<> coo;
  coo.num_rows = coo.num_cols = n;
  std::uint64_t x = seed;
  auto next = [&x]() {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 33;
  };
  for (std::size_t e = 0; e < edges; ++e) {
    auto const u = static_cast<vertex_t>(next() % static_cast<std::uint64_t>(n));
    auto const v = static_cast<vertex_t>(next() % static_cast<std::uint64_t>(n));
    auto const w = 1.0f + static_cast<float>(next() % 8);
    coo.push_back(u, v, w);
  }
  return gr::from_coo<gr::graph_csr>(std::move(coo));
}

eng::job_desc bfs_desc(std::string graph, vertex_t src, bool trace = false) {
  eng::job_desc d;
  d.graph = std::move(graph);
  d.algorithm = "bfs";
  d.params = "src=" + std::to_string(src);
  d.record_trace = trace;
  return d;
}

eng::job_desc sssp_desc(std::string graph, vertex_t src) {
  eng::job_desc d;
  d.graph = std::move(graph);
  d.algorithm = "sssp";
  d.params = "src=" + std::to_string(src);
  return d;
}

/// Occupy the engine's (single) runner until released, so a burst
/// submitted behind it queues up and fuses deterministically.
eng::job_ptr submit_blocker(engine_t& engine, std::atomic<bool>& release) {
  eng::job_desc d;
  d.graph = "g";
  d.algorithm = "blocker";
  d.use_cache = false;
  return engine.submit(d, [&release](gr::graph_csr const&, eng::job_context&)
                              -> std::shared_ptr<void const> {
    while (!release.load(std::memory_order_acquire))
      std::this_thread::sleep_for(1ms);
    return nullptr;
  });
}

}  // namespace

// ---------------------------------------------------------------------------
// Lane level: masks and the lane-packed multi-source SSSP
// ---------------------------------------------------------------------------

TEST(BatchLanes, MsBfsLaneMaskFreezesOnlyMaskedLane) {
  auto const g = path_graph(20);
  // Two lanes from the same source; lane 1 is dropped from superstep 5 on.
  auto const r = alg::multi_source_bfs(
      exec::seq, g, std::vector<vertex_t>{0, 0},
      [](std::size_t superstep) -> std::uint64_t {
        return superstep < 5 ? ~std::uint64_t{0} : std::uint64_t{1};
      });
  // Lane 0 ran to convergence.
  EXPECT_EQ(r.depth[0][19], 19);
  EXPECT_EQ(r.lane_levels[0], 19);
  // Lane 1 kept the depths it had discovered in supersteps 0..4 (levels
  // 1..5) and stopped propagating — never aborting lane 0.
  EXPECT_EQ(r.depth[1][5], 5);
  EXPECT_EQ(r.depth[1][6], -1);
  EXPECT_EQ(r.lane_levels[1], 5);
}

TEST(BatchLanes, MsSsspEachLaneMatchesSingleSourceSssp) {
  auto const g = random_graph(128, 640, 42);
  std::vector<vertex_t> sources;
  for (vertex_t s = 0; s < 10; ++s)
    sources.push_back(s * 11);
  for (auto const& policy_name : {"seq", "par"}) {
    auto const r = std::string(policy_name) == "seq"
                       ? alg::multi_source_sssp(exec::seq, g, sources)
                       : alg::multi_source_sssp(exec::par, g, sources);
    ASSERT_EQ(r.dist.size(), sources.size());
    for (std::size_t s = 0; s < sources.size(); ++s) {
      auto const oracle = alg::sssp(exec::seq, g, sources[s]);
      ASSERT_EQ(r.dist[s].size(), oracle.distances.size());
      for (std::size_t v = 0; v < oracle.distances.size(); ++v)
        EXPECT_EQ(r.dist[s][v], oracle.distances[v])
            << policy_name << " lane " << s << " vertex " << v;
    }
  }
}

TEST(BatchLanes, MsSsspLaneMaskStopsOnlyMaskedLane) {
  auto const g = path_graph(16);
  auto const r = alg::multi_source_sssp(
      exec::seq, g, std::vector<vertex_t>{0, 0},
      [](std::size_t superstep) -> std::uint64_t {
        return superstep < 3 ? ~std::uint64_t{0} : std::uint64_t{1};
      });
  EXPECT_EQ(r.dist[0][15], 15.0f);            // lane 0 converged
  EXPECT_EQ(r.dist[1][3], 3.0f);              // lane 1 got 3 supersteps in
  EXPECT_EQ(r.dist[1][4], essentials::infinity_v<weight_t>);
}

TEST(BatchLanes, MsBfsRecordsTelemetrySupersteps) {
  auto const g = path_graph(12);
  tel::trace t;
  {
    tel::scoped_recording rec(t, "msbfs");
    auto const r =
        alg::multi_source_bfs(exec::seq, g, std::vector<vertex_t>{0, 3});
    EXPECT_EQ(r.depth[0][11], 11);
  }
  if (tel::compiled_in) {
    // 11 discovering supersteps + the final empty one.
    ASSERT_GE(t.supersteps.size(), 11u);
    ASSERT_FALSE(t.supersteps[0].ops.empty());
    EXPECT_EQ(t.supersteps[0].ops[0].name, "msbfs.expand");
    EXPECT_GT(t.total_edges_inspected(), 0u);
  }
}

TEST(BatchLanes, MsSsspRecordsTelemetrySupersteps) {
  auto const g = path_graph(8);
  tel::trace t;
  {
    tel::scoped_recording rec(t, "mssssp");
    auto const r =
        alg::multi_source_sssp(exec::seq, g, std::vector<vertex_t>{0});
    EXPECT_EQ(r.dist[0][7], 7.0f);
  }
  if (tel::compiled_in) {
    ASSERT_FALSE(t.supersteps.empty());
    ASSERT_FALSE(t.supersteps[0].ops.empty());
    EXPECT_EQ(t.supersteps[0].ops[0].name, "mssssp.relax");
  }
}

// ---------------------------------------------------------------------------
// Engine: fusion window, bit-identity, per-member results
// ---------------------------------------------------------------------------

TEST(BatchEngine, BurstFusesAndEveryMemberMatchesSoloOracle) {
  engine_t engine({/*runners=*/1, /*max_queued=*/64, /*cache=*/64});
  auto const g = path_graph(48);
  engine.registry().publish("g", g);

  std::atomic<bool> release{false};
  auto blocker = submit_blocker(engine, release);

  std::vector<eng::job_ptr> jobs;
  for (vertex_t src = 0; src < 8; ++src)
    jobs.push_back(engine.submit_batch(
        bfs_desc("g", src, /*trace=*/src < 2),
        eng::bfs_batch_job<gr::graph_csr>(exec::par, src)));
  release.store(true, std::memory_order_release);
  blocker->wait();

  std::uint64_t batch_id = 0;
  for (vertex_t src = 0; src < 8; ++src) {
    auto const& j = jobs[static_cast<std::size_t>(src)];
    ASSERT_EQ(j->wait(), eng::job_status::completed) << "src=" << src;
    // Fusion attribution: all eight shared one wave, lanes in FIFO order.
    EXPECT_EQ(j->batch_size(), 8u);
    EXPECT_EQ(j->lane(), static_cast<std::uint32_t>(src));
    if (batch_id == 0)
      batch_id = j->batch_id();
    EXPECT_EQ(j->batch_id(), batch_id);
    EXPECT_NE(batch_id, 0u);
    // Bit-identity: fused lane == solo one-lane enactment.
    auto const served = j->result_as<bfs_lanes>();
    ASSERT_NE(served, nullptr);
    auto const oracle =
        alg::multi_source_bfs(exec::seq, g, std::vector<vertex_t>{src});
    EXPECT_EQ(served->depths, oracle.depth[0]);
    EXPECT_EQ(served->levels, oracle.lane_levels[0]);
  }

  // Telemetry schema v5: batch attribution on every trace-requesting
  // member; the shared superstep stream on the first of them.
  EXPECT_EQ(jobs[0]->trace().batch_size, 8u);
  EXPECT_EQ(jobs[0]->trace().lane, 0u);
  EXPECT_EQ(jobs[1]->trace().batch_size, 8u);
  EXPECT_EQ(jobs[1]->trace().lane, 1u);
  if (tel::compiled_in) {
    EXPECT_FALSE(jobs[0]->trace().supersteps.empty());
    std::ostringstream os;
    tel::write_json(jobs[0]->trace(), os);
    EXPECT_NE(os.str().find("\"batch_id\":"), std::string::npos);
    EXPECT_NE(os.str().find("\"batch_size\":8"), std::string::npos);
  }

  auto const s = engine.stats();
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.batched_jobs, 8u);
  EXPECT_EQ(s.edge_passes_saved, 7u);  // one traversal served eight queries
  EXPECT_DOUBLE_EQ(s.avg_batch_size(), 8.0);
}

TEST(BatchEngine, FusedSsspMatchesUnfusedSubmission) {
  auto const g = random_graph(96, 512, 7);

  // Unfused reference: same builders, each query submitted and waited for
  // in turn, so it never has a partner to fuse with.
  engine_t solo({1, 64, 64});
  solo.registry().publish("g", g);
  std::vector<std::shared_ptr<sssp_lanes const>> expected;
  for (vertex_t src = 0; src < 6; ++src) {
    auto j = solo.submit_batch(sssp_desc("g", src),
                               eng::sssp_batch_job<gr::graph_csr>(exec::par, src));
    EXPECT_EQ(j->wait(), eng::job_status::completed);
    EXPECT_EQ(j->batch_size(), 0u);  // enacted alone
    expected.push_back(j->result_as<sssp_lanes>());
  }
  EXPECT_EQ(solo.stats().batches, 0u);

  // Fused run of the same six queries.
  engine_t engine({1, 64, 64});
  engine.registry().publish("g", g);
  std::atomic<bool> release{false};
  auto blocker = submit_blocker(engine, release);
  std::vector<eng::job_ptr> jobs;
  for (vertex_t src = 0; src < 6; ++src)
    jobs.push_back(engine.submit_batch(
        sssp_desc("g", src),
        eng::sssp_batch_job<gr::graph_csr>(exec::par, src)));
  release.store(true, std::memory_order_release);

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_EQ(jobs[i]->wait(), eng::job_status::completed);
    EXPECT_EQ(jobs[i]->batch_size(), 6u);
    auto const served = jobs[i]->result_as<sssp_lanes>();
    ASSERT_NE(served, nullptr);
    ASSERT_NE(expected[i], nullptr);
    EXPECT_EQ(served->distances, expected[i]->distances) << "lane " << i;
  }
  EXPECT_EQ(engine.stats().batches, 1u);
  EXPECT_EQ(engine.stats().edge_passes_saved, 5u);
}

TEST(BatchEngine, CacheHitMembersAreFilteredBeforeLaneAssignment) {
  engine_t engine({1, 64, 64});
  engine.registry().publish("g", path_graph(24));
  auto const epoch = engine.registry().lookup("g").epoch;

  std::atomic<bool> release{false};
  auto blocker = submit_blocker(engine, release);

  // Three members queue behind the blocker; while they wait, the result
  // for src=5 lands in the cache (as if an identical earlier job just
  // completed).  At dequeue that member must retire cache_hit *before*
  // lane assignment — only the other two fuse.
  auto j5 = engine.submit_batch(bfs_desc("g", 5),
                                eng::bfs_batch_job<gr::graph_csr>(exec::par, 5));
  auto j6 = engine.submit_batch(bfs_desc("g", 6),
                                eng::bfs_batch_job<gr::graph_csr>(exec::par, 6));
  auto j7 = engine.submit_batch(bfs_desc("g", 7),
                                eng::bfs_batch_job<gr::graph_csr>(exec::par, 7));

  auto precomputed = std::make_shared<bfs_lanes const>();
  engine.cache().insert(eng::cache_key{"g", epoch, "bfs", "src=5"},
                        precomputed);
  release.store(true, std::memory_order_release);

  EXPECT_EQ(j5->wait(), eng::job_status::cache_hit);
  EXPECT_EQ(j5->result(), precomputed);  // served, not recomputed
  EXPECT_EQ(j5->batch_size(), 0u);       // never occupied a lane
  ASSERT_EQ(j6->wait(), eng::job_status::completed);
  ASSERT_EQ(j7->wait(), eng::job_status::completed);
  EXPECT_EQ(j6->batch_size(), 2u);
  EXPECT_EQ(j7->batch_size(), 2u);

  auto const s = engine.stats();
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.batched_jobs, 2u);
  EXPECT_EQ(s.edge_passes_saved, 1u);
}

// The dequeue-time cache probe is the same for a batchable job that
// claims no partner: a lone member whose result lands in the cache while it
// waits retires `cache_hit`, not `completed`, and never enacts.
TEST(BatchEngine, LoneMemberCachedWhileQueuedRetiresCacheHit) {
  engine_t engine({1, 64, 64});
  engine.registry().publish("g", path_graph(24));
  auto const epoch = engine.registry().lookup("g").epoch;

  std::atomic<bool> release{false};
  auto blocker = submit_blocker(engine, release);
  auto j = engine.submit_batch(bfs_desc("g", 5),
                               eng::bfs_batch_job<gr::graph_csr>(exec::par, 5));
  auto precomputed = std::make_shared<bfs_lanes const>();
  engine.cache().insert(eng::cache_key{"g", epoch, "bfs", "src=5"},
                        precomputed);
  release.store(true, std::memory_order_release);

  EXPECT_EQ(j->wait(), eng::job_status::cache_hit);
  EXPECT_EQ(j->result(), precomputed);  // served, not recomputed
  EXPECT_EQ(j->batch_size(), 0u);
  blocker->wait();
  auto const s = engine.stats();
  EXPECT_EQ(s.jobs_enacted, 1u);  // the blocker only
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.batches, 0u);
}

TEST(BatchEngine, EveryFusedMemberResultIsCachedUnderItsOwnKey) {
  engine_t engine({1, 64, 64});
  engine.registry().publish("g", path_graph(32));

  std::atomic<bool> release{false};
  auto blocker = submit_blocker(engine, release);
  std::vector<eng::job_ptr> jobs;
  for (vertex_t src = 0; src < 4; ++src)
    jobs.push_back(engine.submit_batch(
        bfs_desc("g", src),
        eng::bfs_batch_job<gr::graph_csr>(exec::par, src)));
  release.store(true, std::memory_order_release);
  for (auto const& j : jobs)
    ASSERT_EQ(j->wait(), eng::job_status::completed);

  // Resubmitting each member's exact query must hit the cache instantly —
  // with the *same* payload object the fused wave published.
  for (vertex_t src = 0; src < 4; ++src) {
    auto j = engine.submit_batch(
        bfs_desc("g", src), eng::bfs_batch_job<gr::graph_csr>(exec::par, src));
    EXPECT_EQ(j->wait(), eng::job_status::cache_hit) << "src=" << src;
    EXPECT_EQ(j->result(), jobs[static_cast<std::size_t>(src)]->result());
  }
}

TEST(BatchEngine, MemberDeadlineExpiringMidBatchMasksOnlyItsLane) {
  eng::job_scheduler sched({1, 16});
  std::atomic<bool> release{false};
  eng::job_desc bd;
  bd.algorithm = "blocker";
  auto blocker = sched.submit(bd, [&release](eng::job_context&)
                                      -> std::shared_ptr<void const> {
    while (!release.load(std::memory_order_acquire))
      std::this_thread::sleep_for(1ms);
    return nullptr;
  });

  // A synthetic fused body that spins supersteps until some lane's guard
  // fires, then returns results only for surviving lanes — the shape every
  // real lane-packed enactment has, with the convergence tail made
  // explicit so the deadline deterministically fires mid-batch.
  auto fused = [](std::vector<eng::batch_lane> const& lanes)
      -> eng::fused_outcome {
    std::vector<eng::job_context*> ctxs;
    for (auto const& l : lanes)
      ctxs.push_back(l.ctx);
    eng::live_lane_mask mask{ctxs};
    std::uint64_t const full =
        (std::uint64_t{1} << lanes.size()) - 1;
    std::size_t step = 0;
    while (mask(step) == full && step < 20000) {  // 20s safety valve
      std::this_thread::sleep_for(1ms);
      ++step;
    }
    std::uint64_t const live = mask(step);
    eng::fused_outcome out;
    out.results.resize(lanes.size());
    for (std::size_t i = 0; i < lanes.size(); ++i)
      if ((live >> i) & 1)
        out.results[i] = std::make_shared<int const>(static_cast<int>(i));
    return out;
  };
  auto make_spec = [&fused]() {
    auto s = std::make_shared<eng::batch_spec>();
    s->key = "k";
    s->fused = fused;
    return s;
  };
  auto solo = [](eng::job_context&) -> std::shared_ptr<void const> {
    return std::make_shared<int const>(-1);
  };

  eng::job_desc da;
  da.algorithm = "spin";
  da.deadline = 250ms;  // fires while the fused body spins
  eng::job_desc db;
  db.algorithm = "spin";  // no deadline
  auto a = sched.submit(da, solo, 0, make_spec());
  auto b = sched.submit(db, solo, 0, make_spec());
  release.store(true, std::memory_order_release);

  EXPECT_EQ(a->wait(), eng::job_status::deadline_expired);
  EXPECT_EQ(a->result(), nullptr);  // truncated lanes publish nothing
  ASSERT_EQ(b->wait(), eng::job_status::completed);
  ASSERT_NE(b->result(), nullptr);  // the batch kept going for lane 1
  EXPECT_EQ(*b->result_as<int>(), 1);
  EXPECT_EQ(a->batch_size(), 2u);  // it really was fused
  EXPECT_EQ(b->batch_size(), 2u);
  blocker->wait();
}

TEST(BatchEngine, CancellingOneMemberMasksOnlyItsLane) {
  eng::job_scheduler sched({1, 16});
  std::atomic<bool> release{false};
  std::atomic<bool> entered{false};
  eng::job_desc bd;
  bd.algorithm = "blocker";
  auto blocker = sched.submit(bd, [&release](eng::job_context&)
                                      -> std::shared_ptr<void const> {
    while (!release.load(std::memory_order_acquire))
      std::this_thread::sleep_for(1ms);
    return nullptr;
  });

  auto fused = [&entered](std::vector<eng::batch_lane> const& lanes)
      -> eng::fused_outcome {
    entered.store(true, std::memory_order_release);
    std::vector<eng::job_context*> ctxs;
    for (auto const& l : lanes)
      ctxs.push_back(l.ctx);
    eng::live_lane_mask mask{ctxs};
    std::uint64_t const full =
        (std::uint64_t{1} << lanes.size()) - 1;
    std::size_t step = 0;
    while (mask(step) == full && step < 20000) {
      std::this_thread::sleep_for(1ms);
      ++step;
    }
    std::uint64_t const live = mask(step);
    eng::fused_outcome out;
    out.results.resize(lanes.size());
    for (std::size_t i = 0; i < lanes.size(); ++i)
      if ((live >> i) & 1)
        out.results[i] = std::make_shared<int const>(static_cast<int>(i));
    return out;
  };
  auto make_spec = [&fused]() {
    auto s = std::make_shared<eng::batch_spec>();
    s->key = "k";
    s->fused = fused;
    return s;
  };
  auto solo = [](eng::job_context&) -> std::shared_ptr<void const> {
    return std::make_shared<int const>(-1);
  };

  eng::job_desc d;
  d.algorithm = "spin";
  auto a = sched.submit(d, solo, 0, make_spec());
  auto b = sched.submit(d, solo, 0, make_spec());
  release.store(true, std::memory_order_release);

  while (!entered.load(std::memory_order_acquire))
    std::this_thread::sleep_for(1ms);
  a->cancel();  // mid-batch: lane 0 masks out, lane 1 keeps converging

  EXPECT_EQ(a->wait(), eng::job_status::cancelled);
  EXPECT_EQ(a->result(), nullptr);
  ASSERT_EQ(b->wait(), eng::job_status::completed);
  ASSERT_NE(b->result(), nullptr);
  EXPECT_EQ(*b->result_as<int>(), 1);
  blocker->wait();
}

TEST(BatchEngine, MoreThanSixtyFourMembersSpillIntoWaves) {
  engine_t engine({/*runners=*/1, /*max_queued=*/128, /*cache=*/256});
  auto const g = path_graph(100);
  engine.registry().publish("g", g);

  std::atomic<bool> release{false};
  auto blocker = submit_blocker(engine, release);
  std::vector<eng::job_ptr> jobs;
  for (vertex_t src = 0; src < 80; ++src)
    jobs.push_back(engine.submit_batch(
        bfs_desc("g", src),
        eng::bfs_batch_job<gr::graph_csr>(exec::par, src)));
  release.store(true, std::memory_order_release);

  for (vertex_t src = 0; src < 80; ++src) {
    auto const& j = jobs[static_cast<std::size_t>(src)];
    ASSERT_EQ(j->wait(), eng::job_status::completed) << "src=" << src;
    auto const served = j->result_as<bfs_lanes>();
    ASSERT_NE(served, nullptr);
    // On the path, src reaches 99 in 99-src hops.
    EXPECT_EQ(served->depths[99], 99 - src);
    EXPECT_EQ(j->batch_size(), src < 64 ? 64u : 16u);
    EXPECT_EQ(j->lane(), static_cast<std::uint32_t>(src % 64));
  }
  EXPECT_NE(jobs[0]->batch_id(), jobs[64]->batch_id());

  auto const s = engine.stats();
  EXPECT_EQ(s.batches, 2u);            // 64-lane wave + 16-lane spill wave
  EXPECT_EQ(s.batched_jobs, 80u);
  EXPECT_EQ(s.edge_passes_saved, 78u);  // 80 queries, 2 traversals
  EXPECT_DOUBLE_EQ(s.avg_batch_size(), 40.0);
}

TEST(BatchEngine, EpochPublishSplitsTheBatch) {
  engine_t engine({1, 64, 64});
  engine.registry().publish("g", path_graph(32, /*shortcut=*/false));

  std::atomic<bool> release{false};
  auto blocker = submit_blocker(engine, release);

  // Two members pin epoch 1, then a publish bumps the epoch, then two more
  // pin epoch 2.  Same graph name + algorithm, different epoch: the fusion
  // key differs, so the window must produce two 2-member waves — a fused
  // wave can never straddle snapshots.
  auto a1 = engine.submit_batch(bfs_desc("g", 0),
                                eng::bfs_batch_job<gr::graph_csr>(exec::par, 0));
  auto a2 = engine.submit_batch(bfs_desc("g", 1),
                                eng::bfs_batch_job<gr::graph_csr>(exec::par, 1));
  engine.registry().publish("g", path_graph(32, /*shortcut=*/true));
  auto b1 = engine.submit_batch(bfs_desc("g", 0),
                                eng::bfs_batch_job<gr::graph_csr>(exec::par, 0));
  auto b2 = engine.submit_batch(bfs_desc("g", 1),
                                eng::bfs_batch_job<gr::graph_csr>(exec::par, 1));
  release.store(true, std::memory_order_release);

  for (auto const& j : {a1, a2, b1, b2})
    ASSERT_EQ(j->wait(), eng::job_status::completed);
  EXPECT_EQ(a1->graph_epoch(), 1u);
  EXPECT_EQ(b1->graph_epoch(), 2u);
  EXPECT_EQ(a1->batch_id(), a2->batch_id());
  EXPECT_EQ(b1->batch_id(), b2->batch_id());
  EXPECT_NE(a1->batch_id(), b1->batch_id());
  EXPECT_EQ(a1->batch_size(), 2u);
  EXPECT_EQ(b1->batch_size(), 2u);

  // Each wave enacted against its own pinned snapshot: the epoch-2 graph
  // has the 0 -> 31 shortcut, the epoch-1 graph does not.
  EXPECT_EQ(a1->result_as<bfs_lanes>()->depths[31], 31);
  EXPECT_EQ(b1->result_as<bfs_lanes>()->depths[31], 1);
  EXPECT_EQ(a2->result_as<bfs_lanes>()->depths[31], 30);
  EXPECT_EQ(b2->result_as<bfs_lanes>()->depths[31], 30);

  auto const s = engine.stats();
  EXPECT_EQ(s.batches, 2u);
  EXPECT_EQ(s.batched_jobs, 4u);
}

TEST(BatchEngine, IndependentModeNeverFuses) {
  engine_t engine({1, 64, 64});
  auto const g = path_graph(24);
  engine.registry().publish("g", g);

  std::atomic<bool> release{false};
  auto blocker = submit_blocker(engine, release);
  std::vector<eng::job_ptr> jobs;
  for (vertex_t src = 0; src < 4; ++src)
    jobs.push_back(engine.submit(
        bfs_desc("g", src),
        eng::bfs_batch_job<gr::graph_csr>(exec::par, src).cold));
  release.store(true, std::memory_order_release);

  for (vertex_t src = 0; src < 4; ++src) {
    auto const& j = jobs[static_cast<std::size_t>(src)];
    ASSERT_EQ(j->wait(), eng::job_status::completed);
    EXPECT_EQ(j->batch_size(), 0u);  // no fusion spec: always enacts alone
    auto const oracle =
        alg::multi_source_bfs(exec::seq, g, std::vector<vertex_t>{src});
    EXPECT_EQ(j->result_as<bfs_lanes>()->depths, oracle.depth[0]);
  }
  auto const s = engine.stats();
  EXPECT_EQ(s.batches, 0u);
  EXPECT_EQ(s.batched_jobs, 0u);
  EXPECT_EQ(s.edge_passes_saved, 0u);
  EXPECT_DOUBLE_EQ(s.avg_batch_size(), 0.0);
}

TEST(BatchEngine, StatsJsonExportsV3BatchCounters) {
  eng::engine_stats stats;
  stats.on_batch(8, 7);
  stats.on_batch(4, 3);
  auto const s = stats.snapshot();
  EXPECT_EQ(s.batches, 2u);
  EXPECT_EQ(s.batched_jobs, 12u);
  EXPECT_EQ(s.edge_passes_saved, 10u);
  EXPECT_DOUBLE_EQ(s.avg_batch_size(), 6.0);
  std::ostringstream os;
  eng::write_json(s, os);
  auto const json = os.str();
  EXPECT_NE(json.find("\"engine_stats_version\":5"), std::string::npos);
  EXPECT_NE(json.find("\"batches\":2"), std::string::npos);
  EXPECT_NE(json.find("\"batched_jobs\":12"), std::string::npos);
  EXPECT_NE(json.find("\"edge_passes_saved\":10"), std::string::npos);
  EXPECT_NE(json.find("\"avg_batch_size\":6"), std::string::npos);
}

// ---------------------------------------------------------------------------
// TSAN stress: fusion windows racing submitters, runners and publishes
// ---------------------------------------------------------------------------

TEST(BatchTsanBurst, ConcurrentSubmittersFuseSafelyAndExactly) {
  engine_t engine({/*runners=*/2, /*max_queued=*/512, /*cache=*/0});
  auto const g = path_graph(64);
  engine.registry().publish("g", g);

  // Precompute the oracle depth of the last vertex per source.
  constexpr vertex_t kSources = 32;
  constexpr int kPerThread = 24;
  constexpr int kThreads = 4;

  std::mutex mu;
  std::vector<std::pair<vertex_t, eng::job_ptr>> handles;
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&engine, &mu, &handles, t] {
      std::uint64_t x = 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(t + 1);
      for (int i = 0; i < kPerThread; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        auto const src = static_cast<vertex_t>((x >> 33) % kSources);
        auto d = bfs_desc("g", src);
        d.use_cache = false;  // force enactment: every job exercises fusion
        auto j = engine.submit_batch(
            std::move(d), eng::bfs_batch_job<gr::graph_csr>(exec::par, src));
        std::lock_guard<std::mutex> guard(mu);
        handles.emplace_back(src, std::move(j));
      }
    });
  }
  for (auto& t : submitters)
    t.join();

  for (auto const& [src, j] : handles) {
    ASSERT_EQ(j->wait(), eng::job_status::completed);
    auto const served = j->result_as<bfs_lanes>();
    ASSERT_NE(served, nullptr);
    EXPECT_EQ(served->depths[63], 63 - src);
  }
  // With two runners racing the submitters the exact fusion pattern is
  // nondeterministic; that at least one wave fused is overwhelmingly
  // likely with 96 jobs over 32 keys — but the assertions above (every
  // result exact) are the real contract.
  EXPECT_EQ(engine.stats().failed, 0u);
}

TEST(BatchTsanBurst, BurstsRacingEpochPublishesPinOneSnapshot) {
  engine_t engine({/*runners=*/2, /*max_queued=*/1024, /*cache=*/64});
  engine.registry().publish("g", path_graph(48, false));

  std::atomic<bool> stop{false};
  // Publisher: flip the shortcut every publish.  Epoch e has the shortcut
  // iff e is even (epoch 1 = no shortcut, 2 = shortcut, ...).
  std::thread publisher([&engine, &stop] {
    bool shortcut = true;
    while (!stop.load(std::memory_order_acquire)) {
      engine.registry().publish("g", path_graph(48, shortcut));
      shortcut = !shortcut;
      std::this_thread::sleep_for(2ms);
    }
  });

  std::mutex mu;
  std::vector<eng::job_ptr> handles;
  std::vector<std::thread> submitters;
  for (int t = 0; t < 3; ++t) {
    submitters.emplace_back([&engine, &mu, &handles] {
      for (int i = 0; i < 40; ++i) {
        auto const src = static_cast<vertex_t>(i % 8);
        auto d = bfs_desc("g", src);
        d.use_cache = false;
        auto j = engine.submit_batch(
            std::move(d), eng::bfs_batch_job<gr::graph_csr>(exec::par, src));
        {
          std::lock_guard<std::mutex> guard(mu);
          handles.push_back(std::move(j));
        }
        if (i % 8 == 0)
          std::this_thread::sleep_for(1ms);
      }
    });
  }
  for (auto& t : submitters)
    t.join();
  for (auto const& j : handles)
    j->wait();
  stop.store(true, std::memory_order_release);
  publisher.join();

  // Every completed job must be self-consistent with the *single* snapshot
  // its wave pinned: depth of vertex 47 from src is either 47-src (no
  // shortcut) or, for src==0 with the shortcut, 1.  The job's epoch parity
  // tells us which graph it pinned.
  for (auto const& j : handles) {
    ASSERT_EQ(j->status(), eng::job_status::completed);
    auto const served = j->result_as<bfs_lanes>();
    ASSERT_NE(served, nullptr);
    auto const epoch = j->graph_epoch();
    ASSERT_GE(epoch, 1u);
    bool const has_shortcut = (epoch % 2) == 0;
    auto const params = j->desc().params;  // "src=N"
    auto const src = static_cast<vertex_t>(std::stoi(params.substr(4)));
    vertex_t const expect =
        (has_shortcut && src == 0) ? 1 : (47 - src);
    EXPECT_EQ(served->depths[47], expect)
        << "src=" << src << " epoch=" << epoch;
  }
  EXPECT_EQ(engine.stats().failed, 0u);
}
