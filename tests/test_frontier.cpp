// Tests for the frontier family: sparse, dense, async queue, distributed —
// plus the interface concept and representation conversions.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "core/frontier/frontier.hpp"
#include "mpsim/communicator.hpp"
#include "parallel/thread_pool.hpp"

namespace f = essentials::frontier;
namespace p = essentials::parallel;
namespace mp = essentials::mpsim;
using essentials::vertex_t;

// --- sparse ------------------------------------------------------------------

TEST(SparseFrontier, Listing2Interface) {
  f::sparse_frontier<vertex_t> fr;
  EXPECT_EQ(fr.size(), 0u);
  EXPECT_TRUE(fr.empty());
  fr.add_vertex(3);
  fr.add_vertex(7);
  EXPECT_EQ(fr.size(), 2u);
  EXPECT_EQ(fr.get_active_vertex(0), 3);
  EXPECT_EQ(fr.get_active_vertex(1), 7);
  EXPECT_THROW(fr.get_active_vertex(2), essentials::graph_error);
}

TEST(SparseFrontier, ConcurrentAddsLoseNothing) {
  f::sparse_frontier<vertex_t> fr;
  p::thread_pool pool(4);
  pool.run_blocked(5000, [&fr](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      fr.add_vertex(static_cast<vertex_t>(i));
  });
  EXPECT_EQ(fr.size(), 5000u);
  auto v = fr.to_vector();
  std::sort(v.begin(), v.end());
  for (std::size_t i = 0; i < v.size(); ++i)
    EXPECT_EQ(v[i], static_cast<vertex_t>(i));
}

TEST(SparseFrontier, AppendBulk) {
  f::sparse_frontier<vertex_t> fr;
  std::vector<vertex_t> chunk{1, 2, 3};
  fr.append_bulk(chunk.data(), chunk.size());
  fr.append_bulk(chunk.data(), 0);  // no-op
  EXPECT_EQ(fr.size(), 3u);
  EXPECT_TRUE(fr.contains(2));
  EXPECT_FALSE(fr.contains(9));
}

TEST(SparseFrontier, ClearAndSwap) {
  f::sparse_frontier<vertex_t> a, b;
  a.add_vertex(1);
  b.add_vertex(2);
  b.add_vertex(3);
  swap(a, b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(b.size(), 1u);
  a.clear();
  EXPECT_TRUE(a.empty());
}

// Regression (audited concurrency contract, run under TSAN in CI): a
// producer still draining appends while the enactor recycles the frontier
// with clear() must not corrupt the vector — clear() serializes on the
// same lock as add_vertex/append_bulk.  Publications are whole: whatever
// survives the clears, size() and iteration must agree.
TEST(SparseFrontier, ConcurrentAppendsDuringClearDoNotCorrupt) {
  for (int round = 0; round < 20; ++round) {
    f::sparse_frontier<vertex_t> fr;
    std::thread producer([&fr] {
      vertex_t chunk[8] = {1, 2, 3, 4, 5, 6, 7, 8};
      for (int i = 0; i < 300; ++i) {
        fr.add_vertex(static_cast<vertex_t>(i));
        fr.append_bulk(chunk, 8);
      }
    });
    std::thread recycler([&fr] {
      for (int i = 0; i < 50; ++i)
        fr.clear();
    });
    producer.join();
    recycler.join();
    std::size_t seen = 0;
    fr.for_each_active([&seen](vertex_t) { ++seen; });
    EXPECT_EQ(seen, fr.size());
    fr.clear();
    EXPECT_TRUE(fr.empty());
  }
}

// Regression (run under TSAN in CI): swap() takes both operands' locks in
// address order, so it can race concurrent producers on either side — and
// two concurrent swaps with opposite argument order cannot deadlock.
TEST(SparseFrontier, ConcurrentAppendsDuringSwapDoNotCorrupt) {
  for (int round = 0; round < 20; ++round) {
    f::sparse_frontier<vertex_t> a, b;
    std::thread prod_a([&a] {
      for (int i = 0; i < 500; ++i)
        a.add_vertex(static_cast<vertex_t>(i));
    });
    std::thread prod_b([&b] {
      vertex_t chunk[4] = {100, 101, 102, 103};
      for (int i = 0; i < 125; ++i)
        b.append_bulk(chunk, 4);
    });
    std::thread swapper_1([&a, &b] {
      for (int i = 0; i < 25; ++i)
        swap(a, b);
    });
    std::thread swapper_2([&a, &b] {
      for (int i = 0; i < 25; ++i)
        swap(b, a);  // opposite argument order: exercises lock ordering
    });
    prod_a.join();
    prod_b.join();
    swapper_1.join();
    swapper_2.join();
    // Nothing was lost: both frontiers together hold every publication.
    EXPECT_EQ(a.size() + b.size(), 500u + 500u);
  }
}

// --- dense -------------------------------------------------------------------

TEST(DenseFrontier, MembershipAndCount) {
  f::dense_frontier<vertex_t> fr(100);
  EXPECT_TRUE(fr.empty());
  fr.add_vertex(0);
  fr.add_vertex(63);
  fr.add_vertex(64);
  fr.add_vertex(99);
  EXPECT_EQ(fr.size(), 4u);
  EXPECT_TRUE(fr.contains(63));
  EXPECT_FALSE(fr.contains(50));
  fr.remove_vertex(63);
  EXPECT_FALSE(fr.contains(63));
  EXPECT_EQ(fr.size(), 3u);
}

TEST(DenseFrontier, TryAddReportsFirstClaim) {
  f::dense_frontier<vertex_t> fr(10);
  EXPECT_TRUE(fr.try_add_vertex(5));
  EXPECT_FALSE(fr.try_add_vertex(5));
}

TEST(DenseFrontier, ToVectorIsSorted) {
  f::dense_frontier<vertex_t> fr(200);
  for (vertex_t v : {150, 3, 77, 64, 199})
    fr.add_vertex(v);
  EXPECT_EQ(fr.to_vector(), (std::vector<vertex_t>{3, 64, 77, 150, 199}));
}

TEST(DenseFrontier, ConcurrentAddsAreExact) {
  f::dense_frontier<vertex_t> fr(4096);
  p::thread_pool pool(4);
  pool.run_blocked(4096, [&fr](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      if (i % 3 == 0)
        fr.add_vertex(static_cast<vertex_t>(i));
  });
  EXPECT_EQ(fr.size(), (4096 + 2) / 3);
}

// --- conversions ---------------------------------------------------------------

TEST(FrontierConversions, SparseDenseRoundTrip) {
  f::sparse_frontier<vertex_t> sparse(std::vector<vertex_t>{9, 1, 5});
  auto dense = f::to_dense(sparse, 16);
  EXPECT_EQ(dense.size(), 3u);
  EXPECT_TRUE(dense.contains(9));
  auto back = f::to_sparse(dense);
  EXPECT_EQ(back.to_vector(), (std::vector<vertex_t>{1, 5, 9}));
}

TEST(FrontierConversions, DensityMeasures) {
  f::dense_frontier<vertex_t> dense(100);
  for (vertex_t v = 0; v < 25; ++v)
    dense.add_vertex(v);
  EXPECT_DOUBLE_EQ(f::density(dense), 0.25);
  f::sparse_frontier<vertex_t> sparse(std::vector<vertex_t>{1, 2});
  EXPECT_DOUBLE_EQ(f::density(sparse, 8), 0.25);
}

TEST(FrontierConversions, SeedQueueTransfersAll) {
  f::sparse_frontier<vertex_t> sparse(std::vector<vertex_t>{4, 8, 15});
  f::async_queue_frontier<vertex_t> q;
  f::seed_queue(sparse, q);
  EXPECT_EQ(q.size(), 3u);
}

// --- async queue -----------------------------------------------------------------

TEST(AsyncQueueFrontier, PopProcessFinishTerminates) {
  f::async_queue_frontier<vertex_t> fr;
  fr.add_vertex(1);
  fr.add_vertex(2);
  std::set<vertex_t> seen;
  vertex_t v;
  while (fr.pop_vertex(v)) {
    seen.insert(v);
    fr.finish_vertex();
  }
  EXPECT_EQ(seen, (std::set<vertex_t>{1, 2}));
  EXPECT_TRUE(fr.is_quiescent());
}

TEST(AsyncQueueFrontier, DynamicWorkKeepsConsumersAlive) {
  f::async_queue_frontier<vertex_t> fr;
  fr.add_vertex(0);
  std::atomic<int> processed{0};
  auto consumer = [&] {
    vertex_t x;
    while (fr.pop_vertex(x)) {
      if (x < 200)
        fr.add_vertex(x + 1);
      fr.finish_vertex();
      processed.fetch_add(1);
    }
  };
  std::thread t1(consumer), t2(consumer);
  t1.join();
  t2.join();
  EXPECT_EQ(processed.load(), 201);
}

TEST(AsyncQueueFrontier, CloseEndsEarly) {
  f::async_queue_frontier<vertex_t> fr;
  fr.add_vertex(1);
  fr.close();
  vertex_t v;
  EXPECT_FALSE(fr.pop_vertex(v));
}

// --- reuse / shutdown-drain audit (PR 8) -----------------------------------
// Separate suite name: these join the CI TSAN matrix.

TEST(AsyncQueueFrontierReuse, ClearReopensAClosedQueue) {
  f::async_queue_frontier<vertex_t> fr;
  fr.add_vertex(1);
  fr.close();
  vertex_t v;
  EXPECT_FALSE(fr.pop_vertex(v));  // closed: stale item unreachable

  fr.clear();  // reopen + discard: the queue is a fresh frontier again
  for (vertex_t i = 0; i < 5; ++i)
    fr.add_vertex(i);
  std::set<vertex_t> seen;
  while (fr.pop_vertex(v)) {
    seen.insert(v);
    fr.finish_vertex();
  }
  EXPECT_EQ(seen, (std::set<vertex_t>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(fr.is_quiescent());
}

TEST(AsyncQueueFrontierReuse, ClearDiscardsStaleWorkExactly) {
  f::async_queue_frontier<vertex_t> fr;
  for (vertex_t i = 100; i < 110; ++i)
    fr.add_vertex(i);  // a run that never consumed its work
  fr.clear();
  fr.add_vertex(7);
  fr.add_vertex(8);
  // Drain must yield exactly the post-clear items: no stale vertex, and no
  // phantom pending count wedging the quiescence detector.
  std::set<vertex_t> seen;
  vertex_t v;
  while (fr.pop_vertex(v)) {
    seen.insert(v);
    fr.finish_vertex();
  }
  EXPECT_EQ(seen, (std::set<vertex_t>{7, 8}));
  EXPECT_TRUE(fr.is_quiescent());
}

TEST(AsyncQueueFrontierReuse, ReuseAfterDrainedRunYieldsOnlyNewWork) {
  f::async_queue_frontier<vertex_t> fr;
  fr.add_vertex(1);
  vertex_t v;
  while (fr.pop_vertex(v))
    fr.finish_vertex();  // run 1 completes by quiescence, not close
  fr.clear();            // no-op semantically, must still be safe
  fr.add_vertex(42);
  ASSERT_TRUE(fr.pop_vertex(v));
  EXPECT_EQ(v, 42);
  fr.finish_vertex();
  EXPECT_TRUE(fr.is_quiescent());
}

TEST(AsyncQueueFrontierReuse, ProducerStormAcrossCloseClearCycles) {
  // The audited contract: clear() requires the previous run's *consumers*
  // to have finished popping, but producers may keep racing — a late
  // add_vertex lands in the old or the new run, never wedges the queue.
  // This is the TSAN regression for the shutdown-drain path.
  f::async_queue_frontier<vertex_t> fr;
  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  for (int t = 0; t < 3; ++t)
    producers.emplace_back([&] {
      vertex_t i = 0;
      while (!stop.load(std::memory_order_acquire))
        fr.add_vertex(i++);
    });

  constexpr int cycles = 25;
  std::atomic<std::size_t> consumed{0};
  for (int cycle = 0; cycle < cycles; ++cycle) {
    fr.clear();  // consumers of the previous cycle joined below
    // A reopened queue that is empty with nothing in flight is quiescent,
    // and pop reports quiescence as the end of the run.  So the cycle's
    // consumers start only once a producer has pushed into it, and close()
    // waits until they have taken work.
    while (fr.empty())
      std::this_thread::yield();
    std::size_t const before = consumed.load();
    auto consumer = [&] {
      vertex_t v;
      while (fr.pop_vertex(v)) {
        consumed.fetch_add(1, std::memory_order_relaxed);
        fr.finish_vertex();
      }
    };
    std::thread c1(consumer), c2(consumer);
    while (consumed.load() == before)
      std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    fr.close();
    c1.join();
    c2.join();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : producers)
    t.join();
  EXPECT_GE(consumed.load(), static_cast<std::size_t>(cycles));
}

// --- concepts --------------------------------------------------------------------

TEST(FrontierConcepts, AllRepresentationsSatisfyTheInterface) {
  static_assert(f::frontier_like<f::sparse_frontier<vertex_t>>);
  static_assert(f::frontier_like<f::dense_frontier<vertex_t>>);
  static_assert(f::frontier_like<f::async_queue_frontier<vertex_t>>);
  static_assert(f::indexable_frontier<f::sparse_frontier<vertex_t>>);
  static_assert(!f::indexable_frontier<f::dense_frontier<vertex_t>>);
  static_assert(f::queryable_frontier<f::dense_frontier<vertex_t>>);
  static_assert(f::queryable_frontier<f::sparse_frontier<vertex_t>>);
  SUCCEED();
}

// --- distributed ------------------------------------------------------------------

TEST(DistributedFrontier, RoutesVerticesToOwners) {
  constexpr int P = 3;
  mp::communicator::run(P, [](mp::communicator& comm, int rank) {
    f::distributed_frontier<vertex_t> fr(
        comm, rank, [](vertex_t v) { return static_cast<int>(v % P); });
    // Every rank activates vertices 0..8; each owner must end up with its
    // residue class (with P copies each, one per activating rank).
    for (vertex_t v = 0; v < 9; ++v)
      fr.add_vertex(v);
    auto const global = fr.exchange(0);
    EXPECT_EQ(global, 27u);  // 9 activations from each of 3 ranks
    for (vertex_t const v : fr.local())
      EXPECT_EQ(static_cast<int>(v % P), rank);
    EXPECT_EQ(fr.size(), 9u);  // 3 owned vertices x 3 activating ranks
  });
}

TEST(DistributedFrontier, EmptyExchangeReportsZero) {
  mp::communicator::run(2, [](mp::communicator& comm, int rank) {
    f::distributed_frontier<vertex_t> fr(comm, rank,
                                         [](vertex_t v) { return v % 2; });
    EXPECT_EQ(fr.exchange(0), 0u);
    EXPECT_TRUE(fr.empty());
  });
}

TEST(DistributedFrontier, MultipleSuperstepsWithDistinctTags) {
  mp::communicator::run(2, [](mp::communicator& comm, int rank) {
    f::distributed_frontier<vertex_t> fr(comm, rank,
                                         [](vertex_t v) { return v % 2; });
    for (int step = 0; step < 5; ++step) {
      if (rank == 0)
        fr.add_vertex(static_cast<vertex_t>(2 * step + 1));  // owned by rank 1
      auto const global = fr.exchange(step);
      EXPECT_EQ(global, 1u) << "step " << step;
      if (rank == 1) {
        ASSERT_EQ(fr.size(), 1u);
        EXPECT_EQ(fr.local()[0], static_cast<vertex_t>(2 * step + 1));
      }
    }
  });
}
