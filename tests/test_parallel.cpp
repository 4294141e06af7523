// Unit tests for the threading substrate: thread pool, bulk primitives,
// atomics, bitset, spinlock and the MPMC work queue.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "parallel/atomic_bitset.hpp"
#include "parallel/atomics.hpp"
#include "parallel/for_each.hpp"
#include "parallel/lane_buffers.hpp"
#include "parallel/mpmc_queue.hpp"
#include "parallel/spinlock.hpp"
#include "parallel/thread_pool.hpp"

namespace p = essentials::parallel;
namespace atomic = essentials::atomic;

// --- thread_pool -----------------------------------------------------------

TEST(ThreadPool, RunsSubmittedTasks) {
  p::thread_pool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, RunBlockedCoversEveryIndexExactlyOnce) {
  p::thread_pool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.run_blocked(1000, [&hits](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      hits[i].fetch_add(1);
  });
  for (auto const& h : hits)
    EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RunBlockedEmptyRangeIsNoop) {
  p::thread_pool pool(2);
  bool ran = false;
  pool.run_blocked(0, [&ran](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, RunBlockedSingleElement) {
  p::thread_pool pool(2);
  int value = 0;
  pool.run_blocked(1, [&value](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 1u);
    value = 42;
  });
  EXPECT_EQ(value, 42);
}

TEST(ThreadPool, ZeroThreadsNormalizedToOne) {
  p::thread_pool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> ran{0};
  pool.run_blocked(10, [&ran](std::size_t lo, std::size_t hi) {
    ran.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPool, WaitIdleReturnsImmediatelyWhenIdle) {
  p::thread_pool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, NestedRunBlockedFromWorkerDoesNotDeadlock) {
  p::thread_pool pool(2);
  std::atomic<int> inner{0};
  pool.run_blocked(4, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      inner.fetch_add(1);
  });
  EXPECT_EQ(inner.load(), 4);
}

TEST(ThreadPool, BulkStepHonorsGrainAndLaneCap) {
  p::thread_pool pool(3);  // 4 lanes -> at most 16 chunks
  // Small n with large grain: one chunk.
  EXPECT_EQ(pool.bulk_step(10, 256), 10u);
  // Large n, grain 1: capped at 4 * (size() + 1) chunks.
  std::size_t const step = pool.bulk_step(1000, 1);
  EXPECT_EQ(step, (1000 + 16 - 1) / 16);
  // Grain is a floor on chunk size.
  EXPECT_GE(pool.bulk_step(1000, 100), 100u);
  // Degenerate inputs are normalized, never zero.
  EXPECT_EQ(pool.bulk_step(0, 0), 1u);
  EXPECT_GE(pool.bulk_step(5, 0), 1u);
}

TEST(ThreadPool, DefaultPoolHasAtLeastFourLanes) {
  EXPECT_GE(p::default_lanes(), 4u);
}

// --- parallel_for / reduce / scan -------------------------------------------

TEST(ParallelFor, MatchesSerialSum) {
  p::thread_pool pool(4);
  std::vector<int> data(10'000);
  p::parallel_for(pool, 0, data.size(),
                  [&data](std::size_t i) { data[i] = static_cast<int>(i); });
  long long sum = std::accumulate(data.begin(), data.end(), 0LL);
  EXPECT_EQ(sum, 10'000LL * 9'999 / 2);
}

TEST(ParallelFor, RespectsBeginOffset) {
  p::thread_pool pool(2);
  std::vector<int> data(100, 0);
  p::parallel_for(pool, 50, 100, [&data](std::size_t i) { data[i] = 1; });
  for (std::size_t i = 0; i < 50; ++i)
    EXPECT_EQ(data[i], 0) << i;
  for (std::size_t i = 50; i < 100; ++i)
    EXPECT_EQ(data[i], 1) << i;
}

TEST(ParallelForNowait, CompletesAfterWaitIdle) {
  p::thread_pool pool(4);
  std::vector<std::atomic<int>> hits(512);
  p::parallel_for_nowait(pool, std::size_t{0}, hits.size(),
                         [&hits](std::size_t i) { hits[i].fetch_add(1); });
  pool.wait_idle();
  for (auto const& h : hits)
    EXPECT_EQ(h.load(), 1);
}

TEST(ParallelReduce, SumMatchesSerial) {
  p::thread_pool pool(4);
  auto const total = p::parallel_reduce(
      pool, std::size_t{0}, std::size_t{100'000}, 0LL,
      [](std::size_t i) { return static_cast<long long>(i); },
      [](long long a, long long b) { return a + b; });
  EXPECT_EQ(total, 100'000LL * 99'999 / 2);
}

TEST(ParallelReduce, MaxMatchesSerial) {
  p::thread_pool pool(3);
  std::vector<int> data(5000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<int>((i * 2654435761u) % 100000);
  auto const expected = *std::max_element(data.begin(), data.end());
  auto const got = p::parallel_reduce(
      pool, std::size_t{0}, data.size(), 0,
      [&data](std::size_t i) { return data[i]; },
      [](int a, int b) { return a > b ? a : b; });
  EXPECT_EQ(got, expected);
}

TEST(ParallelReduce, EmptyRangeReturnsIdentity) {
  p::thread_pool pool(2);
  auto const total = p::parallel_reduce(
      pool, std::size_t{5}, std::size_t{5}, 123,
      [](std::size_t) { return 1; }, [](int a, int b) { return a + b; });
  EXPECT_EQ(total, 123);
}

// --- atomics ----------------------------------------------------------------

TEST(Atomics, MinReturnsPreviousValue) {
  float value = 10.0f;
  EXPECT_FLOAT_EQ(atomic::min(&value, 5.0f), 10.0f);
  EXPECT_FLOAT_EQ(value, 5.0f);
  // A losing min returns the (smaller) current value.
  EXPECT_FLOAT_EQ(atomic::min(&value, 7.0f), 5.0f);
  EXPECT_FLOAT_EQ(value, 5.0f);
}

TEST(Atomics, MaxReturnsPreviousValue) {
  int value = 3;
  EXPECT_EQ(atomic::max(&value, 9), 3);
  EXPECT_EQ(value, 9);
  EXPECT_EQ(atomic::max(&value, 4), 9);
  EXPECT_EQ(value, 9);
}

TEST(Atomics, ConcurrentMinConvergesToGlobalMinimum) {
  float value = 1e9f;
  p::thread_pool pool(4);
  pool.run_blocked(1000, [&value](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      atomic::min(&value, static_cast<float>(i));
  });
  EXPECT_FLOAT_EQ(value, 0.0f);
}

TEST(Atomics, AddIntegralAndFloating) {
  int i = 0;
  EXPECT_EQ(atomic::add(&i, 5), 0);
  EXPECT_EQ(i, 5);
  double d = 1.5;
  EXPECT_DOUBLE_EQ(atomic::add(&d, 2.5), 1.5);
  EXPECT_DOUBLE_EQ(d, 4.0);
}

TEST(Atomics, ConcurrentAddSumsExactly) {
  long long total = 0;
  p::thread_pool pool(4);
  pool.run_blocked(10'000, [&total](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      atomic::add(&total, 1LL);
  });
  EXPECT_EQ(total, 10'000);
}

TEST(Atomics, CasReturnsObservedValue) {
  int v = 7;
  EXPECT_EQ(atomic::cas(&v, 7, 9), 7);  // success: returns expected
  EXPECT_EQ(v, 9);
  EXPECT_EQ(atomic::cas(&v, 7, 11), 9);  // failure: returns current
  EXPECT_EQ(v, 9);
}

TEST(Atomics, ExchangeSwapsAndReturnsOld) {
  int v = 1;
  EXPECT_EQ(atomic::exchange(&v, 2), 1);
  EXPECT_EQ(v, 2);
}

// --- atomic_bitset ----------------------------------------------------------

TEST(AtomicBitset, SetTestResetCount) {
  p::atomic_bitset bits(130);
  EXPECT_EQ(bits.count(), 0u);
  bits.set(0);
  bits.set(64);
  bits.set(129);
  EXPECT_TRUE(bits.test(0));
  EXPECT_TRUE(bits.test(64));
  EXPECT_TRUE(bits.test(129));
  EXPECT_FALSE(bits.test(1));
  EXPECT_EQ(bits.count(), 3u);
  bits.reset(64);
  EXPECT_FALSE(bits.test(64));
  EXPECT_EQ(bits.count(), 2u);
}

TEST(AtomicBitset, TestAndSetClaimsOnce) {
  p::atomic_bitset bits(64);
  EXPECT_TRUE(bits.test_and_set(13));
  EXPECT_FALSE(bits.test_and_set(13));
}

TEST(AtomicBitset, ConcurrentClaimsAreExclusive) {
  p::atomic_bitset bits(1);
  p::thread_pool pool(4);
  std::atomic<int> winners{0};
  pool.run_blocked(1000, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      if (bits.test_and_set(0))
        winners.fetch_add(1);
  });
  EXPECT_EQ(winners.load(), 1);
}

TEST(AtomicBitset, ForEachSetVisitsInOrder) {
  p::atomic_bitset bits(200);
  std::vector<std::size_t> expected{3, 63, 64, 127, 128, 199};
  for (auto const i : expected)
    bits.set(i);
  std::vector<std::size_t> got;
  bits.for_each_set([&got](std::size_t i) { got.push_back(i); });
  EXPECT_EQ(got, expected);
}

TEST(AtomicBitset, ResizeClears) {
  p::atomic_bitset bits(10);
  bits.set(5);
  bits.resize_and_clear(20);
  EXPECT_EQ(bits.size(), 20u);
  EXPECT_EQ(bits.count(), 0u);
}

TEST(AtomicBitset, OutOfRangeThrows) {
  p::atomic_bitset bits(10);
  EXPECT_THROW(bits.set(10), essentials::graph_error);
  EXPECT_THROW((void)bits.test(100), essentials::graph_error);
}

// --- spinlock ----------------------------------------------------------------

TEST(Spinlock, MutualExclusionUnderContention) {
  p::spinlock lock;
  long long counter = 0;
  p::thread_pool pool(4);
  pool.run_blocked(20'000, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      std::lock_guard<p::spinlock> guard(lock);
      ++counter;  // non-atomic increment protected by the lock
    }
  });
  EXPECT_EQ(counter, 20'000);
}

TEST(Spinlock, TryLockFailsWhenHeld) {
  p::spinlock lock;
  lock.lock();
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

// --- mpmc_queue ---------------------------------------------------------------

TEST(MpmcQueue, FifoSingleThread) {
  p::mpmc_queue<int> q;
  q.push(1);
  q.push(2);
  q.push(3);
  int v = 0;
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 1);
  q.done_processing();
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 2);
  q.done_processing();
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 3);
  q.done_processing();
  // Queue now quiescent: next pop reports termination.
  EXPECT_FALSE(q.pop(v));
}

TEST(MpmcQueue, TryPopOnEmptyReturnsNullopt) {
  p::mpmc_queue<int> q;
  EXPECT_FALSE(q.try_pop().has_value());
  q.push(9);
  auto const got = q.try_pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 9);
}

TEST(MpmcQueue, TerminationAfterDynamicWork) {
  // Each consumed item < 1000 pushes one more; the pending-work counter
  // must keep consumers alive until the chain dies out.
  p::mpmc_queue<int> q;
  q.push(0);
  std::atomic<int> processed{0};
  auto const consumer = [&] {
    int v;
    while (q.pop(v)) {
      if (v < 999)
        q.push(v + 1);
      q.done_processing();
      processed.fetch_add(1);
    }
  };
  std::thread a(consumer), b(consumer), c(consumer);
  a.join();
  b.join();
  c.join();
  EXPECT_EQ(processed.load(), 1000);
  EXPECT_TRUE(q.is_quiescent());
}

TEST(MpmcQueue, CloseWakesBlockedConsumers) {
  p::mpmc_queue<int> q;
  q.push(1);  // keeps pending > 0 so consumers block instead of terminating
  int v = 0;
  ASSERT_TRUE(q.pop(v));
  std::thread blocked([&q] {
    int x;
    EXPECT_FALSE(q.pop(x));  // woken by close(), not by work
  });
  q.close();
  blocked.join();
  q.done_processing();
}

TEST(MpmcQueue, PushBatch) {
  p::mpmc_queue<int> q;
  std::vector<int> items{1, 2, 3, 4, 5};
  q.push_batch(items.begin(), items.end());
  EXPECT_EQ(q.size(), 5u);
  std::set<int> got;
  int v;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.pop(v));
    got.insert(v);
    q.done_processing();
  }
  EXPECT_EQ(got, std::set<int>({1, 2, 3, 4, 5}));
}

TEST(MpmcQueue, PushAfterCloseIsDroppedAndReported) {
  p::mpmc_queue<int> q;
  q.push(1);
  q.close();
  // A closed queue accepts nothing: push reports the drop, batches report
  // zero accepted, and no pop may ever return a post-close item.
  EXPECT_FALSE(q.push(2));
  std::vector<int> items{3, 4, 5};
  EXPECT_EQ(q.push_batch(items.begin(), items.end()), 0u);
  int v = 0;
  EXPECT_FALSE(q.pop(v));  // closed: even pre-close items are discarded
  EXPECT_FALSE(q.try_pop().has_value());
  EXPECT_TRUE(q.is_closed());
}

TEST(MpmcQueue, CloseReleasesDiscardedSlotsForQuiescence) {
  // Regression: close() used to clear the deque without decrementing the
  // pending-work counter, so a queue closed with unpopped items never
  // became quiescent again.
  p::mpmc_queue<int> q;
  q.push(1);
  q.push(2);
  q.push(3);
  q.close();
  EXPECT_TRUE(q.is_quiescent());
}

TEST(MpmcQueue, DrainReturnsUnpoppedItemsLosslessly) {
  p::mpmc_queue<int> q;
  for (int i = 0; i < 5; ++i)
    q.push(i);
  int v = 0;
  ASSERT_TRUE(q.pop(v));
  q.done_processing();
  auto const rest = q.drain();
  EXPECT_EQ(rest.size(), 4u);  // every item popped exactly once or drained
  EXPECT_TRUE(q.is_closed());
  EXPECT_TRUE(q.is_quiescent());
  EXPECT_FALSE(q.pop(v));
}

TEST(MpmcQueue, ConcurrentCloseVsProducersNeverLosesAccountedItem) {
  // TSAN regression for the shutdown path: producers race close(); every
  // item is either rejected at push (return false) or popped/drained —
  // accounted exactly once, and the queue ends quiescent.
  p::mpmc_queue<int> q;
  std::atomic<int> accepted{0};
  std::atomic<int> consumed{0};
  auto const producer = [&] {
    for (int i = 0; i < 2000; ++i)
      if (q.push(i))
        accepted.fetch_add(1);
  };
  auto const consumer = [&] {
    int v;
    while (q.pop(v)) {
      consumed.fetch_add(1);
      q.done_processing();
    }
  };
  std::thread p0(producer), p1(producer);
  std::thread c0(consumer), c1(consumer);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  auto const leftover = q.drain();
  p0.join();
  p1.join();
  c0.join();
  c1.join();
  EXPECT_EQ(consumed.load() + static_cast<int>(leftover.size()),
            accepted.load());
  EXPECT_TRUE(q.is_quiescent());
}

// --- lane_buffers -----------------------------------------------------------

TEST(LaneBuffers, LanesAreCacheLinePadded) {
  static_assert(alignof(p::lane_buffers<int>::lane_t) >= p::cache_line_size);
  static_assert(sizeof(p::lane_buffers<int>::lane_t) % p::cache_line_size ==
                0);
  SUCCEED();
}

TEST(LaneBuffers, AcquireClearsCountsButKeepsCapacity) {
  p::lane_buffers<int> lanes;
  EXPECT_FALSE(lanes.acquire(4));  // first round: cold
  for (int i = 0; i < 100; ++i)
    lanes[1].buf.push_back(i);
  EXPECT_EQ(lanes.total(), 100u);
  auto const cap = lanes[1].buf.capacity();

  EXPECT_TRUE(lanes.acquire(4));  // warm: same lane count
  EXPECT_EQ(lanes.total(), 0u);
  EXPECT_GE(lanes[1].buf.capacity(), cap);  // capacity survived
  EXPECT_EQ(lanes.rounds(), 2u);
}

TEST(LaneBuffers, AcquireGrowsAndReportsColdStart) {
  p::lane_buffers<int> lanes;
  EXPECT_FALSE(lanes.acquire(2));
  EXPECT_EQ(lanes.num_lanes(), 2u);
  EXPECT_FALSE(lanes.acquire(8));  // growth: not (fully) reused
  EXPECT_EQ(lanes.num_lanes(), 8u);
  EXPECT_TRUE(lanes.acquire(3));  // shrink requests reuse the larger array
  EXPECT_EQ(lanes.num_lanes(), 8u);
}

TEST(LaneBuffers, SizesFeedsTheCompactionScan) {
  p::lane_buffers<int> lanes;
  lanes.acquire(3);
  lanes[0].buf = {1, 2};
  lanes[2].buf = {3, 4, 5};
  std::size_t sizes[3];
  lanes.sizes(3, sizes);
  EXPECT_EQ(sizes[0], 2u);
  EXPECT_EQ(sizes[1], 0u);
  EXPECT_EQ(sizes[2], 3u);
  EXPECT_EQ(lanes.total(), 5u);
}

TEST(LaneBuffers, ReleaseDropsEverything) {
  p::lane_buffers<int> lanes;
  lanes.acquire(4);
  lanes[0].buf = {1, 2, 3};
  lanes.release();
  EXPECT_EQ(lanes.num_lanes(), 0u);
  EXPECT_FALSE(lanes.acquire(2));  // next round after release is cold again
}

TEST(LaneBuffers, ConcurrentLanesDoNotInterfere) {
  p::lane_buffers<int> lanes;
  p::thread_pool pool(4);
  std::size_t const n = 10000;
  std::size_t const k = 8;
  std::size_t const step = (n + k - 1) / k;
  lanes.acquire(k);
  pool.run_blocked(
      n,
      [&](std::size_t lo, std::size_t hi) {
        auto& lane = lanes[lo / step];
        for (std::size_t i = lo; i < hi; ++i)
          lane.buf.push_back(static_cast<int>(i));
      },
      step);
  EXPECT_EQ(lanes.total(), n);
  // Chunk-major, input-order within a chunk: concatenation is 0..n-1.
  std::vector<int> all;
  for (std::size_t c = 0; c * step < n; ++c)
    all.insert(all.end(), lanes[c].buf.begin(), lanes[c].buf.end());
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(all[i], static_cast<int>(i));
}
