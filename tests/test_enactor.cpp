// Tests for the loop structure, convergence conditions (including the
// composable combinators), and the telemetry trace the BSP driver emits.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/enactor.hpp"
#include "core/frontier/frontier.hpp"
#include "core/telemetry.hpp"

namespace en = essentials::enactor;
namespace fr = essentials::frontier;
namespace tel = essentials::telemetry;
using essentials::vertex_t;

TEST(BspLoop, RunsUntilFrontierEmpty) {
  // Step halves the frontier each superstep: 8 -> 4 -> 2 -> 1 -> 0.
  fr::sparse_frontier<vertex_t> f(std::vector<vertex_t>(8, 0));
  auto const stats = en::bsp_loop(
      std::move(f),
      [](fr::sparse_frontier<vertex_t> in, std::size_t) {
        return fr::sparse_frontier<vertex_t>(
            std::vector<vertex_t>(in.size() / 2, 0));
      },
      en::frontier_empty{});
  EXPECT_EQ(stats.iterations, 4u);
  EXPECT_EQ(stats.total_processed, 8u + 4 + 2 + 1);
}

TEST(BspLoop, ConvergedInitialFrontierRunsZeroSteps) {
  fr::sparse_frontier<vertex_t> f;
  bool stepped = false;
  auto const stats = en::bsp_loop(
      std::move(f),
      [&stepped](fr::sparse_frontier<vertex_t> in, std::size_t) {
        stepped = true;
        return in;
      });
  EXPECT_FALSE(stepped);
  EXPECT_EQ(stats.iterations, 0u);
}

TEST(BspLoop, MaxIterationsCapsRunawayLoop) {
  fr::sparse_frontier<vertex_t> f(std::vector<vertex_t>{0});
  auto const stats = en::bsp_loop(
      std::move(f),
      [](fr::sparse_frontier<vertex_t> in, std::size_t) { return in; },
      en::max_iterations{7});
  EXPECT_EQ(stats.iterations, 7u);
}

TEST(BspLoop, EitherComposesConditions) {
  // Frontier never empties; the iteration cap must fire.
  fr::sparse_frontier<vertex_t> f(std::vector<vertex_t>{0});
  auto const stats = en::bsp_loop(
      std::move(f),
      [](fr::sparse_frontier<vertex_t> in, std::size_t) { return in; },
      en::either{en::frontier_empty{}, en::max_iterations{3}});
  EXPECT_EQ(stats.iterations, 3u);
}

TEST(BspLoop, ValueBelowStopsOnMeasurement) {
  double residual = 100.0;
  fr::sparse_frontier<vertex_t> f(std::vector<vertex_t>{0});
  auto const stats = en::bsp_loop(
      std::move(f),
      [&residual](fr::sparse_frontier<vertex_t> in, std::size_t) {
        residual /= 10.0;  // 10, 1, 0.1, 0.01 ...
        return in;
      },
      en::value_below{[&residual]() { return residual; }, 0.5});
  EXPECT_EQ(stats.iterations, 3u);  // stops once residual == 0.1 < 0.5
}

TEST(BspLoop, IterationIndexIsPassedToStep) {
  fr::sparse_frontier<vertex_t> f(std::vector<vertex_t>{0});
  std::vector<std::size_t> seen;
  en::bsp_loop(
      std::move(f),
      [&seen](fr::sparse_frontier<vertex_t> in, std::size_t iteration) {
        seen.push_back(iteration);
        return iteration == 2 ? fr::sparse_frontier<vertex_t>{} : in;
      });
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(BspLoop, FrontierEmptyStopsWhenFrontierDrains) {
  fr::sparse_frontier<vertex_t> f(std::vector<vertex_t>(4, 0));
  auto const stats = en::bsp_loop(
      std::move(f),
      [](fr::sparse_frontier<vertex_t> in, std::size_t) {
        return fr::sparse_frontier<vertex_t>(
            std::vector<vertex_t>(in.size() / 2, 0));
      },
      en::frontier_empty{});
  EXPECT_EQ(stats.iterations, 3u);  // 4 -> 2 -> 1 -> 0
}

TEST(BspLoop, AnyOfComposesThreeConditions) {
  // Frontier never empties and the metric never drops: only the iteration
  // cap can fire, regardless of the other conditions in the bundle.
  fr::sparse_frontier<vertex_t> f(std::vector<vertex_t>{0});
  auto const stats = en::bsp_loop(
      std::move(f),
      [](fr::sparse_frontier<vertex_t> in, std::size_t) { return in; },
      en::any_of{en::frontier_empty{},
                 en::value_below{[]() { return 1.0; }, 0.5},
                 en::max_iterations{5}});
  EXPECT_EQ(stats.iterations, 5u);
}

TEST(BspLoop, AnyOfFirstHitWins) {
  // The value condition converges before the cap.
  double residual = 100.0;
  fr::sparse_frontier<vertex_t> f(std::vector<vertex_t>{0});
  auto const stats = en::bsp_loop(
      std::move(f),
      [&residual](fr::sparse_frontier<vertex_t> in, std::size_t) {
        residual /= 10.0;
        return in;
      },
      en::any_of{en::max_iterations{50},
                 en::value_below{[&residual]() { return residual; }, 0.5}});
  EXPECT_EQ(stats.iterations, 3u);
}

TEST(BspLoop, StatsTrackEmittedAndWallTime) {
  fr::sparse_frontier<vertex_t> f(std::vector<vertex_t>(8, 0));
  auto const stats = en::bsp_loop(
      std::move(f),
      [](fr::sparse_frontier<vertex_t> in, std::size_t) {
        return fr::sparse_frontier<vertex_t>(
            std::vector<vertex_t>(in.size() / 2, 0));
      },
      en::frontier_empty{});
  EXPECT_EQ(stats.total_processed, 8u + 4 + 2 + 1);
  EXPECT_EQ(stats.total_emitted, 4u + 2 + 1 + 0);
  EXPECT_GE(stats.millis, 0.0);
}

// --- telemetry trace invariants --------------------------------------------

TEST(BspLoopTelemetry, OneSuperstepRecordPerIteration) {
  if (!tel::compiled_in)
    GTEST_SKIP() << "telemetry compiled out";
  tel::trace t;
  fr::sparse_frontier<vertex_t> f(std::vector<vertex_t>(8, 0));
  en::enact_stats stats;
  {
    tel::scoped_recording rec(t, "halving");
    stats = en::bsp_loop(
        std::move(f),
        [](fr::sparse_frontier<vertex_t> in, std::size_t) {
          return fr::sparse_frontier<vertex_t>(
              std::vector<vertex_t>(in.size() / 2, 0));
        },
        en::frontier_empty{});
  }
  EXPECT_EQ(t.algorithm, "halving");
  ASSERT_EQ(t.num_supersteps(), stats.iterations);
  // The frontier size sequence is captured exactly: in 8,4,2,1 / out 4,2,1,0,
  // and each step's output is the next step's input.
  std::size_t expect_in = 8;
  for (std::size_t i = 0; i < t.supersteps.size(); ++i) {
    auto const& s = t.supersteps[i];
    EXPECT_EQ(s.index, i);
    EXPECT_EQ(s.frontier_in, expect_in);
    EXPECT_EQ(s.frontier_out, expect_in / 2);
    EXPECT_GE(s.millis, 0.0);
    expect_in /= 2;
  }
}

TEST(BspLoopTelemetry, NoScopeRecordsNothing) {
  // Without a scoped_recording the loop must leave no trace anywhere; this
  // is the run-time null-sink path every un-instrumented caller takes.
  fr::sparse_frontier<vertex_t> f(std::vector<vertex_t>(4, 0));
  auto const stats = en::bsp_loop(
      std::move(f),
      [](fr::sparse_frontier<vertex_t> in, std::size_t) {
        return fr::sparse_frontier<vertex_t>(
            std::vector<vertex_t>(in.size() / 2, 0));
      },
      en::frontier_empty{});
  EXPECT_EQ(stats.iterations, 3u);
  EXPECT_EQ(tel::current(), nullptr);
}

TEST(BspLoopTelemetry, NestedScopesRestoreOuterRecorder) {
  if (!tel::compiled_in)
    GTEST_SKIP() << "telemetry compiled out";
  tel::trace outer, inner;
  auto const run = []() {
    fr::sparse_frontier<vertex_t> f(std::vector<vertex_t>{0});
    en::bsp_loop(
        std::move(f),
        [](fr::sparse_frontier<vertex_t>, std::size_t) {
          return fr::sparse_frontier<vertex_t>{};
        },
        en::frontier_empty{});
  };
  {
    tel::scoped_recording a(outer, "outer");
    run();
    {
      tel::scoped_recording b(inner, "inner");
      run();
    }
    run();  // records into the restored outer scope
  }
  EXPECT_EQ(outer.num_supersteps(), 2u);
  EXPECT_EQ(inner.num_supersteps(), 1u);
}

TEST(AsyncLoopTelemetry, RecordsOneAsyncOpRecord) {
  if (!tel::compiled_in)
    GTEST_SKIP() << "telemetry compiled out";
  tel::trace t;
  {
    tel::scoped_recording rec(t, "async");
    fr::async_queue_frontier<vertex_t> f;
    for (vertex_t v = 0; v < 10; ++v)
      f.add_vertex(v);
    en::async_loop(f, 2, [](vertex_t) {});
  }
  ASSERT_EQ(t.num_supersteps(), 1u);
  ASSERT_EQ(t.supersteps[0].ops.size(), 1u);
  auto const& op = t.supersteps[0].ops[0];
  EXPECT_EQ(op.name, "async_loop");
  EXPECT_TRUE(op.async);
  EXPECT_EQ(op.items_in, 10u);
  EXPECT_EQ(op.items_out, 10u);
  EXPECT_EQ(op.pool_lanes, 2u);
}

TEST(AsyncLoop, ProcessesDynamicallyGeneratedWork) {
  fr::async_queue_frontier<vertex_t> f;
  f.add_vertex(0);
  std::atomic<int> max_seen{0};
  auto const processed = en::async_loop(f, 4, [&](vertex_t v) {
    int old = max_seen.load();
    while (v > old && !max_seen.compare_exchange_weak(old, v)) {
    }
    if (v < 100)
      f.add_vertex(v + 1);
  });
  EXPECT_EQ(processed, 101u);
  EXPECT_EQ(max_seen.load(), 100);
}

TEST(AsyncLoop, SingleWorkerDrainsSequentially) {
  fr::async_queue_frontier<vertex_t> f;
  for (vertex_t v = 0; v < 10; ++v)
    f.add_vertex(v);
  std::atomic<int> count{0};
  auto const processed =
      en::async_loop(f, 1, [&count](vertex_t) { count.fetch_add(1); });
  EXPECT_EQ(processed, 10u);
  EXPECT_EQ(count.load(), 10);
}

TEST(AsyncLoop, EmptyFrontierReturnsImmediately) {
  fr::async_queue_frontier<vertex_t> f;
  auto const processed = en::async_loop(f, 2, [](vertex_t) {});
  EXPECT_EQ(processed, 0u);
}

TEST(AsyncLoop, RejectsZeroWorkers) {
  fr::async_queue_frontier<vertex_t> f;
  EXPECT_THROW(en::async_loop(f, 0, [](vertex_t) {}),
               essentials::graph_error);
}

// --- cancellation / deadline conditions (engine satellite) ------------------

TEST(BspLoopConditions, CancelTokenStopsLoopAtSuperstepBoundary) {
  en::cancel_token token;
  // Step keeps the frontier the same size forever; only cancellation (or
  // the iteration cap) can stop it.  Cancel after the third superstep.
  fr::sparse_frontier<vertex_t> f(std::vector<vertex_t>(4, 0));
  std::size_t steps = 0;
  auto const stats = en::bsp_loop(
      std::move(f),
      [&](fr::sparse_frontier<vertex_t> in, std::size_t) {
        if (++steps == 3)
          token.request_cancel();
        return in;
      },
      en::any_of{en::frontier_empty{}, en::cancelled{token}});
  EXPECT_EQ(stats.iterations, 3u);
  EXPECT_TRUE(token.cancelled());
}

TEST(BspLoopConditions, CancelTokenCopiesShareTheFlag) {
  en::cancel_token a;
  en::cancel_token b = a;  // copy shares the flag
  EXPECT_FALSE(b.cancelled());
  a.request_cancel();
  EXPECT_TRUE(b.cancelled());
  b.reset();
  EXPECT_FALSE(a.cancelled());
}

TEST(BspLoopConditions, TimeBudgetExpiresAndStopsLoop) {
  using namespace std::chrono_literals;
  en::time_budget budget(5ms);
  EXPECT_FALSE(en::time_budget::unlimited().expired());
  fr::sparse_frontier<vertex_t> f(std::vector<vertex_t>(2, 0));
  auto const stats = en::bsp_loop(
      std::move(f),
      [](fr::sparse_frontier<vertex_t> in, std::size_t) {
        std::this_thread::sleep_for(2ms);
        return in;  // never converges on its own
      },
      en::any_of{en::frontier_empty{}, budget});
  // Cooperative stop: at most one superstep of overshoot past the budget.
  EXPECT_GE(stats.iterations, 1u);
  EXPECT_LE(stats.iterations, 16u);
  EXPECT_TRUE(budget.expired());
}

TEST(BspLoopConditions, TimeBudgetUntilHonoursAbsoluteDeadline) {
  auto const deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1);
  auto const budget = en::time_budget::until(deadline);
  EXPECT_EQ(budget.deadline(), deadline);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(budget.expired());
}

TEST(BspLoopConditions, CancelledOrDeadlineReportsWhichFired) {
  using namespace std::chrono_literals;
  en::cancel_token token;
  en::cancelled_or_deadline both{token, en::time_budget::unlimited()};
  EXPECT_EQ(both.why(), en::cancelled_or_deadline::reason::none);
  token.request_cancel();
  EXPECT_EQ(both.why(), en::cancelled_or_deadline::reason::cancelled);

  en::cancelled_or_deadline expired{en::cancel_token{}, en::time_budget(0ms)};
  std::this_thread::sleep_for(1ms);
  EXPECT_EQ(expired.why(), en::cancelled_or_deadline::reason::deadline);

  // Deadline wins ties: both fired => classified as deadline.
  en::cancel_token t2;
  t2.request_cancel();
  en::cancelled_or_deadline tie{t2, en::time_budget(0ms)};
  std::this_thread::sleep_for(1ms);
  EXPECT_EQ(tie.why(), en::cancelled_or_deadline::reason::deadline);
  fr::sparse_frontier<vertex_t> f(std::vector<vertex_t>(1, 0));
  EXPECT_TRUE(tie(f, 0));
}

TEST(AsyncLoop, StoppableVariantClosesQueueOnCancel) {
  en::cancel_token token;
  fr::async_queue_frontier<vertex_t> f;
  f.add_vertex(0);
  std::atomic<int> seen{0};
  // Self-sustaining workload: every item spawns a successor, so only the
  // stop predicate can end the loop.  Cancel after 50 items.
  auto const processed = en::async_loop(
      f, 4,
      [&](vertex_t v) {
        if (seen.fetch_add(1) + 1 == 50)
          token.request_cancel();
        f.add_vertex(v + 1);
      },
      [&token] { return token.cancelled(); });
  EXPECT_GE(processed, 50u);   // everything before the cancel was processed
  EXPECT_LE(processed, 54u);   // ...plus at most one in-flight item per lane
}

TEST(AsyncLoop, StoppableVariantRunsToQuiescenceWhenNeverStopped) {
  fr::async_queue_frontier<vertex_t> f;
  for (vertex_t v = 0; v < 25; ++v)
    f.add_vertex(v);
  std::atomic<int> count{0};
  auto const processed = en::async_loop(
      f, 3, [&count](vertex_t) { count.fetch_add(1); },
      [] { return false; });
  EXPECT_EQ(processed, 25u);
  EXPECT_EQ(count.load(), 25);
}

// Beamer's switch: alpha compares edge work, beta vertex counts; a pull
// ends below |V| / beta vertices or once the alpha test fails again.
TEST(DirectionSwitch, AlphaComparesEdgesBetaComparesVertices) {
  en::direction_switch const rule;  // alpha 15, beta 18
  std::size_t const n = 1800, pull_edges = 15000;
  // Pushing: pull once the frontier's out-edges exceed 15000 / 15 = 1000,
  // however few vertices carry them.
  EXPECT_FALSE(rule.pull(false, 4, 1000, pull_edges, n));
  EXPECT_TRUE(rule.pull(false, 4, 1001, pull_edges, n));
  // Pulling: stay while the frontier holds at least 1800 / 18 = 100
  // vertices and its out-edges still pass the alpha test.
  EXPECT_TRUE(rule.pull(true, 100, 1001, pull_edges, n));
  EXPECT_FALSE(rule.pull(true, 99, 5000, pull_edges, n));
  EXPECT_FALSE(rule.pull(true, 900, 1000, pull_edges, n));
}
