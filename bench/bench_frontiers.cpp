// bench_frontiers — experiment A2 (paper §III-B): the same frontier
// interface over different underlying representations, swept over active
// set sizes.
//
// Measured: (a) build + iterate cost of sparse (vector) vs dense (bitmap)
// vs async-queue frontiers at |F| from 2^6 to 2^20 over a 2^20 universe;
// (b) one shared-memory advance step vs one message-passing exchange of
// the same active set.
//
// Expected shape: sparse wins while |F| << universe (cost ∝ |F|); the
// bitmap's O(universe/64) scan makes it competitive only once the frontier
// is a sizable fraction of the universe — and its O(1) membership is what
// pull traversal buys with it.  The queue pays per-element synchronization,
// and message passing pays per-superstep message assembly on top.
//
// The frontier-generation contention sweep (BM_FrontierGeneration/*)
// additionally quantifies publication cost: Listing 3's per-element
// locking vs the lock-free scan compaction every `par` operator uses, at
// 1..8 threads.
#include <benchmark/benchmark.h>

#include <memory>

#include "core/frontier/frontier.hpp"
#include "essentials.hpp"

namespace e = essentials;
namespace fr = e::frontier;

namespace {

constexpr std::size_t kUniverse = 1u << 20;

std::vector<e::vertex_t> make_active(std::size_t count) {
  // Spread evenly over the universe so bitmap word occupancy is realistic.
  std::vector<e::vertex_t> v;
  v.reserve(count);
  std::size_t const stride = kUniverse / count;
  for (std::size_t i = 0; i < count; ++i)
    v.push_back(static_cast<e::vertex_t>(i * stride));
  return v;
}

void BM_SparseFrontierBuildIterate(benchmark::State& state) {
  auto const active = make_active(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    fr::sparse_frontier<e::vertex_t> f;
    f.reserve(active.size());
    for (auto const v : active)
      f.add_vertex(v);
    long long sum = 0;
    f.for_each_active([&sum](e::vertex_t v) { sum += v; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(active.size()));
}

void BM_DenseFrontierBuildIterate(benchmark::State& state) {
  auto const active = make_active(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    fr::dense_frontier<e::vertex_t> f(kUniverse);
    for (auto const v : active)
      f.add_vertex(v);
    long long sum = 0;
    f.for_each_active([&sum](e::vertex_t v) { sum += v; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(active.size()));
}

void BM_QueueFrontierProduceConsume(benchmark::State& state) {
  auto const active = make_active(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    fr::async_queue_frontier<e::vertex_t> f;
    for (auto const v : active)
      f.add_vertex(v);
    long long sum = 0;
    e::vertex_t v;
    while (f.pop_vertex(v)) {
      sum += v;
      f.finish_vertex();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(active.size()));
}

void BM_DenseMembershipQueries(benchmark::State& state) {
  // The query pull traversals hammer — dense O(1) vs sparse O(|F|).
  auto const active = make_active(static_cast<std::size_t>(state.range(0)));
  fr::dense_frontier<e::vertex_t> f(kUniverse);
  for (auto const v : active)
    f.add_vertex(v);
  for (auto _ : state) {
    long long hits = 0;
    for (e::vertex_t q = 0; q < 4096; ++q)
      hits += f.contains(q * 128);
    benchmark::DoNotOptimize(hits);
  }
}

void BM_SharedMemoryFrontierHandoff(benchmark::State& state) {
  // Shared memory: the "communication" between supersteps is a pointer
  // swap of the frontier storage.
  auto const active = make_active(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    fr::sparse_frontier<e::vertex_t> current(active), next;
    swap(current, next);
    benchmark::DoNotOptimize(next.size());
  }
}

void BM_MessagePassingFrontierExchange(benchmark::State& state) {
  // Message passing: the same active set crosses a superstep boundary as
  // mailbox messages between 4 ranks (one exchange per iteration).
  auto const active = make_active(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    e::mpsim::communicator::run(4, [&active](e::mpsim::communicator& comm,
                                             int rank) {
      fr::distributed_frontier<e::vertex_t> f(
          comm, rank, [](e::vertex_t v) { return static_cast<int>(v % 4); });
      // Rank r contributes its quarter of the active set.
      for (std::size_t i = static_cast<std::size_t>(rank);
           i < active.size(); i += 4)
        f.add_vertex(active[i]);
      benchmark::DoNotOptimize(f.exchange(0));
    });
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(active.size()));
}

// --- frontier-generation contention sweep -----------------------------------
//
// Experiment for the communication pillar's scan-compaction claim: publish
// 2^20 elements into a sparse frontier under the two generation
// strategies, at 1..8 worker threads.  The workload is emission-bound (the
// producer body does no other work), so this isolates publication cost:
//  - listing3 (per-element spinlock) should *degrade* as threads are added
//    (the lock serializes and coherence traffic grows);
//  - scan (lane buffers + prefix-sum compaction) should scale with threads,
//    since the output path takes no locks or atomics at all.
// Throughput is items/sec — read the cross-strategy ratio at each thread
// count.

e::parallel::thread_pool& pool_with(std::size_t threads) {
  // Pool of `threads` lanes total: the coordinating thread plus
  // (threads - 1) workers, cached across benchmark iterations.
  static std::vector<std::unique_ptr<e::parallel::thread_pool>> pools(9);
  auto& slot = pools.at(threads);
  if (!slot)
    slot = std::make_unique<e::parallel::thread_pool>(threads - 1);
  return *slot;
}

void BM_FrontierGenerationListing3(benchmark::State& state) {
  // Listing 3's publication: every element is appended through the
  // frontier's locked `add_vertex`.
  std::size_t const n = 1u << 20;
  std::size_t const threads = static_cast<std::size_t>(state.range(0));
  auto& pool = pool_with(threads);
  fr::sparse_frontier<e::vertex_t> out;
  for (auto _ : state) {
    out.clear();
    pool.run_blocked(
        n,
        [&out](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i)
            out.add_vertex(static_cast<e::vertex_t>(i));
        },
        e::execution::default_grain);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(n));
}

void BM_FrontierGenerationScan(benchmark::State& state) {
  std::size_t const n = 1u << 20;
  std::size_t const threads = static_cast<std::size_t>(state.range(0));
  auto& pool = pool_with(threads);
  fr::sparse_frontier<e::vertex_t> out;
  for (auto _ : state) {
    fr::generate_scan(
        pool, n, e::execution::default_grain, out,
        [](std::size_t lo, std::size_t hi, auto&& emit) {
          for (std::size_t i = lo; i < hi; ++i)
            emit(static_cast<e::vertex_t>(i));
        });
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(n));
}

void BM_FrontierGenerationScanDedup(benchmark::State& state) {
  // Scan on a 50%-duplicate stream whose body claims each id on a bitmap,
  // as uniquify does: measures what the claim costs on top of lock-free
  // publication.
  std::size_t const n = 1u << 20;
  std::size_t const threads = static_cast<std::size_t>(state.range(0));
  auto& pool = pool_with(threads);
  fr::sparse_frontier<e::vertex_t> out;
  for (auto _ : state) {
    auto& claimed = fr::dedup_scratch(pool, n);
    fr::generate_scan(
        pool, n, e::execution::default_grain, out,
        [n, &claimed](std::size_t lo, std::size_t hi, auto&& emit) {
          for (std::size_t i = lo; i < hi; ++i) {
            auto const v = static_cast<e::vertex_t>(i % (n / 2));
            if (claimed.test_and_set(static_cast<std::size_t>(v)))
              emit(v);
          }
        });
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(n));
}

BENCHMARK(BM_FrontierGenerationListing3)
    ->Name("BM_FrontierGeneration/listing3")
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(BM_FrontierGenerationScan)
    ->Name("BM_FrontierGeneration/scan")
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(BM_FrontierGenerationScanDedup)->Arg(1)->Arg(4)->Arg(8);

BENCHMARK(BM_SparseFrontierBuildIterate)->RangeMultiplier(16)->Range(64, 1 << 20);
BENCHMARK(BM_DenseFrontierBuildIterate)->RangeMultiplier(16)->Range(64, 1 << 20);
BENCHMARK(BM_QueueFrontierProduceConsume)->RangeMultiplier(16)->Range(64, 1 << 16);
BENCHMARK(BM_DenseMembershipQueries)->Arg(1 << 12)->Arg(1 << 18);
BENCHMARK(BM_SharedMemoryFrontierHandoff)->Arg(1 << 12)->Arg(1 << 16);
BENCHMARK(BM_MessagePassingFrontierExchange)->Arg(1 << 12)->Arg(1 << 16);

}  // namespace

BENCHMARK_MAIN();
