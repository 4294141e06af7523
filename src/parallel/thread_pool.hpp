#pragma once

/// \file parallel/thread_pool.hpp
/// \brief A persistent worker pool: the execution substrate behind the
/// framework's `par` and `par_nosync` execution policies.
///
/// Design notes (following the C++ Core Guidelines concurrency rules):
///  - CP.41 "minimize thread creation and destruction": workers are created
///    once and reused for every operator invocation.
///  - CP.4  "think in terms of tasks": the public API is task submission and
///    bulk index-space execution, never raw threads.
///  - CP.42 "don't wait without a condition": all waits are predicated
///    condition-variable waits or futex parks.
///
/// The pool offers two completion models, which is exactly the distinction
/// the paper draws between bulk-synchronous and asynchronous timing:
///  - `run_blocked(n, fn)` partitions [0, n) into chunks, executes them on
///    the workers and *blocks the caller* until every chunk finished — a BSP
///    superstep with an implicit global barrier.
///  - `submit(fn)` enqueues fire-and-forget work; the caller may continue
///    and later call `wait_idle()` (or never), which is the `par_nosync`
///    behaviour of Listing 3's alternative overload.
///
/// ## Scheduling
///
/// Every worker owns a Chase–Lev deque (parallel/work_deque.hpp).
/// `run_blocked` pushes its chunks onto the *caller's* lane: workers push
/// their own deque; external threads (engine runners, the main thread)
/// claim an external lane slot, held until the thread exits.  Idle workers
/// steal in topology order — same-core SMT siblings, then the same socket,
/// then remote sockets, then external lanes — randomized within each tier
/// (parallel/topology.hpp; with `ESSENTIALS_NUMA` off every worker sits in
/// one tier).  Completion uses the striped `completion_latch`
/// (parallel/barrier.hpp), and the caller drains its own deque while the
/// latch is open, so a pool under load never strands a superstep.
/// External fire-and-forget `submit`s go through a small FIFO injector.
///
/// The partition itself is the *deterministic chunking contract* exposed as
/// `bulk_step()`: for fixed (n, grain, size()) it is identical whichever
/// thread runs each chunk — the property the scan-compaction frontier path
/// (core/frontier/frontier_gen.hpp) builds its lane indexing and its
/// bit-identical differential tests on.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "parallel/topology.hpp"

namespace essentials::parallel {

class thread_pool {
 public:
  /// Creates `num_threads` persistent workers.  `num_threads == 0` is
  /// normalized to 1 (a pool that still runs everything, just serially on
  /// one worker) so callers never divide by zero when chunking.
  explicit thread_pool(std::size_t num_threads);

  ~thread_pool();

  thread_pool(thread_pool const&) = delete;
  thread_pool& operator=(thread_pool const&) = delete;

  /// Number of worker threads.
  std::size_t size() const noexcept { return num_workers_; }

  /// Enqueue a fire-and-forget task (asynchronous model).  The task may run
  /// on any worker at any later time; use wait_idle() for a full barrier.
  /// A pool worker pushes onto its own deque (stolen by idle peers); any
  /// other thread goes through the FIFO injector.
  void submit(std::function<void()> task);

  /// Execute `fn(chunk_begin, chunk_end)` over a partition of [0, n) and
  /// block until all chunks completed (bulk-synchronous model).  The calling
  /// thread participates in the work, so a pool of size P uses P+1 lanes and
  /// `run_blocked` from a worker thread cannot deadlock the pool.
  ///
  /// `grain` is the target minimum chunk size: the chunk count never
  /// exceeds ceil(n / grain), nor 4 * (size() + 1) to bound scheduling
  /// overhead.
  ///
  /// Chunking guarantee (relied upon by the frontier scan-compaction path,
  /// core/frontier/frontier_gen.hpp): for fixed (n, grain) the partition is
  /// deterministic, every chunk's `begin` is a multiple of
  /// `bulk_step(n, grain)`, and callers that pass that step back in as
  /// `grain` observe chunk boundaries exactly at multiples of it.
  void run_blocked(std::size_t n,
                   std::function<void(std::size_t, std::size_t)> const& fn,
                   std::size_t grain = 1);

  /// The chunking contract, reified: the step `run_blocked(n, ..., grain)`
  /// partitions with — ceil(n / min(4*(size()+1), ceil(n/grain))).  The
  /// single source of truth for every caller that mirrors the partition
  /// (for_each.hpp, frontier_gen.hpp).  Independent of which thread runs
  /// which chunk, which is what keeps scan-compacted frontier output
  /// bit-identical from run to run.
  std::size_t bulk_step(std::size_t n, std::size_t grain = 1) const noexcept {
    if (n == 0)
      return 1;
    grain = grain == 0 ? 1 : grain;
    std::size_t const lanes = num_workers_ + 1;
    std::size_t const chunks =
        std::min<std::size_t>(4 * lanes, (n + grain - 1) / grain);
    return (n + chunks - 1) / chunks;
  }

  /// Block until the task queue is empty and every worker is idle — the
  /// explicit barrier an asynchronous phase may (or may not) choose to end
  /// with.  Covers stolen tasks: a task popped from any deque releases its
  /// pending slot only after its body returned *and* its captured state was
  /// destroyed, so "every deque empty" alone is never treated as idle.
  void wait_idle();

  // --- lane identity -------------------------------------------------------

  /// Sentinel for "the calling thread holds no lane in this pool".
  static constexpr std::size_t no_lane = static_cast<std::size_t>(-1);

  /// The calling thread's stable lane index in this pool: workers are lanes
  /// [0, size()); threads that ran `run_blocked` or called
  /// `register_external_lane` hold an external lane in [size(),
  /// max_lanes()).  Returns `no_lane` for unregistered threads.  Stable for
  /// the thread × pool lifetime — usable as an index into per-lane scratch
  /// (parallel/lane_buffers.hpp) without any shared counter.
  std::size_t lane_id() const;

  /// Upper bound (inclusive of unclaimed external slots) on lane indices
  /// `lane_id()` can return — the size for lane-indexed scratch arrays.
  std::size_t max_lanes() const noexcept { return lanes_.size(); }

  /// Claim (or re-fetch) a stable external lane for the calling thread —
  /// the lane `run_blocked` pushes its chunks to, stealable by workers.
  /// Long-lived coordinator threads (engine runners) call this once at
  /// startup so their first superstep already runs deque-distributed.  The
  /// slot returns to the pool when the thread exits.  Returns the lane
  /// index, or `no_lane` when every external slot is held by a live thread
  /// (run_blocked then falls back to the injector — correct, just
  /// centralized).
  std::size_t register_external_lane();

  /// Instantaneous occupancy snapshot — the observability feed for the
  /// telemetry layer (core/telemetry.hpp).  All fields are approximate
  /// (relaxed reads): use for traces and dashboards, never synchronization.
  struct occupancy {
    std::size_t threads = 0;  ///< worker count (excludes the calling thread)
    std::size_t queued = 0;   ///< tasks submitted and not yet finished
    std::size_t busy = 0;     ///< workers currently executing a task
  };
  occupancy stats() const noexcept {
    return {num_workers_, pending_.load(std::memory_order_relaxed),
            busy_.load(std::memory_order_relaxed)};
  }

 private:
  struct lane;  // Chase–Lev deque; defined in thread_pool.cpp

  void worker_loop(std::size_t id, int cpu);
  std::optional<std::function<void()>> find_task(std::size_t self);
  std::optional<std::function<void()>> pop_injector();
  void execute(std::function<void()>&& task);
  void finish_one();
  void notify_sleepers(bool all);
  bool visible_work() const;

  std::uint64_t const pool_id_;  ///< process-unique; keys thread-local lanes
  std::size_t const num_workers_;

  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<lane>> lanes_;  // [0, P): workers; rest: external

  // One claim flag per external lane slot.  Shared with the thread-local
  // registry of each claiming thread, which clears its flag when the thread
  // exits — safely even after this pool is gone.
  std::shared_ptr<std::atomic<bool>[]> external_claims_;

  // Per-worker tiered victim lists derived from the topology packing.
  // Built once in the constructor before any worker starts; read-only
  // afterwards.
  std::vector<steal_tiers> tiers_;

  // FIFO injector for external submissions.  The atomic size mirror lets
  // workers probe without the lock; its seq_cst ordering is one half of the
  // sleep handshake (the other half is the deque's seq_cst bottom
  // publication) — see worker_loop.
  std::deque<std::function<void()>> queue_;
  std::atomic<std::size_t> queue_size_{0};

  mutable std::mutex mutex_;
  std::condition_variable has_work_;
  std::condition_variable all_idle_;
  std::atomic<std::size_t> sleepers_{0};   // parked workers
  std::uint64_t wake_counter_ = 0;         // guarded by mutex_
  std::atomic<std::size_t> pending_{0};    // queued + running tasks
  std::atomic<std::size_t> busy_{0};       // lanes inside task()
  bool stopping_ = false;
};

/// The process-wide default pool used by execution policies that do not
/// carry an explicit pool reference.  Sized from the environment variable
/// `ESSENTIALS_NUM_THREADS` when set, otherwise from
/// `std::thread::hardware_concurrency()`, with a floor of 4 so that
/// parallel code paths (atomics, races, chunking) are genuinely exercised
/// even on single-core CI machines.
thread_pool& default_pool();

/// Number of lanes `run_blocked` on the default pool will use (workers plus
/// the calling thread).  Handy for sizing per-thread scratch buffers.
inline std::size_t default_lanes() {
  return default_pool().size() + 1;
}

}  // namespace essentials::parallel
