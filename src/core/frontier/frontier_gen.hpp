#pragma once

/// \file core/frontier/frontier_gen.hpp
/// \brief Lock-free sparse-frontier generation: lane buffers + prefix-sum
/// compaction, plus the claim-bitmap dedup filter — the machinery behind
/// `execution::frontier_gen::scan` and `parallel_policy::dedup`.
///
/// The paper's Listing 3 publishes every discovered neighbor under a mutex.
/// Gunrock (the paper's GPU artifact) and Ligra both replace that with a
/// two-phase scheme, which this header implements for the thread pool:
///
///   1. **Produce.**  `run_blocked` partitions the index space into chunks
///      whose boundaries are multiples of one `step` (the documented
///      thread-pool chunking contract).  Chunk `lo / step` emits into its
///      own cache-line-padded lane of a `parallel::lane_buffers` scratch —
///      no locks, no atomics, no false sharing.
///   2. **Compact.**  An exclusive prefix sum over the (few) lane sizes —
///      reusing `parallel::exclusive_scan`'s blocked scan — assigns every
///      lane a disjoint slice of the output vector, which is resized once
///      and copied into in parallel.  Still no synchronization: slices are
///      disjoint by construction.
///
/// Extras threaded through:
///  - the scratch is `thread_local` to the *coordinating* thread and reused
///    across supersteps, so steady-state generation allocates nothing
///    (the telemetry `scratch_reused` flag reports warm starts);
///  - an optional `atomic_bitset` dedup filter suppresses duplicate ids at
///    emission time (`test_and_set` claim), turning the output into a set —
///    on high-degree graphs this stops BFS/SSSP frontiers from growing
///    super-linearly;
///  - output order is deterministic for fixed (n, grain, pool size):
///    chunk-major, input-order within a chunk.  Lock-published paths give
///    no such guarantee.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/execution.hpp"
#include "core/frontier/sparse_frontier.hpp"
#include "parallel/atomic_bitset.hpp"
#include "parallel/for_each.hpp"
#include "parallel/lane_buffers.hpp"
#include "parallel/scan.hpp"
#include "parallel/thread_pool.hpp"

namespace essentials::frontier {

/// Counters a generation round reports back for telemetry threading.
struct generate_stats {
  std::size_t emitted = 0;      ///< elements written to the output frontier
  std::size_t dedup_hits = 0;   ///< emissions suppressed by the dedup filter
  bool scratch_reused = false;  ///< lane scratch arrived with warm capacity
};

namespace detail {

/// Mirror of thread_pool::run_blocked's deterministic chunking: the step
/// such that passing it back in as `grain` yields chunk boundaries exactly
/// at multiples of it (contract documented in parallel/thread_pool.hpp).
inline std::size_t chunk_step(parallel::thread_pool& pool, std::size_t n,
                              std::size_t grain) {
  return pool.bulk_step(n, grain);
}

/// Per-(coordinating thread, element type) lane scratch, reused across
/// supersteps.  Only the coordinating thread resizes the lane array;
/// workers touch exclusively their own lane between acquire() and the
/// superstep barrier, so the structure needs no locks.
template <typename T>
parallel::lane_buffers<T>& lane_scratch() {
  thread_local parallel::lane_buffers<T> scratch;
  return scratch;
}

/// One claim bitmap per coordinating thread, shared by both dedup_scratch
/// overloads so alternating call styles reuse one allocation.
inline parallel::atomic_bitset& dedup_bitmap() {
  thread_local parallel::atomic_bitset bitmap;
  return bitmap;
}

}  // namespace detail

/// Thread-local claim-bitmap scratch for dedup filtering: resized (and
/// cleared) to `universe` bits on each call, reusing the allocation when
/// the universe shrinks or stays put.
inline parallel::atomic_bitset& dedup_scratch(std::size_t universe) {
  auto& bitmap = detail::dedup_bitmap();
  bitmap.resize_and_clear(universe);
  return bitmap;
}

/// Pool-aware variant: the clear runs page-parallel on `pool` (when NUMA
/// placement is on and the bitmap is big enough), so the claim bitmap's
/// pages are first-touched by the workers whose emit closures will claim
/// bits — not by whichever thread coordinates the superstep.  Identical
/// bits either way.
inline parallel::atomic_bitset& dedup_scratch(parallel::thread_pool& pool,
                                              std::size_t universe) {
  auto& bitmap = detail::dedup_bitmap();
  bitmap.resize_and_clear(pool, universe);
  return bitmap;
}

/// Generate `out`'s active set with the two-phase scan-compaction path.
///
/// `body(lo, hi, emit)` is invoked once per chunk of [0, n) on a pool lane;
/// it must funnel every discovered element through `emit(value)` (an
/// emit-closure writing the chunk's private lane buffer).  When `dedup` is
/// non-null, elements whose bit is already claimed are suppressed (the
/// element type must index the bitmap).
///
/// `out`'s previous contents are replaced.  No locks or atomics are taken
/// anywhere on the output path; the only atomics are the optional dedup
/// bitmap's claims.
template <typename T, typename ChunkBody>
generate_stats generate_scan(parallel::thread_pool& pool, std::size_t n,
                             std::size_t grain,
                             sparse_frontier<T>& out, ChunkBody&& body,
                             parallel::atomic_bitset* dedup = nullptr) {
  generate_stats stats;
  auto& vec = out.active();
  vec.clear();
  if (n == 0)
    return stats;

  std::size_t const step = detail::chunk_step(pool, n, grain);
  std::size_t const chunks = (n + step - 1) / step;

  auto& scratch = detail::lane_scratch<T>();
  stats.scratch_reused = scratch.acquire(chunks);

  // Phase 1: produce into private lanes.  grain == step pins run_blocked's
  // chunk boundaries to multiples of step (thread-pool chunking contract),
  // so `lo / step` is a collision-free lane index.
  pool.run_blocked(
      n,
      [&](std::size_t lo, std::size_t hi) {
        auto& lane = scratch[lo / step];
        if (dedup != nullptr) {
          auto emit = [&lane, dedup](T v) {
            if (dedup->test_and_set(static_cast<std::size_t>(v)))
              lane.buf.push_back(v);
            else
              ++lane.suppressed;
          };
          body(lo, hi, emit);
        } else {
          auto emit = [&lane](T v) { lane.buf.push_back(v); };
          body(lo, hi, emit);
        }
      },
      step);

  // Phase 2: exclusive-scan lane sizes -> disjoint output slices, then copy
  // in parallel.  The scan reuses the blocked exclusive_scan (overkill for
  // ≤ 4·lanes entries, but it keeps one scan implementation in the tree).
  std::vector<std::size_t> counts(chunks), offsets(chunks);
  scratch.sizes(chunks, counts.data());
  std::size_t const total =
      parallel::exclusive_scan(pool, counts.data(), chunks, offsets.data());

  vec.resize(total);
  T* const dst = vec.data();
  pool.run_blocked(
      chunks,
      [&](std::size_t clo, std::size_t chi) {
        for (std::size_t c = clo; c < chi; ++c) {
          auto const& buf = scratch[c].buf;
          if (!buf.empty())
            std::copy(buf.begin(), buf.end(), dst + offsets[c]);
        }
      },
      /*grain=*/1);

  stats.emitted = total;
  stats.dedup_hits = scratch.total_suppressed();
  return stats;
}

/// Ablation baseline "listing3": the paper's exact formulation — every
/// discovered element is appended through the frontier's public
/// `add_vertex`, whose internal spinlock serializes *per element*.
/// Appends to `out` (does not clear it).
template <typename T, typename ChunkBody>
generate_stats generate_listing3(parallel::thread_pool& pool, std::size_t n,
                                 std::size_t grain, sparse_frontier<T>& out,
                                 ChunkBody&& body,
                                 parallel::atomic_bitset* dedup = nullptr) {
  generate_stats stats;
  if (n == 0)
    return stats;
  std::atomic<std::size_t> emitted{0}, suppressed{0};
  pool.run_blocked(
      n,
      [&](std::size_t lo, std::size_t hi) {
        std::size_t count = 0, hits = 0;
        if (dedup != nullptr) {
          auto emit = [&out, &count, &hits, dedup](T v) {
            if (dedup->test_and_set(static_cast<std::size_t>(v))) {
              out.add_vertex(v);  // per-element lock inside the frontier
              ++count;
            } else {
              ++hits;
            }
          };
          body(lo, hi, emit);
        } else {
          auto emit = [&out, &count](T v) {
            out.add_vertex(v);  // per-element lock inside the frontier
            ++count;
          };
          body(lo, hi, emit);
        }
        emitted.fetch_add(count, std::memory_order_relaxed);
        if (hits)
          suppressed.fetch_add(hits, std::memory_order_relaxed);
      },
      grain);
  stats.emitted = emitted.load(std::memory_order_relaxed);
  stats.dedup_hits = suppressed.load(std::memory_order_relaxed);
  return stats;
}

/// Strategy dispatcher: run `body` over [0, n) and publish emissions into
/// `out` according to `mode`.  `out` is cleared first, so both
/// strategies produce the frontier from scratch (identical contents up to
/// order; `scan`'s order is additionally deterministic).
template <typename T, typename ChunkBody>
generate_stats generate(execution::frontier_gen mode,
                        parallel::thread_pool& pool, std::size_t n,
                        std::size_t grain, sparse_frontier<T>& out,
                        ChunkBody&& body,
                        parallel::atomic_bitset* dedup = nullptr) {
  if (mode == execution::frontier_gen::listing3) {
    out.clear();
    return generate_listing3(pool, n, grain, out,
                             std::forward<ChunkBody>(body), dedup);
  }
  return generate_scan(pool, n, grain, out, std::forward<ChunkBody>(body),
                       dedup);
}

/// True when `stats.emitted` elements were published lock-free under
/// `mode` (telemetry helper: scan emissions are lock-free, listing3
/// emissions serialize on a lock).
inline constexpr bool lock_free_emits(execution::frontier_gen mode) {
  return mode == execution::frontier_gen::scan;
}

}  // namespace essentials::frontier
