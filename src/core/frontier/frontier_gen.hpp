#pragma once

/// \file core/frontier/frontier_gen.hpp
/// \brief Lock-free sparse-frontier generation: lane buffers + prefix-sum
/// compaction — how every parallel operator publishes a sparse output.
///
/// The paper's Listing 3 publishes every discovered neighbor under a mutex
/// (`operators::neighbors_expand_listing3` keeps that formulation as the
/// baseline).  Gunrock (the paper's GPU artifact) and Ligra both replace it
/// with a two-phase scheme, which this header implements for the thread
/// pool:
///
///   1. **Produce.**  `run_blocked` partitions the index space into chunks
///      whose boundaries are multiples of one `step` (the documented
///      thread-pool chunking contract).  Chunk `lo / step` emits into its
///      own cache-line-padded lane of a `parallel::lane_buffers` scratch —
///      no locks, no atomics, no false sharing.
///   2. **Compact.**  A serial exclusive prefix sum over the (at most
///      4·lanes) lane sizes assigns every lane a disjoint slice of the
///      output vector, which is resized once and copied into in parallel.
///      Still no synchronization: slices are disjoint by construction.
///
/// The scratch is `thread_local` to the *coordinating* thread and reused
/// across supersteps, so steady-state generation allocates nothing (the
/// telemetry `scratch_reused` flag reports warm starts).  Output order is
/// deterministic for fixed (n, grain, pool size): chunk-major, input order
/// within a chunk.  The generator publishes every emission; an operator
/// that wants a set claims ids in its own body (`operators::uniquify`
/// claims on `dedup_scratch`).

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/frontier/sparse_frontier.hpp"
#include "parallel/atomic_bitset.hpp"
#include "parallel/lane_buffers.hpp"
#include "parallel/thread_pool.hpp"

namespace essentials::frontier {

/// Counters a generation round reports back for telemetry threading.
struct generate_stats {
  std::size_t emitted = 0;      ///< elements written to the output frontier
  bool scratch_reused = false;  ///< lane scratch arrived with warm capacity
};

namespace detail {

/// Per-(coordinating thread, element type) lane scratch, reused across
/// supersteps.  Only the coordinating thread resizes the lane array;
/// workers touch exclusively their own lane between acquire() and the
/// superstep barrier, so the structure needs no locks.
template <typename T>
parallel::lane_buffers<T>& lane_scratch() {
  thread_local parallel::lane_buffers<T> scratch;
  return scratch;
}

}  // namespace detail

/// Thread-local claim bitmap, resized and cleared to `universe` bits on
/// each call (reusing the allocation when the universe shrinks or stays
/// put).  The clear runs page-parallel on `pool` (when NUMA placement is
/// on and the bitmap is big enough), so its pages are first-touched by the
/// workers whose chunks will claim bits — not by whichever thread
/// coordinates the superstep.
inline parallel::atomic_bitset& dedup_scratch(parallel::thread_pool& pool,
                                              std::size_t universe) {
  thread_local parallel::atomic_bitset bitmap;
  bitmap.resize_and_clear(pool, universe);
  return bitmap;
}

/// Generate `out`'s active set with the two-phase scan-compaction path.
///
/// `body(lo, hi, emit)` is invoked once per chunk of [0, n) on a pool lane;
/// it must funnel every discovered element through `emit(value)`, which
/// appends to the chunk's private lane buffer.  `out`'s previous contents
/// are replaced.  No locks or atomics are taken anywhere on the output
/// path.
template <typename T, typename ChunkBody>
generate_stats generate_scan(parallel::thread_pool& pool, std::size_t n,
                             std::size_t grain, sparse_frontier<T>& out,
                             ChunkBody&& body) {
  generate_stats stats;
  auto& vec = out.active();
  vec.clear();
  if (n == 0)
    return stats;

  std::size_t const step = pool.bulk_step(n, grain);
  std::size_t const chunks = (n + step - 1) / step;

  auto& scratch = detail::lane_scratch<T>();
  stats.scratch_reused = scratch.acquire(chunks);

  // Phase 1: produce into private lanes.  grain == step pins run_blocked's
  // chunk boundaries to multiples of step (thread-pool chunking contract),
  // so `lo / step` is a collision-free lane index.
  pool.run_blocked(
      n,
      [&](std::size_t lo, std::size_t hi) {
        auto& buf = scratch[lo / step].buf;
        body(lo, hi, [&buf](T v) { buf.push_back(v); });
      },
      step);

  // Phase 2: exclusive-scan lane sizes -> disjoint output slices, then copy
  // in parallel.  There are at most 4·lanes sizes, too few for a fork-join
  // to pay, so the scan is serial.
  std::vector<std::size_t> offsets(chunks);
  scratch.sizes(chunks, offsets.data());
  std::size_t total = 0;
  for (auto& offset : offsets) {
    std::size_t const count = offset;
    offset = total;
    total += count;
  }

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
  return stats;
}

}  // namespace essentials::frontier
