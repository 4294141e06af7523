#pragma once

/// \file parallel/for_each.hpp
/// \brief Bulk index-space primitives (for-each, reduce) on the persistent
/// thread pool.
///
/// These are the raw building blocks the core operators compile down to.
/// `parallel_for` is a BSP superstep (implicit barrier on return);
/// `parallel_for_nowait` is its fire-and-forget sibling used by the
/// `par_nosync` execution policy.

#include <cstddef>
#include <functional>
#include <mutex>
#include <numeric>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace essentials::parallel {

/// Invoke `fn(i)` for every i in [begin, end) using the given pool, blocking
/// until done.  `grain` bounds scheduling overhead for cheap bodies.
template <typename F>
void parallel_for(thread_pool& pool, std::size_t begin, std::size_t end,
                  F&& fn, std::size_t grain = 256) {
  if (end <= begin)
    return;
  std::size_t const n = end - begin;
  pool.run_blocked(
      n,
      [&fn, begin](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
          fn(begin + i);
      },
      grain);
}

/// parallel_for on the default pool.
template <typename F>
void parallel_for(std::size_t begin, std::size_t end, F&& fn,
                  std::size_t grain = 256) {
  parallel_for(default_pool(), begin, end, std::forward<F>(fn), grain);
}

/// Fire-and-forget bulk launch: chunks of [begin, end) are submitted to the
/// pool and the call returns immediately.  The caller is responsible for any
/// eventual synchronization (pool.wait_idle()), or for designing the
/// algorithm so that none is needed — the asynchronous timing model.
///
/// `fn` is copied into each task (CP.31: pass small state by value); capture
/// pointers/references to shared algorithm state explicitly.
template <typename F>
void parallel_for_nowait(thread_pool& pool, std::size_t begin,
                         std::size_t end, F fn, std::size_t grain = 256) {
  if (end <= begin)
    return;
  std::size_t const n = end - begin;
  std::size_t const step = pool.bulk_step(n, grain);
  for (std::size_t lo = 0; lo < n; lo += step) {
    std::size_t const hi = std::min(n, lo + step);
    pool.submit([fn, begin, lo, hi] {
      for (std::size_t i = lo; i < hi; ++i)
        fn(begin + i);
    });
  }
}

/// Blocking reduction: each chunk folds locally with `fn`, chunk results are
/// merged into the total under a lock (one lock per chunk, not per element —
/// CP.43: the critical section is a single `combine`).  `identity` must be
/// the identity element of `combine`, and `combine` must be commutative and
/// associative since chunks complete in arbitrary order.
template <typename T, typename MapF, typename CombineF>
T parallel_reduce(thread_pool& pool, std::size_t begin, std::size_t end,
                  T identity, MapF&& fn, CombineF&& combine,
                  std::size_t grain = 256) {
  if (end <= begin)
    return identity;
  std::size_t const n = end - begin;
  T total = identity;
  std::mutex total_mutex;
  pool.run_blocked(
      n,
      [&](std::size_t lo, std::size_t hi) {
        T acc = identity;
        for (std::size_t i = lo; i < hi; ++i)
          acc = combine(acc, fn(begin + i));
        std::lock_guard<std::mutex> guard(total_mutex);
        total = combine(total, acc);
      },
      grain);
  return total;
}

/// parallel_reduce on the default pool.
template <typename T, typename MapF, typename CombineF>
T parallel_reduce(std::size_t begin, std::size_t end, T identity, MapF&& fn,
                  CombineF&& combine, std::size_t grain = 256) {
  return parallel_reduce(default_pool(), begin, end, identity,
                         std::forward<MapF>(fn),
                         std::forward<CombineF>(combine), grain);
}

}  // namespace essentials::parallel
