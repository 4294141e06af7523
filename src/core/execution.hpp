#pragma once

/// \file core/execution.hpp
/// \brief Execution policies — the paper's abstraction for the *timing*
/// pillar (§III-A).
///
/// "Much like the C++ standard library's execution policies, these policies
/// are unique types to allow for overloading of traversal and
/// transformation operators to support parallelism and synchronization
/// behaviors."  Exactly that: each policy is a distinct empty-ish type, the
/// operators in core/operators/ are overloaded (constrained) on it, and the
/// *functionality is identical while the underlying execution changes*:
///
///  - `seq`        — the invoking thread does all the work.  The reference
///                   semantics every parallel overload must match.
///  - `par`        — work runs on the persistent thread pool; the call
///                   returns only after an implicit barrier (one BSP
///                   superstep).
///  - `par_nosync` — work is *launched* on the pool and the call returns
///                   immediately; no barrier is introduced on the invoking
///                   thread (the paper's asynchronous alternative in
///                   Listing 3).  Callers synchronize explicitly via
///                   `policy.pool().wait_idle()` — or never, when the
///                   algorithm's convergence detection doesn't need it.
///
/// Policies carry the pool they dispatch to (defaulting to the process-wide
/// pool), so different operators — or different phases of one algorithm —
/// can be pinned to differently sized pools.

#include <cstddef>
#include <type_traits>

#include "parallel/thread_pool.hpp"

namespace essentials::execution {

/// How parallel operators publish discovered elements into a sparse output
/// frontier — the "frontier as execution policy" knob (paper Table I):
///
///  - `scan`     — lock-free two-phase generation: workers emit into
///                 cache-line-padded lane buffers, an exclusive prefix sum
///                 over lane counts assigns each lane a disjoint slice of
///                 the preallocated output, and lanes copy in with no locks
///                 or atomics.  Deterministic output order.  The default.
///  - `listing3` — paper Listing 3 verbatim: every discovered element is
///                 appended under the frontier's per-element lock.  The
///                 ablation baseline that quantifies what buffering buys.
///
/// Asynchronous (`par_nosync`) operators have no superstep barrier to run
/// the compaction phase behind, so `scan` publishes each task's buffer with
/// one locked append there — semantics are unchanged, only the publication
/// cost differs.
enum class frontier_gen : unsigned char { scan, listing3 };

/// Grain heuristic, documented once here and applied by every advance-family
/// operator: `grain` bounds scheduling overhead for *element-wise* bodies
/// (compute/filter/reduce touch O(1) state per index, so 256 indices
/// amortize a ~1µs dispatch).  Advance bodies do O(out-degree) work per
/// index — with the zoo's mean degrees of 8–32, a grain of 256 vertices is
/// 8–32× too coarse: small frontiers collapse to one or two chunks and
/// leave the pool idle exactly when per-element work is heaviest.
/// `edge_grain` (default 16) is the advance-family grain; override with
/// `with_edge_grain` when a condition is unusually cheap or degrees are
/// unusually small.
inline constexpr std::size_t default_grain = 256;
inline constexpr std::size_t default_edge_grain = 16;

/// Sequential policy: run in the invoking thread.
struct sequenced_policy {
  static constexpr bool is_parallel = false;
  static constexpr bool is_synchronous = true;
};

/// Parallel synchronous policy: pool execution + implicit barrier.
class parallel_policy {
 public:
  static constexpr bool is_parallel = true;
  static constexpr bool is_synchronous = true;

  parallel_policy() = default;
  explicit parallel_policy(parallel::thread_pool& pool) : pool_(&pool) {}

  parallel::thread_pool& pool() const {
    return pool_ ? *pool_ : parallel::default_pool();
  }

  /// Grain size hint forwarded to parallel_for by element-wise operators.
  std::size_t grain = default_grain;

  /// Grain for advance-family operators (heavy per-element bodies); see the
  /// heuristic note on `default_edge_grain`.
  std::size_t edge_grain = default_edge_grain;

  /// Sparse-frontier generation strategy (see `frontier_gen`).
  frontier_gen frontier = frontier_gen::scan;

  /// When true, advance suppresses duplicate vertices in sparse outputs via
  /// an atomic claim bitmap over |V| — the output becomes a *set*.  Off by
  /// default because Listing 3/4 semantics are a multiset; turn on for
  /// BFS/SSSP-style programs where re-expansion of a vertex is pure waste
  /// (frontiers otherwise grow super-linearly on high-degree graphs).
  bool dedup = false;

  // Builder-style copies, so the const `execution::par` instance composes:
  //   auto p = execution::par.with_frontier(gen).with_dedup();
  parallel_policy with_grain(std::size_t g) const {
    auto p = *this;
    p.grain = g;
    return p;
  }
  parallel_policy with_edge_grain(std::size_t g) const {
    auto p = *this;
    p.edge_grain = g;
    return p;
  }
  parallel_policy with_frontier(frontier_gen f) const {
    auto p = *this;
    p.frontier = f;
    return p;
  }
  parallel_policy with_dedup(bool on = true) const {
    auto p = *this;
    p.dedup = on;
    return p;
  }

 private:
  parallel::thread_pool* pool_ = nullptr;
};

/// Parallel asynchronous policy: pool execution, no barrier on the invoking
/// thread.
class parallel_nosync_policy {
 public:
  static constexpr bool is_parallel = true;
  static constexpr bool is_synchronous = false;

  parallel_nosync_policy() = default;
  explicit parallel_nosync_policy(parallel::thread_pool& pool)
      : pool_(&pool) {}

  parallel::thread_pool& pool() const {
    return pool_ ? *pool_ : parallel::default_pool();
  }

  std::size_t grain = default_grain;
  std::size_t edge_grain = default_edge_grain;

  /// Publication strategy for the caller-owned output frontier.  `scan`
  /// requires a barrier, so here it publishes one locked append per task
  /// (documented degradation); `listing3` is honored for ablations.
  frontier_gen frontier = frontier_gen::scan;

  /// Claim-bitmap dedup is not offered asynchronously: without a superstep
  /// boundary there is no safe point to reset the bitmap, so duplicate
  /// suppression belongs to the algorithm's own visited state.

  parallel_nosync_policy with_grain(std::size_t g) const {
    auto p = *this;
    p.grain = g;
    return p;
  }
  parallel_nosync_policy with_edge_grain(std::size_t g) const {
    auto p = *this;
    p.edge_grain = g;
    return p;
  }
  parallel_nosync_policy with_frontier(frontier_gen f) const {
    auto p = *this;
    p.frontier = f;
    return p;
  }

 private:
  parallel::thread_pool* pool_ = nullptr;
};

/// Ready-made policy instances, mirroring std::execution's spelling:
/// `essentials::execution::seq / par / par_nosync`.
inline constexpr sequenced_policy seq{};
inline parallel_policy const par{};
inline parallel_nosync_policy const par_nosync{};

/// Concept satisfied by every execution policy type.
template <typename P>
concept execution_policy = std::is_same_v<std::decay_t<P>, sequenced_policy> ||
                           std::is_same_v<std::decay_t<P>, parallel_policy> ||
                           std::is_same_v<std::decay_t<P>, parallel_nosync_policy>;

template <typename P>
concept synchronous_policy =
    execution_policy<P> && std::decay_t<P>::is_synchronous;

template <typename P>
concept asynchronous_policy =
    execution_policy<P> && !std::decay_t<P>::is_synchronous;

}  // namespace essentials::execution
