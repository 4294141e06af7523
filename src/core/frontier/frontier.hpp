#pragma once

/// \file core/frontier/frontier.hpp
/// \brief Umbrella header and compile-time interface for the frontier
/// family, plus conversions between representations.
///
/// The paper's key claim for the communication pillar is that *multiple
/// underlying representations can sit behind one interface*.  The
/// `frontier_like` concept is that interface, checked at compile time for
/// every representation we ship; the conversion helpers let an algorithm
/// switch representation mid-run (e.g. `enactor::direction_loop` moving
/// between sparse (push) and dense (pull) when it switches direction).

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>

#include "core/frontier/async_queue_frontier.hpp"
#include "core/frontier/dense_frontier.hpp"
#include "core/frontier/distributed_frontier.hpp"
#include "core/frontier/frontier_gen.hpp"
#include "core/frontier/sparse_frontier.hpp"
#include "core/execution.hpp"
#include "core/types.hpp"
#include "parallel/for_each.hpp"

namespace essentials::frontier {

/// The representation-independent top-level interface (Listing 2's
/// spelling): every frontier can report a size, be queried for emptiness,
/// and accept an activation.
template <typename F>
concept frontier_like = requires(F f, F const cf, typename F::value_type v) {
  typename F::value_type;
  { cf.size() } -> std::convertible_to<std::size_t>;
  { cf.empty() } -> std::convertible_to<bool>;
  { f.add_vertex(v) };
};

/// Representations that support random access over a materialized active
/// set (sparse) — what BSP operators iterate in parallel.
template <typename F>
concept indexable_frontier = frontier_like<F> && requires(F const cf) {
  { cf.active() };
  { cf.get_active_vertex(std::size_t{0}) } -> std::convertible_to<typename F::value_type>;
};

/// Representations with O(1) membership (dense) — what pull traversals
/// query.
template <typename F>
concept queryable_frontier = frontier_like<F> && requires(F const cf, typename F::value_type v) {
  { cf.contains(v) } -> std::convertible_to<bool>;
};

static_assert(frontier_like<sparse_frontier<vertex_t>>);
static_assert(frontier_like<dense_frontier<vertex_t>>);
static_assert(frontier_like<async_queue_frontier<vertex_t>>);
static_assert(indexable_frontier<sparse_frontier<vertex_t>>);
static_assert(queryable_frontier<dense_frontier<vertex_t>>);

// ---------------------------------------------------------------------------
// Conversions
// ---------------------------------------------------------------------------

/// Sparse -> dense over a given universe.
template <typename T>
dense_frontier<T> to_dense(sparse_frontier<T> const& in, std::size_t universe) {
  dense_frontier<T> out(universe);
  in.for_each_active([&out](T v) { out.add_vertex(v); });
  return out;
}

/// Dense -> sparse (active ids in increasing order).
template <typename T>
sparse_frontier<T> to_sparse(dense_frontier<T> const& in) {
  return sparse_frontier<T>(in.to_vector());
}

/// Sparse -> dense on the policy's pool: the bitmap is zeroed
/// page-parallel and the active ids are set in parallel (`seq` converts
/// serially).  What a direction-optimizing loop runs when it starts to
/// pull.
template <typename P, typename T>
  requires execution::synchronous_policy<P>
dense_frontier<T> to_dense(P policy, sparse_frontier<T> const& in,
                           std::size_t universe) {
  if constexpr (std::decay_t<P>::is_parallel) {
    dense_frontier<T> out(policy.pool(), universe);
    auto const& active = in.active();
    parallel::parallel_for(
        policy.pool(), std::size_t{0}, active.size(),
        [&out, &active](std::size_t i) { out.add_vertex(active[i]); },
        policy.grain);
    return out;
  } else {
    return to_dense(in, universe);
  }
}

/// Dense -> sparse on the policy's pool: scan compaction over the bitmap
/// words, so the ids still come out in increasing order (`seq` converts
/// serially).  What a direction-optimizing loop runs when it returns to
/// push.
template <typename P, typename T>
  requires execution::synchronous_policy<P>
sparse_frontier<T> to_sparse(P policy, dense_frontier<T> const& in) {
  if constexpr (std::decay_t<P>::is_parallel) {
    sparse_frontier<T> out;
    auto const& bits = in.bits();
    generate_scan(policy.pool(), bits.num_words(),
                  std::max<std::size_t>(policy.grain / 64, 1), out,
                  [&bits](std::size_t lo, std::size_t hi, auto&& emit) {
                    for (std::size_t wi = lo; wi < hi; ++wi)
                      for (std::uint64_t w = bits.load_word(wi); w != 0;
                           w &= w - 1)
                        emit(static_cast<T>(wi * 64 + static_cast<std::size_t>(
                                                           __builtin_ctzll(w))));
                  });
    return out;
  } else {
    return to_sparse(in);
  }
}

/// Sparse -> async queue (seeds an asynchronous phase from a BSP frontier).
template <typename T>
void seed_queue(sparse_frontier<T> const& in, async_queue_frontier<T>& out) {
  in.for_each_active([&out](T v) { out.add_vertex(v); });
}

/// Frontier density: |F| / universe — the direction-optimizing signal.
template <typename T>
double density(dense_frontier<T> const& f) {
  return f.universe() == 0
             ? 0.0
             : static_cast<double>(f.size()) / static_cast<double>(f.universe());
}

template <typename T>
double density(sparse_frontier<T> const& f, std::size_t universe) {
  return universe == 0
             ? 0.0
             : static_cast<double>(f.size()) / static_cast<double>(universe);
}

}  // namespace essentials::frontier
