#pragma once

/// \file core/operators/reduce.hpp
/// \brief Reduction operators over frontiers and vertex ranges — how
/// convergence conditions observe global state (e.g. PageRank's L1 error,
/// "how many labels changed this superstep").

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "core/execution.hpp"
#include "core/frontier/frontier.hpp"
#include "parallel/for_each.hpp"

namespace essentials::operators {

/// Fold `combine(acc, map(v))` over a sparse frontier's active elements.
template <typename P, typename T, typename R, typename MapF, typename CombineF>
  requires execution::synchronous_policy<P>
R reduce(P policy, frontier::sparse_frontier<T> const& f, R identity,
         MapF map, CombineF combine) {
  auto const& active = f.active();
  if constexpr (std::decay_t<P>::is_parallel) {
    return parallel::parallel_reduce(
        policy.pool(), std::size_t{0}, active.size(), identity,
        [&active, map](std::size_t i) { return map(active[i]); }, combine,
        policy.grain);
  } else {
    R acc = identity;
    for (T const& v : active)
      acc = combine(acc, map(v));
    return acc;
  }
}

/// Fold `combine(acc, map(v))` over a dense frontier's active elements,
/// one bitmap word per step.
template <typename P, typename T, typename R, typename MapF, typename CombineF>
  requires execution::synchronous_policy<P>
R reduce(P policy, frontier::dense_frontier<T> const& f, R identity,
         MapF map, CombineF combine) {
  auto const& bits = f.bits();
  auto const fold_word = [&bits, &map, &combine, identity](std::size_t wi) {
    R acc = identity;
    for (std::uint64_t w = bits.load_word(wi); w != 0; w &= w - 1)
      acc = combine(acc, map(static_cast<T>(
                             wi * 64 +
                             static_cast<std::size_t>(__builtin_ctzll(w)))));
    return acc;
  };
  if constexpr (std::decay_t<P>::is_parallel) {
    return parallel::parallel_reduce(
        policy.pool(), std::size_t{0}, bits.num_words(), identity, fold_word,
        combine, std::max<std::size_t>(policy.grain / 64, 1));
  } else {
    R acc = identity;
    for (std::size_t wi = 0; wi < bits.num_words(); ++wi)
      acc = combine(acc, fold_word(wi));
    return acc;
  }
}

/// Fold over every vertex of the graph.
template <typename P, typename G, typename R, typename MapF, typename CombineF>
  requires execution::synchronous_policy<P>
R reduce_vertices(P policy, G const& g, R identity, MapF map,
                  CombineF combine) {
  using V = typename G::vertex_type;
  std::size_t const n = static_cast<std::size_t>(g.get_num_vertices());
  if constexpr (std::decay_t<P>::is_parallel) {
    return parallel::parallel_reduce(
        policy.pool(), std::size_t{0}, n, identity,
        [map](std::size_t v) { return map(static_cast<V>(v)); }, combine,
        policy.grain);
  } else {
    R acc = identity;
    for (std::size_t v = 0; v < n; ++v)
      acc = combine(acc, map(static_cast<V>(v)));
    return acc;
  }
}

}  // namespace essentials::operators
