#pragma once

/// \file algorithms/sssp_delta.hpp
/// \brief Delta-stepping SSSP (Meyer & Sanders) — the middle ground between
/// Listing 4's fully-synchronous label correction and the fully
/// asynchronous queue: vertices are bucketed by distance/Δ, buckets are
/// processed in order, and *within* a bucket relaxations run as parallel
/// BSP waves.  A small Δ approaches Dijkstra (little wasted work, many
/// buckets); a large Δ approaches Bellman-Ford (few barriers, re-relaxation
/// work).  bench_timing_models' companion ablation in bench_algorithms
/// sweeps Δ.
///
/// Expressed entirely with the framework's essential components: the bucket
/// is a sparse frontier, light-edge waves and the heavy pass are push
/// supersteps of a weight-banded min-plus program (`relax_push`, then
/// uniquify), and the outer bucket loop is another loop structure with the
/// "all buckets empty" convergence condition.

#include <cmath>
#include <cstddef>
#include <vector>

#include "algorithms/relax.hpp"
#include "algorithms/sssp.hpp"
#include "core/execution.hpp"
#include "core/frontier/frontier.hpp"
#include "core/operators/filter.hpp"
#include "core/types.hpp"
#include "parallel/atomics.hpp"

namespace essentials::algorithms {

namespace detail {

/// Delta-stepping's program: min-plus over the edges whose weight lies in
/// [lo, hi) (light waves [0, Δ), the heavy pass [Δ, ∞)).  Any other edge
/// offers infinity, which improves nothing, and `admits` lets `relax_push`
/// skip it before reading its destination: most of a light wave's edges
/// are heavy.
template <typename W>
struct banded_program : min_plus_program<weight_cost, W> {
  W lo, hi;

  bool admits(W const weight) const { return weight >= lo && weight < hi; }
  W offer(auto const src, W const x, W const weight) const {
    return admits(weight)
               ? min_plus_program<weight_cost, W>::offer(src, x, weight)
               : infinity_v<W>;
  }
};

}  // namespace detail

/// Delta-stepping SSSP.  `delta == 0` picks the classic heuristic
/// Δ = max_weight / average_degree (clamped to > 0).
template <typename P, typename G>
  requires execution::synchronous_policy<P>
sssp_result<typename G::weight_type> sssp_delta_stepping(
    P policy, G const& g, typename G::vertex_type source,
    typename G::weight_type delta = 0) {
  using V = typename G::vertex_type;
  using E = typename G::edge_type;
  using W = typename G::weight_type;
  expects(source >= 0 && source < g.get_num_vertices(),
          "sssp_delta_stepping: source out of range");

  std::size_t const n = static_cast<std::size_t>(g.get_num_vertices());
  sssp_result<W> result;
  result.distances.assign(n, infinity_v<W>);
  result.distances[static_cast<std::size_t>(source)] = W{0};
  W* const dist = result.distances.data();

  if (delta <= W{0}) {
    W max_w = W{0};
    for (E e = 0; e < g.get_num_edges(); ++e)
      max_w = std::max(max_w, g.get_edge_weight(e));
    double const avg_deg =
        n == 0 ? 1.0
               : std::max(1.0, static_cast<double>(g.get_num_edges()) /
                                   static_cast<double>(n));
    delta = std::max(static_cast<W>(max_w / static_cast<W>(avg_deg)),
                     static_cast<W>(1e-3));
  }

  // Buckets as sparse frontiers, grown on demand.  A vertex may appear in
  // several buckets; a stale appearance is filtered by the distance check
  // at processing time (standard delta-stepping practice).
  std::vector<frontier::sparse_frontier<V>> buckets(1);
  buckets[0].add_vertex(source);

  auto const bucket_of = [delta](W d) {
    return static_cast<std::size_t>(d / delta);
  };
  auto const ensure_bucket = [&buckets](std::size_t b) -> auto& {
    if (b >= buckets.size())
      buckets.resize(b + 1);
    return buckets[b];
  };

  std::size_t current = 0;
  while (current < buckets.size()) {
    if (buckets[current].empty()) {
      ++current;
      continue;
    }
    // Light-edge waves: relax edges with weight < Δ repeatedly until the
    // current bucket stops refilling; heavy edges are deferred one pass.
    frontier::sparse_frontier<V> settled;  // all vertices processed this bucket
    frontier::sparse_frontier<V> wave;
    swap(wave, buckets[current]);
    while (!wave.empty()) {
      // Drop stale entries (vertex moved to a lower bucket meanwhile).
      auto fresh = operators::filter(
          policy, wave, [dist, current, bucket_of](V v) {
            W const d = atomic::load(&dist[v]);
            return d != infinity_v<W> && bucket_of(d) == current;
          });
      for (V const v : fresh.active())
        settled.add_vertex(v);

      // Light band [0, Δ): heavy edges are handled after the bucket
      // settles.
      auto const next = detail::relax_step(
          policy, g, fresh, detail::banded_program<W>{{dist}, W{0}, delta});

      // Re-bucket the relaxed vertices; only same-bucket ones continue the
      // wave.
      frontier::sparse_frontier<V> same;
      for (V const v : next.active()) {
        std::size_t const b = bucket_of(dist[static_cast<std::size_t>(v)]);
        if (b == current)
          same.add_vertex(v);
        else
          ensure_bucket(b).add_vertex(v);
      }
      swap(wave, same);
      ++result.iterations;
    }

    // Heavy-edge pass over everything settled in this bucket.
    detail::uniquify_vertices(policy, settled, n);
    auto const heavy = detail::relax_step(
        policy, g, settled,
        detail::banded_program<W>{{dist}, delta, infinity_v<W>});
    for (V const v : heavy.active())
      ensure_bucket(bucket_of(dist[static_cast<std::size_t>(v)]))
          .add_vertex(v);
    ++current;
  }
  return result;
}

}  // namespace essentials::algorithms
