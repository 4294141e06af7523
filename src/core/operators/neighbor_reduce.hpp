#pragma once

/// \file core/operators/neighbor_reduce.hpp
/// \brief Neighborhood reduction operator: for each vertex of a frontier
/// (or of the whole graph), fold a value over its incident edges — the
/// gather half of gather-apply-scatter, as a first-class operator.
///
/// `neighbor_reduce` folds over *out*-edges (CSR); `in_neighbor_reduce`
/// folds over *in*-edges (CSC) — the pull-side gather PageRank/HITS-style
/// fixed points are built from.  The map lambda sees the full
/// {src, dst, edge, weight} tuple (paper §III-C); results land in a
/// caller-provided output array indexed by vertex, so no atomics are
/// needed: each vertex's fold is owned by one lane.
///
/// `neighbor_reduce_activate` closes the GAS loop: gather, then feed each
/// vertex's folded value to an *activate* predicate; survivors form the
/// next sparse frontier, published by lock-free scan compaction
/// (core/frontier/frontier_gen.hpp).

#include <cstddef>

#include "core/execution.hpp"
#include "core/frontier/frontier.hpp"
#include "core/operators/advance.hpp"
#include "core/operators/compute.hpp"
#include "core/telemetry.hpp"
#include "core/types.hpp"

namespace essentials::operators {

/// out[v] = fold of map(v, dst, e, w) over v's out-edges, for every vertex
/// v in the graph.
template <typename P, typename G, typename R, typename MapF,
          typename CombineF>
  requires execution::synchronous_policy<P> && (G::has_csr)
void neighbor_reduce(P policy, G const& g, R identity, MapF map,
                     CombineF combine, R* out) {
  using V = typename G::vertex_type;
  compute_vertices(policy, g, [&g, identity, map, combine, out](V v) {
    R acc = identity;
    for (auto const e : g.get_edges(v))
      acc = combine(acc, map(v, g.get_dest_vertex(e), e, g.get_edge_weight(e)));
    out[static_cast<std::size_t>(v)] = acc;
  });
}

/// out[v] = fold of map(src, v, e, w) over v's in-edges (pull gather).
template <typename P, typename G, typename R, typename MapF,
          typename CombineF>
  requires execution::synchronous_policy<P> && (G::has_csc)
void in_neighbor_reduce(P policy, G const& g, R identity, MapF map,
                        CombineF combine, R* out) {
  using V = typename G::vertex_type;
  compute_vertices(policy, g, [&g, identity, map, combine, out](V v) {
    R acc = identity;
    for (auto const e : g.get_in_edges(v))
      acc = combine(acc, map(g.get_in_source_vertex(e), v, e,
                             g.get_in_edge_weight(e)));
    out[static_cast<std::size_t>(v)] = acc;
  });
}

/// Frontier-restricted variant: only active vertices fold; inactive
/// entries of `out` are untouched.
template <typename P, typename G, typename T, typename R, typename MapF,
          typename CombineF>
  requires execution::synchronous_policy<P> && (G::has_csr)
void neighbor_reduce(P policy, G const& g,
                     frontier::sparse_frontier<T> const& f, R identity,
                     MapF map, CombineF combine, R* out) {
  using V = typename G::vertex_type;
  compute(policy, f, [&g, identity, map, combine, out](V v) {
    R acc = identity;
    for (auto const e : g.get_edges(v))
      acc = combine(acc, map(v, g.get_dest_vertex(e), e, g.get_edge_weight(e)));
    out[static_cast<std::size_t>(v)] = acc;
  });
}

/// Gather-and-activate: fold each active vertex's out-neighborhood like the
/// frontier-restricted `neighbor_reduce` (results land in `out[v]`), then
/// keep the vertex in the returned frontier iff `activate(v, acc)` is true.
/// This is the operator shape iterative gather algorithms (delta-PageRank,
/// label propagation) use to shrink their active set each round.
///
/// Each input entry is emitted at most once, so the output repeats a
/// vertex only when the input does.  The per-index body does O(out-degree)
/// work, so the parallel branch uses `policy.edge_grain`.
template <typename P, typename G, typename T, typename R, typename MapF,
          typename CombineF, typename ActivateF>
  requires execution::synchronous_policy<P> && (G::has_csr)
frontier::sparse_frontier<T> neighbor_reduce_activate(
    P policy, G const& g, frontier::sparse_frontier<T> const& f, R identity,
    MapF map, CombineF combine, ActivateF activate, R* out) {
  using V = typename G::vertex_type;
  auto const probe =
      telemetry::make_probe("neighbor_reduce_activate", policy, f.size());
  frontier::sparse_frontier<T> next;
  auto const& active = f.active();
  auto const chunk = [&](std::size_t lo, std::size_t hi, auto&& emit) {
    std::size_t folded = 0, activated = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      V const v = active[i];
      R acc = identity;
      for (auto const e : g.get_edges(v)) {
        acc = combine(acc,
                      map(v, g.get_dest_vertex(e), e, g.get_edge_weight(e)));
        ++folded;
      }
      out[static_cast<std::size_t>(v)] = acc;
      if (activate(v, acc)) {
        ++activated;
        emit(v);
      }
    }
    probe.add_edges(folded, activated);
  };
  if constexpr (std::decay_t<P>::is_parallel) {
    auto const stats = frontier::generate_scan(
        policy.pool(), active.size(), policy.edge_grain, next, chunk);
    detail::flush_generate_stats(probe, stats);
  } else {
    auto emit = [&next](T v) { next.active().push_back(v); };
    chunk(0, active.size(), emit);
  }
  probe.set_items_out(next.size());
  return next;
}

}  // namespace essentials::operators
