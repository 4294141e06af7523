#pragma once

/// \file algorithms/sssp.hpp
/// \brief Single-source shortest paths — the paper's worked example
/// (Listing 4) — in each timing/communication/direction model, plus the
/// serial textbook baselines the parallel versions are validated against.
///
/// Variants (all but the baselines run algorithms/relax.hpp's min-plus
/// program with the weight cost from the source):
///  - `sssp` (push, BSP, shared memory): Listing 4 — `relax_bsp`, which
///    pulls its dense supersteps on a graph with a CSC view.
///    Policy-parameterized.
///  - `sssp_pull` (pull, BSP): `relax_pull` every superstep, dense
///    frontiers over the CSC view.
///  - `sssp_async` (asynchronous, shared memory): `relax_async`; no
///    barriers anywhere, convergence by quiescence.
///  - `sssp_message_passing`: `relax_message_passing` — vertices
///    partitioned across mpsim ranks, relaxations of remote vertices travel
///    as (vertex, distance) words; `threads_per_rank > 1` expands each
///    rank's slice on a private pool (the hierarchical deployment of
///    §III-B).
///  - Baselines: `dijkstra` (binary heap, the exact oracle) and
///    `bellman_ford` (the textbook bulk-relaxation SSSP).
///
/// Weights must be non-negative for the label-correcting parallel variants
/// to terminate; this matches the paper's (and Gunrock's) SSSP.

#include <cstddef>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "algorithms/relax.hpp"
#include "core/enactor.hpp"
#include "core/execution.hpp"
#include "core/frontier/frontier.hpp"
#include "core/telemetry.hpp"
#include "core/types.hpp"

namespace essentials::algorithms {

/// Result of an SSSP run: distances (infinity_v for unreachable) and loop
/// telemetry.
template <typename W = weight_t>
struct sssp_result {
  std::vector<W> distances;
  std::size_t iterations = 0;  ///< supersteps (async variants report 0)
};

namespace detail {

/// Distances with only the source settled (at 0).
template <typename G>
sssp_result<typename G::weight_type> make_sssp_state(
    G const& g, typename G::vertex_type source, char const* who) {
  using W = typename G::weight_type;
  expects(source >= 0 && source < g.get_num_vertices(), who);
  sssp_result<W> r;
  r.distances.assign(static_cast<std::size_t>(g.get_num_vertices()),
                     infinity_v<W>);
  r.distances[static_cast<std::size_t>(source)] = W{0};
  return r;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Push BSP — paper Listing 4
// ---------------------------------------------------------------------------

/// Parallel SSSP, Listing 4: settle the source, seed the frontier with it,
/// and relax (atomic-min on the destination, keep it iff improved) until
/// the frontier drains.
template <typename P, typename G>
  requires execution::synchronous_policy<P>
sssp_result<typename G::weight_type> sssp(P policy, G const& g,
                                          typename G::vertex_type source) {
  auto result = detail::make_sssp_state(g, source, "sssp: source out of range");
  auto const stats = relax_bsp(policy, g, {source},
                               min_plus_condition(result.distances.data()));
  result.iterations = stats.iterations;
  return result;
}

// ---------------------------------------------------------------------------
// Pull BSP
// ---------------------------------------------------------------------------

/// Pull-based SSSP over the transposed (CSC) structure: every superstep is
/// `relax_pull` — each vertex folds what all of its in-edges offer and
/// stores the best once, on the lane that owns it — with dense frontiers
/// throughout.  `relax_bsp` runs the same step for its dense supersteps;
/// this variant pulls every superstep, sparse ones included.
template <typename P, typename G>
  requires execution::synchronous_policy<P> && (G::has_csc)
sssp_result<typename G::weight_type> sssp_pull(
    P policy, G const& g, typename G::vertex_type source) {
  using V = typename G::vertex_type;
  auto result =
      detail::make_sssp_state(g, source, "sssp_pull: source out of range");
  auto const program = min_plus_condition(result.distances.data());

  frontier::dense_frontier<V> f(static_cast<std::size_t>(g.get_num_vertices()));
  f.add_vertex(source);
  auto const stats = enactor::bsp_loop(
      std::move(f),
      [&](frontier::dense_frontier<V> in, std::size_t /*iteration*/) {
        if (auto* const rec = telemetry::current())
          rec->set_direction(direction_t::pull, false, frontier::density(in));
        return relax_pull(policy, g, in, program);
      });
  result.iterations = stats.iterations;
  return result;
}

// ---------------------------------------------------------------------------
// Asynchronous (queue frontier)
// ---------------------------------------------------------------------------

/// Asynchronous SSSP: the same relaxation as `sssp`, enacted by `workers`
/// queue consumers instead of supersteps — only the *timing model*
/// changed, which is the point of §III-A.  Terminates at quiescence.
template <typename G>
sssp_result<typename G::weight_type> sssp_async(
    G const& g, typename G::vertex_type source, std::size_t workers = 4) {
  auto result =
      detail::make_sssp_state(g, source, "sssp_async: source out of range");
  relax_async(g, source, result.distances.data(), workers);
  return result;
}

// ---------------------------------------------------------------------------
// Message passing (mpsim ranks)
// ---------------------------------------------------------------------------

/// Message-passing SSSP: vertices are partitioned across `num_ranks` by
/// `owner` (default: v mod P, the random-partition heuristic).  Each rank
/// owns the distances of its vertices; relaxations of remote vertices are
/// shipped as (vertex, distance) words, and each superstep ends with an
/// all-reduce of the global frontier size — the shared-nothing flavour of
/// Listing 4's convergence condition.  With `threads_per_rank > 1` each
/// rank expands its slice on a private pool: message passing between
/// ranks, shared memory inside them (§III-B's hierarchical deployment).
///
/// The full distance vector (gathered at rank 0) is returned.
template <typename G>
sssp_result<typename G::weight_type> sssp_message_passing(
    G const& g, typename G::vertex_type source, int num_ranks = 4,
    std::function<int(typename G::vertex_type)> owner = {},
    std::size_t threads_per_rank = 1) {
  auto result = detail::make_sssp_state(
      g, source, "sssp_message_passing: source out of range");
  result.iterations =
      relax_message_passing(g, source, num_ranks, std::move(owner),
                            threads_per_rank, result.distances);
  return result;
}

// ---------------------------------------------------------------------------
// Serial baselines
// ---------------------------------------------------------------------------

/// Dijkstra with a binary heap — the exact serial oracle (CLRS).  O((V+E)
/// log V), non-negative weights.
template <typename G>
sssp_result<typename G::weight_type> dijkstra(
    G const& g, typename G::vertex_type source) {
  using V = typename G::vertex_type;
  using W = typename G::weight_type;
  auto result =
      detail::make_sssp_state(g, source, "dijkstra: source out of range");

  using entry = std::pair<W, V>;
  std::priority_queue<entry, std::vector<entry>, std::greater<entry>> heap;
  heap.emplace(W{0}, source);
  while (!heap.empty()) {
    auto const [d, v] = heap.top();
    heap.pop();
    if (d > result.distances[static_cast<std::size_t>(v)])
      continue;  // stale entry
    for (auto const e : g.get_edges(v)) {
      V const n = g.get_dest_vertex(e);
      W const new_d = d + g.get_edge_weight(e);
      if (relax_plain(result.distances.data(), static_cast<std::size_t>(n),
                      new_d))
        heap.emplace(new_d, n);
    }
  }
  return result;
}

/// Bellman–Ford — the textbook bulk relaxation.  Handles negative weights
/// (but not negative cycles); used as a second, structurally different
/// oracle in the property tests.
template <typename G>
sssp_result<typename G::weight_type> bellman_ford(
    G const& g, typename G::vertex_type source) {
  using V = typename G::vertex_type;
  using W = typename G::weight_type;
  auto result =
      detail::make_sssp_state(g, source, "bellman_ford: source out of range");
  std::size_t const n = static_cast<std::size_t>(g.get_num_vertices());

  for (std::size_t round = 0; round + 1 < n || round == 0; ++round) {
    bool changed = false;
    for (V u = 0; u < g.get_num_vertices(); ++u) {
      W const d_u = result.distances[static_cast<std::size_t>(u)];
      if (d_u == infinity_v<W>)
        continue;
      for (auto const e : g.get_edges(u)) {
        V const v = g.get_dest_vertex(e);
        W const new_d = d_u + g.get_edge_weight(e);
        if (relax_plain(result.distances.data(), static_cast<std::size_t>(v),
                        new_d))
          changed = true;
      }
    }
    ++result.iterations;
    if (!changed)
      break;
  }
  return result;
}

}  // namespace essentials::algorithms
