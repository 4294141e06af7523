#pragma once

/// \file algorithms/bfs.hpp
/// \brief Breadth-first search: push, pull, direction-optimizing, async
/// queue, and message-passing variants, plus the serial oracle.  The async
/// and message-passing variants are hop counts on the min-plus program of
/// algorithms/relax.hpp (unit cost); the BSP ones claim vertices instead.
///
/// BFS is the paper's cleanest showcase for the push-vs-pull pillar
/// (§III-C): push scans out-edges of the frontier (work ∝ frontier edges),
/// pull scans in-edges of *unvisited* vertices (work ∝ unvisited edges) —
/// `advance_pull` skips the visited ones 64 at a time through the visited
/// bitmap and marks the vertices it finds.  The direction-optimizing
/// variant is Beamer et al.'s: `enactor::direction_loop` switches to pull
/// when the frontier's out-edges exceed 1/alpha of the unvisited vertices'
/// in-edges, back to push when the frontier thins below 1/beta of the
/// vertices (or that alpha test fails again), and changes the frontier's
/// representation (sparse <-> dense)
/// with the direction — the "multiple underlying representations behind
/// one interface" claim.

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "algorithms/relax.hpp"
#include "core/enactor.hpp"
#include "core/execution.hpp"
#include "core/frontier/frontier.hpp"
#include "core/operators/advance.hpp"
#include "core/operators/reduce.hpp"
#include "core/telemetry.hpp"
#include "core/types.hpp"
#include "parallel/atomic_bitset.hpp"

namespace essentials::algorithms {

/// BFS result: hop distances (-1 == unreached) and parents (-1 == none).
template <typename V = vertex_t>
struct bfs_result {
  std::vector<V> depths;
  std::vector<V> parents;
  std::size_t iterations = 0;
};

namespace detail {

template <typename G>
bfs_result<typename G::vertex_type> make_bfs_state(
    G const& g, typename G::vertex_type source, char const* who) {
  using V = typename G::vertex_type;
  expects(source >= 0 && source < g.get_num_vertices(), who);
  bfs_result<V> r;
  r.depths.assign(static_cast<std::size_t>(g.get_num_vertices()), V{-1});
  r.parents.assign(static_cast<std::size_t>(g.get_num_vertices()), V{-1});
  r.depths[static_cast<std::size_t>(source)] = V{0};
  return r;
}

/// The push condition: claim dst on the visited bitmap ("first visitor
/// wins", which also deduplicates the output frontier), then settle it.
template <typename V, typename E, typename W>
auto claim_condition(parallel::atomic_bitset& visited, V* depths, V* parents,
                     V depth) {
  return [&visited, depths, parents, depth](V const src, V const dst,
                                            E const /*e*/, W const /*w*/) {
    if (!visited.test_and_set(static_cast<std::size_t>(dst)))
      return false;  // someone else claimed dst
    depths[dst] = depth;
    parents[dst] = src;
    return true;
  };
}

/// The pull condition: `advance_pull` offers only unvisited destinations,
/// each on the one lane that owns its bitmap word, and stops at the first
/// parent, so settling needs no claim and no atomics.
template <typename V, typename E, typename W>
auto settle_condition(V* depths, V* parents, V depth) {
  return [depths, parents, depth](V const src, V const dst, E const /*e*/,
                                  W const /*w*/) {
    depths[dst] = depth;
    parents[dst] = src;
    return true;
  };
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Push BSP
// ---------------------------------------------------------------------------

/// Push BFS: advance the sparse frontier along out-edges; the condition is
/// a claim ("first visitor wins") on a visited bitmap, which deduplicates
/// the output frontier as a side effect — no uniquify needed.
template <typename P, typename G>
  requires execution::synchronous_policy<P>
bfs_result<typename G::vertex_type> bfs(P policy, G const& g,
                                        typename G::vertex_type source) {
  using V = typename G::vertex_type;
  using E = typename G::edge_type;
  using W = typename G::weight_type;
  auto result = detail::make_bfs_state(g, source, "bfs: source out of range");
  parallel::atomic_bitset visited(
      static_cast<std::size_t>(g.get_num_vertices()));
  visited.set(static_cast<std::size_t>(source));

  frontier::sparse_frontier<V> f;
  f.add_vertex(source);

  auto const stats = enactor::bsp_loop(
      std::move(f),
      [&](frontier::sparse_frontier<V> in, std::size_t iteration) {
        return operators::advance_push(
            policy, g, in,
            detail::claim_condition<V, E, W>(visited, result.depths.data(),
                                             result.parents.data(),
                                             static_cast<V>(iteration + 1)));
      },
      enactor::frontier_empty{});
  result.iterations = stats.iterations;
  return result;
}

// ---------------------------------------------------------------------------
// Pull BSP
// ---------------------------------------------------------------------------

/// Pull BFS: each unvisited vertex scans its in-edges for a parent in the
/// current (dense) frontier and stops at the first hit; `advance_pull`
/// skips visited vertices 64 at a time through the visited bitmap and
/// marks the ones it settles.  Requires the CSC view.
template <typename P, typename G>
  requires execution::synchronous_policy<P> && (G::has_csc)
bfs_result<typename G::vertex_type> bfs_pull(P policy, G const& g,
                                             typename G::vertex_type source) {
  using V = typename G::vertex_type;
  using E = typename G::edge_type;
  using W = typename G::weight_type;
  auto result =
      detail::make_bfs_state(g, source, "bfs_pull: source out of range");
  std::size_t const n = static_cast<std::size_t>(g.get_num_vertices());
  parallel::atomic_bitset visited(n);
  visited.set(static_cast<std::size_t>(source));
  frontier::dense_frontier<V> f(n);
  f.add_vertex(source);

  auto const stats = enactor::bsp_loop(
      std::move(f),
      [&](frontier::dense_frontier<V> in, std::size_t iteration) {
        if (auto* const rec = telemetry::current())
          rec->set_direction(direction_t::pull, false, frontier::density(in));
        return operators::advance_pull<true>(
            policy, g, in,
            detail::settle_condition<V, E, W>(result.depths.data(),
                                              result.parents.data(),
                                              static_cast<V>(iteration + 1)),
            &visited);
      },
      enactor::frontier_empty{});
  result.iterations = stats.iterations;
  return result;
}

// ---------------------------------------------------------------------------
// Direction-optimizing BSP
// ---------------------------------------------------------------------------

/// Thresholds of Beamer et al.'s switch (`enactor::direction_switch`):
/// `alpha` compares edge work — pull while the frontier's out-edges exceed
/// 1/alpha of the unvisited vertices' in-edges; `beta` compares vertex
/// counts — push again once the frontier holds fewer than 1/beta of the
/// vertices.  Defaults 15 and 18, as in the GAP benchmark suite's BFS.
struct dobfs_options : enactor::direction_switch {};

/// Direction-optimizing BFS: `enactor::direction_loop` with the push BFS
/// step and the pull BFS step, sharing one visited bitmap.  The pull side's
/// edge work is the in-edges of unvisited vertices: every vertex joins
/// exactly one frontier, so subtracting each frontier's in-degrees as it
/// appears keeps that count exact.  One algorithm, two operators, two
/// frontier representations — the crossover machinery the abstraction
/// exists to express.
template <typename P, typename G>
  requires execution::synchronous_policy<P> && (G::has_csr && G::has_csc)
bfs_result<typename G::vertex_type> bfs_direction_optimizing(
    P policy, G const& g, typename G::vertex_type source,
    dobfs_options opt = {}) {
  using V = typename G::vertex_type;
  using E = typename G::edge_type;
  using W = typename G::weight_type;
  auto result =
      detail::make_bfs_state(g, source, "dobfs: source out of range");
  V* const depths = result.depths.data();
  V* const parents = result.parents.data();
  parallel::atomic_bitset visited(
      static_cast<std::size_t>(g.get_num_vertices()));
  visited.set(static_cast<std::size_t>(source));

  auto const in_degree = [&g](V v) {
    return static_cast<std::size_t>(g.get_in_degree(v));
  };
  auto unvisited_in_edges = static_cast<std::size_t>(g.get_num_edges());
  auto const stats = enactor::direction_loop(
      policy, g, frontier::sparse_frontier<V>(std::vector<V>{source}), opt,
      [&](frontier::sparse_frontier<V> in, std::size_t iteration) {
        return operators::advance_push(
            policy, g, in,
            detail::claim_condition<V, E, W>(visited, depths, parents,
                                             static_cast<V>(iteration + 1)));
      },
      [&](frontier::dense_frontier<V> in, std::size_t iteration) {
        return operators::advance_pull<true>(
            policy, g, in,
            detail::settle_condition<V, E, W>(depths, parents,
                                              static_cast<V>(iteration + 1)),
            &visited);
      },
      [&](auto const& frontier) {
        unvisited_in_edges -= operators::reduce(
            policy, frontier, std::size_t{0}, in_degree, std::plus<>{});
        return unvisited_in_edges;
      });
  result.iterations = stats.iterations;
  return result;
}

// ---------------------------------------------------------------------------
// Asynchronous and message-passing (unit-cost relaxation)
// ---------------------------------------------------------------------------

namespace detail {

/// Hop counts on the min-plus lattice (infinity_v == unreached) from
/// `source` at 0 — BFS depth as SSSP with unit costs.
template <typename G>
std::vector<typename G::vertex_type> make_hops(
    G const& g, typename G::vertex_type source, char const* who) {
  using V = typename G::vertex_type;
  expects(source >= 0 && source < g.get_num_vertices(), who);
  std::vector<V> hops(static_cast<std::size_t>(g.get_num_vertices()),
                      infinity_v<V>);
  hops[static_cast<std::size_t>(source)] = V{0};
  return hops;
}

/// Depths from hop counts (-1 == unreached).  Parents are not tracked on
/// the hop lattice (that would need a second CAS); depths are the contract.
template <typename V>
bfs_result<V> depths_from_hops(std::vector<V> hops) {
  bfs_result<V> r;
  for (V& d : hops)
    if (d == infinity_v<V>)
      d = V{-1};
  r.parents.assign(hops.size(), V{-1});
  r.depths = std::move(hops);
  return r;
}

}  // namespace detail

/// Asynchronous BFS: `relax_async` with unit costs.  Without supersteps,
/// "depth" loses its strict level meaning during the run, but the
/// atomic-min relaxation makes the fixed point identical to BSP BFS depths
/// on termination (it is SSSP with unit weights over an integer lattice).
template <typename G>
bfs_result<typename G::vertex_type> bfs_async(G const& g,
                                              typename G::vertex_type source,
                                              std::size_t workers = 4) {
  using V = typename G::vertex_type;
  auto hops = detail::make_hops(g, source, "bfs_async: source out of range");
  relax_async<constant_cost<V{1}>>(g, source, hops.data(), workers);
  return detail::depths_from_hops(std::move(hops));
}

/// Message-passing BFS: `relax_message_passing` with unit costs — each
/// rank owns vertices by `owner` (default v mod P), expands its slice, and
/// the distributed frontier routes (vertex, depth) words to their owners.
/// Listing 4's loop shape survives the communication model swap: seed,
/// expand, exchange, test global emptiness — one exchange per level.
template <typename G>
bfs_result<typename G::vertex_type> bfs_message_passing(
    G const& g, typename G::vertex_type source, int num_ranks = 4,
    std::function<int(typename G::vertex_type)> owner = {}) {
  using V = typename G::vertex_type;
  auto hops =
      detail::make_hops(g, source, "bfs_message_passing: source out of range");
  std::size_t const levels = relax_message_passing<constant_cost<V{1}>>(
      g, source, num_ranks, std::move(owner), /*threads_per_rank=*/1, hops);
  auto result = detail::depths_from_hops(std::move(hops));
  result.iterations = levels;
  return result;
}

// ---------------------------------------------------------------------------
// Serial oracle
// ---------------------------------------------------------------------------

/// Textbook queue BFS (CLRS) — the exact oracle for depths and parent
/// validity.
template <typename G>
bfs_result<typename G::vertex_type> bfs_serial(
    G const& g, typename G::vertex_type source) {
  using V = typename G::vertex_type;
  auto result =
      detail::make_bfs_state(g, source, "bfs_serial: source out of range");
  std::deque<V> queue{source};
  while (!queue.empty()) {
    V const v = queue.front();
    queue.pop_front();
    for (auto const e : g.get_edges(v)) {
      V const nb = g.get_dest_vertex(e);
      if (result.depths[static_cast<std::size_t>(nb)] == V{-1}) {
        result.depths[static_cast<std::size_t>(nb)] =
            result.depths[static_cast<std::size_t>(v)] + 1;
        result.parents[static_cast<std::size_t>(nb)] = v;
        queue.push_back(nb);
        result.iterations =
            std::max(result.iterations,
                     static_cast<std::size_t>(
                         result.depths[static_cast<std::size_t>(nb)]));
      }
    }
  }
  return result;
}

}  // namespace essentials::algorithms
