#pragma once

/// \file algorithms/bfs.hpp
/// \brief Breadth-first search: push, pull, direction-optimizing, async
/// queue, and message-passing variants, plus the serial oracle.  The async
/// and message-passing variants are hop counts on the min-plus program of
/// algorithms/relax.hpp (unit cost); the BSP ones claim vertices instead.
///
/// BFS is the paper's cleanest showcase for the push-vs-pull pillar
/// (§III-C): push scans out-edges of the frontier (work ∝ frontier edges),
/// pull scans in-edges of *unvisited* vertices (work ∝ unvisited edges).
/// The direction-optimizing variant (Beamer et al.'s heuristic expressed in
/// our abstraction) switches per superstep on frontier density — switching
/// representation (sparse ↔ dense) at the same time, which is exactly the
/// "multiple underlying representations behind one interface" claim.

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
#include "core/operators/advance_balanced.hpp"
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
  V* const depths = result.depths.data();
  V* const parents = result.parents.data();

  parallel::atomic_bitset visited(
      static_cast<std::size_t>(g.get_num_vertices()));
  visited.set(static_cast<std::size_t>(source));

  frontier::sparse_frontier<V> f;
  f.add_vertex(source);

  auto const stats = enactor::bsp_loop(
      std::move(f),
      [&](frontier::sparse_frontier<V> in, std::size_t iteration) {
        V const next_depth = static_cast<V>(iteration + 1);
        return operators::advance_balanced(
            policy, g, in,
            [&visited, depths, parents, next_depth](
                V const src, V const dst, E const /*e*/, W const /*w*/) {
              if (!visited.test_and_set(static_cast<std::size_t>(dst)))
                return false;  // someone else claimed dst
              depths[dst] = next_depth;
              parents[dst] = src;
              return true;
            });
      },
      enactor::frontier_empty{});
  result.iterations = stats.iterations;
  return result;
}

// ---------------------------------------------------------------------------
// Pull BSP
// ---------------------------------------------------------------------------

/// Pull BFS: each unvisited vertex scans its in-edges for a parent in the
/// current (dense) frontier; early-exit on the first hit.  Requires the
/// CSC view.
template <typename P, typename G>
  requires execution::synchronous_policy<P> && (G::has_csc)
bfs_result<typename G::vertex_type> bfs_pull(P policy, G const& g,
                                             typename G::vertex_type source) {
  using V = typename G::vertex_type;
  using E = typename G::edge_type;
  using W = typename G::weight_type;
  auto result =
      detail::make_bfs_state(g, source, "bfs_pull: source out of range");
  V* const depths = result.depths.data();
  V* const parents = result.parents.data();

  std::size_t const n = static_cast<std::size_t>(g.get_num_vertices());
  frontier::dense_frontier<V> f(n);
  f.add_vertex(source);

  auto const stats = enactor::bsp_loop(
      std::move(f),
      [&](frontier::dense_frontier<V> in, std::size_t iteration) {
        V const next_depth = static_cast<V>(iteration + 1);
        if (auto* const rec = telemetry::current())
          rec->set_direction(direction_t::pull, false, frontier::density(in));
        // In the pull scan each dst is handled by exactly one lane, so the
        // depth/parent writes need no atomics; the "unvisited" test makes
        // the advance skip settled vertices wholesale.
        return operators::advance_pull<true>(
            policy, g, in,
            [depths, parents, next_depth](V const src, V const dst,
                                          E const /*e*/, W const /*w*/) {
              if (depths[dst] != V{-1})
                return false;
              depths[dst] = next_depth;
              parents[dst] = src;
              return true;
            });
      },
      enactor::frontier_empty{});
  result.iterations = stats.iterations;
  return result;
}

// ---------------------------------------------------------------------------
// Direction-optimizing BSP
// ---------------------------------------------------------------------------

/// Tuning knobs for direction-optimizing BFS (Beamer-style).  Defaults
/// follow the published heuristic shape: go pull when the frontier's edge
/// work exceeds ~1/alpha of the remaining edge work; return to push when
/// the frontier thins below 1/beta of the vertices.
struct dobfs_options {
  double alpha = 15.0;
  double beta = 18.0;
};

/// Direction-optimizing BFS: starts push/sparse; when the frontier grows
/// dense it converts the frontier representation (sparse -> dense) and
/// switches to pull; when the frontier thins it converts back.  One
/// algorithm, two operators, two frontier representations — the crossover
/// machinery the abstraction exists to express.
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

  std::size_t const n = static_cast<std::size_t>(g.get_num_vertices());
  parallel::atomic_bitset visited(n);
  visited.set(static_cast<std::size_t>(source));

  frontier::sparse_frontier<V> sparse;
  sparse.add_vertex(source);
  frontier::dense_frontier<V> dense(n);
  bool pulling = false;

  telemetry::recorder* const rec = telemetry::current();
  std::size_t iteration = 0;
  std::size_t frontier_size = 1;
  while (frontier_size != 0) {
    V const next_depth = static_cast<V>(iteration + 1);
    // Heuristic signal: frontier share of vertices.
    double const density =
        static_cast<double>(frontier_size) / static_cast<double>(n);
    bool const want_pull = density > 1.0 / opt.alpha;
    bool const want_push = density < 1.0 / opt.beta;

    bool switched = false;
    if (!pulling && want_pull) {
      dense = frontier::to_dense(sparse, n);
      pulling = true;
      switched = true;
    } else if (pulling && want_push && !want_pull) {
      sparse = frontier::to_sparse(dense);
      pulling = false;
      switched = true;
    }

    // Telemetry: one superstep per level, carrying the direction decision
    // the Beamer heuristic just made and the density it was based on.
    if (rec) {
      rec->begin_superstep(frontier_size,
                           pulling ? direction_t::pull : direction_t::push);
      rec->set_direction(pulling ? direction_t::pull : direction_t::push,
                         switched, density);
    }

    if (pulling) {
      dense = operators::advance_pull<true>(
          policy, g, dense,
          [depths, parents, next_depth](V const src, V const dst, E const,
                                        W const) {
            if (depths[dst] != V{-1})
              return false;
            depths[dst] = next_depth;
            parents[dst] = src;
            return true;
          });
      // Keep the visited bitmap coherent for a later return to push.
      dense.for_each_active(
          [&visited](V v) { visited.set(static_cast<std::size_t>(v)); });
      frontier_size = dense.size();
    } else {
      sparse = operators::advance_balanced(
          policy, g, sparse,
          [&visited, depths, parents, next_depth](V const src, V const dst,
                                                  E const, W const) {
            if (!visited.test_and_set(static_cast<std::size_t>(dst)))
              return false;
            depths[dst] = next_depth;
            parents[dst] = src;
            return true;
          });
      frontier_size = sparse.size();
    }
    if (rec)
      rec->end_superstep(frontier_size);
    ++iteration;
  }
  result.iterations = iteration;
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
