#pragma once

/// \file algorithms/mis.hpp
/// \brief Maximal independent set — Luby's randomized parallel algorithm
/// expressed as a frontier program, with the serial greedy oracle.
///
/// Each round, every undecided vertex whose random priority beats all
/// undecided neighbors enters the set; its neighbors leave the game.  The
/// undecided set is a frontier that shrinks geometrically (expected
/// O(log V) BSP rounds) — the same independent-set schedule that powers
/// Jones-Plassmann coloring, isolated here as its own primitive.
///
/// Undirected semantics: run on a symmetrized graph.

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/execution.hpp"
#include "core/frontier/frontier.hpp"
#include "core/operators/compute.hpp"
#include "core/types.hpp"
#include "generators/random.hpp"
#include "parallel/atomics.hpp"

namespace essentials::algorithms {

template <typename V = vertex_t>
struct mis_result {
  std::vector<bool> in_set;
  std::size_t set_size = 0;
  std::size_t rounds = 0;
};

/// Luby's algorithm.  Deterministic for a fixed seed.
template <typename P, typename G>
  requires execution::synchronous_policy<P>
mis_result<typename G::vertex_type> maximal_independent_set(
    P policy, G const& g, std::uint64_t seed = 1) {
  using V = typename G::vertex_type;
  std::size_t const n = static_cast<std::size_t>(g.get_num_vertices());
  mis_result<V> result;
  result.in_set.assign(n, false);

  // 0 = undecided, 1 = in set, 2 = excluded (neighbor in set).
  std::vector<char> state(n, 0);
  char* const st = state.data();
  std::vector<std::uint64_t> priority(n);
  generators::rng_t rng(seed);
  for (auto& p : priority)
    p = rng.next_u64();

  std::vector<V> undecided(n);
  std::iota(undecided.begin(), undecided.end(), V{0});

  // Each lane writes only its own vertices' states but reads its
  // neighbours', which their lanes write in the same phase: every
  // cross-lane access goes through atomic::load / atomic::store.
  while (!undecided.empty()) {
    frontier::sparse_frontier<V> f(undecided);
    // Phase 1: local maxima among undecided vertices join the set.  A
    // neighbour seen joining this round outranks v, so v would lose on
    // priority anyway: the set does not depend on the lanes' timing.
    operators::compute(policy, f, [&](V v) {
      for (auto const e : g.get_edges(v)) {
        V const nb = g.get_dest_vertex(e);
        if (nb == v)
          continue;
        char const state_nb = atomic::load(&st[nb]);
        if (state_nb == 2)
          continue;
        if (state_nb == 1)
          return;  // a neighbor already won: we can never join
        auto const pv = priority[static_cast<std::size_t>(v)];
        auto const pn = priority[static_cast<std::size_t>(nb)];
        if (pn > pv || (pn == pv && nb > v))
          return;
      }
      atomic::store(&st[v], char{1});
    });
    // Phase 2: neighbors of winners are excluded.  Winners form an
    // independent set, so the two phases cannot race on the same vertex.
    operators::compute(policy, f, [&](V v) {
      if (st[v] != 0)
        return;
      for (auto const e : g.get_edges(v)) {
        if (atomic::load(&st[g.get_dest_vertex(e)]) == 1) {
          atomic::store(&st[v], char{2});
          return;
        }
      }
    });

    std::vector<V> next;
    next.reserve(undecided.size());
    for (V const v : undecided)
      if (st[static_cast<std::size_t>(v)] == 0)
        next.push_back(v);
    expects(next.size() < undecided.size(),
            "maximal_independent_set: no progress");
    undecided = std::move(next);
    ++result.rounds;
  }

  for (std::size_t v = 0; v < n; ++v) {
    result.in_set[v] = state[v] == 1;
    result.set_size += state[v] == 1;
  }
  return result;
}

/// Serial greedy MIS in vertex order — the oracle for independence +
/// maximality (the set itself differs; the *properties* must hold for
/// both).
template <typename G>
mis_result<typename G::vertex_type> maximal_independent_set_serial(
    G const& g) {
  using V = typename G::vertex_type;
  std::size_t const n = static_cast<std::size_t>(g.get_num_vertices());
  mis_result<V> result;
  result.in_set.assign(n, false);
  std::vector<char> blocked(n, 0);
  for (V v = 0; v < g.get_num_vertices(); ++v) {
    if (blocked[static_cast<std::size_t>(v)])
      continue;
    result.in_set[static_cast<std::size_t>(v)] = true;
    ++result.set_size;
    for (auto const e : g.get_edges(v))
      blocked[static_cast<std::size_t>(g.get_dest_vertex(e))] = 1;
  }
  result.rounds = 1;
  return result;
}

/// Validity: no two set members adjacent (independence) and every
/// non-member has a member neighbor (maximality).
template <typename G>
bool is_valid_mis(G const& g, std::vector<bool> const& in_set) {
  using V = typename G::vertex_type;
  for (V v = 0; v < g.get_num_vertices(); ++v) {
    if (in_set[static_cast<std::size_t>(v)]) {
      for (auto const e : g.get_edges(v)) {
        V const nb = g.get_dest_vertex(e);
        if (nb != v && in_set[static_cast<std::size_t>(nb)])
          return false;  // independence violated
      }
    } else {
      // Maximality: every non-member needs a member neighbor.  (An
      // isolated non-member fails vacuously — it could always be added.)
      bool has_member_neighbor = false;
      for (auto const e : g.get_edges(v))
        has_member_neighbor |=
            in_set[static_cast<std::size_t>(g.get_dest_vertex(e))];
      if (!has_member_neighbor)
        return false;
    }
  }
  return true;
}

}  // namespace essentials::algorithms
