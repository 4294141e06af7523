#pragma once

/// \file algorithms/connected_components.hpp
/// \brief Connected components (undirected semantics: run on a symmetrized
/// graph) — label propagation expressed with the framework's operators,
/// hook/pointer-jump (Shiloach–Vishkin flavoured) as the fast parallel
/// alternative, and serial union-find as the oracle.

#include <cstddef>
#include <numeric>
#include <vector>

#include "algorithms/relax.hpp"
#include "core/execution.hpp"
#include "core/types.hpp"
#include "parallel/atomics.hpp"
#include "parallel/for_each.hpp"

namespace essentials::algorithms {

template <typename V = vertex_t>
struct cc_result {
  std::vector<V> labels;  ///< labels[v] == labels[u] iff same component
  std::size_t num_components = 0;
  std::size_t iterations = 0;
};

namespace detail {

/// Components of a labelling that names each component by its smallest
/// vertex id — every labelling here does: label propagation's min, the
/// hook's roots (a vertex only ever hooks under a smaller id), union-find
/// by minimum, and the incremental path's fixed point.  So each component
/// has exactly one vertex labelled with its own id: one O(n) pass, no sort.
template <typename V>
std::size_t count_components(std::vector<V> const& labels) {
  std::size_t count = 0;
  for (std::size_t v = 0; v < labels.size(); ++v)
    count += labels[v] == static_cast<V>(v) ? 1 : 0;
  return count;
}

}  // namespace detail

/// Label propagation: every vertex starts active, labelled with its own
/// id; labels spread along edges by atomic-min, and vertices whose label
/// improved join the next frontier — `relax_bsp` with zero cost, the
/// "algorithm as frontier program" formulation.
template <typename P, typename G>
  requires execution::synchronous_policy<P>
cc_result<typename G::vertex_type> connected_components(P policy,
                                                        G const& g) {
  using V = typename G::vertex_type;
  std::size_t const n = static_cast<std::size_t>(g.get_num_vertices());
  cc_result<V> result;
  result.labels.resize(n);
  std::iota(result.labels.begin(), result.labels.end(), V{0});

  // Every vertex is a seed, and the initial labels are the vertex ids.
  auto const stats =
      relax_bsp(policy, g, result.labels,
                min_plus_condition<constant_cost<V{0}>>(result.labels.data()));
  result.iterations = stats.iterations;
  result.num_components = detail::count_components(result.labels);
  return result;
}

/// Hook + pointer-jumping (Shiloach–Vishkin style): alternating rounds of
/// edge hooks (parent[max] = min over each edge) and parallel pointer
/// jumping until the parent forest is flat.  Converges in O(log V) rounds —
/// the classic PRAM CC, here on the COO view.
template <typename P, typename G>
  requires execution::synchronous_policy<P> && (G::has_coo)
cc_result<typename G::vertex_type> connected_components_hook(P policy,
                                                             G const& g) {
  using V = typename G::vertex_type;
  using E = typename G::edge_type;
  std::size_t const n = static_cast<std::size_t>(g.get_num_vertices());
  cc_result<V> result;
  result.labels.resize(n);
  std::iota(result.labels.begin(), result.labels.end(), V{0});
  V* const parent = result.labels.data();

  E const m = g.coo_num_edges();
  bool changed = true;
  while (changed) {
    changed = false;
    // Hook: for every edge (edge-parallel over the COO view), attach the
    // larger root under the smaller.
    std::vector<char> any(1, 0);
    char* const any_flag = any.data();
    auto const hook_body = [&](std::size_t i) {
      E const e = static_cast<E>(i);
      V const u = g.coo_source(e);
      V const v = g.coo_dest(e);
      V pu = atomic::load(&parent[u]);
      V pv = atomic::load(&parent[v]);
      if (pu == pv)
        return;
      V const hi = pu > pv ? pu : pv;
      V const lo = pu > pv ? pv : pu;
      // Hook hi's root under lo when hi is still a root (parent[hi]==hi).
      if (atomic::cas(&parent[hi], hi, lo) == hi)
        atomic::store(any_flag, char{1});
    };
    if constexpr (std::decay_t<P>::is_parallel) {
      parallel::parallel_for(policy.pool(), std::size_t{0},
                             static_cast<std::size_t>(m), hook_body,
                             policy.grain);
    } else {
      for (std::size_t i = 0; i < static_cast<std::size_t>(m); ++i)
        hook_body(i);
    }
    changed = any[0] != 0;

    // Pointer jumping: flatten every chain to its root.  Other lanes are
    // flattening the same chains concurrently, so every access is atomic
    // (any value read is an ancestor, so the walk still ends at the root).
    auto const parent_of = [parent](V v) {
      return atomic::load(&parent[static_cast<std::size_t>(v)]);
    };
    auto const jump_body = [&](std::size_t vi) {
      V p = parent_of(static_cast<V>(vi));
      while (p != parent_of(p))
        p = parent_of(p);
      atomic::store(&parent[vi], p);
    };
    if constexpr (std::decay_t<P>::is_parallel) {
      parallel::parallel_for(policy.pool(), std::size_t{0}, n, jump_body,
                             policy.grain);
    } else {
      for (std::size_t vi = 0; vi < n; ++vi)
        jump_body(vi);
    }
    ++result.iterations;
  }
  result.num_components = detail::count_components(result.labels);
  return result;
}

/// Serial union-find (path halving + union by label minimum) — the oracle.
template <typename G>
cc_result<typename G::vertex_type> connected_components_serial(G const& g) {
  using V = typename G::vertex_type;
  std::size_t const n = static_cast<std::size_t>(g.get_num_vertices());
  cc_result<V> result;
  std::vector<V> parent(n);
  std::iota(parent.begin(), parent.end(), V{0});

  auto const find = [&parent](V x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(
              parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  };

  for (V u = 0; u < g.get_num_vertices(); ++u) {
    for (auto const e : g.get_edges(u)) {
      V const v = g.get_dest_vertex(e);
      V const ru = find(u);
      V const rv = find(v);
      if (ru != rv) {
        // Union by minimum label so results are canonical.
        if (ru < rv)
          parent[static_cast<std::size_t>(rv)] = ru;
        else
          parent[static_cast<std::size_t>(ru)] = rv;
      }
    }
  }
  result.labels.resize(n);
  for (std::size_t v = 0; v < n; ++v)
    result.labels[v] = find(static_cast<V>(v));
  result.num_components = detail::count_components(result.labels);
  return result;
}

}  // namespace essentials::algorithms
