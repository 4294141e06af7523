#pragma once

/// \file algorithms/connected_components.hpp
/// \brief Connected components (undirected semantics: run on a symmetric
/// graph) — Afforest's sampling and linking over the compute operator, and
/// serial union-find as the oracle.  The warm path, label propagation
/// seeded from a delta's endpoints, is in algorithms/incremental.hpp.
///
/// Afforest (Sutton, Ben-Nun and Barak, "Optimizing Parallel Graph
/// Connectivity Computation via Subgraph Sampling", IPDPS 2018; the GAP
/// suite's CC) grows a union-find forest in four phases:
///  1. every vertex links along its 0th out-edge, then a compress points
///     every vertex at its root;
///  2. the same along every vertex's 1st out-edge;
///  3. a vote over a fixed sample of labels names the most frequent one,
///     most likely the giant component's;
///  4. every vertex outside that component links along its remaining
///     out-edges, and a last compress finishes.
/// Phase 4 skips the giant component's edges because, on a symmetric
/// graph, an edge from inside it to a vertex outside is also an out-edge
/// of the outside vertex, and is linked from there.
///
/// A link only ever hangs a root under a smaller id, so following parents
/// always lowers the id and every root is its tree's smallest vertex: the
/// labels name each component by its minimum id, the labels
/// `connected_components_serial` and the warm path compute.

#include <algorithm>
#include <array>
#include <cstddef>
#include <limits>
#include <numeric>
#include <vector>

#include "algorithms/relax.hpp"
#include "core/execution.hpp"
#include "core/operators/compute.hpp"
#include "core/operators/reduce.hpp"
#include "core/telemetry.hpp"
#include "core/types.hpp"
#include "generators/random.hpp"
#include "parallel/atomics.hpp"

namespace essentials::algorithms {

template <typename V = vertex_t>
struct cc_result {
  std::vector<V> labels;  ///< labels[v] == the smallest id in v's component
  std::size_t num_components = 0;
  /// Cold: Afforest's link phases.  Warm: label-propagation supersteps.
  std::size_t iterations = 0;
};

namespace detail {

/// Components of a labelling that names each component by its smallest
/// vertex id — every labelling here does: Afforest's roots, union-find by
/// minimum, and the incremental path's fixed point.  So each component has
/// exactly one vertex labelled with its own id: one O(n) pass, no sort.
template <typename V>
std::size_t count_components(std::vector<V> const& labels) {
  std::size_t count = 0;
  for (std::size_t v = 0; v < labels.size(); ++v)
    count += labels[v] == static_cast<V>(v) ? 1 : 0;
  return count;
}

/// Out-edge positions each vertex links along before the vote: one link
/// phase per position.
inline constexpr std::size_t afforest_sample_rounds = 2;
/// Labels drawn for the vote.
inline constexpr std::size_t afforest_vote_samples = 1024;
/// Link phases of a cold call: the sampling rounds and the final link.
inline constexpr std::size_t afforest_phases = afforest_sample_rounds + 1;

/// Joins the trees of u and v in the forest `comp`, where comp[x] <= x
/// always and comp[x] == x marks a root: walks both sides up and hangs the
/// larger root under the other side's vertex, by CAS since other lanes link
/// at once.  Only roots are written, so any value read is an ancestor.
/// True iff this call hooked a root.
template <typename V>
bool afforest_link(V* const comp, V const u, V const v) {
  V p1 = atomic::load_relaxed(&comp[static_cast<std::size_t>(u)]);
  V p2 = atomic::load_relaxed(&comp[static_cast<std::size_t>(v)]);
  while (p1 != p2) {
    V const high = p1 > p2 ? p1 : p2;
    V const low = p1 > p2 ? p2 : p1;
    V up = atomic::load_relaxed(&comp[static_cast<std::size_t>(high)]);
    if (up == low)
      return false;
    if (up == high) {
      up = atomic::cas(&comp[static_cast<std::size_t>(high)], high, low);
      if (up == high)
        return true;
    }
    p1 = atomic::load_relaxed(&comp[static_cast<std::size_t>(up)]);
    p2 = atomic::load_relaxed(&comp[static_cast<std::size_t>(low)]);
  }
  return false;
}

/// Calls `fn(dst)` on u's out-edges at adjacency positions [lo, hi) and
/// returns how many there were.  `graph_t`'s CSR is read through base
/// pointers held in locals, as `push_vertex` does; the compressed and the
/// partitioned graph decode or route through their accessors, where the
/// r-th out-edge is edge id `first + r`.
template <typename G, typename F>
std::size_t for_out_edges_at(G const& g, typename G::vertex_type const u,
                             std::size_t const lo, std::size_t const hi,
                             F&& fn) {
  using E = typename G::edge_type;
  auto const edges = g.get_edges(u);
  auto const first = static_cast<std::size_t>(*edges.begin());
  std::size_t const end = std::min(hi, edges.size());
  if (end <= lo)
    return 0;
  if constexpr (flat_csr<G>) {
    auto const* const dests = g.csr().column_indices.data();
    for (std::size_t i = first + lo; i < first + end; ++i)
      fn(dests[i]);
  } else {
    for (std::size_t i = first + lo; i < first + end; ++i)
      fn(g.get_dest_vertex(static_cast<E>(i)));
  }
  return end - lo;
}

/// Edges a link pass offered and the roots it hooked: the `cc.link` op's
/// edges_inspected and edges_relaxed.
struct link_counts {
  std::size_t offered = 0;
  std::size_t hooked = 0;
};

/// One link phase, recorded as one superstep: a `cc.link` pass links every
/// vertex whose label is not `skip` along its out-edges at adjacency
/// positions [lo, hi), then a `cc.compress` pass points every vertex at
/// its root.  The link pass folds its counts per chunk
/// (`reduce_vertices`), so recording them shares no counter per vertex.
template <typename P, typename G>
void afforest_phase(P policy, G const& g, typename G::vertex_type* const comp,
                    std::size_t const lo, std::size_t const hi,
                    typename G::vertex_type const skip) {
  using V = typename G::vertex_type;
  std::size_t const n = static_cast<std::size_t>(g.get_num_vertices());
  telemetry::recorder* const rec = telemetry::current();
  if (rec)
    rec->begin_superstep(n);
  {
    auto const probe = telemetry::make_probe("cc.link", policy, n);
    auto const counts = operators::reduce_vertices(
        policy, g, link_counts{},
        [&g, comp, lo, hi, skip](V const u) {
          link_counts c;
          if (atomic::load_relaxed(&comp[static_cast<std::size_t>(u)]) == skip)
            return c;
          c.offered = for_out_edges_at(g, u, lo, hi, [&c, comp, u](V const v) {
            c.hooked += afforest_link(comp, u, v) ? 1 : 0;
          });
          return c;
        },
        [](link_counts const a, link_counts const b) {
          return link_counts{a.offered + b.offered, a.hooked + b.hooked};
        });
    probe.add_edges(counts.offered, counts.hooked);
  }
  {
    // No link runs now, so every root is final for this phase; a lane
    // compressing v may read a vertex another lane is repointing, and
    // either value it reads is an ancestor.
    auto const probe = telemetry::make_probe("cc.compress", policy, n);
    operators::compute_vertices(policy, g, [comp](V const v) {
      V const parent = atomic::load_relaxed(&comp[static_cast<std::size_t>(v)]);
      V root = parent;
      for (V up = atomic::load_relaxed(&comp[static_cast<std::size_t>(root)]);
           up != root;
           up = atomic::load_relaxed(&comp[static_cast<std::size_t>(root)]))
        root = up;
      if (root != parent)
        atomic::store(&comp[static_cast<std::size_t>(v)], root);
    });
  }
  if (rec)
    rec->end_superstep(n);
}

/// The most frequent of `afforest_vote_samples` labels drawn with a fixed
/// seed, ties to the smallest: after the sampling rounds, most likely the
/// giant component's.  The seed is fixed so that each call does the same
/// work.
template <typename V>
V afforest_vote(V const* const comp, std::size_t const n) {
  if (n == 0)
    return V{0};
  generators::rng_t rng;
  std::array<V, afforest_vote_samples> drawn{};
  for (V& label : drawn)
    label = comp[rng.next_below(n)];
  std::sort(drawn.begin(), drawn.end());
  V best = drawn[0];
  std::size_t best_count = 0;
  for (std::size_t i = 0, j = 0; i < drawn.size(); i = j) {
    while (j < drawn.size() && drawn[j] == drawn[i])
      ++j;
    if (j - i > best_count) {
      best = drawn[i];
      best_count = j - i;
    }
  }
  return best;
}

}  // namespace detail

/// Afforest: a link phase along every vertex's 0th out-edge, one along its
/// 1st, a vote for the most frequent label, and a last link phase over the
/// remaining out-edges of the vertices outside it (file comment).  Labels
/// are each component's smallest id; `iterations` counts the link phases.
/// The graph must be symmetric: the last phase reaches the voted
/// component's edges only from their other end.
template <typename P, typename G>
  requires execution::synchronous_policy<P> && (G::has_csr)
cc_result<typename G::vertex_type> connected_components(P policy,
                                                        G const& g) {
  using V = typename G::vertex_type;
  std::size_t const n = static_cast<std::size_t>(g.get_num_vertices());
  cc_result<V> result;
  result.labels.resize(n);
  std::iota(result.labels.begin(), result.labels.end(), V{0});
  V* const comp = result.labels.data();

  // No label equals n, so the sampling rounds skip no vertex.
  for (std::size_t r = 0; r < detail::afforest_sample_rounds; ++r)
    detail::afforest_phase(policy, g, comp, r, r + 1, static_cast<V>(n));
  detail::afforest_phase(policy, g, comp, detail::afforest_sample_rounds,
                         std::numeric_limits<std::size_t>::max(),
                         detail::afforest_vote(comp, n));
  result.iterations = detail::afforest_phases;
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
