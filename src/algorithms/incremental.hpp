#pragma once

/// \file algorithms/incremental.hpp
/// \brief Incremental (delta-seeded, warm-start) enactors for the monotone
/// algorithms: SSSP, BFS and connected components.
///
/// The observation (GraphLab; McCune et al.'s TLAV survey; Maiter's
/// delta-accumulation): for *monotone* label-correcting vertex programs, a
/// previous epoch's converged result remains a valid set of upper bounds
/// after edges are **inserted** (or weights decreased), because more edges
/// can only improve distances/depths/labels.  Re-enacting Listing 4 from a
/// full source frontier re-derives everything; seeding the frontier from
/// the delta's source endpoints instead re-derives only the cone the new
/// edges actually improve — usually a few supersteps over a few vertices.
/// Every warm run is the loop cold SSSP and BFS depths run, `relax_bsp`
/// (algorithms/relax.hpp), with a different seed; cold CC is Afforest
/// (algorithms/connected_components.hpp), and its warm path is label
/// propagation in that loop, which reaches the same minimum-id labels.
///
/// Correctness argument (the reason warm results are bit-identical to
/// cold): seed the frontier with every delta-record source endpoint whose
/// previous label is finite, then run the *unchanged* relaxation against
/// the *new* snapshot.  At convergence no edge out of any improved-or-
/// seeded vertex improves anything; edges out of never-improved vertices
/// were stable in the old graph, and new edges out of unreached vertices
/// cannot relax (their source becomes finite only by improving — which
/// puts it on the frontier, where all its out-edges, including the new
/// ones, get relaxed).  Stability plus valid upper bounds pins the unique
/// fixed point — the same one the cold enactment reaches, including
/// float-for-float for SSSP (both runs minimize over the same set of
/// left-folded path sums).
///
/// Spurious delta records (superset semantics, graph/delta.hpp) only seed
/// extra vertices whose relaxations fail — wasted work, never wrong
/// results.  Record weights are advisory and deliberately *unused* here:
/// relaxation always reads the snapshot's authoritative weights.
///
/// Deletions, in-place weight increases and truncated logs break the
/// upper-bound property; each enactor detects this (`insert_only()` /
/// `complete`) and transparently falls back to the cold algorithm.  The
/// `incremental_outcome` out-param reports which path ran, so the engine
/// can count warm-start hits vs delta fallbacks (telemetry schema v4).
///
/// Note on `iterations` and BFS parents: a warm-started result converges
/// in fewer supersteps, so the result's `iterations` field differs from a
/// cold run's — "bit-identical" covers the *payload* (distances / depths /
/// labels).  Warm BFS maintains (depth, parent) in one packed 64-bit word,
/// yielding exact depths and *a* valid BFS tree (the same contract as the
/// cold parallel claim-based BFS, whose parents are also run-dependent).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "algorithms/bfs.hpp"
#include "algorithms/connected_components.hpp"
#include "algorithms/relax.hpp"
#include "algorithms/sssp.hpp"
#include "core/execution.hpp"
#include "core/types.hpp"
#include "graph/delta.hpp"

namespace essentials::algorithms {

/// How an incremental enactment went: which path ran and what it saved.
struct incremental_outcome {
  bool warm_started = false;  ///< false ⇒ fell back to the cold algorithm
  std::size_t delta_edges = 0;       ///< compacted delta records consumed
  std::size_t supersteps = 0;        ///< supersteps the chosen path took
  std::size_t supersteps_saved = 0;  ///< prev cold supersteps minus ours
};

namespace detail {

/// Deduplicated seed frontier from delta-record source endpoints that pass
/// `viable` (typically "previous label is finite").
template <typename V, typename W, typename ViableF>
std::vector<V> delta_seeds(graph::edge_delta_t<V, W> const& delta,
                           std::size_t n, bool both_endpoints,
                           ViableF viable) {
  std::vector<V> seeds;
  seeds.reserve(delta.records.size() * (both_endpoints ? 2 : 1));
  auto const consider = [&](V v) {
    if (v >= 0 && static_cast<std::size_t>(v) < n && viable(v))
      seeds.push_back(v);
  };
  for (auto const& r : delta.records) {
    consider(r.src);
    if (both_endpoints)
      consider(r.dst);
  }
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  return seeds;
}

inline void note_outcome(incremental_outcome* out, bool warm,
                         std::size_t delta_edges, std::size_t supersteps,
                         std::size_t prev_supersteps) {
  if (!out)
    return;
  out->warm_started = warm;
  out->delta_edges = delta_edges;
  out->supersteps = supersteps;
  out->supersteps_saved =
      warm && prev_supersteps > supersteps ? prev_supersteps - supersteps : 0;
}

/// Warm BFS's program: (depth, parent) packed in one word, depth in the
/// high half, `unset` (all ones) for unreached, ordered by the depth half
/// alone.  A source at depth d offers (d + 1, itself); an unset source
/// offers nothing.  `relax_push` lowers a destination with a CAS on the
/// packed word; `relax_pull` folds the offers.  Either way depth and parent
/// change together, so a parent's converged depth is always exactly one
/// less than its child's.
struct depth_parent_program {
  static constexpr std::uint32_t unset = 0xffffffffu;
  std::uint64_t* value;

  static std::uint64_t pack(std::uint32_t depth, std::uint32_t parent) {
    return (static_cast<std::uint64_t>(depth) << 32) | parent;
  }
  static std::uint32_t depth(std::uint64_t word) {
    return static_cast<std::uint32_t>(word >> 32);
  }
  static std::uint32_t parent(std::uint64_t word) {
    return static_cast<std::uint32_t>(word);
  }

  std::uint64_t offer(auto const src, std::uint64_t const x,
                      auto const /*weight*/) const {
    return depth(x) == unset ? x
                             : pack(depth(x) + 1,
                                    static_cast<std::uint32_t>(src));
  }
  static bool improves(std::uint64_t const a, std::uint64_t const b) {
    return depth(a) < depth(b);
  }
};

}  // namespace detail

// ---------------------------------------------------------------------------
// SSSP
// ---------------------------------------------------------------------------

/// Incremental SSSP: previous epoch's converged distances + the edge delta
/// leading to this snapshot ⇒ the new epoch's distances, bit-identical to
/// `sssp(policy, g, source)` from scratch.  Falls back to the cold
/// enactment on deletions / weight increases / truncated logs.
template <typename P, typename G>
  requires execution::synchronous_policy<P>
sssp_result<typename G::weight_type> sssp_incremental(
    P policy, G const& g, typename G::vertex_type source,
    sssp_result<typename G::weight_type> const& prev,
    graph::edge_delta_t<typename G::vertex_type,
                        typename G::weight_type> const& delta,
    incremental_outcome* outcome = nullptr) {
  using V = typename G::vertex_type;
  using W = typename G::weight_type;
  std::size_t const n = static_cast<std::size_t>(g.get_num_vertices());

  bool const warmable =
      delta.complete && delta.insert_only() && prev.distances.size() == n &&
      source >= 0 && static_cast<std::size_t>(source) < n &&
      prev.distances[static_cast<std::size_t>(source)] == W{0};
  if (!warmable) {
    auto cold = sssp(policy, g, source);
    detail::note_outcome(outcome, false, delta.size(), cold.iterations,
                         prev.iterations);
    return cold;
  }

  sssp_result<W> result;
  result.distances = prev.distances;  // valid upper bounds after inserts
  W* const dist = result.distances.data();
  // Listing 4's relaxation, unchanged — only the seed differs.
  auto const stats = relax_bsp(
      policy, g,
      detail::delta_seeds(delta, n, /*both_endpoints=*/false,
                          [dist](V v) { return dist[v] != infinity_v<W>; }),
      min_plus_condition(dist));
  result.iterations = stats.iterations;
  detail::note_outcome(outcome, true, delta.size(), stats.iterations,
                       prev.iterations);
  return result;
}

// ---------------------------------------------------------------------------
// BFS
// ---------------------------------------------------------------------------

/// Incremental BFS (unit-weight SSSP on the hop lattice).  Depths are
/// bit-identical to a cold `bfs`; parents form a valid BFS tree (kept
/// consistent with depths in one packed (depth, parent) word,
/// `detail::depth_parent_program`, so a parent's converged depth is always
/// exactly one less than its child's).
template <typename P, typename G>
  requires execution::synchronous_policy<P>
bfs_result<typename G::vertex_type> bfs_incremental(
    P policy, G const& g, typename G::vertex_type source,
    bfs_result<typename G::vertex_type> const& prev,
    graph::edge_delta_t<typename G::vertex_type,
                        typename G::weight_type> const& delta,
    incremental_outcome* outcome = nullptr) {
  using V = typename G::vertex_type;
  static_assert(sizeof(V) <= sizeof(std::uint32_t),
                "bfs_incremental packs (depth, parent) into one u64 word");
  std::size_t const n = static_cast<std::size_t>(g.get_num_vertices());

  bool const warmable =
      delta.complete && delta.insert_only() && prev.depths.size() == n &&
      prev.parents.size() == n && source >= 0 &&
      static_cast<std::size_t>(source) < n &&
      prev.depths[static_cast<std::size_t>(source)] == V{0};
  if (!warmable) {
    auto cold = bfs(policy, g, source);
    detail::note_outcome(outcome, false, delta.size(), cold.iterations,
                         prev.iterations);
    return cold;
  }

  using word = detail::depth_parent_program;
  auto const encode = [](V x) {
    return x == V{-1} ? word::unset : static_cast<std::uint32_t>(x);
  };
  auto const decode = [](std::uint32_t x) {
    return x == word::unset ? V{-1} : static_cast<V>(x);
  };

  std::vector<std::uint64_t> words(n);
  for (std::size_t v = 0; v < n; ++v)
    words[v] = word::pack(encode(prev.depths[v]), encode(prev.parents[v]));

  auto const stats = relax_bsp(
      policy, g,
      detail::delta_seeds(delta, n, /*both_endpoints=*/false,
                          [&prev](V v) {
                            return prev.depths[static_cast<std::size_t>(v)] !=
                                   V{-1};
                          }),
      word{words.data()});

  bfs_result<V> result;
  result.depths.resize(n);
  result.parents.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    result.depths[v] = decode(word::depth(words[v]));
    result.parents[v] = decode(word::parent(words[v]));
  }
  result.iterations = stats.iterations;
  detail::note_outcome(outcome, true, delta.size(), stats.iterations,
                       prev.iterations);
  return result;
}

// ---------------------------------------------------------------------------
// Connected components
// ---------------------------------------------------------------------------

/// Incremental CC (label propagation; undirected semantics — run on a
/// symmetrized graph, like the cold variant).  Inserts only merge
/// components, so the previous labels are valid upper bounds and seeding
/// both endpoints of every delta edge floods the smaller label through the
/// merged component.  Labels are bit-identical to the cold ones (min
/// vertex id per component).  `iterations` counts this loop's supersteps
/// and a cold call's link phases, so `supersteps_saved` compares the two.
/// Deletions can split components — fallback.  Weight-only changes also
/// route through the conservative `remove` marking and fall back, although
/// CC ignores weights; that pessimism costs a cold run, never correctness.
template <typename P, typename G>
  requires execution::synchronous_policy<P>
cc_result<typename G::vertex_type> connected_components_incremental(
    P policy, G const& g,
    cc_result<typename G::vertex_type> const& prev,
    graph::edge_delta_t<typename G::vertex_type,
                        typename G::weight_type> const& delta,
    incremental_outcome* outcome = nullptr) {
  using V = typename G::vertex_type;
  std::size_t const n = static_cast<std::size_t>(g.get_num_vertices());

  bool const warmable =
      delta.complete && delta.insert_only() && prev.labels.size() == n;
  if (!warmable) {
    auto cold = connected_components(policy, g);
    detail::note_outcome(outcome, false, delta.size(), cold.iterations,
                         prev.iterations);
    return cold;
  }

  cc_result<V> result;
  result.labels = prev.labels;

  auto const stats = relax_bsp(
      policy, g,
      detail::delta_seeds(delta, n, /*both_endpoints=*/true,
                          [](V) { return true; }),
      min_plus_condition<constant_cost<V{0}>>(result.labels.data()));

  result.iterations = stats.iterations;
  result.num_components = detail::count_components(result.labels);
  detail::note_outcome(outcome, true, delta.size(), stats.iterations,
                       prev.iterations);
  return result;
}

}  // namespace essentials::algorithms
