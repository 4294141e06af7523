#pragma once

/// \file residual/algebras.hpp
/// \brief The shipped accumulator algebras: min-plus SSSP, BFS
/// reachability, PageRank, personalized PageRank, and adsorption-style
/// label spread — plus the seeding/rebase helpers that tie each one to the
/// rest of the framework.
///
/// Correctness anchors (the differential tests in tests/test_residual.cpp
/// hold the engine to these):
///  - **min-plus / reachability**: the fixed point is the unique bottom of
///    the min-lattice, so residual results are *bit-identical* to
///    `dijkstra`/`sssp`/`bfs` — distances are the same float sums along
///    the same shortest paths (the PR 4 incremental argument).
///  - **pagerank**: the residual fixed point solves
///    x_v = (1-d)/n + d·Σ_in x_u/deg_u, which is `pagerank()`'s fixed
///    point *when the graph has no dangling vertices* (the residual model
///    propagates along real edges only, so dangling redistribution has no
///    push form).  Differential tests use graphs with a ring guaranteeing
///    out-degree >= 1; standing queries over graphs with dangling vertices
///    get a well-defined (sub-stochastic) fixed point, documented, not
///    silently wrong.
///  - **ppr**: forward push (Andersen et al.) *is* the residual engine for
///    the (α, (1-α)/deg) sum algebra — `personalized_pagerank` is its
///    serial special case, with a global ε instead of per-degree ones.

#include <cmath>
#include <cstddef>

#include <cstdint>

#include "core/types.hpp"
#include "graph/delta.hpp"
#include "residual/algebra.hpp"
#include "residual/state.hpp"

namespace essentials::residual {

// ---------------------------------------------------------------------------
// Min-lattices
// ---------------------------------------------------------------------------

/// Min-plus (tropical) algebra: SSSP.  Claimed deltas are candidate
/// distances; combine keeps the smaller, shares are `new_value + weight` —
/// the min-plus program of algorithms/relax.hpp, expressed as an
/// accumulator.
template <typename W = weight_t>
struct min_plus_algebra {
  using value_type = W;
  static constexpr bool monotone = true;
  static constexpr bool exact_mass = false;

  value_type identity() const { return infinity_v<W>; }
  value_type combine(value_type value, value_type delta) const {
    return delta < value ? delta : value;
  }
  value_type accumulate(value_type* slot, value_type share) const {
    return detail::fetch_min_seq(slot, share);
  }
  value_type propagate(value_type /*claimed*/, value_type new_value, W weight,
                       std::size_t /*out_degree*/) const {
    return new_value + weight;
  }
  /// Priority = how much the pending candidate improves the value; an
  /// unreached vertex with any finite candidate is maximally urgent.
  double magnitude(value_type value, value_type pending) const {
    if (!(pending < value))
      return 0.0;
    if (value == infinity_v<W>)
      return 1e18;
    return static_cast<double>(value) - static_cast<double>(pending);
  }
  /// Every improvement must apply or the fixed point is not reached.
  double schedule_floor(std::size_t /*n*/, double /*eps*/) const {
    return 0.0;
  }
  double mass(value_type /*delta*/) const { return 0.0; }
};

/// BFS reachability as hop counts: min-plus over unit weights.  Depths are
/// int32, identical to `bfs().depths` modulo the unreached encoding
/// (identity here, -1 there — the tests translate).
struct reachability_algebra {
  using value_type = std::int32_t;
  static constexpr bool monotone = true;
  static constexpr bool exact_mass = false;

  value_type identity() const { return infinity_v<value_type>; }
  value_type combine(value_type value, value_type delta) const {
    return delta < value ? delta : value;
  }
  value_type accumulate(value_type* slot, value_type share) const {
    return detail::fetch_min_seq(slot, share);
  }
  template <typename W>
  value_type propagate(value_type /*claimed*/, value_type new_value,
                       W /*weight*/, std::size_t /*out_degree*/) const {
    return new_value + 1;
  }
  double magnitude(value_type value, value_type pending) const {
    if (!(pending < value))
      return 0.0;
    if (value == infinity_v<value_type>)
      return 1e18;
    return static_cast<double>(value) - static_cast<double>(pending);
  }
  double schedule_floor(std::size_t /*n*/, double /*eps*/) const {
    return 0.0;
  }
  double mass(value_type /*delta*/) const { return 0.0; }
};

// ---------------------------------------------------------------------------
// Weighted sums
// ---------------------------------------------------------------------------

/// PageRank: value += Δ, share = damping·Δ/deg.  Seed with
/// (1-damping)/n everywhere; the fixed point is the no-dangling PageRank
/// vector (see file comment).
struct pagerank_algebra {
  using value_type = double;
  static constexpr bool monotone = false;
  static constexpr bool exact_mass = true;

  double damping = 0.85;

  value_type identity() const { return 0.0; }
  value_type combine(value_type value, value_type delta) const {
    return value + delta;
  }
  value_type accumulate(value_type* slot, value_type share) const {
    return detail::fetch_add_seq(slot, share);
  }
  template <typename W>
  value_type propagate(value_type claimed, value_type /*new_value*/,
                       W /*weight*/, std::size_t out_degree) const {
    return out_degree == 0
               ? 0.0
               : damping * claimed / static_cast<double>(out_degree);
  }
  double magnitude(value_type /*value*/, value_type pending) const {
    return std::fabs(pending);
  }
  /// ε/(2n): a drained scheduler leaves < ε/2 unscheduled in total, and
  /// the mass counter certifies the staged remainder.
  double schedule_floor(std::size_t n, double eps) const {
    return eps / (2.0 * static_cast<double>(n ? n : 1));
  }
  double mass(value_type delta) const { return std::fabs(delta); }
  /// Epoch rebase (see `rebase_sum`): combine applies Δ with coefficient
  /// 1, so the claim equivalent of a converged value is the value itself.
  value_type rebase_claim(value_type value) const { return value; }
};

/// Personalized PageRank as forward push: value (the estimate) gains
/// α·Δ, neighbours share (1-α)·Δ/deg.  Seed with 1.0 at the source.
struct ppr_algebra {
  using value_type = double;
  static constexpr bool monotone = false;
  static constexpr bool exact_mass = true;

  double alpha = 0.15;  ///< teleport probability

  value_type identity() const { return 0.0; }
  value_type combine(value_type value, value_type delta) const {
    return value + alpha * delta;
  }
  value_type accumulate(value_type* slot, value_type share) const {
    return detail::fetch_add_seq(slot, share);
  }
  template <typename W>
  value_type propagate(value_type claimed, value_type /*new_value*/,
                       W /*weight*/, std::size_t out_degree) const {
    return out_degree == 0
               ? 0.0
               : (1.0 - alpha) * claimed / static_cast<double>(out_degree);
  }
  double magnitude(value_type /*value*/, value_type pending) const {
    return std::fabs(pending);
  }
  double schedule_floor(std::size_t n, double eps) const {
    return eps / (2.0 * static_cast<double>(n ? n : 1));
  }
  double mass(value_type delta) const { return std::fabs(delta); }
  /// combine's coefficient is α, so a converged value v corresponds to
  /// accumulated claims of v/α (used by the epoch rebase).
  value_type rebase_claim(value_type value) const { return value / alpha; }
};

/// Adsorption-style label spread: a vertex retains `retain` of each
/// incoming mass unit and spreads the rest along out-edges proportionally
/// to edge weight, deg-normalized — the weighted cousin of PPR used for
/// label propagation over affinity graphs.  One instance per label;
/// multi-label spread runs one standing query per label column.
struct spread_algebra {
  using value_type = double;
  static constexpr bool monotone = false;
  static constexpr bool exact_mass = true;

  double retain = 0.25;  ///< kept fraction per visit (adsorption's alpha)

  value_type identity() const { return 0.0; }
  value_type combine(value_type value, value_type delta) const {
    return value + retain * delta;
  }
  value_type accumulate(value_type* slot, value_type share) const {
    return detail::fetch_add_seq(slot, share);
  }
  template <typename W>
  value_type propagate(value_type claimed, value_type /*new_value*/, W weight,
                       std::size_t out_degree) const {
    return out_degree == 0 ? 0.0
                           : (1.0 - retain) * claimed *
                                 static_cast<double>(weight) /
                                 static_cast<double>(out_degree);
  }
  double magnitude(value_type /*value*/, value_type pending) const {
    return std::fabs(pending);
  }
  double schedule_floor(std::size_t n, double eps) const {
    return eps / (2.0 * static_cast<double>(n ? n : 1));
  }
  double mass(value_type delta) const { return std::fabs(delta); }
  value_type rebase_claim(value_type value) const { return value / retain; }
};

static_assert(residual_algebra<min_plus_algebra<float>>);
static_assert(residual_algebra<reachability_algebra>);
static_assert(residual_algebra<pagerank_algebra>);
static_assert(residual_algebra<ppr_algebra>);
static_assert(residual_algebra<spread_algebra>);

// ---------------------------------------------------------------------------
// Seeding and epoch-rebase helpers
// ---------------------------------------------------------------------------

/// Seed SSSP/reachability: the source's distance candidate is 0.
template <typename A, typename V>
  requires(A::monotone)
void seed_source(residual_state<A, V>& st, V source) {
  st.inject(source, typename A::value_type{0});
}

/// Seed PageRank: inject the teleport base (1-d)/n at every vertex.
template <typename V>
void seed_pagerank(residual_state<pagerank_algebra, V>& st) {
  double const base =
      (1.0 - st.algebra().damping) / static_cast<double>(st.size() ? st.size() : 1);
  for (std::size_t v = 0; v < st.size(); ++v)
    st.inject(static_cast<V>(v), base);
}

/// Seed PPR/spread: one unit of mass at the source.
template <typename A, typename V>
  requires(!A::monotone)
void seed_source_mass(residual_state<A, V>& st, V source) {
  st.inject(source, 1.0);
}

/// Exact one-edge-pass rebase of a *sum* algebra onto a new snapshot.
///
/// Given converged values x for the old graph, the residual of the new
/// linear system at x is r = b + D'·(x/c) - x/c, where D' is the new
/// propagation operator and c the combine coefficient (`rebase_claim`
/// inverts it).  In push form: inject `base(v) - x_v/c` at every vertex,
/// then push `propagate(x_u/c, ...)` along every edge of the *new*
/// snapshot.  Re-converging from there yields the new fixed point exactly
/// — arbitrary deltas (removals, weight changes) included, no delta log
/// consulted.  Cost: one edge pass, the same as a single power-iteration
/// sweep, vs the warm path's full iteration count.
template <typename G, typename A, typename V, typename Base>
  requires(!A::monotone)
void rebase_sum(residual_state<A, V>& st, G const& g, Base&& base) {
  using value_type = typename A::value_type;
  A const& a = st.algebra();
  for (std::size_t v = 0; v < st.size(); ++v) {
    value_type const claim = a.rebase_claim(st.value_at(v));
    st.inject(static_cast<V>(v), base(static_cast<V>(v)) - claim);
    if (claim == value_type{0})
      continue;
    V const u = static_cast<V>(v);
    std::size_t const deg = static_cast<std::size_t>(g.get_out_degree(u));
    for (auto const e : g.get_edges(u))
      st.inject(g.get_dest_vertex(e),
                a.propagate(claim, value_type{0}, g.get_edge_weight(e), deg));
  }
}

/// Monotone fast-path injection for an insert-only edge delta: each
/// inserted (or weight-decreased) edge can only improve its destination,
/// so injecting `propagate(..)` at the destinations of changed edges
/// re-reaches the fixed point (the PR 4 incremental argument).  Returns
/// false — caller must fall back to reset + reseed + full reconverge —
/// when the delta is incomplete or contains removals.
template <typename G, typename A, typename V, typename W>
  requires(A::monotone)
bool inject_monotone_delta(residual_state<A, V>& st, G const& g,
                           graph::edge_delta_t<V, W> const& delta) {
  if (!delta.complete || !delta.insert_only())
    return false;
  A const& a = st.algebra();
  for (auto const& r : delta.records) {
    auto const d_src = st.value_at(static_cast<std::size_t>(r.src));
    if (d_src == a.identity())
      continue;  // source unreached: the new edge changes nothing yet
    std::size_t const deg =
        static_cast<std::size_t>(g.get_out_degree(r.src));
    auto const candidate = a.propagate(d_src, d_src, r.weight, deg);
    // Test-before-RMW (the classic relaxation prune): a candidate that
    // cannot improve the converged value contributes nothing to the fixed
    // point, so skip the seq_cst accumulate and the staging probe.  This
    // keeps the absorb cost of a no-op republish at two plain loads per
    // record — the standing query's common case.
    if (!(a.magnitude(st.value_at(static_cast<std::size_t>(r.dst)),
                      candidate) > 0.0))
      continue;
    st.inject(r.dst, candidate);
  }
  return true;
}

}  // namespace essentials::residual
