#pragma once

/// \file core/operators/advance.hpp
/// \brief The advance (neighbor-expand) operator family — paper Listing 3
/// generalized across traversal directions, frontier representations, and
/// execution policies.
///
/// An advance maps an input frontier to an output frontier by visiting the
/// edges incident to the input's elements and applying a user *condition*
/// lambda on the tuple {source vertex, destination vertex, edge, weight}
/// (paper §III-C).  An edge whose condition returns true contributes its
/// far endpoint to the output frontier.
///
/// Overload matrix (all share one semantic, per the paper's requirement
/// that "the operator's functionality [be] identical, even as its
/// underlying execution changes"):
///  - policy: `seq` (invoking thread) / `par` (pool + implicit barrier) /
///    `par_nosync` (pool, no barrier — caller owns synchronization).
///  - direction: `advance_push` walks out-edges via CSR;
///    `advance_pull` walks in-edges via CSC, asking whether any *active*
///    predecessor satisfies the condition — for every vertex, or only for
///    the vertices outside a `visited` bitmap (BFS's bottom-up step).  The
///    min-plus program runs neither: it has its own step per direction in
///    algorithms/relax.hpp.  `relax_push` snapshots each frontier vertex's
///    value once and lowers its out-neighbours by CAS; `relax_pull` folds
///    every in-edge, with no membership probe and no per-edge condition.
///    `advance_push` stays for BFS and user conditions, and `relax_push`
///    records its op under the same `advance_push.*` names and counts.
///  - representation: sparse -> sparse, sparse -> dense, dense -> dense.
///
/// Sparse-output generation is itself a policy axis
/// (`execution::frontier_gen`, dispatched through
/// core/frontier/frontier_gen.hpp):
///  - `scan` (default): lane buffers + prefix-sum compaction — zero locks
///    and zero atomics on the output path, deterministic output order;
///  - `listing3`: the paper's per-element-lock formulation
///    (`neighbors_expand_listing3` forces this mode regardless of policy).
/// `policy.dedup` additionally suppresses duplicate output vertices with an
/// atomic claim bitmap (output becomes a set; condition side effects still
/// run for every relaxing edge).
///
/// Telemetry: every overload opens a `telemetry::op_probe` and counts
/// *edges inspected* (condition evaluated) and *edges relaxed* (condition
/// returned true) in lane-local registers, flushed per chunk; sparse
/// generation additionally reports lock-free vs locked emit counts, dedup
/// hits, and lane-scratch reuse.  With no recording scope active this
/// costs one thread-local pointer test per call; with telemetry compiled
/// out it costs nothing (the counters become dead stores).  The counts are
/// defined so push and pull agree on a pure condition without early exit —
/// the cross-direction invariant the differential suite
/// (tests/test_differential.cpp) asserts.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/execution.hpp"
#include "core/frontier/frontier.hpp"
#include "core/telemetry.hpp"
#include "core/types.hpp"
#include "parallel/atomic_bitset.hpp"
#include "parallel/for_each.hpp"

namespace essentials::operators {

/// Concept for the user condition: callable on (src, dst, edge, weight).
template <typename F, typename G>
concept advance_condition =
    std::invocable<F, typename G::vertex_type, typename G::vertex_type,
                   typename G::edge_type, typename G::weight_type>;

namespace detail {

/// The dedup claim bitmap for a parallel policy, or nullptr when dedup is
/// off (thread-local scratch; cleared per call).
inline parallel::atomic_bitset* dedup_filter(
    execution::parallel_policy const& policy, std::size_t universe) {
  return policy.dedup ? &frontier::dedup_scratch(policy.pool(), universe)
                      : nullptr;
}

/// Flush a generation round's stats into the operator probe.
inline void flush_generate_stats(telemetry::op_probe const& probe,
                                 execution::frontier_gen mode,
                                 frontier::generate_stats const& stats) {
  bool const lock_free = frontier::lock_free_emits(mode);
  probe.add_emits(lock_free ? stats.emitted : 0,
                  lock_free ? 0 : stats.emitted, stats.dedup_hits);
  probe.set_scratch_reused(stats.scratch_reused);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Push advance: sparse -> sparse
// ---------------------------------------------------------------------------

/// Sequential push advance — the reference semantics.
template <typename G, typename Cond>
  requires advance_condition<Cond, G>
frontier::sparse_frontier<typename G::vertex_type> advance_push(
    execution::sequenced_policy policy, G const& g,
    frontier::sparse_frontier<typename G::vertex_type> const& in, Cond cond) {
  using V = typename G::vertex_type;
  auto const probe =
      telemetry::make_probe("advance_push.seq", policy, in.size());
  frontier::sparse_frontier<V> out;
  std::size_t inspected = 0, relaxed = 0;
  for (V const v : in.active()) {
    for (auto const e : g.get_edges(v)) {
      V const n = g.get_dest_vertex(e);
      auto const w = g.get_edge_weight(e);
      ++inspected;
      if (cond(v, n, e, w)) {
        ++relaxed;
        out.add_vertex(n);
      }
    }
  }
  probe.add_edges(inspected, relaxed);
  probe.set_items_out(out.size());
  return out;
}

/// Parallel synchronous push advance (one BSP superstep).  The sparse
/// output is generated per `policy.frontier`: scan compaction (default,
/// lock-free) or Listing 3 per-element locking — with optional
/// claim-bitmap dedup (`policy.dedup`).
template <typename G, typename Cond>
  requires advance_condition<Cond, G>
frontier::sparse_frontier<typename G::vertex_type> advance_push(
    execution::parallel_policy policy, G const& g,
    frontier::sparse_frontier<typename G::vertex_type> const& in, Cond cond) {
  using V = typename G::vertex_type;
  auto const probe =
      telemetry::make_probe("advance_push.par", policy, in.size());
  frontier::sparse_frontier<V> out;
  auto const& active = in.active();
  parallel::atomic_bitset* const dedup = detail::dedup_filter(
      policy, static_cast<std::size_t>(g.get_num_vertices()));
  auto const stats = frontier::generate(
      policy.frontier, policy.pool(), active.size(), policy.edge_grain, out,
      [&](std::size_t lo, std::size_t hi, auto&& emit) {
        std::size_t inspected = 0, relaxed = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          V const v = active[i];
          for (auto const e : g.get_edges(v)) {
            V const n = g.get_dest_vertex(e);
            auto const w = g.get_edge_weight(e);
            ++inspected;
            if (cond(v, n, e, w)) {
              ++relaxed;
              emit(n);
            }
          }
        }
        probe.add_edges(inspected, relaxed);
      },
      dedup);
  detail::flush_generate_stats(probe, policy.frontier, stats);
  probe.set_items_out(out.size());
  return out;
}

/// Parallel asynchronous push advance: chunks are launched and the call
/// returns immediately; the caller synchronizes via
/// `policy.pool().wait_idle()` (or not at all).  Output is appended to the
/// caller-owned `out` frontier.  There is no barrier behind which to run a
/// compaction phase, so `frontier_gen::scan` publishes through a task-local
/// buffer and one locked `append_bulk` per task; `listing3` is honored for
/// ablations.  The telemetry record retires when the last chunk finishes
/// (items_out is not sampled — the output is still owned by the caller);
/// keep any recording scope alive across the eventual `wait_idle()`.
template <typename G, typename Cond>
  requires advance_condition<Cond, G>
void advance_push(execution::parallel_nosync_policy policy, G const& g,
                  frontier::sparse_frontier<typename G::vertex_type> const& in,
                  Cond cond,
                  frontier::sparse_frontier<typename G::vertex_type>& out) {
  using V = typename G::vertex_type;
  auto const probe = telemetry::make_probe("advance_push.par_nosync", policy,
                                           in.size(), /*async=*/true);
  auto const state = probe.share();  // null when not recording
  auto const& active = in.active();
  bool const per_element =
      policy.frontier == execution::frontier_gen::listing3;
  parallel::parallel_for_nowait(
      policy.pool(), std::size_t{0}, active.size(),
      [&g, &active, &out, cond, state, per_element](std::size_t i) {
        V const v = active[i];
        std::vector<V> local;
        std::size_t inspected = 0, relaxed = 0;
        for (auto const e : g.get_edges(v)) {
          V const n = g.get_dest_vertex(e);
          auto const w = g.get_edge_weight(e);
          ++inspected;
          if (cond(v, n, e, w)) {
            ++relaxed;
            if (per_element)
              out.add_vertex(n);  // per-element lock inside the frontier
            else
              local.push_back(n);
          }
        }
        if (!per_element)
          out.append_bulk(local.data(), local.size());
        telemetry::flush_edges(state, inspected, relaxed);
        telemetry::flush_emits(state, 0, relaxed);
      },
      policy.edge_grain);
}

/// Paper Listing 3, verbatim semantics: parallel push advance whose output
/// appends are serialized *per discovered neighbor* — the lock is the one
/// inside `sparse_frontier::add_vertex` (Listing 3's mutex-protected
/// `output.add_vertex(n)`), so the baseline exercises the public frontier
/// API rather than poking `active()` directly.  This is `advance_push`
/// under `frontier_gen::listing3`, whatever `policy.frontier` says; kept as
/// a named entry point for the operator-ablation bench (bench_operators)
/// that quantifies what buffering and scan compaction buy.
template <typename G, typename Cond>
  requires advance_condition<Cond, G>
frontier::sparse_frontier<typename G::vertex_type> neighbors_expand_listing3(
    execution::parallel_policy policy, G const& g,
    frontier::sparse_frontier<typename G::vertex_type> const& in, Cond cond) {
  return advance_push(policy.with_frontier(execution::frontier_gen::listing3),
                      g, in, cond);
}

/// The paper's name for push advance.  `neighbors_expand(policy, g, f,
/// cond)` reads exactly like Listing 3/4.
template <typename P, typename G, typename Cond>
auto neighbors_expand(P&& policy, G const& g,
                      frontier::sparse_frontier<typename G::vertex_type> const& in,
                      Cond cond) {
  return advance_push(std::forward<P>(policy), g, in, cond);
}

// ---------------------------------------------------------------------------
// Push advance: sparse -> dense and dense -> dense
// ---------------------------------------------------------------------------

/// Push advance producing a dense (bitmap) output frontier: discovered
/// neighbors are recorded with atomic bit-sets, which deduplicates the
/// output for free.  Works for both seq and par policies.
template <typename P, typename G, typename Cond>
  requires execution::synchronous_policy<P> && advance_condition<Cond, G>
frontier::dense_frontier<typename G::vertex_type> advance_push_to_dense(
    P policy, G const& g,
    frontier::sparse_frontier<typename G::vertex_type> const& in, Cond cond) {
  using V = typename G::vertex_type;
  auto const probe =
      telemetry::make_probe("advance_push_to_dense", policy, in.size());
  frontier::dense_frontier<V> out(
      static_cast<std::size_t>(g.get_num_vertices()));
  auto const& active = in.active();
  auto const body = [&](std::size_t i) {
    V const v = active[i];
    std::size_t inspected = 0, relaxed = 0;
    for (auto const e : g.get_edges(v)) {
      V const n = g.get_dest_vertex(e);
      auto const w = g.get_edge_weight(e);
      ++inspected;
      if (cond(v, n, e, w)) {
        ++relaxed;
        out.add_vertex(n);
      }
    }
    probe.add_edges(inspected, relaxed);
  };
  if constexpr (std::decay_t<P>::is_parallel) {
    parallel::parallel_for(policy.pool(), std::size_t{0}, active.size(), body,
                           policy.edge_grain);
  } else {
    for (std::size_t i = 0; i < active.size(); ++i)
      body(i);
  }
  if (probe)
    probe.set_items_out(out.size());  // popcount: only pay when recording
  return out;
}

/// Dense -> dense push advance: iterate set bits of the input bitmap.
template <typename P, typename G, typename Cond>
  requires execution::synchronous_policy<P> && advance_condition<Cond, G>
frontier::dense_frontier<typename G::vertex_type> advance_push(
    P policy, G const& g,
    frontier::dense_frontier<typename G::vertex_type> const& in, Cond cond) {
  using V = typename G::vertex_type;
  auto const probe = telemetry::make_probe(
      "advance_push.dense", policy, telemetry::probe_items(in));
  frontier::dense_frontier<V> out(in.universe());
  auto const& bits = in.bits();
  auto const word_body = [&](std::size_t wi) {
    std::uint64_t word = bits.load_word(wi);
    std::size_t inspected = 0, relaxed = 0;
    while (word != 0) {
      unsigned const b = static_cast<unsigned>(__builtin_ctzll(word));
      word &= word - 1;
      V const v = static_cast<V>(wi * 64 + b);
      for (auto const e : g.get_edges(v)) {
        V const n = g.get_dest_vertex(e);
        auto const w = g.get_edge_weight(e);
        ++inspected;
        if (cond(v, n, e, w)) {
          ++relaxed;
          out.add_vertex(n);
        }
      }
    }
    probe.add_edges(inspected, relaxed);
  };
  if constexpr (std::decay_t<P>::is_parallel) {
    // One word covers 64 vertices, so the per-word grain divides the
    // (already edge-weighted) advance grain by 64, floored at 1.
    parallel::parallel_for(policy.pool(), std::size_t{0}, bits.num_words(),
                           word_body,
                           std::max<std::size_t>(policy.edge_grain / 64, 1));
  } else {
    for (std::size_t wi = 0; wi < bits.num_words(); ++wi)
      word_body(wi);
  }
  if (probe)
    probe.set_items_out(out.size());
  return out;
}

// ---------------------------------------------------------------------------
// Pull advance (CSC)
// ---------------------------------------------------------------------------

/// Pull advance: every candidate vertex scans its *in*-edges and asks
/// whether an active predecessor satisfies the condition; if so the vertex
/// joins the output frontier.  The input must support O(1) membership
/// (dense frontier).  `early_exit` stops scanning a vertex's in-edges at
/// the first hit — correct for BFS-like "any parent" programs; keep false
/// for a condition that must see every incident active edge.
///
/// Candidates (Beamer et al.'s bottom-up step): the operator walks the
/// vertices one bitmap word (64 ids) at a time, and each word is owned by
/// one lane.  With `visited` null every vertex is a candidate.  With
/// `visited` given, the candidates are its complement: a word whose
/// vertices are all visited is skipped without reading an in-edge, the
/// condition is never evaluated for a visited destination, and the
/// vertices a word activates are marked in `visited` by the same word
/// store that publishes them.  So the pull's work follows the unvisited
/// in-edges, and `visited` needs no pass after the step to stay current.
///
/// Output invariant: a vertex is activated through the public frontier API
/// exactly once, no matter how many of its in-edges relax — the condition
/// is still evaluated for *every* active in-edge when `early_exit` is
/// false (relaxation side effects must all run), but repeat hits no longer
/// re-activate the output.  Telemetry `edges_inspected` counts only edges
/// whose source is active (the membership probe is not an inspection), so
/// the count is comparable with the push direction.
template <bool early_exit = false, typename P, typename G, typename Cond>
  requires execution::synchronous_policy<P> && advance_condition<Cond, G> &&
           (G::has_csc)
frontier::dense_frontier<typename G::vertex_type> advance_pull(
    P policy, G const& g,
    frontier::dense_frontier<typename G::vertex_type> const& in, Cond cond,
    parallel::atomic_bitset* visited = nullptr) {
  using V = typename G::vertex_type;
  std::size_t const n = static_cast<std::size_t>(g.get_num_vertices());
  auto const probe =
      telemetry::make_probe("advance_pull", policy, telemetry::probe_items(in));
  frontier::dense_frontier<V> out(n);
  std::size_t const num_words = (n + 63) / 64;
  auto const word_body = [&](std::size_t wi) {
    std::uint64_t candidates = ~std::uint64_t{0};
    if (wi + 1 == num_words && n % 64 != 0)
      candidates = (std::uint64_t{1} << (n % 64)) - 1;  // ids past n
    if (visited != nullptr)
      candidates &= ~visited->load_word(wi);
    std::uint64_t hits = 0;
    std::size_t inspected = 0, relaxed = 0;
    while (candidates != 0) {
      unsigned const b = static_cast<unsigned>(__builtin_ctzll(candidates));
      candidates &= candidates - 1;
      V const v = static_cast<V>(wi * 64 + b);
      for (auto const e : g.get_in_edges(v)) {
        V const u = g.get_in_source_vertex(e);
        if (!in.contains(u))
          continue;
        ++inspected;
        if (cond(u, v, e, g.get_in_edge_weight(e))) {
          ++relaxed;
          hits |= std::uint64_t{1} << b;
          if constexpr (early_exit)
            break;
        }
      }
    }
    if (hits != 0) {
      out.add_word(wi, hits);
      if (visited != nullptr)
        visited->set_word_bits(wi, hits);
    }
    probe.add_edges(inspected, relaxed);
  };
  if constexpr (std::decay_t<P>::is_parallel) {
    // A word is 64 vertices, so the per-word grain divides the (vertex)
    // advance grain by 64, floored at 1 — as in the dense push above.
    parallel::parallel_for(policy.pool(), std::size_t{0}, num_words,
                           word_body,
                           std::max<std::size_t>(policy.edge_grain / 64, 1));
  } else {
    for (std::size_t wi = 0; wi < num_words; ++wi)
      word_body(wi);
  }
  if (probe)
    probe.set_items_out(out.size());
  return out;
}

// ---------------------------------------------------------------------------
// Edge-centric advance
// ---------------------------------------------------------------------------

/// Expand a vertex frontier into the frontier of its incident out-edge ids
/// (vertex-centric -> edge-centric handoff, paper §III-C's edge frontier).
/// Parallel policies route through the policy's frontier-generation
/// strategy (edge ids are unique by construction, so dedup never applies).
template <typename P, typename G>
  requires execution::synchronous_policy<P>
frontier::sparse_frontier<typename G::edge_type> expand_to_edges(
    P policy, G const& g,
    frontier::sparse_frontier<typename G::vertex_type> const& in) {
  using E = typename G::edge_type;
  auto const probe = telemetry::make_probe("expand_to_edges", policy, in.size());
  frontier::sparse_frontier<E> out;
  auto const& active = in.active();
  auto const chunk = [&](std::size_t lo, std::size_t hi, auto&& emit) {
    std::size_t count = 0;
    for (std::size_t i = lo; i < hi; ++i)
      for (auto const e : g.get_edges(active[i])) {
        emit(e);
        ++count;
      }
    probe.add_edges(count, count);
  };
  if constexpr (std::decay_t<P>::is_parallel) {
    auto const stats =
        frontier::generate(policy.frontier, policy.pool(), active.size(),
                           policy.edge_grain, out, chunk);
    detail::flush_generate_stats(probe, policy.frontier, stats);
  } else {
    auto emit = [&out](E e) { out.active().push_back(e); };
    chunk(0, active.size(), emit);
  }
  probe.set_items_out(out.size());
  return out;
}

/// Edge-centric advance: the input frontier holds CSR edge ids; the
/// condition sees the usual {src, dst, edge, weight} tuple and a true
/// return contributes the edge's destination vertex to the output.
/// Parallel policies route through the policy's frontier-generation
/// strategy and honor `policy.dedup`.
template <typename P, typename G, typename Cond>
  requires execution::synchronous_policy<P> && advance_condition<Cond, G>
frontier::sparse_frontier<typename G::vertex_type> advance_edges(
    P policy, G const& g,
    frontier::sparse_frontier<typename G::edge_type> const& in, Cond cond) {
  using V = typename G::vertex_type;
  auto const probe = telemetry::make_probe("advance_edges", policy, in.size());
  frontier::sparse_frontier<V> out;
  auto const& active = in.active();
  auto const chunk = [&](std::size_t lo, std::size_t hi, auto&& emit) {
    std::size_t relaxed = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      auto const e = active[i];
      V const src = g.get_source_vertex(e);
      V const dst = g.get_dest_vertex(e);
      auto const w = g.get_edge_weight(e);
      if (cond(src, dst, e, w)) {
        emit(dst);
        ++relaxed;
      }
    }
    probe.add_edges(hi - lo, relaxed);
  };
  if constexpr (std::decay_t<P>::is_parallel) {
    parallel::atomic_bitset* const dedup = detail::dedup_filter(
        policy, static_cast<std::size_t>(g.get_num_vertices()));
    // Edge-centric bodies do O(1) work per index: use the element grain.
    auto const stats =
        frontier::generate(policy.frontier, policy.pool(), active.size(),
                           policy.grain, out, chunk, dedup);
    detail::flush_generate_stats(probe, policy.frontier, stats);
  } else {
    auto emit = [&out](V v) { out.active().push_back(v); };
    chunk(0, active.size(), emit);
  }
  probe.set_items_out(out.size());
  return out;
}

}  // namespace essentials::operators
