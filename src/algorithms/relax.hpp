#pragma once

/// \file algorithms/relax.hpp
/// \brief The min-plus vertex program, its two supersteps, and the three
/// loops that enact it.
///
/// SSSP, label-propagation CC and BFS hop counts are one vertex program:
///
///     value[dst] = min(value[dst], value[src] + cost(weight))
///
/// where the cost is the edge weight (SSSP), 0 (CC labels, on the warm
/// path only) or 1 (BFS hops).  This header holds the program once, as
/// `min_plus_condition`, its two supersteps — `relax_push` (GraphLab's
/// scatter) and `relax_pull` (its gather) — and one loop per
/// timing/communication model of PAPER.md Table I:
///  - `relax_bsp` — bulk-synchronous from a seed set: push, uniquify,
///    repeat until the frontier is empty; on graphs with a CSC view, dense
///    supersteps pull instead (`enactor::direction_loop`).  Cold runs seed
///    the source; warm runs (algorithms/incremental.hpp) seed the delta's
///    endpoints over the previous epoch's values.
///  - `relax_async` — an asynchronous queue with no supersteps; workers
///    push from popped vertices and queue what they improve until
///    quiescence.
///  - `relax_message_passing` — BSP across mpsim ranks: (vertex, value)
///    words travel through `frontier::distributed_frontier`, each rank
///    pushing from its owned vertices sequentially or on a private pool.
///
/// Every SSSP and BFS-depth variant in sssp.hpp and bfs.hpp, and the three
/// warm paths in incremental.hpp, seed one of these loops; the variants
/// differ only in the seed, the cost and the value lattice.  Cold CC is
/// Afforest's union-find (connected_components.hpp), not this program.
/// Delta-stepping (sssp_delta.hpp) pushes a weight-banded program through
/// the same step.
///
/// A program is a value array, `offer(src, x, w)` (what a source holding x
/// offers across an edge) and `improves(a, b)`; both directions apply it,
/// and they write differently:
///  - push (`relax_push`): many lanes may lower one destination, so each
///    lowers it with a CAS loop (`atomic::min` under `improves`), taken only
///    when a relaxed probe shows the offer would win;
///  - pull (`relax_pull`): each destination folds every in-edge on the one
///    lane that owns it and stores the result once; min is idempotent and
///    a source outside the frontier cannot improve its out-neighbours, so
///    the fold needs neither a frontier probe nor a read-modify-write.
/// `relax_plain` is the plain write for single-owner state (the serial
/// oracles, the Safra loop's rank-local arrays).

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/enactor.hpp"
#include "core/execution.hpp"
#include "core/frontier/frontier.hpp"
#include "core/operators/advance.hpp"
#include "core/operators/filter.hpp"
#include "core/telemetry.hpp"
#include "core/types.hpp"
#include "mpsim/communicator.hpp"
#include "parallel/atomics.hpp"
#include "parallel/for_each.hpp"
#include "parallel/thread_pool.hpp"

namespace essentials::algorithms {

// ---------------------------------------------------------------------------
// The program
// ---------------------------------------------------------------------------

/// Single-owner relaxation (no atomics).  True iff improved.
template <typename T>
inline bool relax_plain(T* value, std::size_t v, T candidate) {
  if (candidate < value[v]) {
    value[v] = candidate;
    return true;
  }
  return false;
}

/// Edge cost = the edge's weight (SSSP).
struct weight_cost {
  template <typename W>
  constexpr W operator()(W weight) const noexcept {
    return weight;
  }
};

/// Edge cost = a compile-time constant: `constant_cost<V{0}>` propagates CC
/// labels, `constant_cost<V{1}>` counts BFS hops.  A template constant
/// rather than a captured value, so the relaxation folds it away.
template <auto C>
struct constant_cost {
  template <typename W>
  constexpr decltype(C) operator()(W /*weight*/) const noexcept {
    return C;
  }
};

/// The min-plus program over `value`: what a source offers across an edge
/// and the order in which an offer improves a value, which `relax_push`
/// and `relax_pull` apply.  Costs are stateless so the program carries
/// nothing but the value array.
template <typename Cost, typename T>
struct min_plus_program {
  static_assert(std::is_empty_v<Cost>, "cost functors must be stateless");
  T* value;

  /// What a source holding `x` offers across an edge: x + cost.  An
  /// unreached source must improve nothing.  An integer one offers
  /// infinity, not a sum that would overflow.  A floating-point sum needs
  /// no test, since infinity_v (the largest finite value) plus a
  /// non-negative cost rounds to itself or to +inf; the test would be a
  /// branch on which sources a pull meets, which cost about a third of an
  /// SSSP call (EXPERIMENTS.md B6).
  T offer(auto const /*src*/, T const x, auto const weight) const {
    if constexpr (std::is_floating_point_v<T>)
      return static_cast<T>(x + Cost{}(weight));
    else
      return x == infinity_v<T> ? x : static_cast<T>(x + Cost{}(weight));
  }
  static bool improves(T const a, T const b) { return a < b; }
};

/// The min-plus program with edge cost `Cost` over `value`.
template <typename Cost = weight_cost, typename T>
inline min_plus_program<Cost, T> min_plus_condition(T* value) {
  return {value};
}

/// A program `relax_push` and `relax_pull` apply: a value array, the value
/// a source offers across an edge, and the order in which an offer
/// improves a value.  The value of an unreached source must improve
/// nothing.
template <typename Prog, typename G>
concept pull_program =
    requires(Prog const& p, typename G::vertex_type v,
             typename G::weight_type w) {
      {
        p.offer(v, *p.value, w)
      } -> std::same_as<std::remove_cvref_t<decltype(*p.value)>>;
      { Prog::improves(*p.value, *p.value) } -> std::same_as<bool>;
    };

// ---------------------------------------------------------------------------
// Push superstep
// ---------------------------------------------------------------------------

namespace detail {

/// A graph whose out-edges are `graph_t`'s CSR arrays.  The compressed and
/// the partitioned graph decode or route their edges, so a push walks them
/// through their accessors instead.
template <typename G>
concept flat_csr = requires(G const& g) {
  g.csr().row_offsets.data();
  g.csr().column_indices.data();
  g.csr().values.data();
};

/// The push side of one vertex: snapshot v's value once, offer it across
/// every out-edge, and `emit` each destination this call lowered.  The
/// snapshot is a relaxed load: another lane may lower v meanwhile, but that
/// lane also queues v, so a stale snapshot costs a re-relaxation, never a
/// wrong value.  A destination is probed with a relaxed load and takes the
/// CAS loop only when the offer improves it.  A program that ignores edges
/// by weight (`admits(w)` false: delta-stepping's band) skips them before
/// reading their destination.  Returns v's out-degree (the edges
/// inspected).
template <typename G, typename Prog, typename Emit>
std::size_t push_vertex(G const& g, Prog const& program,
                        typename G::vertex_type const v, Emit&& emit) {
  using T = std::remove_cvref_t<decltype(*program.value)>;
  // Base pointers held in locals, as in relax_pull: GCC keeps no memory
  // read in a register across the per-edge atomic, so through the graph's
  // accessors every out-edge would reload them.
  T* const value = program.value;
  T const x = atomic::load_relaxed(&value[static_cast<std::size_t>(v)]);
  auto const scatter = [&](auto const dst, auto const weight) {
    if constexpr (requires { program.admits(weight); }) {
      if (!program.admits(weight))
        return;
    }
    T const offered = program.offer(v, x, weight);
    T const before =
        atomic::min(&value[static_cast<std::size_t>(dst)], offered,
                    [](T const a, T const b) { return Prog::improves(a, b); });
    if (Prog::improves(offered, before))
      emit(dst);
  };
  if constexpr (flat_csr<G>) {
    auto const& csr = g.csr();
    auto const* const dests = csr.column_indices.data();
    auto const* const weights = csr.values.data();
    auto const first = csr.row_offsets[static_cast<std::size_t>(v)];
    auto const last = csr.row_offsets[static_cast<std::size_t>(v) + 1];
    for (auto e = first; e < last; ++e)
      scatter(dests[e], weights[e]);
    return static_cast<std::size_t>(last - first);
  } else {
    auto const edges = g.get_edges(v);
    for (auto const e : edges)
      scatter(g.get_dest_vertex(e), g.get_edge_weight(e));
    return static_cast<std::size_t>(edges.size());
  }
}

}  // namespace detail

/// One push superstep of `program` (GraphLab's scatter): every vertex of
/// `in` offers its value across its out-edges (`detail::push_vertex`), and
/// the output holds each destination once per CAS that lowered it, so it
/// may repeat a vertex; `relax_bsp` uniquifies it.  Under `par` the output
/// is scan-compacted, as `operators::advance_push`'s is.
///
/// Telemetry records the op as `advance_push.seq` / `advance_push.par`,
/// the names and counts of the generic push advance: `edges_inspected`
/// counts every out-edge of the input, `edges_relaxed` the lowering CASes.
template <typename P, typename G, typename Prog>
  requires execution::synchronous_policy<P> && (G::has_csr) &&
           pull_program<Prog, G>
frontier::sparse_frontier<typename G::vertex_type> relax_push(
    P policy, G const& g,
    frontier::sparse_frontier<typename G::vertex_type> const& in,
    Prog const& program) {
  using V = typename G::vertex_type;
  constexpr bool parallel = std::decay_t<P>::is_parallel;
  auto const probe = telemetry::make_probe(
      parallel ? "advance_push.par" : "advance_push.seq", policy, in.size());
  frontier::sparse_frontier<V> out;
  V const* const active = in.active().data();
  auto const chunk = [&](std::size_t lo, std::size_t hi, auto&& emit) {
    std::size_t inspected = 0, relaxed = 0;
    for (std::size_t i = lo; i < hi; ++i)
      inspected += detail::push_vertex(g, program, active[i], [&](V const u) {
        ++relaxed;
        emit(u);
      });
    probe.add_edges(inspected, relaxed);
  };
  if constexpr (parallel) {
    auto const stats = frontier::generate_scan(
        policy.pool(), in.size(), policy.edge_grain, out, chunk);
    operators::detail::flush_generate_stats(probe, stats);
  } else {
    chunk(0, in.size(), [&out](V const u) { out.active().push_back(u); });
  }
  probe.set_items_out(out.size());
  return out;
}

namespace detail {

template <typename P, typename V>
void uniquify_vertices(P policy, frontier::sparse_frontier<V>& f,
                       std::size_t n) {
  if constexpr (std::decay_t<P>::is_parallel)
    operators::uniquify(policy, f, n);
  else
    operators::uniquify(policy, f);
}

/// One superstep: push `program`, then uniquify, so a vertex improved many
/// times costs one future expansion.
template <typename P, typename G, typename Prog>
frontier::sparse_frontier<typename G::vertex_type> relax_step(
    P policy, G const& g,
    frontier::sparse_frontier<typename G::vertex_type> const& in,
    Prog const& program) {
  auto out = relax_push(policy, g, in, program);
  uniquify_vertices(policy, out,
                    static_cast<std::size_t>(g.get_num_vertices()));
  return out;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Pull superstep
// ---------------------------------------------------------------------------

/// One pull superstep of `program` (GraphLab's gather and apply): every
/// destination folds what all of its in-edges offer, keeps the best, and
/// if that improves its value writes the value once (release store) and
/// joins the output.  The vertices go one bitmap word (64 ids) per step,
/// each word owned by one lane, so a destination has one writer and needs
/// no atomic read-modify-write; other lanes only read it as a source.
///
/// `in` does not select sources: there is no membership probe, and the
/// output does not depend on `in` (it only sizes the telemetry record).
/// That is sound for a BSP loop's frontier: a vertex outside it has had
/// its current value relaxed along every out-edge, so what it offers
/// improves nothing — reading it costs a load and never changes a result,
/// and the fixed point, hence every value, is the push loop's.  A fold may
/// read a source another lane lowered earlier in the same superstep;
/// values only fall, so that can only save a superstep.
///
/// Telemetry records the op as `advance_pull`: `edges_inspected` counts
/// every in-edge folded, `edges_relaxed` the destinations improved.
template <typename P, typename G, typename Prog>
  requires execution::synchronous_policy<P> && (G::has_csc) &&
           pull_program<Prog, G>
frontier::dense_frontier<typename G::vertex_type> relax_pull(
    P policy, G const& g,
    frontier::dense_frontier<typename G::vertex_type> const& in,
    Prog const& program) {
  using V = typename G::vertex_type;
  std::size_t const n = static_cast<std::size_t>(g.get_num_vertices());
  auto const probe =
      telemetry::make_probe("advance_pull", policy, telemetry::probe_items(in));
  frontier::dense_frontier<V> out(n);
  auto const word_body = [&](std::size_t wi) {
    // Base pointers held in locals: GCC keeps no memory read in a register
    // across the per-edge atomic load, so through the graph's accessors
    // (or this closure's captures) every in-edge would reload them.
    auto* const value = program.value;
    auto const* const sources = g.csc().row_indices.data();
    auto const* const weights = g.csc().values.data();
    std::size_t const first = wi * 64;
    std::size_t const last = std::min(n, first + 64);
    std::uint64_t improved = 0;
    std::size_t folded = 0;
    for (std::size_t i = first; i < last; ++i) {
      auto const own = value[i];  // this lane is i's only writer
      auto best = own;
      auto const edges = g.get_in_edges(static_cast<V>(i));
      folded += edges.size();
      for (auto const e : edges) {
        V const u = sources[e];
        auto const offered = program.offer(
            u, atomic::load_relaxed(&value[static_cast<std::size_t>(u)]),
            weights[e]);
        if (Prog::improves(offered, best))
          best = offered;
      }
      if (Prog::improves(best, own)) {
        atomic::store(&value[i], best);
        improved |= std::uint64_t{1} << (i - first);
      }
    }
    if (improved != 0)
      out.add_word(wi, improved);
    probe.add_edges(folded,
                    static_cast<std::size_t>(__builtin_popcountll(improved)));
  };
  std::size_t const num_words = (n + 63) / 64;
  if constexpr (std::decay_t<P>::is_parallel) {
    // A word is 64 vertices, so the per-word grain divides the (vertex)
    // advance grain by 64, floored at 1.
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
// Bulk-synchronous loop
// ---------------------------------------------------------------------------

/// Bulk-synchronous relaxation from `seeds` (their values already set)
/// until no relaxation improves anything.  `program` is
/// `min_plus_condition` or any `pull_program`.  On a graph with a CSC view
/// the loop is `enactor::direction_loop`: a sparse superstep is
/// `relax_push` then uniquify (`relax_step`), a dense one is `relax_pull`
/// over every in-edge, and Beamer's switch picks the direction with every
/// in-edge as the pull side's work.  Graphs with only a CSR view
/// (`graph_csr`, the compressed and the partitioned graph) push every
/// superstep.
template <typename P, typename G, typename Prog>
  requires execution::synchronous_policy<P>
enactor::enact_stats relax_bsp(P policy, G const& g,
                               std::vector<typename G::vertex_type> seeds,
                               Prog program) {
  using V = typename G::vertex_type;
  frontier::sparse_frontier<V> f(std::move(seeds));
  auto const push = [&](frontier::sparse_frontier<V> in,
                        std::size_t /*iteration*/) {
    return detail::relax_step(policy, g, in, program);
  };
  if constexpr (G::has_csr && G::has_csc) {
    auto const m = static_cast<std::size_t>(g.get_num_edges());
    return enactor::direction_loop(
        policy, g, std::move(f), enactor::direction_switch{}, push,
        [&](frontier::dense_frontier<V> in, std::size_t /*iteration*/) {
          return relax_pull(policy, g, in, program);
        },
        [m](auto const& /*frontier*/) { return m; });
  } else {
    return enactor::bsp_loop(std::move(f), push);
  }
}

// ---------------------------------------------------------------------------
// Asynchronous loop
// ---------------------------------------------------------------------------

/// Asynchronous relaxation from `source` (value[source] already set): the
/// frontier is a concurrent queue; `workers` consumers push the min-plus
/// program from each popped vertex with `relax_push`'s per-vertex body and
/// queue every neighbor they lowered.  No supersteps, no barriers; returns
/// at quiescence.
template <typename Cost = weight_cost, typename G, typename T>
void relax_async(G const& g, typename G::vertex_type source, T* value,
                 std::size_t workers) {
  using V = typename G::vertex_type;
  auto const program = min_plus_condition<Cost>(value);
  frontier::async_queue_frontier<V> f;
  f.add_vertex(source);
  enactor::async_loop(f, workers, [&g, &f, &program](V const v) {
    detail::push_vertex(g, program, v, [&f](V const n) { f.add_vertex(n); });
  });
}

// ---------------------------------------------------------------------------
// Message passing
// ---------------------------------------------------------------------------

namespace detail {

/// The (vertex, value) message word: vertex id in the high 32 bits, the
/// value's bit pattern in the low 32.
template <typename V, typename T>
struct vertex_value_word {
  static_assert(sizeof(V) <= sizeof(std::uint32_t) &&
                    sizeof(T) <= sizeof(std::uint32_t),
                "(vertex, value) must pack into one u64 message word");

  static std::uint64_t pack(V v, T x) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &x, sizeof(T));
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)) << 32) |
           bits;
  }
  static V vertex(std::uint64_t word) { return static_cast<V>(word >> 32); }
  static T value(std::uint64_t word) {
    auto const bits = static_cast<std::uint32_t>(word);
    T x{};
    std::memcpy(&x, &bits, sizeof(T));
    return x;
  }
};

/// Collective: every rank contributes the reached values of the vertices
/// it owns; rank 0 writes them into `out` (other ranks leave it alone).
template <typename V, typename T>
void gather_owned(mpsim::communicator& comm, int rank,
                  std::function<int(V)> const& owner,
                  std::vector<T> const& local, std::vector<T>& out) {
  using word = vertex_value_word<V, T>;
  constexpr int kTagGather = 1 << 30;  // above every superstep/Safra tag
  std::vector<std::uint64_t> mine;
  for (std::size_t v = 0; v < local.size(); ++v)
    if (local[v] != infinity_v<T> && owner(static_cast<V>(v)) == rank)
      mine.push_back(word::pack(static_cast<V>(v), local[v]));
  for (std::uint64_t const w :
       comm.gather(rank, 0, kTagGather, std::move(mine)))
    out[static_cast<std::size_t>(word::vertex(w))] = word::value(w);
}

/// The default vertex partition: v mod P, the paper's random-partitioning
/// heuristic.
template <typename V>
std::function<int(V)> modulo_owner(int num_ranks) {
  return [num_ranks](V v) { return static_cast<int>(v % num_ranks); };
}

}  // namespace detail

/// Bulk-synchronous relaxation across `num_ranks` mpsim ranks, seeded at
/// `source` with value 0.  Vertices are owned per `owner` (which must agree
/// across ranks; empty means v mod P).  Frontier elements are
/// (vertex, value) words in a `distributed_frontier` routed by the vertex
/// half, so one `exchange` per superstep both delivers relaxations to
/// owners and all-reduces the global frontier size.
///
/// Per rank, `local` holds the authoritative values of owned vertices and,
/// for remote ones, the best value this rank has sent — the owner's value
/// is never larger, so a candidate that does not beat it is never sent.
/// A word activates its vertex when its value is <= the owner's: words a
/// rank produced for its own vertices were committed during expansion
/// (equality), received ones are committed on arrival.  Ranks expand with
/// `execution::seq`, or on a private pool when `threads_per_rank > 1`.
///
/// On return rank 0 has written every reached vertex's value into `value`
/// (size |V|; unreached entries are left as they were); the result is the
/// superstep count.
template <typename Cost = weight_cost, typename G, typename T>
std::size_t relax_message_passing(
    G const& g, typename G::vertex_type source, int num_ranks,
    std::function<int(typename G::vertex_type)> owner,
    std::size_t threads_per_rank, std::vector<T>& value) {
  using V = typename G::vertex_type;
  using word = detail::vertex_value_word<V, T>;
  if (!owner)
    owner = detail::modulo_owner<V>(num_ranks);
  std::size_t const n = static_cast<std::size_t>(g.get_num_vertices());
  std::size_t supersteps = 0;

  auto const enact = [&](auto policy, mpsim::communicator& comm, int rank) {
    std::vector<T> local(n, infinity_v<T>);
    T* const val = local.data();
    auto const program = min_plus_condition<Cost>(val);
    frontier::distributed_frontier<std::uint64_t> words(
        comm, rank,
        [&owner](std::uint64_t w) { return owner(word::vertex(w)); });
    if (owner(source) == rank)
      words.add_vertex(word::pack(source, T{0}));

    int tag = 0;
    std::size_t steps = 0;
    while (words.exchange(tag++) != 0) {
      frontier::sparse_frontier<V> active;
      for (std::uint64_t const w : words.local()) {
        auto const v = static_cast<std::size_t>(word::vertex(w));
        T const x = word::value(w);
        if (x <= val[v]) {
          val[v] = x;
          active.active().push_back(static_cast<V>(v));
        }
      }
      detail::uniquify_vertices(policy, active, n);
      auto const improved = detail::relax_step(policy, g, active, program);
      for (V const u : improved.active())
        words.add_vertex(word::pack(u, val[static_cast<std::size_t>(u)]));
      ++steps;
    }
    detail::gather_owned(comm, rank, owner, local, value);
    if (rank == 0)
      supersteps = steps;
  };

  mpsim::communicator::run(num_ranks, [&](mpsim::communicator& comm,
                                          int rank) {
    if (threads_per_rank > 1) {
      parallel::thread_pool pool(threads_per_rank);
      enact(execution::parallel_policy(pool), comm, rank);
    } else {
      enact(execution::seq, comm, rank);
    }
  });
  return supersteps;
}

}  // namespace essentials::algorithms
