#pragma once

/// \file core/enactor.hpp
/// \brief The iterative loop structure and convergence conditions — the
/// paper's fourth essential component: "loop structure/convergence
/// condition(s) to organize and schedule the computation and completion of
/// a graph algorithm."
///
/// Drivers, one per timing model, plus the direction-optimizing BSP loop:
///  - `bsp_loop`: Listing 4's `while (f.size() != 0)` generalized — run a
///    user step (advance/filter/compute composition) per superstep until a
///    convergence condition fires.  The step itself decides which operators
///    and policies to use, so the same loop hosts push and pull algorithms.
///  - `direction_loop`: the BSP loop with a push step and a pull step and
///    Beamer et al.'s switch (`direction_switch`) choosing one per
///    superstep — direction-optimizing BFS and the min-plus program's
///    `relax_bsp` (algorithms/relax.hpp) both run on it.
///  - `async_loop`: no supersteps — a crew of consumers pops active
///    vertices from an asynchronous queue frontier until quiescence (or an
///    optional stop predicate closes the queue).
///
/// Convergence conditions are small composable function objects; `either`
/// (binary) and `any_of` (variadic) compose them ("empty frontier OR
/// iteration cap"), mirroring how real systems bound runaway algorithms.
///
/// The drivers feed the telemetry layer (core/telemetry.hpp): when a
/// `telemetry::scoped_recording` is active on the enacting thread, the BSP
/// loops open one superstep record per iteration (frontier sizes, wall
/// time, direction) and the operators invoked by the step fill in work
/// counts.
/// Without a recording scope — or with telemetry compiled out — the hooks
/// are a folded-away null check.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/execution.hpp"
#include "core/frontier/frontier.hpp"
#include "core/operators/reduce.hpp"
#include "core/telemetry.hpp"
#include "core/types.hpp"

namespace essentials::enactor {

// ---------------------------------------------------------------------------
// Convergence conditions
// ---------------------------------------------------------------------------

/// Converged when the frontier has no active elements — the default
/// condition of every traversal algorithm (Listing 4).
struct frontier_empty {
  template <typename F>
  bool operator()(F const& f, std::size_t /*iteration*/) const {
    return f.empty();
  }
};

/// Converged after a fixed number of supersteps — the condition of
/// fixed-point algorithms sampled for a bounded time (or a safety net).
struct max_iterations {
  std::size_t limit;
  template <typename F>
  bool operator()(F const& /*f*/, std::size_t iteration) const {
    return iteration >= limit;
  }
};

/// Converged when a user-supplied measurement (e.g. L1 delta of ranks)
/// drops below a threshold.  The measurement runs once per superstep.
template <typename MeasureF>
struct value_below {
  MeasureF measure;
  double threshold;
  template <typename F>
  bool operator()(F const& /*f*/, std::size_t /*iteration*/) const {
    return measure() < threshold;
  }
};

template <typename MeasureF>
value_below(MeasureF, double) -> value_below<MeasureF>;

/// Cooperative cancellation: a copyable handle on a shared flag.  The
/// issuing side (an engine scheduler, a signal handler, another thread)
/// calls `request_cancel()`; the enacting side composes a
/// `cancelled{token}` (or `cancelled_or_deadline`) condition into its loop
/// and stops at the next superstep boundary.  Copies share the flag, so a
/// token can be captured by the job and kept by the scheduler at once.
class cancel_token {
 public:
  cancel_token() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  /// Ask the owning computation to stop at its next convergence check.
  void request_cancel() const { flag_->store(true, std::memory_order_release); }

  /// True once any copy of this token has been cancelled.
  bool cancelled() const { return flag_->load(std::memory_order_acquire); }

  /// Reset for reuse (single-threaded setup phases only).
  void reset() const { flag_->store(false, std::memory_order_release); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Converged when a cancellation token fired — cooperative cancellation as
/// a first-class convergence condition.
struct cancelled {
  cancel_token token;
  template <typename F>
  bool operator()(F const& /*f*/, std::size_t /*iteration*/) const {
    return token.cancelled();
  }
};

/// Converged when a wall-clock budget is exhausted — the deadline as a
/// first-class composable condition.  Fixes the gap where runaway
/// algorithms could only be bounded by iteration count: an algorithm with
/// few, slow supersteps blows any iteration cap long after it blew the
/// latency budget.  Use standalone or via `any_of`:
///
///   bsp_loop(f, step, any_of{frontier_empty{}, time_budget{50ms}});
///
/// The check runs once per superstep, so the loop overshoots by at most one
/// superstep's wall time (cooperative, like every condition here).
class time_budget {
 public:
  using clock = std::chrono::steady_clock;

  /// Budget relative to *now* (construction time).
  explicit time_budget(clock::duration budget)
      : deadline_(clock::now() + budget) {}

  /// Absolute deadline (e.g. a job's admission-time deadline).
  static time_budget until(clock::time_point deadline) {
    time_budget b;
    b.deadline_ = deadline;
    return b;
  }

  /// A budget that never expires (identity under `any_of`).
  static time_budget unlimited() {
    return until(clock::time_point::max());
  }

  clock::time_point deadline() const { return deadline_; }

  bool expired() const {
    return deadline_ != clock::time_point::max() && clock::now() >= deadline_;
  }

  template <typename F>
  bool operator()(F const& /*f*/, std::size_t /*iteration*/) const {
    return expired();
  }

 private:
  time_budget() = default;
  clock::time_point deadline_ = clock::time_point::max();
};

/// The engine's stop condition: cancellation OR deadline, in one check.
/// `why()` reports which fired (deadline wins ties), so a scheduler can
/// classify the outcome after the loop returns.
struct cancelled_or_deadline {
  cancel_token token;
  time_budget budget = time_budget::unlimited();

  enum class reason { none, cancelled, deadline };

  template <typename F>
  bool operator()(F const& /*f*/, std::size_t /*iteration*/) const {
    return budget.expired() || token.cancelled();
  }

  reason why() const {
    if (budget.expired())
      return reason::deadline;
    if (token.cancelled())
      return reason::cancelled;
    return reason::none;
  }
};

/// Disjunction of two conditions.
template <typename A, typename B>
struct either {
  A first;
  B second;
  template <typename F>
  bool operator()(F const& f, std::size_t iteration) const {
    return first(f, iteration) || second(f, iteration);
  }
};

template <typename A, typename B>
either(A, B) -> either<A, B>;

/// Variadic disjunction: converged when *any* of the conditions holds.
/// Generalizes `either` to N conditions without nesting; `any_of{}` (zero
/// conditions) never converges on its own — pair it with a frontier test.
template <typename... Cs>
struct any_of {
  std::tuple<Cs...> conditions;

  explicit any_of(Cs... cs) : conditions(std::move(cs)...) {}

  template <typename F>
  bool operator()(F const& f, std::size_t iteration) const {
    return std::apply(
        [&](Cs const&... c) { return (c(f, iteration) || ...); }, conditions);
  }
};

template <typename... Cs>
any_of(Cs...) -> any_of<Cs...>;

// ---------------------------------------------------------------------------
// BSP driver
// ---------------------------------------------------------------------------

/// Outcome summary of a loop run.  These are the always-on aggregates; the
/// *full* per-superstep trace (frontier sizes, direction decisions, work
/// counts, per-operator timings) is captured by the telemetry layer when a
/// `telemetry::scoped_recording` is active — see core/telemetry.hpp.
struct enact_stats {
  std::size_t iterations = 0;       ///< supersteps executed
  std::size_t total_processed = 0;  ///< sum of input-frontier sizes
  std::size_t total_emitted = 0;    ///< sum of output-frontier sizes
  double millis = 0.0;              ///< wall time of the whole loop
};

/// Bulk-synchronous iterative loop: starting from `frontier`, repeatedly
/// invoke `step(frontier, iteration)` — which returns the next frontier —
/// until `converged(frontier, iteration)` holds.  Convergence is tested
/// *before* each superstep, so a converged initial frontier runs zero
/// steps.
///
/// Telemetry invariant: with a recording scope active, exactly one
/// superstep record is appended per executed iteration, with
/// `frontier_in`/`frontier_out` matching the step's input/output sizes.
template <typename FrontierT, typename StepF,
          typename ConvergedF = frontier_empty>
enact_stats bsp_loop(FrontierT frontier, StepF step,
                     ConvergedF converged = {}) {
  enact_stats stats;
  telemetry::recorder* const rec = telemetry::current();
  auto const start = std::chrono::steady_clock::now();
  while (!converged(frontier, stats.iterations)) {
    std::size_t const in_size = frontier.size();
    if (rec)
      rec->begin_superstep(in_size);
    stats.total_processed += in_size;
    frontier = step(std::move(frontier), stats.iterations);
    ++stats.iterations;
    std::size_t const out_size = frontier.size();
    stats.total_emitted += out_size;
    if (rec)
      rec->end_superstep(out_size);
  }
  stats.millis = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  return stats;
}

// ---------------------------------------------------------------------------
// Direction-optimizing driver
// ---------------------------------------------------------------------------

/// The push/pull switch of Beamer, Asanović and Patterson
/// ("Direction-Optimizing Breadth-First Search", SC'12), written once for
/// every loop that can run a superstep in either direction:
///  - push -> pull when the frontier's out-edges (the next push step's
///    work) exceed the pull side's edge work divided by `alpha` — alpha
///    compares *edge* work;
///  - pull -> push when the frontier falls below |V| / `beta` vertices —
///    beta compares *vertex* counts — or when the alpha test that started
///    the pull fails again.
/// The pull side's edge work is the program's: the in-edges of unvisited
/// vertices for BFS, every in-edge for the min-plus program, whose values
/// can improve again (algorithms/relax.hpp).  The second pull -> push test
/// is the min-plus program's: its pull work never shrinks, so a tail
/// frontier of low-degree vertices — above |V| / beta but holding a few
/// percent of the edges — would otherwise pull every in-edge to relax a
/// handful.  For BFS the pull work shrinks as vertices settle, so the
/// alpha test keeps holding while the frontier is dense.
struct direction_switch {
  double alpha = 15.0;
  double beta = 18.0;

  /// Whether the next superstep pulls, given whether the last one pulled
  /// and the frontier it produced.
  bool pull(bool pulling, std::size_t frontier_vertices,
            std::size_t frontier_edges, std::size_t pull_edges,
            std::size_t num_vertices) const {
    bool const edge_work_favours_pull =
        static_cast<double>(frontier_edges) >
        static_cast<double>(pull_edges) / alpha;
    if (!pulling)
      return edge_work_favours_pull;
    return edge_work_favours_pull &&
           static_cast<double>(frontier_vertices) >=
               static_cast<double>(num_vertices) / beta;
  }
};

/// Direction-optimizing BSP loop: Listing 4's loop with two steps — `push`
/// maps a sparse frontier to the next sparse frontier, `pull` a dense one
/// to the next dense one — and `rule` choosing between them before every
/// superstep.  The frontier changes representation on the policy's pool
/// when the direction changes, never in a serial pass.
///
/// `pull_edges(frontier)` is called with the seeds and with every frontier
/// a step returns (sparse or dense), and answers the pull side's edge work
/// for the rule; it may keep a running count (BFS subtracts each new
/// frontier's in-edges).  Runs until the frontier is empty.  With a
/// recording scope active, each superstep record carries its direction,
/// whether it switched, and the frontier's density.
template <typename P, typename G, typename PushF, typename PullF,
          typename PullEdgesF>
  requires execution::synchronous_policy<P> && (G::has_csr && G::has_csc)
enact_stats direction_loop(P policy, G const& g,
                           frontier::sparse_frontier<typename G::vertex_type>
                               seeds,
                           direction_switch rule, PushF push, PullF pull,
                           PullEdgesF pull_edges) {
  using V = typename G::vertex_type;
  std::size_t const n = static_cast<std::size_t>(g.get_num_vertices());
  auto const out_degree = [&g](V v) {
    return static_cast<std::size_t>(g.get_out_degree(v));
  };
  enact_stats stats;
  telemetry::recorder* const rec = telemetry::current();
  auto const start = std::chrono::steady_clock::now();
  frontier::sparse_frontier<V> sparse(std::move(seeds));
  frontier::dense_frontier<V> dense;
  bool pulling = false;
  std::size_t size = sparse.size();
  std::size_t work = pull_edges(sparse);
  while (size != 0) {
    if (rec)  // the record's time includes the decision and any conversion
      rec->begin_superstep(size);
    bool const pulled = pulling;
    std::size_t const frontier_edges =
        pulled ? operators::reduce(policy, dense, std::size_t{0}, out_degree,
                                   std::plus<>{})
               : operators::reduce(policy, sparse, std::size_t{0}, out_degree,
                                   std::plus<>{});
    pulling = rule.pull(pulled, size, frontier_edges, work, n);
    if (pulling && !pulled)
      dense = frontier::to_dense(policy, sparse, n);
    else if (!pulling && pulled)
      sparse = frontier::to_sparse(policy, dense);
    if (rec)
      rec->set_direction(pulling ? direction_t::pull : direction_t::push,
                         pulling != pulled,
                         static_cast<double>(size) / static_cast<double>(n));
    stats.total_processed += size;
    if (pulling) {
      dense = pull(std::move(dense), stats.iterations);
      size = dense.size();
      work = pull_edges(dense);
    } else {
      sparse = push(std::move(sparse), stats.iterations);
      size = sparse.size();
      work = pull_edges(sparse);
    }
    ++stats.iterations;
    stats.total_emitted += size;
    if (rec)
      rec->end_superstep(size);
  }
  stats.millis = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  return stats;
}

// ---------------------------------------------------------------------------
// Asynchronous driver
// ---------------------------------------------------------------------------

/// The default `async_loop` stop predicate: never stop early.
struct never_stop {
  constexpr bool operator()() const noexcept { return false; }
};

/// Asynchronous loop: `num_workers` consumers pop active vertices from the
/// queue frontier and run `body(v)` on each; `body` re-activates vertices
/// by calling `f.add_vertex(...)`.  Returns when the frontier is quiescent
/// (every activation processed, nothing in flight) — the asynchronous
/// convergence condition.  Dedicated threads (not the pool) because
/// consumers block on pops; blocking pool workers could starve unrelated
/// operators sharing the pool.
///
/// Each consumer also evaluates `should_stop()` (any nullary predicate — a
/// lambda over a cancel_token, an engine job's stop check...) between
/// items; the first lane to observe it closes the queue, which wakes every
/// blocked consumer and ends the loop even though the frontier is not
/// quiescent.  This is how engine jobs in the asynchronous timing model
/// honour deadlines and cancellation: one predicate call per *item*, never
/// per edge, and none at all with the default `never_stop`.
template <typename T, typename BodyF, typename StopF = never_stop>
std::size_t async_loop(frontier::async_queue_frontier<T>& f,
                       std::size_t num_workers, BodyF body,
                       StopF should_stop = {}) {
  expects(num_workers >= 1, "async_loop: need at least one worker");
  auto const start = std::chrono::steady_clock::now();
  std::vector<std::thread> crew;
  crew.reserve(num_workers);
  std::vector<std::size_t> processed(num_workers, 0);
  for (std::size_t w = 0; w < num_workers; ++w) {
    crew.emplace_back([&f, &body, &should_stop, &processed, w] {
      T v{};
      while (f.pop_vertex(v)) {
        if (should_stop()) {
          f.finish_vertex();
          f.close();
          break;
        }
        body(v);
        f.finish_vertex();
        ++processed[w];
      }
    });
  }
  std::size_t total = 0;
  for (std::size_t w = 0; w < num_workers; ++w) {
    crew[w].join();
    total += processed[w];
  }
  // Asynchronous runs have no supersteps; the trace records the whole
  // drain-to-quiescence phase as one op (items == activations processed).
  if (telemetry::recorder* const rec = telemetry::current()) {
    telemetry::op_record op;
    op.name = "async_loop";
    op.items_in = total;
    op.items_out = total;
    op.pool_lanes = num_workers;
    op.async = true;
    op.millis = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    rec->add_op(std::move(op));
  }
  return total;
}

}  // namespace essentials::enactor
