#pragma once

/// \file engine/engine.hpp
/// \brief The analytics engine facade: registry + scheduler + result cache
/// + metrics wired into one object — the layer that turns "a library that
/// runs one algorithm" into "a service that runs many, concurrently, over
/// shared mutating graphs".
///
/// Query path (the protocol, also documented in docs/ARCHITECTURE.md).
/// Every submission goes through one admission function:
///
///   submit(desc, cold) | submit(desc, cold, warm) | submit_batch(desc, bj)
///     └─ admit
///        ├─ registry.lookup(desc.graph)       — pin (snapshot, epoch)
///        ├─ unknown graph → handle retires `rejected`
///        ├─ cache.lookup(graph, epoch, algo, params)
///        │    └─ hit → handle retires instantly as `cache_hit` (no queue,
///        │            no enactment; determinism makes the result
///        │            bit-identical to a re-run)
///        └─ miss → scheduler.submit(body, epoch, fusion spec, &cache):
///           the entry points differ only in the body they enqueue (cold;
///           warm-or-cold; cold plus a fusion spec).  The scheduler's one
///           run sequence (engine/scheduler.hpp) probes the cache again at
///           dequeue (a hit retires `cache_hit`), runs the body under
///           deadline/cancel conditions and inserts `completed` results
///           keyed by the epoch pinned at submission.  A request counts
///           one cache hit or, when it enacts, one miss: the submit-time
///           probe leaves its miss to the dequeue probe.
///
///   registry.publish(name, ...) — swaps the snapshot, bumps the epoch and
///   (via subscription) invalidates cache entries of that graph *only*.
///   In-flight jobs keep their pinned epoch and finish correctly; their
///   late cache inserts carry the old epoch in the key, so they can never
///   be confused with fresh-epoch results (the eager invalidation is an
///   optimization; the epoch-in-key is the correctness).
///
/// The facade is templated on the concrete graph type it serves
/// (`analytics_engine<graph::graph_push_pull>` is the common
/// instantiation); the scheduler/cache/stats below it are type-erased and
/// compiled once (engine/scheduler.cpp).

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "engine/batcher.hpp"
#include "engine/registry.hpp"
#include "engine/result_cache.hpp"
#include "engine/scheduler.hpp"
#include "engine/stats.hpp"
#include "residual/standing.hpp"

namespace essentials::engine {

struct engine_options {
  std::size_t num_runners = 2;       ///< concurrent jobs in flight
  std::size_t max_queued = 64;       ///< admission bound
  std::size_t cache_capacity = 128;  ///< result-cache entries (0 disables)
  /// Registry storage tier: when `tier_spill_dir` is non-empty (or
  /// `ESSENTIALS_OOC=1` is set in the environment) the registry demotes
  /// cold epochs to block-coded spill files and pages them back on lookup.
  /// `tier_budget_bytes` bounds resident snapshot bytes (0 == unlimited —
  /// only explicit `registry().demote()` calls spill).
  std::string tier_spill_dir = {};  ///< empty == tier off (unless env enables)
  std::uint64_t tier_budget_bytes = 0;
};

/// A batchable query, as the lane-job builders (engine/batch_jobs.hpp)
/// return it: its cold body plus the graph-typed half of the fusion
/// contract (the type-erased half is `batch_spec`, engine/batcher.hpp).
template <typename GraphT>
struct batchable_job {
  /// Runs when no compatible partner survives triage.
  std::function<std::shared_ptr<void const>(GraphT const&, job_context&)>
      cold;
  /// This member's lane input (e.g. its source vertex), delivered to the
  /// fused body positionally via `batch_lane::payload`.
  std::shared_ptr<void const> payload;
  /// The shared enactment of up to 64 members over the pinned snapshot.
  std::function<fused_outcome(GraphT const&, std::vector<batch_lane> const&)>
      fused;
};

template <typename GraphT>
class analytics_engine {
 public:
  using graph_type = GraphT;

  /// Job body: runs against the pinned snapshot with the cooperative stop
  /// context.  Return the (heap-allocated, immutable) result to publish to
  /// the handle and the cache; null results are valid but never cached.
  using typed_job_fn = std::function<std::shared_ptr<void const>(
      GraphT const&, job_context&)>;

  using delta_type = typename graph_registry<GraphT>::delta_type;

  /// Warm job body: runs against the pinned snapshot *plus* a stale
  /// converged result (type-erased, same algorithm/params, older epoch) and
  /// the edge delta covering (stale epoch, pinned epoch].  The body decides
  /// whether the delta admits an incremental enactment (insert-only fast
  /// path) and reports the outcome via `ctx.note_warm_start` /
  /// `ctx.note_delta_fallback` — engine/warm_jobs.hpp provides canonical
  /// bodies for SSSP/BFS/CC.
  using warm_job_fn = std::function<std::shared_ptr<void const>(
      GraphT const&, std::shared_ptr<void const> const&, delta_type const&,
      job_context&)>;

  explicit analytics_engine(engine_options opt = {})
      : cache_(opt.cache_capacity, &stats_),
        scheduler_(scheduler_options{opt.num_runners, opt.max_queued},
                   &stats_) {
    // Epoch publication protocol: a new epoch of graph G invalidates
    // cached results of G only; other graphs' entries survive.  Since PR 4
    // invalidation *demotes* the newest entry per query identity to a
    // warm-start seed instead of evicting it (result_cache.hpp).
    registry_.subscribe([this](std::string const& name, std::uint64_t) {
      cache_.invalidate_graph(name);
      notify_standing(name);
    });
    // Storage tier: explicit options win; otherwise the ESSENTIALS_OOC
    // env knobs can switch it on without a code change (CONTRIBUTING.md).
    registry_.set_stats(&stats_);
    if constexpr (tier_spillable<GraphT>) {
      if (!opt.tier_spill_dir.empty()) {
        registry_.enable_tier(
            tier_options{opt.tier_spill_dir, opt.tier_budget_bytes});
      } else if (auto const env = tier_config_from_env(); env.enabled) {
        registry_.enable_tier(env.options);
      }
    }
  }

  ~analytics_engine() {
    // Standing queries hold `&stats_` and may be mid-reconverge on the
    // worker pool: stop them *before* any engine member destructs.  Their
    // shutdown() detaches the stats pointer, so a user-held shared_ptr that
    // outlives the engine stays safe (it just stops counting).
    std::vector<std::weak_ptr<residual::standing_query_base<GraphT>>> held;
    {
      std::lock_guard<std::mutex> guard(standing_mutex_);
      held.swap(standing_);
    }
    for (auto& weak : held)
      if (auto q = weak.lock())
        q->shutdown();
    scheduler_.shutdown(/*run_queued=*/false);
  }

  graph_registry<GraphT>& registry() { return registry_; }
  graph_registry<GraphT> const& registry() const { return registry_; }
  result_cache& cache() { return cache_; }
  job_scheduler& scheduler() { return scheduler_; }
  engine_stats_snapshot stats() const { return stats_.snapshot(); }

  /// Submit an analytics query.  The returned handle is live immediately:
  /// `cache_hit` / `rejected` handles are already terminal, queued handles
  /// retire when a runner finishes (or refuses) them.  A queued duplicate
  /// whose result an identical earlier job cached while it waited retires
  /// `cache_hit` at dequeue without enacting.  Thread-safe.
  job_ptr submit(job_desc desc, typed_job_fn fn) {
    return admit(std::move(desc), {std::move(fn), {}, {}});
  }

  /// Warm-start-capable submission: like `submit(desc, cold)`, but when the
  /// exact-epoch lookup misses and the cache still holds a *demoted* entry
  /// of the same query identity at an older epoch whose delta chain to the
  /// pinned epoch is intact, the runner invokes `warm(snapshot, stale
  /// result, delta, ctx)` instead of `cold` — the incremental fast path.
  /// Every degradation (no warm seed, broken delta chain, warm body decides
  /// the delta is not monotone) lands on the cold body; a broken chain with
  /// a warm seed available is additionally counted as a `delta_fallback`.
  /// Results are cached identically either way — determinism makes the
  /// warm-started result bit-identical to a cold enactment (differentially
  /// verified in tests/test_delta.cpp).  An uncacheable query (`use_cache`
  /// off, or no cache) has no warm seed and always runs cold.
  job_ptr submit(job_desc desc, typed_job_fn cold, warm_job_fn warm) {
    return admit(std::move(desc), {std::move(cold), {}, {}}, std::move(warm));
  }

  /// Batchable submission: like `submit(desc, bj.cold)`, but the job also
  /// carries a fusion spec — at dequeue time the scheduler coalesces every
  /// queued job with the same `(graph, epoch, algorithm)` key into
  /// lane-packed enactments (engine/batcher.hpp), demuxing per-member
  /// results; each member's converged result is inserted into the cache
  /// under its *own* `(graph, epoch, algorithm, params)` key, and members
  /// that individually hit the cache at dequeue time retire `cache_hit`
  /// before lane assignment.
  job_ptr submit_batch(job_desc desc, batchable_job<GraphT> bj) {
    return admit(std::move(desc), std::move(bj));
  }

  /// Convenience: submit and block for the terminal status.
  job_ptr run(job_desc desc, typed_job_fn fn) {
    auto j = submit(std::move(desc), std::move(fn));
    j->wait();
    return j;
  }

  /// Convenience: warm-capable submit-and-wait.
  job_ptr run(job_desc desc, typed_job_fn cold, warm_job_fn warm) {
    auto j = submit(std::move(desc), std::move(cold), std::move(warm));
    j->wait();
    return j;
  }

  /// Register a standing query: a residual engine for `algebra` over graph
  /// `name`, seeded by `seed`, converged immediately, and then kept
  /// converged across every `registry().publish(name, ...)` — each publish
  /// flows in as (snapshot, delta) and re-converges in time proportional to
  /// the change (residual/standing.hpp).  `base` enables the exact epoch
  /// rebase for sum algebras.  Returns null for an unknown graph.  The
  /// engine holds only a weak reference: dropping the returned shared_ptr
  /// deregisters the query.
  template <typename A>
  std::shared_ptr<residual::standing_query<GraphT, A>> submit_standing(
      std::string const& name, A algebra,
      typename residual::standing_query<GraphT, A>::seed_fn seed,
      residual::standing_options opt = {},
      typename residual::standing_query<GraphT, A>::base_fn base = {}) {
    auto pinned = registry_.lookup(name);
    if (!pinned)
      return nullptr;
    auto q = std::make_shared<residual::standing_query<GraphT, A>>(
        name, std::move(pinned), std::move(algebra), std::move(seed), opt,
        std::move(base), &stats_);
    {
      std::lock_guard<std::mutex> guard(standing_mutex_);
      standing_.push_back(q);
    }
    stats_.on_standing_query();
    return q;
  }

 private:
  /// The one admission path: pin the snapshot, refuse an unknown graph,
  /// answer a submit-time cache hit, or enqueue.  What is enqueued is
  /// `bj.cold` — or, given `warm`, a body that picks warm or cold at run
  /// time — plus a fusion spec when `bj.fused` is set.  A cacheable job is
  /// bound to the cache: the scheduler probes it at dequeue and inserts
  /// the completed result, so no body touches the exact key.
  job_ptr admit(job_desc desc, batchable_job<GraphT> bj,
                warm_job_fn warm = {}) {
    auto pinned = registry_.lookup(desc.graph);
    if (!pinned) {
      job_ptr j(new job(0, std::move(desc)));
      job_scheduler::retire(j, job_status::rejected, nullptr,
                            "unknown graph: " + j->desc().graph);
      stats_.on_rejected();
      return j;
    }

    cache_key key = cache_key_of(desc, pinned.epoch);
    bool const cacheable = desc.use_cache && cache_.capacity() != 0;
    if (cacheable) {
      // A miss here is not counted: the scheduler probes again at dequeue,
      // and that probe, which decides whether the job enacts, counts it.
      if (auto hit = cache_.lookup(key, /*count_miss=*/false)) {
        job_ptr j(new job(0, std::move(desc)));
        j->epoch_ = pinned.epoch;
        job_scheduler::retire(j, job_status::cache_hit, std::move(hit), {});
        return j;
      }
    }

    // Type-erase the fusion contract.  The key pins (graph name, epoch,
    // algorithm): a publish between two submissions changes the epoch and
    // therefore splits the batch — a fused wave can never straddle
    // snapshots, because the fused closure captured this pin by value.
    std::shared_ptr<batch_spec> spec;
    if (bj.fused) {
      spec = std::make_shared<batch_spec>();
      spec->key = make_batch_key(desc.graph, pinned.epoch, desc.algorithm);
      spec->payload = std::move(bj.payload);
      spec->fused = [pinned, fused = std::move(bj.fused)](
                        std::vector<batch_lane> const& lanes) {
        return fused(*pinned.graph, lanes);
      };
    }

    job_fn body;
    if (warm && cacheable) {
      body = [this, pinned, key = std::move(key), cold = std::move(bj.cold),
              warm = std::move(warm)](
                 job_context& ctx) -> std::shared_ptr<void const> {
        // Warm probe at *run* time, not submit time: a publish that
        // happened while we queued cannot help us — our epoch pin is fixed.
        if (auto seed = cache_.lookup_warm(key)) {
          auto const delta =
              registry_.delta_between(key.graph, seed.epoch, key.epoch);
          if (delta.complete)
            return warm(*pinned.graph, seed.value, delta, ctx);
          // A seed existed but the delta chain is broken: cold run,
          // counted so operators can see missed warm opportunities.
          ctx.note_delta_fallback();
        }
        return cold(*pinned.graph, ctx);
      };
    } else {
      body = [pinned, cold = std::move(bj.cold)](job_context& ctx) {
        return cold(*pinned.graph, ctx);
      };
    }
    return scheduler_.submit(std::move(desc), std::move(body), pinned.epoch,
                             std::move(spec), cacheable ? &cache_ : nullptr);
  }

  /// Publish fan-out (runs on the publishing thread, post-swap, outside the
  /// registry lock).  Dead weak_ptrs are pruned in passing; the (pin,
  /// delta) pair is resolved here so threaded queries only enqueue.
  void notify_standing(std::string const& name) {
    std::vector<std::shared_ptr<residual::standing_query_base<GraphT>>> live;
    {
      std::lock_guard<std::mutex> guard(standing_mutex_);
      auto it = standing_.begin();
      while (it != standing_.end()) {
        if (auto q = it->lock()) {
          if (q->graph_name() == name)
            live.push_back(std::move(q));
          ++it;
        } else {
          it = standing_.erase(it);
        }
      }
    }
    for (auto const& q : live) {
      auto pinned = registry_.lookup(name);
      if (!pinned)
        continue;
      auto delta =
          registry_.delta_between(name, q->base_epoch(), pinned.epoch);
      q->on_publish(std::move(pinned), std::move(delta));
    }
  }

  engine_stats stats_;
  graph_registry<GraphT> registry_;
  result_cache cache_;
  job_scheduler scheduler_;
  std::vector<std::weak_ptr<residual::standing_query_base<GraphT>>> standing_;
  std::mutex standing_mutex_;
};

}  // namespace essentials::engine
