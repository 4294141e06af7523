#pragma once

/// \file engine/scheduler.hpp
/// \brief The concurrent job scheduler of the analytics engine: a
/// priority job queue with per-job deadlines, cooperative cancellation and
/// admission control, executed by a crew of dedicated runner threads.
///
/// Layering (and why runners are dedicated threads, not pool tasks): a job
/// body runs parallel *operators* whose `run_blocked` chunks execute on the
/// shared thread pool.  If the job bodies themselves also occupied pool
/// workers, J concurrent jobs could park every worker inside a latch wait
/// while their operator chunks sit unpopped behind them — classic nested-
/// fork-join starvation deadlock.  So the scheduler follows the
/// `async_loop` precedent (core/enactor.hpp): job bodies run on dedicated
/// runner threads that *block freely*, and only the data-parallel chunks
/// they spawn go to the pool.  Concurrency across jobs = number of
/// runners; parallelism within a job = the pool, shared by all.
///
/// Deadlines and cancellation are *cooperative*, threaded into the paper's
/// fourth essential (the convergence condition): the runner hands the job
/// a `job_context` whose `stop_condition()` composes into `bsp_loop` via
/// `any_of` (or serves as `async_loop`'s stop predicate).  A job past
/// its deadline therefore stops at the next superstep boundary — no thread
/// is ever killed, no state is torn.  The context records *which* guard
/// fired, so the scheduler classifies the outcome (`deadline_expired` vs
/// `cancelled` vs `completed`) without re-deriving it from racy clocks.
///
/// Admission control: the queue is bounded (`max_queued`); a submission
/// past the bound is rejected immediately with a reason — backpressure by
/// refusal, the serving-system alternative to unbounded queueing collapse.
///
/// One run sequence serves every dequeue.  A runner pops the top job and,
/// when it is batchable, claims every queued job with the same batch key
/// (engine/batcher.hpp).  Then, for the whole claim:
///   1. triage each job: stamp its queue wait; retire it if its deadline
///      elapsed or it was cancelled while queued, or `cache_hit` if its
///      exact result landed in the bound cache meanwhile;
///   2. enact the survivors: a lone survivor runs its own body, more run
///      the shared fused body in waves of up to 64 lanes;
///   3. classify each member from its own fired record, insert completed
///      results into the bound cache, retire.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/enactor.hpp"
#include "core/telemetry.hpp"
#include "engine/result_cache.hpp"
#include "engine/stats.hpp"

namespace essentials::engine {

struct batch_spec;  // engine/batcher.hpp — fusion contract for batchable jobs

// ---------------------------------------------------------------------------
// Job description and lifecycle
// ---------------------------------------------------------------------------

enum class job_status : unsigned char {
  queued,            ///< accepted, waiting for a runner
  running,           ///< a runner is enacting it
  completed,         ///< ran to convergence; result available
  cache_hit,         ///< served from the result cache without enacting
  failed,            ///< the enactment threw; see error()
  cancelled,         ///< stopped by cancel_token (queued or mid-enactment)
  deadline_expired,  ///< stopped by its deadline (queued or mid-enactment)
  rejected,          ///< refused at admission; see error()
};

inline char const* to_string(job_status s) {
  switch (s) {
    case job_status::queued:
      return "queued";
    case job_status::running:
      return "running";
    case job_status::completed:
      return "completed";
    case job_status::cache_hit:
      return "cache_hit";
    case job_status::failed:
      return "failed";
    case job_status::cancelled:
      return "cancelled";
    case job_status::deadline_expired:
      return "deadline_expired";
    case job_status::rejected:
      return "rejected";
  }
  return "unknown";
}

/// True for states a job can never leave.
inline bool is_terminal(job_status s) {
  return s != job_status::queued && s != job_status::running;
}

/// What the client asks for.  `graph`/`algorithm`/`params` identify the
/// query (and form the cache key — params must be *canonicalized* by the
/// caller: same query ⇒ same string); `priority` orders the queue (higher
/// first, FIFO within a class); `deadline` is a relative latency budget
/// measured from submission (zero == unlimited) that covers queue wait AND
/// run time, as a serving deadline must.
struct job_desc {
  std::string graph;
  std::string algorithm;
  std::string params;
  int priority = 0;
  std::chrono::milliseconds deadline{0};
  bool use_cache = true;
  bool record_trace = false;  ///< capture a job-tagged telemetry trace
};

/// The result-cache key of query `d` against registry epoch `epoch`.
inline cache_key cache_key_of(job_desc const& d, std::uint64_t epoch) {
  return {d.graph, epoch, d.algorithm, d.params};
}

/// Warm-start attribution a job body reports back through its context
/// (written by the body on a runner thread, read by the scheduler after the
/// body returned, and by handle accessors from any thread — hence atomics).
struct warm_info {
  std::atomic<bool> warm_start{false};      ///< enacted incrementally
  std::atomic<bool> delta_fallback{false};  ///< warm candidate, forced cold
  std::atomic<std::uint64_t> delta_edges{0};
  std::atomic<std::uint64_t> supersteps_saved{0};
};

/// Handed to the job body while it runs: the cooperative stop machinery.
/// References into the job's shared state — valid only for the duration of
/// the body call.
class job_context {
 public:
  job_context(enactor::cancel_token token, enactor::time_budget budget,
              std::atomic<int>* fired, warm_info* warm = nullptr)
      : token_(std::move(token)), budget_(budget), fired_(fired),
        warm_(warm) {}

  enactor::cancel_token const& token() const { return token_; }
  enactor::time_budget const& budget() const { return budget_; }

  /// One combined check; records which guard fired (deadline wins ties) so
  /// the scheduler can classify the outcome race-free after the body
  /// returns.  Call between natural units of work (supersteps, items).
  bool should_stop() const {
    if (budget_.expired()) {
      fired_->store(kFiredDeadline, std::memory_order_relaxed);
      return true;
    }
    if (token_.cancelled()) {
      fired_->store(kFiredCancelled, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Composable convergence condition for `bsp_loop`:
  ///   bsp_loop(f, step, any_of{frontier_empty{}, ctx.stop_condition()});
  struct stop_condition_t {
    job_context const* ctx;
    template <typename F>
    bool operator()(F const& /*f*/, std::size_t /*iteration*/) const {
      return ctx->should_stop();
    }
    bool operator()() const { return ctx->should_stop(); }  // async_loop form
  };
  stop_condition_t stop_condition() const { return {this}; }

  static constexpr int kFiredNone = 0;
  static constexpr int kFiredCancelled = 1;
  static constexpr int kFiredDeadline = 2;

  /// Which guard (if any) has fired so far — a *read* of the record, unlike
  /// should_stop() which re-evaluates the guards and records the outcome.
  /// Use this after the enactment to ask "was this run truncated?" without
  /// racing the clock (a job that converged naturally a moment before its
  /// deadline must stay classified as completed).
  int fired() const { return fired_->load(std::memory_order_relaxed); }

  /// Record that this enactment was warm-started from a prior epoch's
  /// converged result (telemetry schema v4 + engine_stats.warm_start_hits).
  /// Call after the incremental enactor reports `warm_started == true`.
  void note_warm_start(std::uint64_t delta_edges,
                       std::uint64_t supersteps_saved) const {
    if (!warm_)
      return;
    warm_->warm_start.store(true, std::memory_order_relaxed);
    warm_->delta_edges.store(delta_edges, std::memory_order_relaxed);
    warm_->supersteps_saved.store(supersteps_saved,
                                  std::memory_order_relaxed);
  }

  /// Record that a warm candidate existed but the enactment had to run cold
  /// (deletions in the delta, truncated log, shape mismatch...).
  void note_delta_fallback() const {
    if (warm_)
      warm_->delta_fallback.store(true, std::memory_order_relaxed);
  }

 private:
  enactor::cancel_token token_;
  enactor::time_budget budget_;
  std::atomic<int>* fired_;
  warm_info* warm_;
};

/// The work itself: runs against whatever state the submitter bound (the
/// engine facade binds a pinned graph snapshot) and returns a type-erased
/// result (null allowed for side-effect jobs; null results are not cached).
using job_fn = std::function<std::shared_ptr<void const>(job_context&)>;

/// Shared job state: the handle the submitter keeps and the record the
/// runner fills in.  All accessors are thread-safe; `wait()` blocks until a
/// terminal state.
class job {
 public:
  std::uint64_t id() const { return id_; }
  job_desc const& desc() const { return desc_; }

  job_status status() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return status_;
  }
  bool done() const { return is_terminal(status()); }

  /// Block until the job reaches a terminal state; returns it.
  job_status wait() const {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return is_terminal(status_); });
    return status_;
  }

  /// The type-erased result (null unless completed / cache_hit).
  std::shared_ptr<void const> result() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return result_;
  }

  /// Typed view of the result; the caller knows the algorithm it asked for.
  template <typename R>
  std::shared_ptr<R const> result_as() const {
    return std::static_pointer_cast<R const>(result());
  }

  /// Rejection / failure reason (empty otherwise).
  std::string error() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return error_;
  }

  bool cache_hit() const { return status() == job_status::cache_hit; }

  /// Warm-start attribution (valid once the job retired).
  bool warm_started() const {
    return warm_.warm_start.load(std::memory_order_relaxed);
  }
  bool delta_fallback() const {
    return warm_.delta_fallback.load(std::memory_order_relaxed);
  }
  std::uint64_t delta_edges() const {
    return warm_.delta_edges.load(std::memory_order_relaxed);
  }
  std::uint64_t supersteps_saved() const {
    return warm_.supersteps_saved.load(std::memory_order_relaxed);
  }

  /// Registry epoch the job ran against (0 when not engine-routed).
  std::uint64_t graph_epoch() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return epoch_;
  }

  /// Fusion attribution (valid once the job retired): a non-zero
  /// `batch_size()` means this job was served as lane `lane()` of fused
  /// wave `batch_id()`; zero means it enacted alone (or hit the cache).
  std::uint64_t batch_id() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return batch_id_;
  }
  std::uint32_t batch_size() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return batch_size_;
  }
  std::uint32_t lane() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return lane_;
  }

  double queue_ms() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return queue_ms_;
  }
  double run_ms() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return run_ms_;
  }

  /// The job-tagged telemetry trace (populated only for record_trace jobs,
  /// after the job retired).
  telemetry::trace const& trace() const { return trace_; }

  /// Request cooperative cancellation: a queued job is dropped when popped;
  /// a running job stops at its next should_stop() check.
  void cancel() { token_.request_cancel(); }

 private:
  friend class job_scheduler;
  template <typename GraphT>
  friend class analytics_engine;

  job(std::uint64_t id, job_desc desc) : id_(id), desc_(std::move(desc)) {}

  std::uint64_t const id_;
  job_desc const desc_;

  mutable std::mutex mutex_;
  mutable std::condition_variable done_cv_;
  job_status status_ = job_status::queued;
  std::shared_ptr<void const> result_;
  std::string error_;
  std::uint64_t epoch_ = 0;
  double queue_ms_ = 0.0;
  double run_ms_ = 0.0;
  std::uint64_t batch_id_ = 0;
  std::uint32_t batch_size_ = 0;
  std::uint32_t lane_ = 0;
  telemetry::trace trace_;

  enactor::cancel_token token_;
  enactor::time_budget budget_ = enactor::time_budget::unlimited();
  std::atomic<int> fired_{job_context::kFiredNone};
  warm_info warm_;
  std::chrono::steady_clock::time_point submitted_at_{};
  job_fn fn_;
  std::shared_ptr<batch_spec> batch_;  ///< non-null == batchable (fusion key
                                       ///< + lane payload + fused body)
  /// Non-null == cacheable: probed at dequeue and fed the completed result,
  /// both under (graph, epoch, algorithm, params) of this job.
  result_cache* cache_ = nullptr;
};

using job_ptr = std::shared_ptr<job>;

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

struct scheduler_options {
  std::size_t num_runners = 2;  ///< concurrent jobs in flight (dedicated threads)
  std::size_t max_queued = 64;  ///< admission bound on *waiting* jobs
};

class job_scheduler {
 public:
  /// `stats` (optional) receives lifecycle counters; it must outlive the
  /// scheduler.
  explicit job_scheduler(scheduler_options opt = {},
                         engine_stats* stats = nullptr);

  /// Shuts down without running the backlog (queued jobs retire as
  /// cancelled); in-flight jobs run to their next stop check or
  /// convergence.
  ~job_scheduler();

  job_scheduler(job_scheduler const&) = delete;
  job_scheduler& operator=(job_scheduler const&) = delete;

  /// Submit a job.  Never blocks: past the admission bound (or after
  /// shutdown) the returned handle is already `rejected` with a reason —
  /// backpressure the caller can act on, instead of a deadlock to debug.
  /// `graph_epoch` (engine-routed jobs) stamps the handle and the job's
  /// telemetry trace with the registry epoch it was pinned to.
  ///
  /// `batch` (non-null) marks the job fusable with same-key queued jobs at
  /// dequeue time (see engine/batcher.hpp).  `fn` stays the job's *solo*
  /// body — enacted when no compatible partner survives triage, so a
  /// batchable job never waits for company.  Builders keep solo and fused
  /// bodies on the same lane-packed code path, which is what makes fused
  /// results bit-identical.  `cache` (non-null, must outlive the job) binds
  /// the job's exact query key to a result cache: a hit at dequeue retires
  /// the job `cache_hit`, and a completed result is inserted.
  job_ptr submit(job_desc desc, job_fn fn, std::uint64_t graph_epoch = 0,
                 std::shared_ptr<batch_spec> batch = nullptr,
                 result_cache* cache = nullptr);

  /// Stop accepting work.  `run_queued == true` drains the backlog through
  /// the runners first; otherwise queued jobs retire as `cancelled`
  /// (accounted, never silently lost — see mpmc_queue::drain for the
  /// pattern).  Idempotent; joins the runner threads.
  void shutdown(bool run_queued = false);

  std::size_t queued() const;
  std::size_t running() const;
  scheduler_options const& options() const { return opt_; }

  template <typename GraphT>
  friend class analytics_engine;  // terminal-handle construction (cache
                                  // hits, unknown-graph rejections)

 private:
  struct queued_item {
    int priority = 0;
    std::uint64_t seq = 0;  // FIFO tiebreak within a priority class
    job_ptr j;
  };
  struct item_less {
    bool operator()(queued_item const& a, queued_item const& b) const {
      if (a.priority != b.priority)
        return a.priority < b.priority;  // higher priority on top
      return a.seq > b.seq;              // earlier submission on top
    }
  };

  void runner_loop();
  /// The fusion window: append to `claimed` every queued job whose batch
  /// key matches `claimed.front()`'s, in pop (priority/FIFO) order.  Called
  /// with `mutex_` held.
  void claim_partners_locked(std::vector<job_ptr>& claimed);
  /// The run sequence (file comment): triage, enact, classify and retire
  /// every job of one claim.
  void run(std::vector<job_ptr> const& claimed);
  /// Steps 2 and 3 for one wave of triage survivors (1 to 64 jobs).
  void enact(std::span<job_ptr const> wave);
  static void retire(job_ptr const& j, job_status s,
                     std::shared_ptr<void const> result, std::string error);
  void count_terminal(job_status s);

  scheduler_options const opt_;
  engine_stats* const stats_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::priority_queue<queued_item, std::vector<queued_item>, item_less>
      queue_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 1;
  std::atomic<std::uint64_t> next_batch_id_{1};
  std::size_t running_ = 0;
  bool stopping_ = false;
  bool drain_backlog_ = false;
  std::vector<std::thread> runners_;
};

}  // namespace essentials::engine
