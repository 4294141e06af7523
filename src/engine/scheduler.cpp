#include "engine/scheduler.hpp"

#include <algorithm>
#include <exception>

#include "engine/batcher.hpp"
#include "parallel/thread_pool.hpp"

namespace essentials::engine {

job_scheduler::job_scheduler(scheduler_options opt, engine_stats* stats)
    : opt_{opt.num_runners == 0 ? 1 : opt.num_runners, opt.max_queued},
      stats_(stats) {
  runners_.reserve(opt_.num_runners);
  for (std::size_t i = 0; i < opt_.num_runners; ++i)
    runners_.emplace_back([this] { runner_loop(); });
}

job_scheduler::~job_scheduler() {
  shutdown(/*run_queued=*/false);
}

job_ptr job_scheduler::submit(job_desc desc, job_fn fn,
                              std::uint64_t graph_epoch) {
  return submit(std::move(desc), std::move(fn), graph_epoch, nullptr);
}

job_ptr job_scheduler::submit(job_desc desc, job_fn fn,
                              std::uint64_t graph_epoch,
                              std::shared_ptr<batch_spec> batch) {
  auto const now = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(mutex_);
  // The handle is created under the lock so ids are dense and ordered.
  job_ptr j(new job(next_id_++, std::move(desc)));
  j->submitted_at_ = now;
  j->epoch_ = graph_epoch;
  if (j->desc_.deadline.count() > 0)
    j->budget_ = enactor::time_budget::until(now + j->desc_.deadline);
  j->fn_ = std::move(fn);
  j->batch_ = std::move(batch);

  if (stopping_) {
    lock.unlock();
    retire(j, job_status::rejected, nullptr, "scheduler is shut down");
    if (stats_)
      stats_->on_rejected();
    return j;
  }
  if (queue_.size() >= opt_.max_queued) {
    lock.unlock();
    retire(j, job_status::rejected, nullptr,
           "admission control: queue full (" +
               std::to_string(opt_.max_queued) + " waiting jobs)");
    if (stats_)
      stats_->on_rejected();
    return j;
  }

  queue_.push(queued_item{j->desc_.priority, next_seq_++, j});
  if (stats_)
    stats_->on_submitted();
  lock.unlock();
  work_cv_.notify_one();
  return j;
}

void job_scheduler::shutdown(bool run_queued) {
  std::vector<job_ptr> dropped;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    if (!stopping_) {
      stopping_ = true;
      drain_backlog_ = run_queued;
    }
    if (!drain_backlog_) {
      // Lossless drain: every queued job retires as cancelled — accounted,
      // never silently lost.
      while (!queue_.empty()) {
        dropped.push_back(queue_.top().j);
        queue_.pop();
      }
    }
  }
  work_cv_.notify_all();
  for (auto const& j : dropped) {
    count_terminal(job_status::cancelled);
    retire(j, job_status::cancelled, nullptr, "scheduler shutdown");
  }
  for (auto& r : runners_)
    if (r.joinable())
      r.join();
}

std::size_t job_scheduler::queued() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return queue_.size();
}

std::size_t job_scheduler::running() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return running_;
}

void job_scheduler::runner_loop() {
  // Runners are the dominant run_blocked callers: claim a stable external
  // lane on the default pool up front so every superstep this runner
  // coordinates distributes its chunks through a stealable deque instead
  // of the locked injector.  The slot returns to the pool when the runner
  // thread exits.
  parallel::default_pool().register_external_lane();
  for (;;) {
    job_ptr j;
    std::vector<job_ptr> fused;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_)
          return;
        continue;  // spurious wake with an empty queue
      }
      if (stopping_ && !drain_backlog_)
        return;  // backlog already retired by shutdown()
      j = queue_.top().j;
      queue_.pop();
      ++running_;
      // Dequeue-time fusion window: a batchable pop also claims every
      // queued job with the same batch key (engine/batcher.hpp).
      if (opt_.batching && opt_.batch_window > 1 && j->batch_)
        fused = collect_batch_locked(j);
    }
    std::size_t const claimed = fused.empty() ? 1 : fused.size();
    if (fused.empty())
      run_job(j);
    else
      run_fused(fused);
    {
      std::lock_guard<std::mutex> guard(mutex_);
      running_ -= claimed;
    }
  }
}

std::vector<job_ptr> job_scheduler::collect_batch_locked(job_ptr const& first) {
  if (queue_.empty())
    return {};
  std::string const& key = first->batch_->key;
  std::vector<job_ptr> members;
  members.push_back(first);
  // std::priority_queue cannot be scanned in place: pop everything, keep
  // key matches, re-push the rest with their original (priority, seq) so
  // ordering is undisturbed.  O(Q log Q) under the lock, bounded by
  // `max_queued` — the admission bound that already sizes the queue.
  std::vector<queued_item> keep;
  keep.reserve(queue_.size());
  while (!queue_.empty()) {
    queued_item item = queue_.top();
    queue_.pop();
    if (members.size() < opt_.batch_window && item.j->batch_ &&
        item.j->batch_->key == key)
      members.push_back(std::move(item.j));
    else
      keep.push_back(std::move(item));
  }
  for (auto& item : keep)
    queue_.push(std::move(item));
  if (members.size() == 1)
    return {};  // no partner queued: the solo body is the right enactment
  running_ += members.size() - 1;  // the runner now carries them all
  return members;
}

void job_scheduler::run_fused(std::vector<job_ptr> const& members) {
  auto const popped_at = std::chrono::steady_clock::now();

  // Pre-lane triage, mirroring run_job member by member: stamp queue wait,
  // drop members whose deadline elapsed or cancel token fired while they
  // queued, then run each member's *own* dequeue-time cache probe — before
  // lane assignment, so a member an identical earlier job already
  // satisfied retires `cache_hit` and never occupies a lane.
  std::vector<job_ptr> live;
  live.reserve(members.size());
  for (auto const& j : members) {
    double const queue_ms = std::chrono::duration<double, std::milli>(
                                popped_at - j->submitted_at_)
                                .count();
    {
      std::lock_guard<std::mutex> guard(j->mutex_);
      j->queue_ms_ = queue_ms;
    }
    if (stats_)
      stats_->add_queue_wait_ms(queue_ms);

    if (j->budget_.expired()) {
      count_terminal(job_status::deadline_expired);
      retire(j, job_status::deadline_expired, nullptr,
             "deadline elapsed while queued");
      continue;
    }
    if (j->token_.cancelled()) {
      count_terminal(job_status::cancelled);
      retire(j, job_status::cancelled, nullptr, "cancelled while queued");
      continue;
    }
    if (j->desc_.use_cache && j->batch_->cache_probe) {
      if (auto hit = j->batch_->cache_probe()) {
        retire(j, job_status::cache_hit, std::move(hit), {});
        continue;
      }
    }
    live.push_back(j);
  }

  // Wave chunking: at most `max_lanes` (≤ 64 bit lanes) members share one
  // fused enactment; a larger window spills into further waves.
  if (live.empty())
    return;
  std::size_t max_lanes = live.front()->batch_->max_lanes;
  if (max_lanes == 0)
    max_lanes = 1;
  if (max_lanes > 64)
    max_lanes = 64;
  for (std::size_t offset = 0; offset < live.size(); offset += max_lanes) {
    std::size_t const count = std::min(max_lanes, live.size() - offset);
    run_wave(std::vector<job_ptr>(live.begin() + static_cast<std::ptrdiff_t>(offset),
                                  live.begin() + static_cast<std::ptrdiff_t>(offset + count)));
  }
}

void job_scheduler::run_wave(std::vector<job_ptr> const& wave) {
  std::size_t const n = wave.size();
  // A wave of one (triage evaporated its partners, or a spill remainder)
  // still enacts through the fused body — same lane-packed code path, so
  // the result is identical — but is not *accounted* as a batch: nothing
  // was shared, no pass was saved, and batch attribution stays zero
  // (telemetry's `batch_size == 0` == unbatched).
  bool const fused_wave = n > 1;
  std::uint64_t const batch_id =
      fused_wave ? next_batch_id_.fetch_add(1, std::memory_order_relaxed) : 0;

  for (std::size_t i = 0; i < n; ++i) {
    job_ptr const& j = wave[i];
    {
      std::lock_guard<std::mutex> guard(j->mutex_);
      j->status_ = job_status::running;
      if (fused_wave) {
        j->batch_id_ = batch_id;
        j->batch_size_ = static_cast<std::uint32_t>(n);
        j->lane_ = static_cast<std::uint32_t>(i);
      }
    }
    if (stats_)
      stats_->on_enacted();
  }

  // Per-member contexts in stable storage; each lane points at its own, so
  // deadlines/cancellation stay per-member inside the shared enactment
  // (live_lane_mask re-evaluates them every superstep).
  std::vector<job_context> ctxs;
  ctxs.reserve(n);
  for (auto const& j : wave)
    ctxs.emplace_back(j->token_, j->budget_, &j->fired_, &j->warm_);
  std::vector<batch_lane> lanes;
  lanes.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    lanes.push_back(batch_lane{wave[i]->batch_->payload, &ctxs[i]});

  fused_outcome out;
  std::string error;
  bool threw = false;
  auto const run_start = std::chrono::steady_clock::now();
  {
    // One recorder per thread: the fused superstep stream is recorded into
    // the first record_trace member's trace; *every* record_trace member's
    // trace gets the schema-v5 batch attribution (batch_id / batch_size /
    // lane), so fused enactments are visible from any member's handle.
    std::unique_ptr<telemetry::scoped_recording> recording;
    for (std::size_t i = 0; i < n; ++i) {
      job_ptr const& j = wave[i];
      if (!j->desc_.record_trace)
        continue;
      if (!recording)
        recording = std::make_unique<telemetry::scoped_recording>(
            j->trace_, j->desc_.algorithm);
      j->trace_.job_id = j->id_;
      j->trace_.job_tag =
          j->desc_.algorithm +
          (j->desc_.params.empty() ? std::string{}
                                   : "(" + j->desc_.params + ")");
      j->trace_.graph_epoch = j->epoch_;
      if (fused_wave) {
        j->trace_.batch_id = batch_id;
        j->trace_.batch_size = static_cast<std::uint32_t>(n);
        j->trace_.lane = static_cast<std::uint32_t>(i);
      }
    }
    try {
      // Key equality pinned one snapshot + algorithm for the whole wave,
      // so any member's fused body enacts for all; use the first.
      out = wave.front()->batch_->fused(lanes);
    } catch (std::exception const& e) {
      threw = true;
      error = e.what();
    } catch (...) {
      threw = true;
      error = "unknown exception";
    }
  }
  double const run_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - run_start)
                            .count();

  // Wave accounting: one traversal served n members — the saved passes are
  // the batching win the stats export surfaces (engine stats v3).
  if (!threw && fused_wave && stats_) {
    std::size_t const passes = out.edge_passes == 0 ? 1 : out.edge_passes;
    stats_->on_batch(n, passes < n ? n - passes : 0);
  }

  // Demux: classify and retire each member from its *own* fired record;
  // publish each completed member's result under its own cache key.
  for (std::size_t i = 0; i < n; ++i) {
    job_ptr const& j = wave[i];
    {
      std::lock_guard<std::mutex> guard(j->mutex_);
      j->run_ms_ = run_ms;  // each member waited the wave's wall time
    }
    if (stats_)
      stats_->add_run_ms(run_ms);

    std::shared_ptr<void const> result;
    if (!threw && i < out.results.size())
      result = out.results[i];

    job_status status;
    if (threw) {
      status = job_status::failed;
    } else {
      switch (j->fired_.load(std::memory_order_relaxed)) {
        case job_context::kFiredDeadline:
          status = job_status::deadline_expired;
          break;
        case job_context::kFiredCancelled:
          status = job_status::cancelled;
          break;
        default:
          status = job_status::completed;
          break;
      }
    }
    if (status == job_status::completed && result && j->desc_.use_cache &&
        j->batch_->publish)
      j->batch_->publish(result);
    count_terminal(status);
    retire(j, status,
           status == job_status::completed ? std::move(result) : nullptr,
           threw ? error : std::string{});
  }
}

void job_scheduler::run_job(job_ptr const& j) {
  auto const popped_at = std::chrono::steady_clock::now();
  double const queue_ms =
      std::chrono::duration<double, std::milli>(popped_at - j->submitted_at_)
          .count();
  {
    std::lock_guard<std::mutex> guard(j->mutex_);
    j->queue_ms_ = queue_ms;
  }
  if (stats_)
    stats_->add_queue_wait_ms(queue_ms);

  // Pre-run triage: a job whose deadline elapsed while it queued, or that
  // was cancelled while waiting, never enacts — queue wait counts against
  // the latency budget, as it must in a serving system.
  if (j->budget_.expired()) {
    count_terminal(job_status::deadline_expired);
    retire(j, job_status::deadline_expired, nullptr,
           "deadline elapsed while queued");
    return;
  }
  if (j->token_.cancelled()) {
    count_terminal(job_status::cancelled);
    retire(j, job_status::cancelled, nullptr, "cancelled while queued");
    return;
  }

  {
    std::lock_guard<std::mutex> guard(j->mutex_);
    j->status_ = job_status::running;
  }
  if (stats_)
    stats_->on_enacted();

  job_context ctx(j->token_, j->budget_, &j->fired_, &j->warm_);
  std::shared_ptr<void const> result;
  std::string error;
  bool threw = false;
  auto const run_start = std::chrono::steady_clock::now();
  {
    // Job-scoped telemetry: record_trace jobs get a trace tagged with
    // their id/tag/epoch (telemetry schema v3) captured on this runner
    // thread; others pay one null-pointer test.
    std::unique_ptr<telemetry::scoped_recording> recording;
    if (j->desc_.record_trace) {
      recording = std::make_unique<telemetry::scoped_recording>(
          j->trace_, j->desc_.algorithm);
      j->trace_.job_id = j->id_;
      j->trace_.job_tag = j->desc_.algorithm +
                          (j->desc_.params.empty() ? std::string{}
                                                   : "(" + j->desc_.params + ")");
      j->trace_.graph_epoch = j->epoch_;
    }
    try {
      result = j->fn_(ctx);
    } catch (std::exception const& e) {
      threw = true;
      error = e.what();
    } catch (...) {
      threw = true;
      error = "unknown exception";
    }
    if (j->desc_.record_trace) {
      // Warm-start attribution (telemetry schema v4), stamped while the
      // recording is still scoped to this job's trace.
      j->trace_.warm_start =
          j->warm_.warm_start.load(std::memory_order_relaxed);
      j->trace_.delta_edges =
          j->warm_.delta_edges.load(std::memory_order_relaxed);
      j->trace_.supersteps_saved =
          j->warm_.supersteps_saved.load(std::memory_order_relaxed);
    }
  }
  if (stats_) {
    if (j->warm_.warm_start.load(std::memory_order_relaxed))
      stats_->on_warm_start_hit();
    if (j->warm_.delta_fallback.load(std::memory_order_relaxed))
      stats_->on_delta_fallback();
  }
  double const run_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - run_start)
                            .count();
  {
    std::lock_guard<std::mutex> guard(j->mutex_);
    j->run_ms_ = run_ms;
  }
  if (stats_)
    stats_->add_run_ms(run_ms);

  job_status status;
  if (threw) {
    status = job_status::failed;
  } else {
    // Classify from the context's fired record, not from re-reading racy
    // clocks: a job that converged naturally a hair before its deadline is
    // `completed`, not `deadline_expired`.
    switch (j->fired_.load(std::memory_order_relaxed)) {
      case job_context::kFiredDeadline:
        status = job_status::deadline_expired;
        break;
      case job_context::kFiredCancelled:
        status = job_status::cancelled;
        break;
      default:
        status = job_status::completed;
        break;
    }
  }
  // Count *before* retiring: retire() wakes waiters, and a thread that
  // observed the terminal status must see the stats already reflect it
  // (engine tests read stats() right after wait() returns).
  count_terminal(status);
  retire(j, status, status == job_status::completed ? std::move(result) : nullptr,
         std::move(error));
}

void job_scheduler::retire(job_ptr const& j, job_status s,
                           std::shared_ptr<void const> result,
                           std::string error) {
  {
    std::lock_guard<std::mutex> guard(j->mutex_);
    j->status_ = s;
    j->result_ = std::move(result);
    j->error_ = std::move(error);
  }
  j->done_cv_.notify_all();
}

void job_scheduler::count_terminal(job_status s) {
  if (!stats_)
    return;
  switch (s) {
    case job_status::completed:
      stats_->on_completed();
      break;
    case job_status::failed:
      stats_->on_failed();
      break;
    case job_status::cancelled:
      stats_->on_cancelled();
      break;
    case job_status::deadline_expired:
      stats_->on_deadline_expired();
      break;
    default:
      break;
  }
}

}  // namespace essentials::engine
