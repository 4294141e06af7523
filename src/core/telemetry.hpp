#pragma once

/// \file core/telemetry.hpp
/// \brief Per-enactment superstep telemetry — the observability layer the
/// TLAV survey (McCune et al.) and GraphX argue every vertex-centric system
/// needs: per-superstep frontier sizes, work counts (edges inspected /
/// relaxed), direction decisions (push vs pull), per-operator wall time and
/// thread-pool occupancy, exportable as JSON or CSV.
///
/// Design contract — zero overhead when you don't pay for it, twice over:
///
///  1. **Compile-time gate.**  `ESSENTIALS_TELEMETRY_ENABLED` (default 1;
///     set to 0 via the CMake option `ESSENTIALS_TELEMETRY=OFF`) guards
///     every recording path behind `if constexpr`.  With the flag off,
///     `current()` is a constant `nullptr`, probes are empty structs whose
///     methods are empty `constexpr` bodies, and the lane-local counters
///     that feed them become dead stores the optimizer deletes — the
///     operators compile to exactly the un-instrumented code.
///
///  2. **Run-time null sink.**  Even when compiled in, nothing records
///     unless a `scoped_recording` is active on the *calling* thread.  The
///     cost without one is a single thread-local pointer test per operator
///     invocation (not per edge): lane-local counters are plain register
///     increments and their flush is a no-op on an inert probe.
///
/// Threading model: `scoped_recording` installs a recorder in a
/// thread-local slot on the enacting thread; operators open an `op_probe`
/// on that thread and worker lanes flush lane-local counters into the
/// probe's atomics.  Synchronous operators retire the probe before
/// returning; `par_nosync` operators share the probe state with their
/// fire-and-forget tasks, so the *last* finisher (possibly a pool worker)
/// retires it — keep the `scoped_recording` alive across
/// `pool().wait_idle()` when recording asynchronous phases.
///
/// The JSON schema is documented in docs/API.md ("Telemetry").

#ifndef ESSENTIALS_TELEMETRY_ENABLED
#define ESSENTIALS_TELEMETRY_ENABLED 1
#endif

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "parallel/spinlock.hpp"

namespace essentials::telemetry {

/// True when recording support is compiled into this build.
inline constexpr bool compiled_in = (ESSENTIALS_TELEMETRY_ENABLED != 0);

/// Schema version stamped into every exported trace.  v2 adds the
/// frontier-generation counters (emits_scan / emits_lock / dedup_hits /
/// scratch_reused) to op records.  v3 adds job-scope tagging (job_id /
/// job_tag / graph_epoch) so engine-multiplexed traces can be attributed to
/// the job that produced them.  v4 adds warm-start attribution (warm_start
/// / delta_edges / supersteps_saved) for incremental delta-recompute jobs.
/// v5 adds batch attribution (batch_id / batch_size / lane) for jobs fused
/// into one lane-packed enactment by the engine's request batcher.
/// v6 adds residual-engine attribution (standing / residual_injections /
/// residual_waves / residual_final) for standing queries re-converged
/// in-place by the delta-accumulative priority engine (src/residual/).
/// v7 added two op-record fields naming the advance's work-decomposition
/// strategy.  The advance now has one decomposition, so both are retired;
/// they were elided on the default path, so v7 traces are unchanged.
inline constexpr int schema_version = 7;

// ---------------------------------------------------------------------------
// Trace data model
// ---------------------------------------------------------------------------

/// One operator invocation (advance / filter / uniquify / ...).
///
/// Work-count semantics, chosen so counts are comparable *across traversal
/// directions*: `edges_inspected` counts edges whose user condition was
/// evaluated (push: every edge out of the frontier; pull: every in-edge
/// whose source is active, up to early exit), `edges_relaxed` counts edges
/// whose condition returned true.  With a pure condition and no early exit,
/// push and pull inspect and relax the same edge set.
struct op_record {
  std::string name;                 ///< e.g. "advance_push.par"
  std::size_t items_in = 0;         ///< input frontier / index-space size
  std::size_t items_out = 0;        ///< output size (0 for async launches)
  std::size_t edges_inspected = 0;  ///< condition evaluations
  std::size_t edges_relaxed = 0;    ///< condition returned true
  std::size_t emits_scan = 0;       ///< elements published lock-free (scan path)
  std::size_t emits_lock = 0;       ///< elements published under a lock
  std::size_t dedup_hits = 0;       ///< emissions suppressed by the dedup bitmap
  bool scratch_reused = false;      ///< lane scratch arrived with warm capacity
  double millis = 0.0;              ///< wall time, launch -> retire
  std::size_t pool_lanes = 0;       ///< lanes available (0 == sequential)
  std::size_t pool_queued = 0;      ///< pool tasks pending at launch
  std::size_t pool_busy = 0;        ///< pool workers executing at launch
  bool async = false;               ///< par_nosync launch (items_out n/a)
};

/// One superstep of a bulk-synchronous enactment.
struct superstep_record {
  std::size_t index = 0;
  std::size_t frontier_in = 0;
  std::size_t frontier_out = 0;
  direction_t direction = direction_t::push;
  bool switched_direction = false;  ///< direction changed vs previous step
  double frontier_density = 0.0;    ///< |F| / |V| when the algorithm reports it
  double metric = 0.0;              ///< algorithm metric (e.g. PageRank L1 delta)
  double millis = 0.0;
  std::vector<op_record> ops;

  std::size_t edges_inspected() const {
    std::size_t total = 0;
    for (auto const& op : ops)
      total += op.edges_inspected;
    return total;
  }
  std::size_t edges_relaxed() const {
    std::size_t total = 0;
    for (auto const& op : ops)
      total += op.edges_relaxed;
    return total;
  }
  std::size_t emits_scan() const {
    std::size_t total = 0;
    for (auto const& op : ops)
      total += op.emits_scan;
    return total;
  }
  std::size_t emits_lock() const {
    std::size_t total = 0;
    for (auto const& op : ops)
      total += op.emits_lock;
    return total;
  }
  std::size_t dedup_hits() const {
    std::size_t total = 0;
    for (auto const& op : ops)
      total += op.dedup_hits;
    return total;
  }
};

/// A full enactment trace: the supersteps of one algorithm run.
///
/// Job-scope tagging (schema v3): when an enactment runs under the engine
/// scheduler, the scheduler stamps the trace with the job's id, a
/// human-readable tag ("sssp(graph=web, src=42)") and the graph epoch the
/// job ran against — so mixed traces from a multi-tenant engine can be
/// grouped per job, per workload class, or per epoch.  Zero/empty means
/// "not job-scoped" (standalone enactments) and the fields are elided from
/// the JSON export.
struct trace {
  std::string algorithm;
  std::uint64_t job_id = 0;    ///< engine job id (0 == standalone run)
  std::string job_tag;         ///< engine job tag (empty == standalone)
  std::uint64_t graph_epoch = 0;  ///< registry epoch the job ran against
  // Warm-start attribution (schema v4): filled by the engine scheduler when
  // the job's enactment was seeded incrementally from a prior epoch's
  // converged result (algorithms/incremental.hpp).
  bool warm_start = false;            ///< enactment seeded from a warm entry
  std::uint64_t delta_edges = 0;      ///< delta records that seeded the frontier
  std::uint64_t supersteps_saved = 0;  ///< prior cold supersteps minus warm ones
  // Batch attribution (schema v5): filled by the engine scheduler when this
  // job was fused with compatible concurrent queries into one lane-packed
  // enactment (engine/batcher.hpp).  batch_size == 0 means "not batched";
  // the supersteps of the shared enactment are recorded on one member of
  // the wave (the first trace-requesting lane), every member carries the
  // attribution fields.
  std::uint64_t batch_id = 0;   ///< id of the fused enactment wave
  std::uint32_t batch_size = 0; ///< members fused into the wave (0 == unbatched)
  std::uint32_t lane = 0;       ///< this job's lane within the wave
  // Residual attribution (schema v6): filled by a standing query when an
  // epoch publish was absorbed by in-place re-convergence (src/residual/)
  // instead of a scheduled job.  Each priority wave is recorded as one
  // superstep (frontier_in = wave size, metric = outstanding residual
  // mass); `standing == false` elides the whole group.
  bool standing = false;              ///< trace of a standing-query reconverge
  std::uint64_t residual_injections = 0;  ///< shares injected for this epoch
  std::uint64_t residual_waves = 0;   ///< priority waves to re-convergence
  double residual_final = 0.0;        ///< residual mass when the run stopped
  std::vector<superstep_record> supersteps;

  std::size_t num_supersteps() const { return supersteps.size(); }
  std::size_t total_edges_inspected() const {
    std::size_t total = 0;
    for (auto const& s : supersteps)
      total += s.edges_inspected();
    return total;
  }
  std::size_t total_edges_relaxed() const {
    std::size_t total = 0;
    for (auto const& s : supersteps)
      total += s.edges_relaxed();
    return total;
  }
  std::size_t total_emits_scan() const {
    std::size_t total = 0;
    for (auto const& s : supersteps)
      total += s.emits_scan();
    return total;
  }
  std::size_t total_emits_lock() const {
    std::size_t total = 0;
    for (auto const& s : supersteps)
      total += s.emits_lock();
    return total;
  }
  std::size_t total_dedup_hits() const {
    std::size_t total = 0;
    for (auto const& s : supersteps)
      total += s.dedup_hits();
    return total;
  }
  double total_millis() const {
    double total = 0.0;
    for (auto const& s : supersteps)
      total += s.millis;
    return total;
  }
  std::size_t direction_switches() const {
    std::size_t total = 0;
    for (auto const& s : supersteps)
      total += s.switched_direction ? 1 : 0;
    return total;
  }
  void clear() { supersteps.clear(); }
};

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

/// Accumulates superstep records into a sink trace.  Superstep boundaries
/// are driven from the enacting thread (`bsp_loop` or an algorithm's manual
/// loop); operator records may arrive from any thread (`par_nosync`
/// retirement), so every mutation is guarded by a spinlock — contention is
/// per operator call, never per edge.
class recorder {
 public:
  recorder() = default;

  void attach(trace* sink) { sink_ = sink; }
  bool active() const { return sink_ != nullptr; }

  /// Open superstep `index = supersteps.size()` with the given input
  /// frontier size and (tentative) direction.
  void begin_superstep(std::size_t frontier_in,
                       direction_t direction = direction_t::push) {
    if (!sink_)
      return;
    std::lock_guard<parallel::spinlock> guard(lock_);
    superstep_record s;
    s.index = sink_->supersteps.size();
    s.frontier_in = frontier_in;
    s.direction = direction;
    sink_->supersteps.push_back(std::move(s));
    open_ = true;
    step_start_ = std::chrono::steady_clock::now();
  }

  /// Record the direction decision of the open superstep (called by
  /// direction-optimizing algorithms after their heuristic fires).
  void set_direction(direction_t direction, bool switched,
                     double frontier_density = 0.0) {
    if (!sink_)
      return;
    std::lock_guard<parallel::spinlock> guard(lock_);
    auto& s = current_locked();
    s.direction = direction;
    s.switched_direction = switched;
    s.frontier_density = frontier_density;
  }

  /// Record an algorithm-specific convergence metric (e.g. PageRank delta).
  void set_metric(double metric) {
    if (!sink_)
      return;
    std::lock_guard<parallel::spinlock> guard(lock_);
    current_locked().metric = metric;
  }

  /// Close the open superstep with the output frontier size.
  void end_superstep(std::size_t frontier_out) {
    if (!sink_)
      return;
    std::lock_guard<parallel::spinlock> guard(lock_);
    auto& s = current_locked();
    s.frontier_out = frontier_out;
    s.millis = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - step_start_)
                   .count();
    open_ = false;
  }

  /// Append an operator record to the open superstep.  Ops arriving outside
  /// any superstep (bare operator calls in tests, or async retirements after
  /// `end_superstep`) land in the most recent superstep, opening an implicit
  /// step 0 if none exists — so `total_edges_*` is always complete.
  void add_op(op_record op) {
    if (!sink_)
      return;
    std::lock_guard<parallel::spinlock> guard(lock_);
    if (sink_->supersteps.empty()) {
      superstep_record s;
      s.index = 0;
      s.frontier_in = op.items_in;
      sink_->supersteps.push_back(std::move(s));
    }
    sink_->supersteps.back().ops.push_back(std::move(op));
  }

  /// Close any superstep left open (scope teardown safety net).
  void finish() {
    if (!sink_)
      return;
    std::lock_guard<parallel::spinlock> guard(lock_);
    open_ = false;
  }

 private:
  // Pre: lock_ held and sink_ != nullptr.
  superstep_record& current_locked() {
    if (sink_->supersteps.empty() || !open_) {
      superstep_record s;
      s.index = sink_->supersteps.size();
      sink_->supersteps.push_back(std::move(s));
      open_ = true;
      step_start_ = std::chrono::steady_clock::now();
    }
    return sink_->supersteps.back();
  }

  trace* sink_ = nullptr;
  bool open_ = false;
  std::chrono::steady_clock::time_point step_start_{};
  parallel::spinlock lock_;
};

namespace detail {
/// Thread-local recorder slot.  Function-local so the header stays ODR-safe.
inline recorder*& current_slot() {
  thread_local recorder* slot = nullptr;
  return slot;
}
}  // namespace detail

/// The recorder active on this thread, or nullptr.  A compile-time constant
/// nullptr when telemetry is compiled out, so `if (telemetry::current())`
/// folds away entirely.
inline recorder* current() {
  if constexpr (!compiled_in)
    return nullptr;
  else
    return detail::current_slot();
}

/// RAII recording scope: installs a recorder targeting `sink` on the
/// current thread for the duration of the scope.  Nested scopes stack (the
/// inner trace wins; the outer resumes on exit).
class scoped_recording {
 public:
  scoped_recording(trace& sink, std::string algorithm) {
    if constexpr (compiled_in) {
      sink.algorithm = std::move(algorithm);
      rec_.attach(&sink);
      prev_ = detail::current_slot();
      detail::current_slot() = &rec_;
    } else {
      (void)algorithm;
    }
  }
  ~scoped_recording() {
    if constexpr (compiled_in) {
      rec_.finish();
      detail::current_slot() = prev_;
    }
  }
  scoped_recording(scoped_recording const&) = delete;
  scoped_recording& operator=(scoped_recording const&) = delete;

  recorder& get() { return rec_; }

 private:
  recorder rec_;
  recorder* prev_ = nullptr;
};

// ---------------------------------------------------------------------------
// Operator probe
// ---------------------------------------------------------------------------

/// Shared retirement state of one instrumented operator call.  Lane-local
/// counters flush into the atomics; the destructor of the *last* owner
/// stamps wall time and hands the finished record to the recorder.
struct probe_state {
  recorder* rec = nullptr;
  op_record record;
  std::chrono::steady_clock::time_point start{};
  std::atomic<std::size_t> inspected{0};
  std::atomic<std::size_t> relaxed{0};
  std::atomic<std::size_t> emits_scan{0};
  std::atomic<std::size_t> emits_lock{0};
  std::atomic<std::size_t> dedup_hits{0};

  ~probe_state() {
    record.edges_inspected = inspected.load(std::memory_order_relaxed);
    record.edges_relaxed = relaxed.load(std::memory_order_relaxed);
    record.emits_scan = emits_scan.load(std::memory_order_relaxed);
    record.emits_lock = emits_lock.load(std::memory_order_relaxed);
    record.dedup_hits = dedup_hits.load(std::memory_order_relaxed);
    record.millis = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    if (rec)
      rec->add_op(std::move(record));
  }
};

/// Flush lane-local edge counters into a shared probe state (used by
/// `par_nosync` task lambdas, which capture the state by shared_ptr).
inline void flush_edges(std::shared_ptr<probe_state> const& s,
                        std::size_t inspected, std::size_t relaxed) {
  if constexpr (compiled_in) {
    if (s) {
      if (inspected)
        s->inspected.fetch_add(inspected, std::memory_order_relaxed);
      if (relaxed)
        s->relaxed.fetch_add(relaxed, std::memory_order_relaxed);
    }
  } else {
    (void)s;
    (void)inspected;
    (void)relaxed;
  }
}

/// Flush frontier-generation counters into a shared probe state: how many
/// elements were published lock-free (scan compaction) vs under a lock
/// (listing3 per-element, par_nosync per-task), and how many emissions the
/// dedup bitmap suppressed.
inline void flush_emits(std::shared_ptr<probe_state> const& s,
                        std::size_t scan, std::size_t lock,
                        std::size_t dedup = 0) {
  if constexpr (compiled_in) {
    if (s) {
      if (scan)
        s->emits_scan.fetch_add(scan, std::memory_order_relaxed);
      if (lock)
        s->emits_lock.fetch_add(lock, std::memory_order_relaxed);
      if (dedup)
        s->dedup_hits.fetch_add(dedup, std::memory_order_relaxed);
    }
  } else {
    (void)s;
    (void)scan;
    (void)lock;
    (void)dedup;
  }
}

/// Per-operator-call probe.  Inert (null state, all methods no-ops) when
/// telemetry is compiled out or no recording scope is active — the checks
/// are one pointer test per *operator call*, never per edge.
class op_probe {
 public:
  op_probe() = default;

  op_probe(char const* name, std::size_t items_in, std::size_t pool_lanes,
           std::size_t pool_queued, std::size_t pool_busy, bool async) {
    if constexpr (compiled_in) {
      if (recorder* const r = current(); r != nullptr && r->active()) {
        s_ = std::make_shared<probe_state>();
        s_->rec = r;
        s_->record.name = name;
        s_->record.items_in = items_in;
        s_->record.pool_lanes = pool_lanes;
        s_->record.pool_queued = pool_queued;
        s_->record.pool_busy = pool_busy;
        s_->record.async = async;
        s_->start = std::chrono::steady_clock::now();
      }
    } else {
      (void)name;
      (void)items_in;
      (void)pool_lanes;
      (void)pool_queued;
      (void)pool_busy;
      (void)async;
    }
  }

  /// True when this call is being recorded.  Use to gate expensive
  /// summaries (e.g. a dense frontier popcount for items_out).
  explicit operator bool() const {
    if constexpr (compiled_in)
      return s_ != nullptr;
    else
      return false;
  }

  /// Flush lane-local counters (relaxed atomic adds; no-op when inert).
  void add_edges(std::size_t inspected, std::size_t relaxed) const {
    flush_edges(s_, inspected, relaxed);
  }

  /// Flush frontier-generation counters (see `flush_emits`).
  void add_emits(std::size_t scan, std::size_t lock,
                 std::size_t dedup = 0) const {
    flush_emits(s_, scan, lock, dedup);
  }

  /// Record whether the scan path's lane scratch arrived warm (capacity
  /// reused from a previous superstep) — enacting thread only.
  void set_scratch_reused(bool reused) const {
    if constexpr (compiled_in) {
      if (s_)
        s_->record.scratch_reused = reused;
    } else {
      (void)reused;
    }
  }

  void set_items_out(std::size_t n) const {
    if constexpr (compiled_in) {
      if (s_)
        s_->record.items_out = n;
    } else {
      (void)n;
    }
  }

  /// Share the retirement state with fire-and-forget tasks (par_nosync):
  /// each task captures the returned pointer by value and the last owner to
  /// release it retires the record.  Null when inert.
  std::shared_ptr<probe_state> share() const { return s_; }

 private:
  std::shared_ptr<probe_state> s_;
};

/// Frontier size for a telemetry probe without paying a potentially
/// expensive size() (dense-frontier popcount) when nothing is recording —
/// returns 0 in that case.
template <typename F>
std::size_t probe_items(F const& f) {
  if constexpr (compiled_in) {
    if (recorder* const r = current(); r != nullptr && r->active())
      return f.size();
  }
  return 0;
}

/// Build a probe for an operator running under `policy`, sampling
/// thread-pool occupancy for parallel policies.  Duck-typed on the policy's
/// `is_parallel` so this header does not depend on core/execution.hpp.
template <typename P>
op_probe make_probe(char const* name, P const& policy, std::size_t items_in,
                    bool async = false) {
  if constexpr (compiled_in) {
    if (recorder* const r = current(); r == nullptr || !r->active())
      return op_probe{};
    if constexpr (std::decay_t<P>::is_parallel) {
      auto& pool = policy.pool();
      auto const stats = pool.stats();
      return op_probe(name, items_in, pool.size() + 1, stats.queued,
                      stats.busy, async);
    } else {
      return op_probe(name, items_in, 0, 0, 0, async);
    }
  } else {
    (void)name;
    (void)policy;
    (void)items_in;
    (void)async;
    return op_probe{};
  }
}

// ---------------------------------------------------------------------------
// Export: JSON and CSV
// ---------------------------------------------------------------------------

inline char const* to_string(direction_t d) {
  switch (d) {
    case direction_t::push:
      return "push";
    case direction_t::pull:
      return "pull";
    case direction_t::optimized:
      return "optimized";
  }
  return "unknown";
}

namespace detail {

inline void json_escape(std::ostream& os, std::string const& s) {
  for (char const c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          os << ' ';
        else
          os << c;
    }
  }
}

inline void write_op_json(std::ostream& os, op_record const& op) {
  os << "{\"name\":\"";
  json_escape(os, op.name);
  os << "\",\"items_in\":" << op.items_in << ",\"items_out\":" << op.items_out
     << ",\"edges_inspected\":" << op.edges_inspected
     << ",\"edges_relaxed\":" << op.edges_relaxed
     << ",\"emits_scan\":" << op.emits_scan
     << ",\"emits_lock\":" << op.emits_lock
     << ",\"dedup_hits\":" << op.dedup_hits
     << ",\"scratch_reused\":" << (op.scratch_reused ? "true" : "false");
  os << ",\"millis\":" << op.millis << ",\"pool_lanes\":" << op.pool_lanes
     << ",\"pool_queued\":" << op.pool_queued
     << ",\"pool_busy\":" << op.pool_busy
     << ",\"async\":" << (op.async ? "true" : "false") << "}";
}

inline void write_superstep_json(std::ostream& os, superstep_record const& s) {
  os << "{\"superstep\":" << s.index << ",\"frontier_in\":" << s.frontier_in
     << ",\"frontier_out\":" << s.frontier_out << ",\"direction\":\""
     << to_string(s.direction) << "\",\"switched_direction\":"
     << (s.switched_direction ? "true" : "false")
     << ",\"frontier_density\":" << s.frontier_density
     << ",\"metric\":" << s.metric << ",\"millis\":" << s.millis
     << ",\"edges_inspected\":" << s.edges_inspected()
     << ",\"edges_relaxed\":" << s.edges_relaxed()
     << ",\"emits_scan\":" << s.emits_scan()
     << ",\"emits_lock\":" << s.emits_lock()
     << ",\"dedup_hits\":" << s.dedup_hits() << ",\"ops\":[";
  for (std::size_t i = 0; i < s.ops.size(); ++i) {
    if (i)
      os << ",";
    write_op_json(os, s.ops[i]);
  }
  os << "]}";
}

}  // namespace detail

/// Serialize one trace as a self-describing JSON object (schema documented
/// in docs/API.md).
inline void write_json(trace const& t, std::ostream& os) {
  os << "{\"telemetry_version\":" << schema_version << ",\"algorithm\":\"";
  detail::json_escape(os, t.algorithm);
  os << "\"";
  if (t.job_id != 0 || !t.job_tag.empty()) {
    os << ",\"job_id\":" << t.job_id << ",\"job_tag\":\"";
    detail::json_escape(os, t.job_tag);
    os << "\",\"graph_epoch\":" << t.graph_epoch;
  }
  if (t.warm_start || t.delta_edges != 0 || t.supersteps_saved != 0) {
    os << ",\"warm_start\":" << (t.warm_start ? "true" : "false")
       << ",\"delta_edges\":" << t.delta_edges
       << ",\"supersteps_saved\":" << t.supersteps_saved;
  }
  if (t.batch_size != 0) {
    os << ",\"batch_id\":" << t.batch_id
       << ",\"batch_size\":" << t.batch_size << ",\"lane\":" << t.lane;
  }
  if (t.standing) {
    os << ",\"standing\":true"
       << ",\"residual_injections\":" << t.residual_injections
       << ",\"residual_waves\":" << t.residual_waves
       << ",\"residual_final\":" << t.residual_final;
  }
  os << ",\"supersteps\":[";
  for (std::size_t i = 0; i < t.supersteps.size(); ++i) {
    if (i)
      os << ",";
    detail::write_superstep_json(os, t.supersteps[i]);
  }
  os << "],\"totals\":{\"supersteps\":" << t.num_supersteps()
     << ",\"edges_inspected\":" << t.total_edges_inspected()
     << ",\"edges_relaxed\":" << t.total_edges_relaxed()
     << ",\"emits_scan\":" << t.total_emits_scan()
     << ",\"emits_lock\":" << t.total_emits_lock()
     << ",\"dedup_hits\":" << t.total_dedup_hits()
     << ",\"direction_switches\":" << t.direction_switches()
     << ",\"millis\":" << t.total_millis() << "}}";
}

/// Serialize several traces as `{"traces": [...]}` (e.g. one per benchmark
/// workload).
inline void write_json(std::vector<trace> const& traces, std::ostream& os) {
  os << "{\"telemetry_version\":" << schema_version << ",\"traces\":[";
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (i)
      os << ",";
    write_json(traces[i], os);
  }
  os << "]}";
}

/// Write a trace (or traces) to a file; returns false if the file could not
/// be opened.
template <typename TraceT>
bool write_json(TraceT const& t, std::string const& path) {
  std::ofstream os(path);
  if (!os)
    return false;
  write_json(t, os);
  os << "\n";
  return static_cast<bool>(os);
}

/// One CSV row per superstep (header included) — the spreadsheet-friendly
/// flattening of the JSON trace.
inline void write_csv(trace const& t, std::ostream& os) {
  os << "algorithm,superstep,direction,switched,frontier_in,frontier_out,"
        "frontier_density,edges_inspected,edges_relaxed,emits_scan,"
        "emits_lock,dedup_hits,metric,millis,ops\n";
  for (auto const& s : t.supersteps) {
    os << t.algorithm << "," << s.index << "," << to_string(s.direction) << ","
       << (s.switched_direction ? 1 : 0) << "," << s.frontier_in << ","
       << s.frontier_out << "," << s.frontier_density << ","
       << s.edges_inspected() << "," << s.edges_relaxed() << ","
       << s.emits_scan() << "," << s.emits_lock() << "," << s.dedup_hits()
       << "," << s.metric << "," << s.millis << "," << s.ops.size() << "\n";
  }
}

inline bool write_csv(trace const& t, std::string const& path) {
  std::ofstream os(path);
  if (!os)
    return false;
  write_csv(t, os);
  return static_cast<bool>(os);
}

}  // namespace essentials::telemetry
