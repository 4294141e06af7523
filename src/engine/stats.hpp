#pragma once

/// \file engine/stats.hpp
/// \brief Engine-level aggregate metrics: the per-job telemetry rollup of
/// the concurrent analytics engine (submissions, completions, rejections,
/// cancellations, deadline expiries, cache hits/misses, queue-wait and run
/// wall time), with JSON export in the style of core/telemetry.hpp.
///
/// Relationship to the telemetry layer: core/telemetry.hpp records the
/// *inside* of one enactment (supersteps, operator work counts);
/// engine_stats records the *outside* of many (what happened to each job
/// between submission and retirement).  A job that records a trace gets
/// both: the trace is tagged with its job id/tag (telemetry schema v3) and
/// the engine counters account for its lifecycle.
///
/// Concurrency: counters are relaxed atomics bumped from runner threads and
/// the submission path; `snapshot()` reads them relaxedly — the exported
/// numbers are a monitoring view, never a synchronization device (same
/// contract as thread_pool::stats()).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <ostream>
#include <string>

namespace essentials::engine {

/// Plain-value snapshot of the engine counters (safe to copy, print, diff).
struct engine_stats_snapshot {
  std::uint64_t submitted = 0;         ///< jobs accepted by admission control
  std::uint64_t rejected = 0;          ///< jobs refused (queue bound / shutdown / unknown graph)
  std::uint64_t completed = 0;         ///< jobs that ran to convergence
  std::uint64_t failed = 0;            ///< jobs whose enactment threw
  std::uint64_t cancelled = 0;         ///< jobs stopped by cancel_token
  std::uint64_t deadline_expired = 0;  ///< jobs stopped by their deadline
  std::uint64_t cache_hits = 0;        ///< queries served from the result cache
  std::uint64_t cache_misses = 0;      ///< cacheable queries that had to enact
  std::uint64_t cache_evictions = 0;   ///< LRU evictions
  std::uint64_t cache_invalidations = 0;  ///< evicted + demoted on epoch publish
  std::uint64_t cache_demotions = 0;   ///< entries demoted to warm-startable
  std::uint64_t warm_start_hits = 0;   ///< enactments seeded from a warm entry
  std::uint64_t delta_fallbacks = 0;   ///< warm candidates forced onto cold path
  std::uint64_t jobs_enacted = 0;      ///< jobs that enacted (solo or as a lane)
  std::uint64_t batches = 0;           ///< fused enactment waves launched
  std::uint64_t batched_jobs = 0;      ///< jobs served as lanes of a fused wave
  std::uint64_t edge_passes_saved = 0; ///< full traversals avoided by fusion
  // v4 — residual engine (standing queries, src/residual/):
  std::uint64_t standing_queries = 0;     ///< standing queries ever registered
  std::uint64_t residual_injections = 0;  ///< residual shares injected on epoch publishes
  std::uint64_t residual_reconverges = 0; ///< in-place re-convergences completed
  std::uint64_t residual_fallbacks = 0;   ///< epoch updates forced to full re-init
  std::uint64_t residual_edges_touched = 0;  ///< out-edges relaxed by reconverges
  std::uint64_t residual_edges_cold_estimate = 0;  ///< edge passes a cold rerun would cost
  // v5 — registry storage tier (compressed + out-of-core graphs):
  std::uint64_t tier_demotions = 0;   ///< cold epochs spilled to the disk tier
  std::uint64_t tier_promotions = 0;  ///< demoted epochs paged back on lookup
  std::uint64_t tier_resident_bytes = 0;  ///< bytes of snapshots held in RAM (gauge)
  std::uint64_t tier_spilled_bytes = 0;   ///< bytes of snapshots on disk (gauge)
  double queue_ms_total = 0.0;         ///< sum of per-job queue wait
  double run_ms_total = 0.0;           ///< sum of per-job run wall time

  /// Admitted jobs that retired `completed`, `failed`, `cancelled` or
  /// `deadline_expired`.  A queued job the cache answers at dequeue retires
  /// `cache_hit`: it counts in `submitted` and `cache_hits`, not here.  A
  /// submit-time hit never enters the queue.
  std::uint64_t retired() const {
    return completed + failed + cancelled + deadline_expired;
  }
  double hit_ratio() const {
    std::uint64_t const total = cache_hits + cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(cache_hits) /
                            static_cast<double>(total);
  }
  /// Fraction of enactments (not cache hits) that ran warm-started.
  double warm_ratio() const {
    return jobs_enacted == 0 ? 0.0
                             : static_cast<double>(warm_start_hits) /
                                   static_cast<double>(jobs_enacted);
  }
  /// Mean members per fused wave (0 when nothing ever fused).
  double avg_batch_size() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(batched_jobs) /
                              static_cast<double>(batches);
  }
  /// Edge work of in-place re-convergence relative to cold reruns of the
  /// same epochs (0.01 == the residual engine touched 1% of the edges a
  /// cold rerun would have; 0 when no standing query ever re-converged).
  double residual_pass_ratio() const {
    return residual_edges_cold_estimate == 0
               ? 0.0
               : static_cast<double>(residual_edges_touched) /
                     static_cast<double>(residual_edges_cold_estimate);
  }
};

/// Thread-safe counter block shared by scheduler, cache and engine facade.
class engine_stats {
 public:
  void on_submitted() { submitted_.fetch_add(1, relaxed); }
  void on_rejected() { rejected_.fetch_add(1, relaxed); }
  void on_completed() { completed_.fetch_add(1, relaxed); }
  void on_failed() { failed_.fetch_add(1, relaxed); }
  void on_cancelled() { cancelled_.fetch_add(1, relaxed); }
  void on_deadline_expired() { deadline_expired_.fetch_add(1, relaxed); }
  void on_cache_hit() { cache_hits_.fetch_add(1, relaxed); }
  void on_cache_miss() { cache_misses_.fetch_add(1, relaxed); }
  void on_cache_eviction() { cache_evictions_.fetch_add(1, relaxed); }
  void on_cache_invalidation(std::size_t n) {
    cache_invalidations_.fetch_add(n, relaxed);
  }
  void on_cache_demotion(std::size_t n) {
    cache_demotions_.fetch_add(n, relaxed);
  }
  void on_warm_start_hit() { warm_start_hits_.fetch_add(1, relaxed); }
  void on_delta_fallback() { delta_fallbacks_.fetch_add(1, relaxed); }
  void on_enacted() { jobs_enacted_.fetch_add(1, relaxed); }
  /// One fused wave retired: `members` jobs shared the traversal,
  /// `passes_saved` full edge passes were avoided versus serial enactment.
  void on_batch(std::size_t members, std::uint64_t passes_saved) {
    batches_.fetch_add(1, relaxed);
    batched_jobs_.fetch_add(members, relaxed);
    edge_passes_saved_.fetch_add(passes_saved, relaxed);
  }
  void on_standing_query() { standing_queries_.fetch_add(1, relaxed); }
  void on_residual_injection(std::size_t n) {
    residual_injections_.fetch_add(n, relaxed);
  }
  /// One in-place re-convergence retired: it relaxed `edges_touched`
  /// out-edges where a cold rerun of the same query would have spent an
  /// estimated `edges_cold` (the residual engine's headline ratio).
  void on_residual_reconverge(std::uint64_t edges_touched,
                              std::uint64_t edges_cold) {
    residual_reconverges_.fetch_add(1, relaxed);
    residual_edges_touched_.fetch_add(edges_touched, relaxed);
    residual_edges_cold_estimate_.fetch_add(edges_cold, relaxed);
  }
  void on_residual_fallback() { residual_fallbacks_.fetch_add(1, relaxed); }
  void on_tier_demotion() { tier_demotions_.fetch_add(1, relaxed); }
  void on_tier_promotion() { tier_promotions_.fetch_add(1, relaxed); }
  /// Gauges, not counters: the registry reports its current accounting
  /// after every tier transition (publish/demote/promote/remove).
  void set_tier_resident_bytes(std::uint64_t bytes) {
    tier_resident_bytes_.store(bytes, relaxed);
  }
  void set_tier_spilled_bytes(std::uint64_t bytes) {
    tier_spilled_bytes_.store(bytes, relaxed);
  }
  void add_queue_wait_ms(double ms) {
    queue_us_.fetch_add(to_us(ms), relaxed);
  }
  void add_run_ms(double ms) { run_us_.fetch_add(to_us(ms), relaxed); }

  engine_stats_snapshot snapshot() const {
    engine_stats_snapshot s;
    s.submitted = submitted_.load(relaxed);
    s.rejected = rejected_.load(relaxed);
    s.completed = completed_.load(relaxed);
    s.failed = failed_.load(relaxed);
    s.cancelled = cancelled_.load(relaxed);
    s.deadline_expired = deadline_expired_.load(relaxed);
    s.cache_hits = cache_hits_.load(relaxed);
    s.cache_misses = cache_misses_.load(relaxed);
    s.cache_evictions = cache_evictions_.load(relaxed);
    s.cache_invalidations = cache_invalidations_.load(relaxed);
    s.cache_demotions = cache_demotions_.load(relaxed);
    s.warm_start_hits = warm_start_hits_.load(relaxed);
    s.delta_fallbacks = delta_fallbacks_.load(relaxed);
    s.jobs_enacted = jobs_enacted_.load(relaxed);
    s.batches = batches_.load(relaxed);
    s.batched_jobs = batched_jobs_.load(relaxed);
    s.edge_passes_saved = edge_passes_saved_.load(relaxed);
    s.standing_queries = standing_queries_.load(relaxed);
    s.residual_injections = residual_injections_.load(relaxed);
    s.residual_reconverges = residual_reconverges_.load(relaxed);
    s.residual_fallbacks = residual_fallbacks_.load(relaxed);
    s.residual_edges_touched = residual_edges_touched_.load(relaxed);
    s.residual_edges_cold_estimate =
        residual_edges_cold_estimate_.load(relaxed);
    s.tier_demotions = tier_demotions_.load(relaxed);
    s.tier_promotions = tier_promotions_.load(relaxed);
    s.tier_resident_bytes = tier_resident_bytes_.load(relaxed);
    s.tier_spilled_bytes = tier_spilled_bytes_.load(relaxed);
    s.queue_ms_total = static_cast<double>(queue_us_.load(relaxed)) / 1000.0;
    s.run_ms_total = static_cast<double>(run_us_.load(relaxed)) / 1000.0;
    return s;
  }

 private:
  static constexpr auto relaxed = std::memory_order_relaxed;
  static std::uint64_t to_us(double ms) {
    return ms <= 0.0 ? 0 : static_cast<std::uint64_t>(ms * 1000.0);
  }

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> deadline_expired_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> cache_evictions_{0};
  std::atomic<std::uint64_t> cache_invalidations_{0};
  std::atomic<std::uint64_t> cache_demotions_{0};
  std::atomic<std::uint64_t> warm_start_hits_{0};
  std::atomic<std::uint64_t> delta_fallbacks_{0};
  std::atomic<std::uint64_t> jobs_enacted_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_jobs_{0};
  std::atomic<std::uint64_t> edge_passes_saved_{0};
  std::atomic<std::uint64_t> standing_queries_{0};
  std::atomic<std::uint64_t> residual_injections_{0};
  std::atomic<std::uint64_t> residual_reconverges_{0};
  std::atomic<std::uint64_t> residual_fallbacks_{0};
  std::atomic<std::uint64_t> residual_edges_touched_{0};
  std::atomic<std::uint64_t> residual_edges_cold_estimate_{0};
  std::atomic<std::uint64_t> tier_demotions_{0};
  std::atomic<std::uint64_t> tier_promotions_{0};
  std::atomic<std::uint64_t> tier_resident_bytes_{0};
  std::atomic<std::uint64_t> tier_spilled_bytes_{0};
  std::atomic<std::uint64_t> queue_us_{0};  // microseconds (atomic-friendly)
  std::atomic<std::uint64_t> run_us_{0};
};

/// Serialize a snapshot as a self-describing JSON object, schema-sistered
/// to the telemetry export (docs/API.md, "Engine metrics").
inline void write_json(engine_stats_snapshot const& s, std::ostream& os) {
  // Schema history: v3 added batching counters; v4 added the residual
  // engine block (standing_queries .. residual_pass_ratio); v5 adds the
  // registry storage-tier block (tier_demotions .. tier_spilled_bytes).
  // The golden test in tests/test_engine.cpp (EngineStatsSchema) pins
  // every key — bumps must be deliberate.
  os << "{\"engine_stats_version\":5"
     << ",\"submitted\":" << s.submitted << ",\"rejected\":" << s.rejected
     << ",\"completed\":" << s.completed << ",\"failed\":" << s.failed
     << ",\"cancelled\":" << s.cancelled
     << ",\"deadline_expired\":" << s.deadline_expired
     << ",\"cache_hits\":" << s.cache_hits
     << ",\"cache_misses\":" << s.cache_misses
     << ",\"cache_evictions\":" << s.cache_evictions
     << ",\"cache_invalidations\":" << s.cache_invalidations
     << ",\"cache_demotions\":" << s.cache_demotions
     << ",\"warm_start_hits\":" << s.warm_start_hits
     << ",\"delta_fallbacks\":" << s.delta_fallbacks
     << ",\"jobs_enacted\":" << s.jobs_enacted
     << ",\"batches\":" << s.batches
     << ",\"batched_jobs\":" << s.batched_jobs
     << ",\"edge_passes_saved\":" << s.edge_passes_saved
     << ",\"standing_queries\":" << s.standing_queries
     << ",\"residual_injections\":" << s.residual_injections
     << ",\"residual_reconverges\":" << s.residual_reconverges
     << ",\"residual_fallbacks\":" << s.residual_fallbacks
     << ",\"residual_edges_touched\":" << s.residual_edges_touched
     << ",\"residual_edges_cold_estimate\":" << s.residual_edges_cold_estimate
     << ",\"tier_demotions\":" << s.tier_demotions
     << ",\"tier_promotions\":" << s.tier_promotions
     << ",\"tier_resident_bytes\":" << s.tier_resident_bytes
     << ",\"tier_spilled_bytes\":" << s.tier_spilled_bytes
     << ",\"residual_pass_ratio\":" << s.residual_pass_ratio()
     << ",\"avg_batch_size\":" << s.avg_batch_size()
     << ",\"hit_ratio\":" << s.hit_ratio()
     << ",\"warm_ratio\":" << s.warm_ratio()
     << ",\"queue_ms_total\":" << s.queue_ms_total
     << ",\"run_ms_total\":" << s.run_ms_total << "}";
}

inline bool write_json(engine_stats_snapshot const& s,
                       std::string const& path) {
  std::ofstream os(path);
  if (!os)
    return false;
  write_json(s, os);
  os << "\n";
  return static_cast<bool>(os);
}

}  // namespace essentials::engine
