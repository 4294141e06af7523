#pragma once

// The closed-loop analytics client: one thread calling the four algorithms
// with execution::par, one call after another, for a fixed time.  Used by
// rmat-analytics (on its out-of-cache graph) and by serve-mixed (directly on
// its four most popular tenants' graphs, before and after the open-loop
// phases).

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace pb {

using graph_pp = e::graph::graph_push_pull;

/// What one closed-loop run measured.  The telemetry-derived counters are
/// filled only for traced calls (--trace 1 traces one cycle of each pair).
struct client_stats {
  std::map<std::string, samples> call_ms;  ///< per algorithm: "bfs", ...
  std::map<std::string, samples> call_cpu_ms;  ///< process CPU per call
  samples all_ms;                          ///< every call
  std::uint64_t calls = 0;
  double busy_ms = 0.0;
  double cpu_ms = 0.0;  ///< process CPU over every call

  // --trace 1 only
  std::map<std::string, samples> supersteps;
  std::map<std::string, double> inspected, relaxed, traced_calls;
  samples superstep_ms;
  double advance_edges = 0, advance_ms = 0, pull_ms = 0, uniquify_ms = 0;
  double traced_ms = 0;
  std::map<std::string, double> lb_edges;  ///< push-advance edges by strategy
  double emits = 0, dedup_hits = 0;
  /// Per algorithm, for trace.overhead_pct.
  std::map<std::string, samples> traced_call_ms, untraced_call_ms;
};

/// Run the closed loop for `seconds`, after one untimed call of each
/// algorithm: cycles of BFS(src) and SSSP(src), with CC and PageRank (20
/// sweeps) on every other cycle, sources taken round-robin.  --trace 1 runs
/// the cycles in pairs on one source, one traced and one not, in
/// alternating order.  Sampled results are checked against the graph after
/// the timed loop; failures land in `out`.
void closed_loop(graph_pp const& g, std::vector<V> const& labels,
                 std::vector<V> const& sources, double seconds,
                 options const& opt, tracer& tr, client_stats& cs,
                 result& out);

/// Emit the four per-algorithm metrics of a closed loop: the mean process
/// CPU time of a call (end to end) and its median wall time (`wall`).
void emit_algorithm_metrics(client_stats const& cs, result& out);

/// Tracing overhead, percent: for each kind of call, the median traced time
/// over the median untraced one, minus one; the mean over the kinds that
/// have both.
double overhead_pct(std::map<std::string, samples> const& traced,
                    std::map<std::string, samples> const& untraced);

/// Running means of the default pool's `thread_pool::stats()`: the share
/// of workers busy and the tasks pending.
struct pool_occupancy {
  double busy_sum = 0, pending_sum = 0, n = 0;
  void sample();
  double busy_share() const { return n > 0 ? busy_sum / n : 0.0; }
  double pending_mean() const { return n > 0 ? pending_sum / n : 0.0; }
};

/// The per-layer metrics every workload reports alike (--trace 1): the
/// pool, the closed loop's telemetry (operators, enactor, algorithms rows)
/// and the span self time per layer; also writes the spans to the scratch
/// directory.
void emit_shared_layer_metrics(client_stats const& cs, double num_edges,
                               pool_occupancy const& pool, tracer const& tr,
                               options const& opt, result& out);

/// Samples the default pool every millisecond on its own thread while
/// alive (--trace 1 only; serve-mixed's collector samples too).
class pool_sampler {
 public:
  explicit pool_sampler(bool on);
  ~pool_sampler();
  pool_sampler(pool_sampler const&) = delete;
  pool_sampler& operator=(pool_sampler const&) = delete;
  /// Stop sampling (idempotent); returns what was sampled.
  pool_occupancy stop();

 private:
  std::atomic<bool> stop_{false};
  pool_occupancy occupancy_;
  std::thread thread_;
};

}  // namespace pb
