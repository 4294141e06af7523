#include "client.hpp"

#include <optional>

namespace pb {

namespace alg = e::algorithms;

namespace {

char const* const kAlgos[] = {"bfs", "sssp", "cc", "pagerank"};

/// PageRank runs a fixed 20 sweeps (tolerance 0), the iteration cap of the
/// GAP benchmark suite.  To the default tolerance the number of sweeps
/// follows the graph the seed generated (31 to 49 on R-MAT scale 19), and
/// the cost of a call with it.
alg::pagerank_options const kPagerank{0.85, 0.0, 20};

/// Lay a traced call's supersteps (and their operators) out as child spans
/// of the call, back to back from its start: the recorder gives durations,
/// not start times, so positions are approximate and durations exact.
void telemetry_spans(tracer& tr, e::telemetry::trace const& t,
                     std::uint64_t request, std::uint64_t parent,
                     clk::time_point t0) {
  auto cursor = t0;
  for (auto const& s : t.supersteps) {
    auto const s1 = cursor + std::chrono::duration_cast<clk::duration>(
                                 std::chrono::duration<double, std::milli>(
                                     s.millis));
    auto const sid = tr.record("enactor", "superstep", request, parent,
                               cursor, s1);
    auto op_cursor = cursor;
    for (auto const& op : s.ops) {
      auto o1 = op_cursor + std::chrono::duration_cast<clk::duration>(
                                std::chrono::duration<double, std::milli>(
                                    op.millis));
      o1 = std::min(o1, s1);
      tr.record("operators", "op", request, sid, op_cursor, o1);
      op_cursor = o1;
    }
    cursor = s1;
  }
}

/// Fold one traced call's telemetry into the client's layer counters.
void absorb(client_stats& cs, std::string const& algo,
            e::telemetry::trace const& t, double call_ms) {
  cs.supersteps[algo].add(static_cast<double>(t.num_supersteps()));
  cs.inspected[algo] += static_cast<double>(t.total_edges_inspected());
  cs.relaxed[algo] += static_cast<double>(t.total_edges_relaxed());
  cs.traced_calls[algo] += 1;
  cs.traced_ms += call_ms;
  for (auto const& s : t.supersteps) {
    cs.superstep_ms.add(s.millis);
    for (auto const& op : s.ops) {
      std::string const& name = op.name;
      cs.emits += static_cast<double>(op.emits_scan + op.emits_lock);
      cs.dedup_hits += static_cast<double>(op.dedup_hits);
      if (name.rfind("uniquify", 0) == 0)
        cs.uniquify_ms += op.millis;
      if (name.rfind("advance", 0) != 0 || name == "advance_balanced")
        continue;  // advance_balanced is a zero-cost marker record
      cs.advance_edges += static_cast<double>(op.edges_inspected);
      cs.advance_ms += op.millis;
      if (name == "advance_pull") {
        cs.pull_ms += op.millis;
        continue;
      }
      char const* strategy = "thread_mapped";
      if (name == "advance_push_edge_balanced")
        strategy = "edge_balanced";
      else if (name == "advance_push_degree_class")
        strategy = "degree_class";
      cs.lb_edges[strategy] += static_cast<double>(op.edges_inspected);
    }
  }
}

/// A checked-later result of one call.
struct kept {
  std::string algo;
  V src;
  std::vector<V> ids;         ///< BFS depths / CC labels
  std::vector<W> dist;        ///< SSSP distances
  std::vector<double> ranks;  ///< PageRank
};

}  // namespace

void closed_loop(graph_pp const& g, std::vector<V> const& labels,
                 std::vector<V> const& sources, double seconds,
                 options const& opt, tracer& tr, client_stats& cs,
                 result& out) {
  std::map<std::string, std::size_t> seen;
  std::vector<kept> keep;
  std::uint64_t attempts = 0;
  // Warm-up, untimed: one call of each algorithm, so that first-touch page
  // faults and lazily built scratch are not in the first timed calls.
  alg::bfs_direction_optimizing(e::execution::par, g, sources.front());
  alg::sssp(e::execution::par, g, sources.front());
  alg::connected_components(e::execution::par, g);
  alg::pagerank(e::execution::par, g, kPagerank);
  auto const deadline =
      clk::now() + std::chrono::duration_cast<clk::duration>(
                       std::chrono::duration<double>(seconds));
  for (std::size_t cycle = 0; clk::now() < deadline; ++cycle) {
    // Traced runs go in pairs of cycles on one source, so every source runs
    // both traced and untraced; the order alternates from pair to pair.
    std::size_t const pick = opt.trace ? cycle / 2 : cycle;
    bool const traced = opt.trace && (cycle + pick) % 2 == 0;
    V const src = sources[pick % sources.size()];
    for (char const* name : kAlgos) {
      std::string const algo = name;
      if (cycle > 0 && clk::now() >= deadline)
        break;
      // CC and PageRank take no source: every other cycle is enough for
      // them, and BFS and SSSP get more of the run's sources.
      if (cycle % 2 == 1 && (algo == "cc" || algo == "pagerank"))
        continue;
      e::telemetry::trace t;
      std::optional<e::telemetry::scoped_recording> rec;
      if (traced)
        rec.emplace(t, algo);
      std::size_t const nth = seen[algo]++;
      // Keep the first result of each algorithm and every 8th after it
      // (three at most) for the checks after the timed loop.
      bool const keep_it =
          (nth % 8 == 0 && nth < 24) && !(algo == "pagerank" && nth > 0);
      kept k{algo, src, {}, {}, {}};
      ++attempts;
      std::uint64_t const req = tr.next_id();
      double const cpu0 = process_cpu_ms();
      auto const t0 = clk::now();
      try {
        if (algo == "bfs") {
          auto r = alg::bfs_direction_optimizing(e::execution::par, g, src);
          if (keep_it) k.ids = std::move(r.depths);
        } else if (algo == "sssp") {
          auto r = alg::sssp(e::execution::par, g, src);
          if (keep_it) k.dist = std::move(r.distances);
        } else if (algo == "cc") {
          auto r = alg::connected_components(e::execution::par, g);
          if (keep_it) k.ids = std::move(r.labels);
        } else {
          auto r = alg::pagerank(e::execution::par, g, kPagerank);
          if (keep_it) k.ranks = std::move(r.ranks);
        }
      } catch (std::exception const& ex) {
        out.fail(algo + " threw: " + ex.what());
        continue;
      }
      auto const t1 = clk::now();
      double const cpu = process_cpu_ms() - cpu0;
      rec.reset();
      double const ms = ms_since(t0, t1);
      cs.call_ms[algo].add(ms);
      cs.call_cpu_ms[algo].add(cpu);
      cs.all_ms.add(ms);
      cs.busy_ms += ms;
      cs.cpu_ms += cpu;
      ++cs.calls;
      if (keep_it)
        keep.push_back(std::move(k));
      if (opt.trace) {
        (traced ? cs.traced_call_ms : cs.untraced_call_ms)[algo].add(ms);
        tr.record("request", name, req, 0, t0, t1, req);
        auto const call = tr.record("algorithms", name, req, req, t0, t1);
        if (traced) {
          absorb(cs, algo, t, ms);
          telemetry_spans(tr, t, req, call, t0);
        }
      }
    }
  }

  // Correctness gate, outside the timed loop.
  auto const& csr = g.csr();
  if (opt.corrupt && !keep.empty()) {
    // Self-check: one wrong answer must trip the gate.
    auto& k = keep.front();
    if (!k.ids.empty()) k.ids[static_cast<std::size_t>(k.src)] += 1;
    if (!k.dist.empty()) k.dist[static_cast<std::size_t>(k.src)] += 1.0f;
    if (!k.ranks.empty()) k.ranks[0] += 1e-3;
  }
  for (auto const& k : keep) {
    bool ok = true;
    if (k.algo == "bfs")
      ok = check_bfs(csr, labels, k.src, k.ids);
    else if (k.algo == "sssp")
      ok = check_sssp(csr, labels, k.src, k.dist);
    else if (k.algo == "cc")
      ok = k.ids == labels;  // label propagation yields each component's min id
    else
      ok = check_pagerank(k.ranks, alg::pagerank_serial(g, kPagerank).ranks);
    if (!ok)
      out.fail(k.algo + " result from source " + std::to_string(k.src) +
               " failed its check");
  }
  out.attempted += attempts;
}

double overhead_pct(std::map<std::string, samples> const& traced,
                    std::map<std::string, samples> const& untraced) {
  double sum = 0;
  int kinds = 0;
  for (auto const& [kind, t] : traced) {
    auto const u = untraced.find(kind);
    if (u == untraced.end() || u->second.size() == 0 || t.size() == 0)
      continue;
    sum += t.median() / u->second.median() - 1.0;
    ++kinds;
  }
  return kinds ? 100.0 * sum / kinds : 0.0;
}

void emit_algorithm_metrics(client_stats const& cs, result& out) {
  for (std::string const algo : kAlgos) {
    auto const it = cs.call_ms.find(algo);
    samples const empty;
    samples const& s = it == cs.call_ms.end() ? empty : it->second;
    auto const c = cs.call_cpu_ms.find(algo);
    samples const& sc = c == cs.call_cpu_ms.end() ? empty : c->second;
    // A cost: the mean, so that a seed whose sources fall on both sides
    // of a step in the per-source cost (BFS's direction switch) moves it
    // in proportion, where the median would jump from one side to the
    // other.
    out.e2e(algo + "_cpu_ms", sc.mean(), "ms");
    out.wall(algo + "_p50_ms", s.median(), "ms");
    out.note_samples(algo + "_ms", s);
  }
}

namespace {

/// Median time of an empty `run_blocked` across all lanes of the default
/// pool, microseconds.
double fork_join_us_p50(int reps) {
  auto& pool = e::parallel::default_pool();
  std::size_t const lanes = pool.size() + 1;
  samples s;
  for (int i = 0; i < reps; ++i) {
    auto const t0 = clk::now();
    pool.run_blocked(lanes, [](std::size_t, std::size_t) {}, 1);
    s.add(ms_since(t0) * 1000.0);
  }
  return s.median();
}

}  // namespace

void emit_shared_layer_metrics(client_stats const& cs, double num_edges,
                               pool_occupancy const& pool, tracer const& tr,
                               options const& opt, result& out) {
  out.layer("pool.fork_join_us_p50", fork_join_us_p50(200), "us");
  out.layer("pool.busy_share", pool.busy_share(), "share");
  out.layer("pool.pending_mean", pool.pending_mean(), "count");
  for (auto const& [layer, ms] : tr.self_ms())
    out.layer("span." + layer + ".self_ms", ms, "ms");
  tr.write(opt.scratch + "/spans-" + opt.workload + ".jsonl");
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  for (std::string const algo : kAlgos) {
    auto const st = cs.supersteps.find(algo);
    out.layer(algo + ".supersteps",
            st == cs.supersteps.end() ? 0.0 : st->second.median(), "count");
  }
  out.layer("superstep.ms_p50", cs.superstep_ms.median(), "ms");
  out.layer("advance.edges_per_s",
          ratio(cs.advance_edges, cs.advance_ms / 1000.0), "1/s");
  out.layer("advance.pull_time_share", ratio(cs.pull_ms, cs.advance_ms),
          "share");
  out.layer("uniquify.time_share", ratio(cs.uniquify_ms, cs.traced_ms),
          "share");
  double push_edges = 0;
  for (auto const& [k, v] : cs.lb_edges)
    push_edges += v;
  for (char const* s : {"thread_mapped", "edge_balanced", "degree_class"}) {
    auto const it = cs.lb_edges.find(s);
    out.layer(std::string("advance.lb.") + s + "_share",
            ratio(it == cs.lb_edges.end() ? 0.0 : it->second, push_edges),
            "share");
  }
  out.layer("frontier.dedup_hit_share",
          ratio(cs.dedup_hits, cs.emits + cs.dedup_hits), "share");
  for (std::string const algo : kAlgos) {
    auto get = [&](std::map<std::string, double> const& m) {
      auto const it = m.find(algo);
      return it == m.end() ? 0.0 : it->second;
    };
    double const calls = get(cs.traced_calls);
    out.layer(algo + ".inspections_per_edge",
            ratio(get(cs.inspected), calls * num_edges), "ratio");
    out.layer(algo + ".relaxed_share", ratio(get(cs.relaxed), get(cs.inspected)),
            "share");
  }
}

void pool_occupancy::sample() {
  auto const o = e::parallel::default_pool().stats();
  busy_sum += o.threads ? static_cast<double>(o.busy) /
                              static_cast<double>(o.threads)
                        : 0.0;
  pending_sum += static_cast<double>(o.queued);
  n += 1;
}

pool_sampler::pool_sampler(bool on) {
  if (!on)
    return;
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      occupancy_.sample();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
}

pool_sampler::~pool_sampler() { stop(); }

pool_occupancy pool_sampler::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable())
    thread_.join();
  return occupancy_;
}

}  // namespace pb
