// rmat-analytics: build an out-of-cache R-MAT graph from a generated edge
// list, then one closed-loop client calls BFS, SSSP, CC and PageRank with
// execution::par for the measured time.

#include "client.hpp"

namespace pb {

void run_analytics(options const& opt, result& out) {
  tracer tr(opt.trace);

  // Benchmark input, not timed: the edge list.
  coo_t input = rmat_input(opt.tiny ? 10 : 19, opt.seed);

  // Set-up, timed: edge list -> canonical COO -> CSR + CSC.  Built once:
  // the serial sort of 15.5M edges takes about ten seconds and, running on
  // one core, varies little; a second build would cost more run time than
  // the benchmark can spend.
  std::uint64_t const req = tr.next_id();
  double const cpu0 = process_cpu_ms();
  auto const t0 = clk::now();
  e::graph::sort_and_deduplicate(input);
  auto const t1 = clk::now();
  auto csr_built = e::graph::build_csr(input);
  auto const t2 = clk::now();
  auto csc_built = e::graph::build_csc(input);
  auto const t3 = clk::now();
  graph_pp g;
  g.set_csr(std::move(csr_built));
  g.set_csc(std::move(csc_built));
  auto const t4 = clk::now();
  double const setup_cpu_s = (process_cpu_ms() - cpu0) / 1000.0;
  input = coo_t{};
  tr.record("request", "setup", req, 0, t0, t4, req);
  tr.record("graph", "sort_and_deduplicate", req, req, t0, t1);
  tr.record("graph", "build_csr", req, req, t1, t2);
  tr.record("graph", "build_csc", req, req, t2, t3);

  auto const& csr = g.csr();
  double const m = static_cast<double>(csr.column_indices.size());
  auto const comps = components_of(csr);
  auto const& labels = comps.labels;
  auto const sources = giant_component_sources(comps, 64, opt.seed);

  pool_sampler sampler(opt.trace);
  client_stats cs;
  closed_loop(g, labels, sources, opt.seconds, opt, tr, cs, out);
  pool_occupancy const pool = sampler.stop();

  out.e2e("setup_s", setup_cpu_s, "s");
  out.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  emit_algorithm_metrics(cs, out);
  out.e2e("request_cpu_ms",
          cs.calls ? cs.cpu_ms / static_cast<double>(cs.calls) : 0.0, "ms");
  out.wall("setup_wall_s", ms_since(t0, t4) / 1000.0, "s");
  out.wall("latency_p50_ms", cs.all_ms.median(), "ms");
  out.wall("latency_p99_ms", cs.all_ms.pct(99.0), "ms");
  // Closed loop: the rate one client sustains is its completion rate.
  out.wall("sustained_qps",
           cs.busy_ms > 0 ? static_cast<double>(cs.calls) / (cs.busy_ms / 1e3)
                          : 0.0,
           "1/s");

  auto const& csc = g.csc();
  double const bytes =
      csr_bytes(csr) +
      static_cast<double>(csc.column_offsets.size() * sizeof(e::edge_t) +
                          csc.row_indices.size() * (sizeof(V) + sizeof(W)));
  out.note("graph", "{\"vertices\":" + std::to_string(csr.num_rows) +
                        ",\"edges\":" + result::num(m) +
                        ",\"csr_csc_mb\":" + result::num(bytes / 1048576.0) +
                        "}");
  out.note_samples("latency_ms", cs.all_ms);

  if (opt.trace) {
    out.layer("graph.sort_dedup_s", ms_since(t0, t1) / 1000.0, "s");
    out.layer("graph.build_csr_s", ms_since(t1, t2) / 1000.0, "s");
    out.layer("graph.build_csc_s", ms_since(t2, t3) / 1000.0, "s");
    out.layer("graph.bytes_per_edge", bytes / m, "B/edge");
    emit_shared_layer_metrics(cs, m, pool, tr, opt, out);
    out.layer("trace.overhead_pct",
              overhead_pct(cs.traced_call_ms, cs.untraced_call_ms), "%");
  }
}

}  // namespace pb
