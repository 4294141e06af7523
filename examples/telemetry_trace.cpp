// telemetry_trace — record and export per-superstep traces of three
// algorithm shapes:
//
//  * direction-optimizing BFS — the trace shows the push->pull->push
//    direction decisions Beamer's rule makes as the frontier's edge work
//    rises and its size falls;
//  * SSSP (Bellman-Ford advance/filter) — frontier sizes swell and shrink
//    across relaxation waves;
//  * PageRank — a fixed-point program whose "frontier" is all of V every
//    sweep, converging by metric (L1 delta) instead of emptiness.
//
// Each run executes inside a `telemetry::scoped_recording`; afterwards the
// traces are printed as a per-superstep table and exported to
// telemetry_trace.json / telemetry_trace.csv (schema: docs/API.md).
//
// Usage: telemetry_trace [scale edge_factor [out_basename]]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "essentials.hpp"

namespace e = essentials;
namespace tel = essentials::telemetry;

namespace {

void print_trace(tel::trace const& t) {
  std::printf("\n%s: %zu supersteps, %zu edges inspected, %zu relaxed, "
              "%zu direction switch(es), %.2f ms\n",
              t.algorithm.c_str(), t.num_supersteps(),
              t.total_edges_inspected(), t.total_edges_relaxed(),
              t.direction_switches(), t.total_millis());
  std::printf("  %4s %9s %12s %12s %12s %12s %10s\n", "step", "dir",
              "frontier_in", "frontier_out", "edges_insp", "edges_relax",
              "metric");
  for (auto const& s : t.supersteps)
    std::printf("  %4zu %6s%s %12zu %12zu %12zu %12zu %10.3g\n", s.index,
                tel::to_string(s.direction), s.switched_direction ? "*" : " ",
                s.frontier_in, s.frontier_out, s.edges_inspected(),
                s.edges_relaxed(), s.metric);
}

}  // namespace

int main(int argc, char** argv) {
  e::generators::rmat_options opt;
  opt.scale = 10;
  opt.edge_factor = 16;
  opt.seed = 13;
  std::string base = "telemetry_trace";
  if (argc >= 3) {
    opt.scale = std::atoi(argv[1]);
    opt.edge_factor = static_cast<std::size_t>(std::atoi(argv[2]));
  }
  if (argc >= 4)
    base = argv[3];

  auto coo = e::generators::rmat(opt);
  e::graph::remove_self_loops(coo);
  auto const g = e::graph::from_coo<e::graph::graph_push_pull>(std::move(coo));
  std::printf("graph: %d vertices, %d edges; telemetry %s\n",
              g.get_num_vertices(), g.get_num_edges(),
              tel::compiled_in ? "compiled in" : "compiled OUT (rebuild with "
                                                 "-DESSENTIALS_TELEMETRY=ON)");

  std::vector<tel::trace> traces(3);

  {
    tel::scoped_recording rec(traces[0], "bfs_direction_optimizing");
    auto const r =
        e::algorithms::bfs_direction_optimizing(e::execution::par, g, 0);
    std::size_t reached = 0;
    for (auto const d : r.depths)
      reached += d >= 0;
    std::printf("\nDO-BFS reached %zu vertices\n", reached);
  }
  print_trace(traces[0]);

  {
    tel::scoped_recording rec(traces[1], "sssp");
    auto const r = e::algorithms::sssp(e::execution::par, g, 0);
    std::printf("\nSSSP converged in %zu iterations\n", r.iterations);
  }
  print_trace(traces[1]);

  {
    e::algorithms::pagerank_options propt;
    propt.max_iterations = 20;
    tel::scoped_recording rec(traces[2], "pagerank");
    auto const r = e::algorithms::pagerank(e::execution::par, g, propt);
    std::printf("\nPageRank: %zu sweeps, final L1 delta %.3g\n", r.iterations,
                r.final_delta);
  }
  print_trace(traces[2]);

  auto const json_path = base + ".json";
  auto const csv_path = base + ".csv";
  bool ok = tel::write_json(traces, json_path);
  ok = tel::write_csv(traces[0], csv_path) && ok;
  if (!ok) {
    std::fprintf(stderr, "failed to write %s / %s\n", json_path.c_str(),
                 csv_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s (all traces) and %s (DO-BFS supersteps)\n",
              json_path.c_str(), csv_path.c_str());
  return 0;
}
