// bench_operators — operator-level ablations of the design choices
// DESIGN.md calls out, anchored on paper Listing 3:
//
//  - per-discovery mutex (the literal Listing 3 formulation) vs lock-free
//    scan compaction (the default) — what eliminating the output lock
//    buys;
//  - uniquify by sort vs by claim-bitmap — the frontier-dedup strategy
//    trade (O(F log F) comparison sort vs O(F) + O(V) bitmap);
//  - sparse-output vs dense-output advance — paying bitmap writes to get
//    dedup for free;
//  - exclusive_scan throughput — the load-balancing primitive.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "essentials.hpp"

namespace e = essentials;
namespace fr = e::frontier;
namespace op = e::operators;

namespace {

e::graph::graph_csr const& graph() {
  static auto const g = [] {
    e::generators::rmat_options opt;
    opt.scale = 12;
    opt.edge_factor = 16;
    auto coo = e::generators::rmat(opt);
    e::graph::remove_self_loops(coo);
    return e::graph::from_coo<e::graph::graph_csr>(std::move(coo));
  }();
  return g;
}

fr::sparse_frontier<e::vertex_t> frontier_of(std::size_t count) {
  fr::sparse_frontier<e::vertex_t> f;
  std::size_t const n = static_cast<std::size_t>(graph().get_num_vertices());
  std::size_t const stride = std::max<std::size_t>(1, n / count);
  for (std::size_t v = 0; v < n; v += stride)
    f.add_vertex(static_cast<e::vertex_t>(v));
  return f;
}

auto const always = [](e::vertex_t, e::vertex_t, e::edge_t, e::weight_t) {
  return true;
};

void BM_AdvanceScanCompaction(benchmark::State& state) {
  // The default: lane buffers + prefix-sum compaction, no locks on the
  // output path.
  auto const in = frontier_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        op::advance_push(e::execution::par, graph(), in, always).size());
}

void BM_AdvanceScanDedup(benchmark::State& state) {
  // Scan + claim-bitmap dedup: the output is a set; measures the bitmap's
  // cost against BM_AdvanceScanCompaction's multiset output.
  auto const in = frontier_of(static_cast<std::size_t>(state.range(0)));
  auto const policy = e::execution::par.with_dedup();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        op::advance_push(policy, graph(), in, always).size());
}

void BM_AdvanceListing3Mutex(benchmark::State& state) {
  auto const in = frontier_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        op::neighbors_expand_listing3(e::execution::par, graph(), in, always)
            .size());
}

void BM_AdvanceDenseOutput(benchmark::State& state) {
  auto const in = frontier_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        op::advance_push_to_dense(e::execution::par, graph(), in, always)
            .size());
}

void BM_AdvanceEdgeBalanced(benchmark::State& state) {
  // §IV-C load balancing ablation: edges (not vertices) are the unit of
  // work, so a hub vertex no longer serializes one lane.  Compare with
  // BM_AdvanceScanCompaction (thread-mapped) on the same skewed frontier.
  auto const in = frontier_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        op::advance_push_edge_balanced(e::execution::par, graph(), in, always)
            .size());
}

/// The `count` highest-out-degree vertices — the worst case for thread
/// mapping: power-law hubs sharing a frontier with low-degree vertices.
fr::sparse_frontier<e::vertex_t> hub_frontier(std::size_t count) {
  fr::sparse_frontier<e::vertex_t> in;
  std::vector<e::vertex_t> by_degree(
      static_cast<std::size_t>(graph().get_num_vertices()));
  std::iota(by_degree.begin(), by_degree.end(), 0);
  std::sort(by_degree.begin(), by_degree.end(),
            [](e::vertex_t a, e::vertex_t b) {
              return graph().get_out_degree(a) > graph().get_out_degree(b);
            });
  for (std::size_t i = 0; i < count && i < by_degree.size(); ++i)
    in.add_vertex(by_degree[i]);
  return in;
}

void BM_AdvanceThreadMappedHubFrontier(benchmark::State& state) {
  // The load-balance strategy sweep on the skewed frontier: Arg is the
  // execution::load_balance enumerator (0 thread_mapped, 1 edge_balanced,
  // 2 degree_class, 3 auto_select).
  auto const in = hub_frontier(256);
  auto const strategy =
      static_cast<e::execution::load_balance>(state.range(0));
  auto const policy = e::execution::par.with_load_balance(strategy);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        op::advance_balanced(policy, graph(), in, always).size());
  state.SetLabel(std::string("hub-frontier ") +
                 e::execution::to_string(strategy));
}

void BM_UniquifySort(benchmark::State& state) {
  auto const base =
      op::advance_push(e::execution::par, graph(),
                       frontier_of(static_cast<std::size_t>(state.range(0))),
                       always);
  for (auto _ : state) {
    auto f = base;
    op::uniquify(e::execution::seq, f);
    benchmark::DoNotOptimize(f.size());
  }
}

void BM_UniquifyBitmap(benchmark::State& state) {
  auto const base =
      op::advance_push(e::execution::par, graph(),
                       frontier_of(static_cast<std::size_t>(state.range(0))),
                       always);
  for (auto _ : state) {
    auto f = base;
    op::uniquify(e::execution::par, f,
                 static_cast<std::size_t>(graph().get_num_vertices()));
    benchmark::DoNotOptimize(f.size());
  }
}

void BM_CompressedVsFlatTraversal(benchmark::State& state) {
  // Block-coded compressed adjacency vs flat CSR: decode ALU traded for
  // memory footprint.  Label reports the compression ratio.
  static auto const csr = [] {
    auto coo = e::generators::grid_2d(256, 256, {1.0f, 4.0f});
    e::graph::sort_and_deduplicate(coo);
    return e::graph::build_csr(coo);
  }();
  static e::graph::compressed_graph<> const cg(csr);
  static e::graph::graph_csr const flat = [] {
    e::graph::graph_csr g2;
    g2.set_csr(csr);
    return g2;
  }();
  bool const compressed = state.range(0) != 0;
  for (auto _ : state) {
    if (compressed) {
      benchmark::DoNotOptimize(
          e::algorithms::sssp_compressed(cg, e::vertex_t{0}).data());
    } else {
      benchmark::DoNotOptimize(
          e::algorithms::sssp(e::execution::seq, flat, 0).distances.data());
    }
  }
  state.SetLabel(compressed
                     ? "compressed (ratio " +
                           std::to_string(cg.compression_ratio()).substr(0, 4) +
                           "x)"
                     : "flat CSR");
}

void BM_ExclusiveScan(benchmark::State& state) {
  std::size_t const n = static_cast<std::size_t>(state.range(0));
  std::vector<int> in(n, 3);
  std::vector<long long> out(n);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        e::parallel::exclusive_scan(in.data(), n, out.data()));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<long long>(n * sizeof(int)));
}

BENCHMARK(BM_AdvanceScanCompaction)->Arg(1 << 8)->Arg(1 << 12)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AdvanceScanDedup)->Arg(1 << 8)->Arg(1 << 12)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AdvanceListing3Mutex)->Arg(1 << 8)->Arg(1 << 12)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AdvanceDenseOutput)->Arg(1 << 8)->Arg(1 << 12)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AdvanceEdgeBalanced)->Arg(1 << 8)->Arg(1 << 12)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AdvanceThreadMappedHubFrontier)->Arg(0)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_UniquifySort)->Arg(1 << 12)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_UniquifyBitmap)->Arg(1 << 12)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CompressedVsFlatTraversal)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ExclusiveScan)->Arg(1 << 16)->Arg(1 << 22);

}  // namespace

// Custom main (replaces BENCHMARK_MAIN): after the timing run, re-execute
// the headline advance workloads once under a telemetry recording and write
// the traces next to the timing output — so every benchmark run leaves a
// machine-readable record of the *work* (edges inspected/relaxed, pool
// occupancy, lock-free vs locked emits) behind the timings.  A second
// artifact, BENCH_frontier.json, reports edges/sec for the two
// frontier-generation strategies on the largest seeded frontier (timed over
// several repetitions, work counts from telemetry) — the headline
// scan-vs-lock number CI uploads.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::vector<e::telemetry::trace> traces;
  auto const record = [&traces](char const* name, auto&& run) {
    traces.emplace_back();
    e::telemetry::scoped_recording rec(traces.back(), name);
    run();
  };
  auto const in = frontier_of(1 << 12);
  record("advance_push.scan_compaction", [&] {
    op::advance_push(e::execution::par, graph(), in, always);
  });
  record("advance_push.scan_dedup", [&] {
    op::advance_push(e::execution::par.with_dedup(), graph(), in, always);
  });
  record("advance_push.listing3_mutex", [&] {
    op::neighbors_expand_listing3(e::execution::par, graph(), in, always);
  });
  record("advance_push.dense_output", [&] {
    op::advance_push_to_dense(e::execution::par, graph(), in, always);
  });
  record("advance_push.edge_balanced", [&] {
    op::advance_push_edge_balanced(e::execution::par, graph(), in, always);
  });

  char const* const path = "bench_operators.telemetry.json";
  if (!e::telemetry::write_json(traces, path)) {
    std::fprintf(stderr, "failed to write %s\n", path);
    return 1;
  }
  std::printf("telemetry: wrote %s (%zu traces)\n", path, traces.size());

  // --- BENCH_frontier.json: edges/sec, lock vs scan, largest frontier ------
  struct strategy_result {
    char const* name;
    double edges_per_sec;
    std::size_t edges;
    std::size_t emits_scan;
    std::size_t emits_lock;
  };
  std::vector<strategy_result> results;
  auto const measure = [&](char const* name, auto&& policy) {
    constexpr int reps = 10;
    e::telemetry::trace t;
    auto const t0 = std::chrono::steady_clock::now();
    {
      e::telemetry::scoped_recording rec(t, name);
      for (int r = 0; r < reps; ++r)
        benchmark::DoNotOptimize(
            op::advance_push(policy, graph(), in, always).size());
    }
    auto const dt = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    results.push_back({name,
                       dt > 0 ? static_cast<double>(t.total_edges_inspected()) / dt
                              : 0.0,
                       t.total_edges_inspected() / reps,
                       t.total_emits_scan() / reps,
                       t.total_emits_lock() / reps});
  };
  namespace ex = e::execution;
  measure("scan", ex::par);
  measure("listing3", ex::par.with_frontier(ex::frontier_gen::listing3));

  // Representation footprint: what the same graph costs as block-coded CSR
  // (the storage tier the operators can run on directly) next to the plain
  // 4-byte-id adjacency these timings used, plus the process resident set.
  e::graph::compressed_graph<> const cg(graph().csr());
  double const bytes_per_edge = cg.bytes_per_edge();
  double const bytes_ratio =
      static_cast<double>(cg.adjacency_bytes()) /
      static_cast<double>(cg.uncompressed_adjacency_bytes());
  std::size_t const rss = e::io::detail::process_resident_bytes();

  char const* const fpath = "BENCH_frontier.json";
  if (std::FILE* f = std::fopen(fpath, "w")) {
    std::fprintf(f,
                 "{\n  \"bench\": \"frontier_generation\",\n"
                 "  \"graph\": {\"kind\": \"rmat\", \"scale\": 12, "
                 "\"edge_factor\": 16, \"vertices\": %lld, \"edges\": %lld},\n"
                 "  \"frontier_size\": %zu,\n  \"strategies\": [\n",
                 static_cast<long long>(graph().get_num_vertices()),
                 static_cast<long long>(graph().get_num_edges()), in.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      auto const& r = results[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"edges_per_sec\": %.0f, "
                   "\"edges_inspected\": %zu, \"emits_scan\": %zu, "
                   "\"emits_lock\": %zu}%s\n",
                   r.name, r.edges_per_sec, r.edges, r.emits_scan,
                   r.emits_lock, i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"representation\": {\"plain_bytes_per_edge\": %zu, "
                 "\"compressed_bytes_per_edge\": %.3f, \"bytes_ratio\": %.3f, "
                 "\"resident_set_bytes\": %zu}\n}\n",
                 sizeof(e::vertex_t), bytes_per_edge, bytes_ratio, rss);
    std::fclose(f);
    std::printf("bench: wrote %s\n", fpath);
    for (auto const& r : results)
      std::printf("  %-9s %12.0f edges/sec\n", r.name, r.edges_per_sec);
    std::printf("  footprint: %.3f bytes/edge compressed (ratio %.3f), rss %.1f MiB\n",
                bytes_per_edge, bytes_ratio,
                static_cast<double>(rss) / (1024.0 * 1024.0));
  } else {
    std::fprintf(stderr, "failed to write %s\n", fpath);
    return 1;
  }

  // --- BENCH_loadbalance.json: the work-decomposition strategy sweep -------
  //
  // Edges/sec for every execution::load_balance strategy on the two frontier
  // shapes that bracket the decision space — the 256-hub skewed frontier
  // (where thread mapping serializes on celebrity vertices) and a uniform
  // stride-sampled frontier (where decomposition overhead is pure cost) —
  // plus the parallel-vs-serial degree-scan headline on a >= 64k-element
  // input (the pass-1 primitive edge_balanced pays every superstep).
  //
  // Three gates, all env-overridable (0 disables), armed only on hosts with
  // enough lanes for the decomposition to matter:
  //  - ESSENTIALS_LOADBALANCE_FLOOR (default 1.2, >= 8 cores):
  //    degree_class must beat thread_mapped by the floor on hub frontiers;
  //  - ESSENTIALS_AUTOLB_FLOOR (default 0.95, >= 4 cores): auto_select must
  //    stay within the floor of the best fixed strategy on hub frontiers;
  //  - ESSENTIALS_SCAN_FLOOR (default 1.0, >= 8 cores): the blocked
  //    parallel scan must beat the serial sweep at 128k elements.
  {
    namespace lbx = e::execution;
    unsigned const hw = std::thread::hardware_concurrency();
    auto const env_floor = [](char const* name, double dflt) {
      if (char const* s = std::getenv(name)) {
        char* end = nullptr;
        double const v = std::strtod(s, &end);
        if (end != s)
          return v;
      }
      return dflt;
    };
    double const lb_floor = env_floor("ESSENTIALS_LOADBALANCE_FLOOR", 1.2);
    double const auto_floor = env_floor("ESSENTIALS_AUTOLB_FLOOR", 0.95);
    double const scan_floor = env_floor("ESSENTIALS_SCAN_FLOOR", 1.0);
    bool const lb_enforced = hw >= 8 && lb_floor > 0.0;
    bool const auto_enforced = hw >= 4 && auto_floor > 0.0;
    bool const scan_enforced = hw >= 8 && scan_floor > 0.0;

    struct lb_result {
      char const* name;
      double edges_per_sec;
    };
    auto const sweep = [&](fr::sparse_frontier<e::vertex_t> const& f) {
      std::vector<lb_result> out;
      for (auto const lb :
           {lbx::load_balance::thread_mapped, lbx::load_balance::edge_balanced,
            lbx::load_balance::degree_class, lbx::load_balance::auto_select}) {
        constexpr int reps = 10;
        e::telemetry::trace t;
        auto const t0 = std::chrono::steady_clock::now();
        {
          e::telemetry::scoped_recording rec(t, "lb");
          for (int r = 0; r < reps; ++r)
            benchmark::DoNotOptimize(
                op::advance_balanced(lbx::par.with_load_balance(lb), graph(),
                                     f, always)
                    .size());
        }
        auto const dt = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
        out.push_back(
            {lbx::to_string(lb),
             dt > 0
                 ? static_cast<double>(t.total_edges_inspected()) / dt
                 : 0.0});
      }
      return out;
    };
    auto const hubs = hub_frontier(256);
    auto const uniform = frontier_of(1 << 12);
    auto const hub_results = sweep(hubs);
    auto const uniform_results = sweep(uniform);

    // hub_results order mirrors the sweep order above.
    double const tm_rate = hub_results[0].edges_per_sec;
    double const dc_rate = hub_results[2].edges_per_sec;
    double const auto_rate = hub_results[3].edges_per_sec;
    double best_fixed = 0.0;
    for (std::size_t i = 0; i < 3; ++i)
      best_fixed = std::max(best_fixed, hub_results[i].edges_per_sec);
    double const dc_ratio = tm_rate > 0 ? dc_rate / tm_rate : 0.0;
    double const auto_ratio = best_fixed > 0 ? auto_rate / best_fixed : 0.0;

    // Degree-scan headline: serial sweep vs the blocked pool scan over a
    // synthetic degree array well past the parallel cutoff.
    std::size_t const scan_n = std::size_t{1} << 17;  // 128k "vertices"
    std::vector<std::size_t> degrees(scan_n);
    for (std::size_t i = 0; i < scan_n; ++i)
      degrees[i] = (i * 13 + 7) % 64;
    std::vector<std::size_t> offsets(scan_n);
    constexpr int scan_reps = 50;
    auto const s0 = std::chrono::steady_clock::now();
    for (int r = 0; r < scan_reps; ++r) {
      std::size_t acc = 0;
      for (std::size_t i = 0; i < scan_n; ++i) {
        offsets[i] = acc;
        acc += degrees[i];
      }
      benchmark::DoNotOptimize(acc);
    }
    double const serial_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - s0)
                                .count();
    auto const p0 = std::chrono::steady_clock::now();
    for (int r = 0; r < scan_reps; ++r)
      benchmark::DoNotOptimize(
          e::parallel::exclusive_scan(degrees.data(), scan_n, offsets.data()));
    double const parallel_s = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - p0)
                                  .count();
    double const scan_speedup = parallel_s > 0 ? serial_s / parallel_s : 0.0;

    char const* const lpath = "BENCH_loadbalance.json";
    std::FILE* const lf = std::fopen(lpath, "w");
    if (lf == nullptr) {
      std::fprintf(stderr, "failed to write %s\n", lpath);
      return 1;
    }
    std::fprintf(lf,
                 "{\n  \"bench\": \"load_balance\",\n"
                 "  \"hardware_concurrency\": %u,\n"
                 "  \"graph\": {\"kind\": \"rmat\", \"scale\": 12, "
                 "\"edge_factor\": 16, \"vertices\": %lld, \"edges\": %lld},\n",
                 hw, static_cast<long long>(graph().get_num_vertices()),
                 static_cast<long long>(graph().get_num_edges()));
    auto const write_sweep = [&](char const* key, std::size_t fsize,
                                 std::vector<lb_result> const& rs,
                                 char const* tail) {
      std::fprintf(lf, "  \"%s\": {\"frontier_size\": %zu, \"strategies\": [\n",
                   key, fsize);
      for (std::size_t i = 0; i < rs.size(); ++i)
        std::fprintf(lf, "    {\"name\": \"%s\", \"edges_per_sec\": %.0f}%s\n",
                     rs[i].name, rs[i].edges_per_sec,
                     i + 1 < rs.size() ? "," : "");
      std::fprintf(lf, "  ]}%s\n", tail);
    };
    write_sweep("hub_frontier", hubs.size(), hub_results, ",");
    write_sweep("uniform_frontier", uniform.size(), uniform_results, ",");
    std::fprintf(lf,
                 "  \"degree_scan\": {\"elements\": %zu, \"serial_ms\": %.3f, "
                 "\"parallel_ms\": %.3f, \"speedup\": %.3f, \"floor\": %.3f, "
                 "\"enforced\": %s},\n",
                 scan_n, serial_s * 1000.0 / scan_reps,
                 parallel_s * 1000.0 / scan_reps, scan_speedup, scan_floor,
                 scan_enforced ? "true" : "false");
    std::fprintf(lf,
                 "  \"gates\": {\n"
                 "    \"degree_class_vs_thread_mapped\": {\"ratio\": %.3f, "
                 "\"floor\": %.3f, \"enforced\": %s},\n"
                 "    \"auto_vs_best_fixed\": {\"ratio\": %.3f, "
                 "\"floor\": %.3f, \"enforced\": %s}\n  }\n}\n",
                 dc_ratio, lb_floor, lb_enforced ? "true" : "false",
                 auto_ratio, auto_floor, auto_enforced ? "true" : "false");
    std::fclose(lf);
    std::printf("bench: wrote %s\n", lpath);
    for (auto const& r : hub_results)
      std::printf("  hub %-14s %12.0f edges/sec\n", r.name, r.edges_per_sec);
    std::printf("  degree_class/thread_mapped %.2fx (floor %.2f, %s), "
                "auto/best %.2fx (floor %.2f, %s)\n",
                dc_ratio, lb_floor, lb_enforced ? "enforced" : "advisory",
                auto_ratio, auto_floor, auto_enforced ? "enforced" : "advisory");
    std::printf("  degree scan: %.2fx parallel speedup at %zu elements "
                "(floor %.2f, %s)\n",
                scan_speedup, scan_n, scan_floor,
                scan_enforced ? "enforced" : "advisory");

    bool failed = false;
    if (lb_enforced && dc_ratio < lb_floor) {
      std::fprintf(stderr,
                   "FAIL: degree_class %.2fx of thread_mapped on hub "
                   "frontiers, floor %.2f\n",
                   dc_ratio, lb_floor);
      failed = true;
    }
    if (auto_enforced && auto_ratio < auto_floor) {
      std::fprintf(stderr,
                   "FAIL: auto_select %.2fx of best fixed strategy, floor "
                   "%.2f\n",
                   auto_ratio, auto_floor);
      failed = true;
    }
    if (scan_enforced && scan_speedup < scan_floor) {
      std::fprintf(stderr,
                   "FAIL: parallel degree scan %.2fx of serial, floor %.2f\n",
                   scan_speedup, scan_floor);
      failed = true;
    }
    if (failed)
      return 1;
  }
  return 0;
}
