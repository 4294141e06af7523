// bench_operators — operator-level ablations of the design choices
// DESIGN.md calls out, anchored on paper Listing 3:
//
//  - per-discovery mutex (the literal Listing 3 formulation,
//    `neighbors_expand_listing3`) vs lock-free scan compaction (every
//    `par` operator's publication path) — what eliminating the output
//    lock buys;
//  - uniquify by sort vs by claim-bitmap — the frontier-dedup strategy
//    trade (O(F log F) comparison sort vs O(F) + O(V) bitmap);
//  - sparse-output vs dense-output advance — paying bitmap writes to get
//    dedup for free.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <string>
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

/// Advance, then uniquify(par): the set a BFS/SSSP-style superstep keeps.
std::size_t advance_then_uniquify(fr::sparse_frontier<e::vertex_t> const& in) {
  auto out = op::advance_push(e::execution::par, graph(), in, always);
  op::uniquify(e::execution::par, out,
               static_cast<std::size_t>(graph().get_num_vertices()));
  return out.size();
}

void BM_AdvanceScanDedup(benchmark::State& state) {
  // Scan, then the claim bitmap of uniquify: the output is a set; measures
  // the bitmap pass against BM_AdvanceScanCompaction's multiset output.
  auto const in = frontier_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(advance_then_uniquify(in));
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
  // The skewed frontier: each lane expands whole vertices, so a hub
  // serializes the lane that expands it (EXPERIMENTS.md B5).
  auto const in = hub_frontier(256);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        op::advance_push(e::execution::par, graph(), in, always).size());
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

BENCHMARK(BM_AdvanceScanCompaction)->Arg(1 << 8)->Arg(1 << 12)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AdvanceScanDedup)->Arg(1 << 8)->Arg(1 << 12)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AdvanceListing3Mutex)->Arg(1 << 8)->Arg(1 << 12)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AdvanceDenseOutput)->Arg(1 << 8)->Arg(1 << 12)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AdvanceThreadMappedHubFrontier)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_UniquifySort)->Arg(1 << 12)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_UniquifyBitmap)->Arg(1 << 12)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CompressedVsFlatTraversal)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main (replaces BENCHMARK_MAIN): after the timing run, re-execute
// the headline advance workloads once under a telemetry recording and write
// the traces next to the timing output — so every benchmark run leaves a
// machine-readable record of the *work* (edges inspected/relaxed, pool
// occupancy, lock-free vs locked emits) behind the timings.  A second
// artifact, BENCH_frontier.json, reports edges/sec for the two
// frontier-generation strategies on the largest seeded frontier (the median
// of five timed batches after an untimed one, work counts from telemetry) —
// the headline scan-vs-lock number CI uploads.
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
  record("advance_push.scan_dedup", [&] { advance_then_uniquify(in); });
  record("advance_push.listing3_mutex", [&] {
    op::neighbors_expand_listing3(e::execution::par, graph(), in, always);
  });
  record("advance_push.dense_output", [&] {
    op::advance_push_to_dense(e::execution::par, graph(), in, always);
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
  // Each strategy runs one untimed batch of calls (page faults, lane
  // scratch), then five timed ones; the median batch is reported, so one
  // batch that the shared host slowed does not move the figure.  `expand`
  // is one advance over `in`, returning the output size.
  auto const measure = [&](char const* name, auto&& expand) {
    constexpr int reps = 10;  // calls per batch
    constexpr int batches = 5;
    auto const batch = [&] {
      for (int r = 0; r < reps; ++r)
        benchmark::DoNotOptimize(expand());
    };
    batch();
    std::vector<double> seconds;
    e::telemetry::trace t;  // the last timed batch's counts
    for (int b = 0; b < batches; ++b) {
      t = e::telemetry::trace{};
      auto const t0 = std::chrono::steady_clock::now();
      {
        e::telemetry::scoped_recording rec(t, name);
        batch();
      }
      seconds.push_back(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
    }
    std::sort(seconds.begin(), seconds.end());
    double const dt = seconds[batches / 2];
    results.push_back({name,
                       dt > 0 ? static_cast<double>(t.total_edges_inspected()) / dt
                              : 0.0,
                       t.total_edges_inspected() / reps,
                       t.total_emits_scan() / reps,
                       t.total_emits_lock() / reps});
  };
  measure("scan", [&] {
    return op::advance_push(e::execution::par, graph(), in, always).size();
  });
  measure("listing3", [&] {
    return op::neighbors_expand_listing3(e::execution::par, graph(), in,
                                         always)
        .size();
  });

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
  return 0;
}
