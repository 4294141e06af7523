// bench_compressed — the compressed + out-of-core tier experiment (PR 9),
// written to BENCH_compressed.json for CI.  Four questions:
//
//   decode      — how fast does the group-varint block codec turn adjacency
//                 bytes back into vertex ids?  Reported in GB/s of decoded
//                 ids, not gated.
//   parity      — what does running `advance` straight on compressed CSR
//                 cost versus plain CSR at 8 threads?  Floor: >= 0.7x of
//                 plain (ESSENTIALS_PARITY_FLOOR override; the gate only
//                 arms on hosts with >= 8 hardware threads — below that the
//                 ratio is reported, not enforced).
//   footprint   — bytes per edge and compression ratio on the sorted rmat,
//                 plus process resident set.  Floor: adjacency <= 0.5x of
//                 raw 4-byte ids (always enforced; scale-free sorted
//                 adjacency compresses far better than that in practice).
//   reordering  — ratio sensitivity to vertex ordering (original vs
//                 degree-sorted vs BFS relabeling): the bench hook
//                 graph/reorder.hpp's docs point at.
//
// A fifth boolean records the out-of-core path end to end: BFS on an
// mmap-backed mapped_graph written to a temp file must equal BFS on the
// plain CSR after the resident pages are dropped (advise_dontneed), i.e. a
// traversal served through the paging tier.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "essentials.hpp"

namespace e = essentials;
namespace alg = e::algorithms;
namespace ex = e::execution;
namespace fr = e::frontier;
namespace g = e::graph;
namespace op = e::operators;
using e::edge_t;
using e::vertex_t;
using e::weight_t;

namespace {

constexpr int kScale = 12;
constexpr int kEdgeFactor = 8;
constexpr int kReps = 9;

g::csr_t<> build_rmat() {
  auto coo = e::generators::rmat({/*scale=*/kScale, /*edge_factor=*/kEdgeFactor,
                                  0.57, 0.19, 0.19, {1.0f, 4.0f}, /*seed=*/7});
  g::remove_self_loops(coo);
  g::sort_and_deduplicate(coo, g::duplicate_policy::keep_min);
  return g::build_csr(coo);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double env_floor(char const* name, double fallback) {
  if (char const* const s = std::getenv(name))
    return std::strtod(s, nullptr);
  return fallback;
}

/// Decode throughput of a full adjacency sweep, in decoded GB/s (output
/// bytes: 4 per edge).  `run` must consume every edge once.
template <typename F>
double sweep_gbps(std::size_t edges, F&& run) {
  std::vector<double> secs;
  for (int rep = 0; rep < kReps; ++rep) {
    auto const t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(run());
    secs.push_back(std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
  }
  double const s = median(std::move(secs));
  return s > 0 ? static_cast<double>(edges) * sizeof(vertex_t) / s / 1e9 : 0.0;
}

double compression_ratio_of(g::coo_t<> coo) {
  g::sort_and_deduplicate(coo, g::duplicate_policy::keep_min);
  return g::compressed_graph<>(g::build_csr(coo)).compression_ratio();
}

}  // namespace

// Micro-benchmark riding along (the CI smoke filter): single-block decode
// latency through the thread-local scratch.
void BM_CompressedBlockDecode(benchmark::State& state) {
  static auto const csr = build_rmat();
  static g::compressed_graph<> const cg(csr);
  std::uint64_t b = 0;
  alignas(64) vertex_t out[g::blockcodec::block_edges];
  for (auto _ : state) {
    benchmark::DoNotOptimize(cg.decode_block_into(b, out));
    b = (b + 1) % cg.num_blocks();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          g::blockcodec::block_edges * sizeof(vertex_t));
}
BENCHMARK(BM_CompressedBlockDecode)->Unit(benchmark::kNanosecond);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  auto const csr = build_rmat();
  std::size_t const m = csr.column_indices.size();
  g::graph_csr flat;
  flat.set_csr(csr);
  g::compressed_graph<> const cg(csr);

  // --- decode throughput: block codec ---------------------------------------
  double const block_gbps = sweep_gbps(m, [&cg] {
    alignas(64) vertex_t out[g::blockcodec::block_edges];
    std::uint64_t sink = 0;
    for (std::uint64_t b = 0; b < cg.num_blocks(); ++b) {
      sink += cg.decode_block_into(b, out);
      benchmark::DoNotOptimize(out);  // the stores are the product
    }
    return sink;
  });

  // --- operator parity: advance on compressed vs plain CSR -----------------
  unsigned const hw = std::thread::hardware_concurrency();
  std::size_t const parity_threads = std::min<std::size_t>(hw ? hw : 1, 8);
  e::parallel::thread_pool pool(parity_threads);
  ex::parallel_policy const par{pool};
  std::vector<vertex_t> seeds;
  for (vertex_t v = 0; v < csr.num_rows; v += 3)
    seeds.push_back(v);
  fr::sparse_frontier<vertex_t> const in(std::move(seeds));
  auto const always = [](vertex_t, vertex_t, edge_t, weight_t) { return true; };
  auto const time_advance = [&](auto const& graph) {
    std::vector<double> secs;
    for (int rep = 0; rep < kReps; ++rep) {
      auto const t0 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(op::advance_push(par, graph, in, always).size());
      secs.push_back(std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
    }
    return median(std::move(secs));
  };
  double const plain_s = time_advance(flat);
  double const comp_s = time_advance(cg);
  double const parity = comp_s > 0 ? plain_s / comp_s : 0.0;

  // --- footprint ------------------------------------------------------------
  double const bytes_per_edge = cg.bytes_per_edge();
  double const bytes_ratio =
      static_cast<double>(cg.adjacency_bytes()) /
      static_cast<double>(cg.uncompressed_adjacency_bytes());
  std::size_t const rss = e::io::detail::process_resident_bytes();

  // --- reorder sensitivity (graph/reorder.hpp's bench hook) -----------------
  auto coo = e::generators::rmat({kScale, kEdgeFactor, 0.57, 0.19, 0.19,
                                  {1.0f, 4.0f}, 7});
  g::remove_self_loops(coo);
  g::sort_and_deduplicate(coo, g::duplicate_policy::keep_min);
  double const ratio_original = cg.compression_ratio();
  double const ratio_degree =
      compression_ratio_of(g::apply_permutation(coo, g::order_by_degree(csr)));
  double const ratio_bfs =
      compression_ratio_of(g::apply_permutation(coo, g::order_by_bfs(csr)));

  // --- out-of-core BFS parity through the mmap tier -------------------------
  bool mapped_bfs_ok = false;
  {
    auto const dir =
        std::filesystem::temp_directory_path() / "essentials-bench-ooc";
    std::filesystem::create_directories(dir);
    auto const path = (dir / "rmat12.blk").string();
    e::io::write_mapped_graph(path, csr);
    e::io::mapped_graph<> mg(path);
    mg.advise_dontneed();  // start cold: every window pages in on demand
    mg.advise_sequential();
    mapped_bfs_ok = alg::bfs(par, mg, vertex_t{0}).depths ==
                    alg::bfs(par, flat, vertex_t{0}).depths;
    std::filesystem::remove_all(dir);
  }

  char const* const path = "BENCH_compressed.json";
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "failed to write %s\n", path);
    return 1;
  }
  std::fprintf(
      f,
      "{\n  \"bench\": \"compressed_tier\",\n"
      "  \"graph\": {\"kind\": \"rmat\", \"scale\": %d, \"edge_factor\": %d, "
      "\"vertices\": %lld, \"edges\": %zu},\n"
      "  \"block_edges\": %zu, \"reps\": %d, \"statistic\": \"median\",\n"
      "  \"decode\": {\"block_gbps\": %.3f},\n"
      "  \"parity\": {\"threads\": %zu, \"plain_advance_ms\": %.4f, "
      "\"compressed_advance_ms\": %.4f, \"ratio\": %.3f, "
      "\"gate_armed\": %s},\n"
      "  \"footprint\": {\"bytes_per_edge\": %.3f, \"bytes_ratio\": %.3f, "
      "\"adjacency_bytes\": %zu, \"resident_set_bytes\": %zu},\n"
      "  \"reorder_sensitivity\": {\"original\": %.3f, \"degree\": %.3f, "
      "\"bfs\": %.3f},\n"
      "  \"mapped_bfs_matches_plain\": %s\n}\n",
      kScale, kEdgeFactor, static_cast<long long>(csr.num_rows), m,
      g::blockcodec::block_edges, kReps, block_gbps, parity_threads,
      plain_s * 1e3, comp_s * 1e3, parity,
      hw >= 8 ? "true" : "false", bytes_per_edge, bytes_ratio,
      static_cast<std::size_t>(cg.adjacency_bytes()), rss, ratio_original,
      ratio_degree, ratio_bfs, mapped_bfs_ok ? "true" : "false");
  std::fclose(f);

  std::printf("bench: wrote %s\n", path);
  std::printf("  decode: block %.3f GB/s\n", block_gbps);
  std::printf("  advance parity @ %zu threads: %.3f  (plain %.3f ms, "
              "compressed %.3f ms)\n",
              parity_threads, parity, plain_s * 1e3, comp_s * 1e3);
  std::printf("  footprint: %.3f bytes/edge (ratio %.3f), rss %.1f MiB\n",
              bytes_per_edge, bytes_ratio,
              static_cast<double>(rss) / (1024.0 * 1024.0));
  std::printf("  reorder ratios: original %.3f  degree %.3f  bfs %.3f\n",
              ratio_original, ratio_degree, ratio_bfs);
  std::printf("  mapped BFS parity: %s\n", mapped_bfs_ok ? "ok" : "MISMATCH");

  // --- floors ---------------------------------------------------------------
  if (!mapped_bfs_ok) {
    std::fprintf(stderr, "FAIL: BFS through the mmap tier diverged\n");
    return 1;
  }
  if (bytes_ratio > 0.5) {
    std::fprintf(stderr,
                 "FAIL: compressed adjacency is %.3fx of raw (bar: <= 0.5x "
                 "on sorted rmat)\n",
                 bytes_ratio);
    return 1;
  }
  double const parity_floor = env_floor("ESSENTIALS_PARITY_FLOOR", 0.7);
  if (hw >= 8 && parity_floor > 0 && parity < parity_floor) {
    std::fprintf(stderr,
                 "FAIL: compressed advance at %.3fx of plain "
                 "(bar: %.2fx at >= 8 hardware threads; override "
                 "ESSENTIALS_PARITY_FLOOR)\n",
                 parity, parity_floor);
    return 1;
  }
  return 0;
}
