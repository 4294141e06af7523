// bench_timing_models — experiment A1 (paper §III-A): bulk-synchronous vs
// asynchronous timing on workloads with opposite superstep structure.
//
// Expected shape: the asynchronous queue wins on high-diameter graphs
// (chain, grid) whose BSP runs consist of thousands of tiny barriered
// supersteps, and loses its edge on low-diameter skewed graphs (R-MAT,
// star) where BSP amortizes one barrier over a huge frontier.
#include <benchmark/benchmark.h>

#include "algorithms/sssp.hpp"
#include "algorithms/sssp_async_mp.hpp"
#include "essentials.hpp"

namespace e = essentials;

namespace {

e::graph::graph_csr make_graph(std::string const& family) {
  e::generators::weight_options w{1.0f, 2.0f};
  e::graph::coo_t<> coo;
  if (family == "chain") {
    coo = e::generators::chain(50'000, w);
  } else if (family == "grid") {
    coo = e::generators::grid_2d(160, 160, w);
  } else if (family == "rmat") {
    e::generators::rmat_options opt;
    opt.scale = 13;
    opt.edge_factor = 16;
    opt.weights = w;
    coo = e::generators::rmat(opt);
    e::graph::remove_self_loops(coo);
  } else {  // star
    coo = e::generators::star(50'000, w);
  }
  return e::graph::from_coo<e::graph::graph_csr>(
      std::move(coo), e::graph::duplicate_policy::keep_min);
}

struct graphs_t {
  e::graph::graph_csr chain = make_graph("chain");
  e::graph::graph_csr grid = make_graph("grid");
  e::graph::graph_csr rmat = make_graph("rmat");
  e::graph::graph_csr star = make_graph("star");
  e::graph::graph_csr const& get(int id) const {
    switch (id) {
      case 0: return chain;
      case 1: return grid;
      case 2: return rmat;
      default: return star;
    }
  }
};

graphs_t const& graphs() {
  static graphs_t g;
  return g;
}

char const* family_name(int id) {
  switch (id) {
    case 0: return "chain";
    case 1: return "grid";
    case 2: return "rmat";
    default: return "star";
  }
}

void BM_SsspBulkSynchronous(benchmark::State& state) {
  auto const& g = graphs().get(static_cast<int>(state.range(0)));
  std::size_t supersteps = 0;
  for (auto _ : state) {
    auto const r = e::algorithms::sssp(e::execution::par, g, 0);
    supersteps = r.iterations;
    benchmark::DoNotOptimize(r.distances.data());
  }
  state.SetLabel(std::string(family_name(static_cast<int>(state.range(0)))) +
                 " supersteps=" + std::to_string(supersteps));
}

void BM_SsspAsynchronous(benchmark::State& state) {
  auto const& g = graphs().get(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto const r = e::algorithms::sssp_async(g, 0, 4);
    benchmark::DoNotOptimize(r.distances.data());
  }
  state.SetLabel(std::string(family_name(static_cast<int>(state.range(0)))) +
                 " no-barriers");
}

void BM_SsspDeltaStepping(benchmark::State& state) {
  // The bucketed middle ground between the two timing models: BSP waves
  // inside priority buckets.  Auto-tuned delta.
  auto const& g = graphs().get(static_cast<int>(state.range(0)));
  std::size_t waves = 0;
  for (auto _ : state) {
    auto const r =
        e::algorithms::sssp_delta_stepping(e::execution::par, g, 0);
    waves = r.iterations;
    benchmark::DoNotOptimize(r.distances.data());
  }
  state.SetLabel(std::string(family_name(static_cast<int>(state.range(0)))) +
                 " bucket-waves=" + std::to_string(waves));
}

void BM_SsspHybridHierarchical(benchmark::State& state) {
  // §III-B's hierarchical deployment: message passing between 2 ranks,
  // 2 shared-memory threads inside each.
  auto const& g = graphs().get(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto const r = e::algorithms::sssp_message_passing(g, 0, 2, {}, 2);
    benchmark::DoNotOptimize(r.distances.data());
  }
  state.SetLabel(std::string(family_name(static_cast<int>(state.range(0)))) +
                 " 2 ranks x 2 threads");
}

BENCHMARK(BM_SsspBulkSynchronous)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SsspAsynchronous)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SsspDeltaStepping)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SsspHybridHierarchical)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

void BM_SsspAsyncMessagePassing(benchmark::State& state) {
  // The joint asynchronous ∧ message-passing cell: continuous relax-and-
  // forward with Safra termination detection, 4 ranks.
  auto const& g = graphs().get(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto const r = e::algorithms::sssp_async_message_passing(g, 0, 4);
    benchmark::DoNotOptimize(r.distances.data());
  }
  state.SetLabel(std::string(family_name(static_cast<int>(state.range(0)))) +
                 " safra-termination");
}
BENCHMARK(BM_SsspAsyncMessagePassing)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
