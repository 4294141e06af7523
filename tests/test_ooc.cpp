// Tests for the out-of-core tier (PR 9): the mmap-backed block-coded
// graph (io/mapped.hpp) and the registry's cold-epoch demotion
// (engine/registry.hpp).  Suite names carry the `Mapped` / `Tier`
// prefixes so the CI TSAN leg picks them up alongside `Compressed`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/bfs.hpp"
#include "algorithms/sssp.hpp"
#include "core/execution.hpp"
#include "core/frontier/frontier.hpp"
#include "core/operators/advance.hpp"
#include "engine/engine.hpp"
#include "engine/registry.hpp"
#include "engine/stats.hpp"
#include "graph/build.hpp"
#include "graph/dynamic.hpp"
#include "generators/generators.hpp"
#include "graph/graph.hpp"
#include "io/mapped.hpp"

namespace e = essentials;
namespace g = e::graph;
namespace io = e::io;
namespace eng = e::engine;
namespace alg = e::algorithms;
namespace ex = e::execution;
namespace op = e::operators;
namespace fr = e::frontier;
using e::edge_t;
using e::vertex_t;
using e::weight_t;

namespace {

g::csr_t<> canonical(g::coo_t<> coo) {
  g::remove_self_loops(coo);
  g::sort_and_deduplicate(coo, g::duplicate_policy::keep_min);
  return g::build_csr(coo);
}

g::csr_t<> rmat_like(int n, int m, unsigned seed) {
  return canonical(e::generators::erdos_renyi(n, m, {0.5f, 2.0f}, seed));
}

/// Weighted path 0 -> 1 -> ... -> n-1, optionally with a 0 -> n-1 shortcut
/// (the same epoch-distinguishing shape test_engine.cpp uses).
g::graph_csr path_graph(vertex_t n, bool shortcut = false) {
  g::coo_t<> coo;
  coo.num_rows = coo.num_cols = n;
  for (vertex_t v = 0; v + 1 < n; ++v)
    coo.push_back(v, v + 1, 1.0f);
  if (shortcut)
    coo.push_back(0, n - 1, 1.0f);
  return g::from_coo<g::graph_csr>(std::move(coo));
}

/// A per-test scratch directory under the system temp dir, wiped on entry
/// so reruns never see stale spill files.
std::string fresh_dir(std::string const& tag) {
  auto const d =
      std::filesystem::temp_directory_path() / ("essentials-ooc-" + tag);
  std::filesystem::remove_all(d);
  std::filesystem::create_directories(d);
  return d.string();
}

std::vector<vertex_t> sorted_copy(std::vector<vertex_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

void expect_same_csr(g::csr_t<> const& got, g::csr_t<> const& want) {
  ASSERT_EQ(got.num_rows, want.num_rows);
  ASSERT_EQ(got.num_cols, want.num_cols);
  ASSERT_TRUE(std::equal(got.row_offsets.begin(), got.row_offsets.end(),
                         want.row_offsets.begin(), want.row_offsets.end()));
  ASSERT_TRUE(std::equal(got.column_indices.begin(), got.column_indices.end(),
                         want.column_indices.begin(),
                         want.column_indices.end()));
  ASSERT_TRUE(std::equal(got.values.begin(), got.values.end(),
                         want.values.begin(), want.values.end()));
}

}  // namespace

// ---------------------------------------------------------------------------
// mapped_graph
// ---------------------------------------------------------------------------

TEST(Mapped, RoundTripBitIdentical) {
  auto const dir = fresh_dir("roundtrip");
  auto const path = dir + "/g.blk";
  auto const csr = rmat_like(500, 6000, 19);
  io::write_mapped_graph(path, csr);

  io::mapped_graph<> mg(path);
  EXPECT_EQ(mg.get_num_vertices(), csr.num_rows);
  EXPECT_EQ(mg.get_num_edges(),
            static_cast<edge_t>(csr.column_indices.size()));
  EXPECT_EQ(mg.header().magic, io::kMappedMagic);
  EXPECT_EQ(mg.header().off_rows % io::kMappedPage, 0u);
  EXPECT_EQ(mg.header().off_adj % io::kMappedPage, 0u);

  // Neighbor-by-neighbor identity against the source CSR.
  for (vertex_t v = 0; v < csr.num_rows; ++v) {
    std::vector<std::pair<vertex_t, weight_t>> want, got;
    for (edge_t ed = csr.row_offsets[static_cast<std::size_t>(v)];
         ed < csr.row_offsets[static_cast<std::size_t>(v) + 1]; ++ed)
      want.emplace_back(csr.column_indices[static_cast<std::size_t>(ed)],
                        csr.values[static_cast<std::size_t>(ed)]);
    mg.for_each_neighbor(
        v, [&got](vertex_t nb, weight_t w) { got.emplace_back(nb, w); });
    ASSERT_EQ(got, want) << "vertex " << v;
  }
  // Full rehydration (the registry promotion path) is bit-identical.
  expect_same_csr(mg.to_csr(), csr);
  std::filesystem::remove_all(dir);
}

TEST(Mapped, OperatorsAndAlgorithmsMatchPlainCsr) {
  auto const dir = fresh_dir("operators");
  auto const path = dir + "/g.blk";
  auto const csr = rmat_like(600, 7000, 23);
  io::write_mapped_graph(path, csr);
  io::mapped_graph<> mg(path);
  g::graph_csr flat;
  flat.set_csr(csr);

  // advance on the mapped graph, scan-compacted and as Listing 3.
  std::vector<vertex_t> seeds;
  for (vertex_t v = 0; v < 600; v += 9)
    seeds.push_back(v);
  fr::sparse_frontier<vertex_t> const in(std::move(seeds));
  auto const cond = [](vertex_t s, vertex_t d, edge_t, weight_t) {
    return (static_cast<std::size_t>(s) + static_cast<std::size_t>(d)) % 4 !=
           0;
  };
  auto const ref =
      sorted_copy(op::advance_push(ex::seq, flat, in, cond).to_vector());
  EXPECT_EQ(sorted_copy(op::advance_push(ex::seq, mg, in, cond).to_vector()),
            ref);
  EXPECT_EQ(sorted_copy(op::advance_push(ex::par, mg, in, cond).to_vector()),
            ref);
  EXPECT_EQ(sorted_copy(
                op::neighbors_expand_listing3(ex::par, mg, in, cond).to_vector()),
            ref);

  // Full traversals never fully materialize the adjacency in RAM.
  EXPECT_EQ(alg::bfs(ex::par, mg, vertex_t{0}).depths,
            alg::bfs(ex::par, flat, vertex_t{0}).depths);
  EXPECT_EQ(alg::sssp(ex::par, mg, vertex_t{0}).distances,
            alg::sssp(ex::par, flat, vertex_t{0}).distances);
  std::filesystem::remove_all(dir);
}

TEST(Mapped, AdviseWindowingIsSafeAndLossless) {
  auto const dir = fresh_dir("advise");
  auto const path = dir + "/g.blk";
  auto const csr = rmat_like(400, 5000, 29);
  io::write_mapped_graph(path, csr);
  io::mapped_graph<> mg(path);

  auto const degree_sum = [&mg] {
    std::uint64_t s = 0;
    for (vertex_t v = 0; v < mg.get_num_vertices(); ++v)
      mg.for_each_neighbor(v, [&s](vertex_t nb, weight_t) {
        s += static_cast<std::uint64_t>(nb);
      });
    return s;
  };
  auto const want = degree_sum();

  // Every advice mode is best-effort and must never change what decodes.
  mg.advise_sequential();
  EXPECT_EQ(degree_sum(), want);
  mg.advise_random();
  EXPECT_EQ(degree_sum(), want);
  for (vertex_t lo = 0; lo < 400; lo += 100)
    mg.advise_window(lo, std::min<vertex_t>(lo + 100, 400));
  EXPECT_EQ(degree_sum(), want);
  mg.advise_window(0, 0);    // empty window: no-op
  mg.advise_window(17, 17);  // degenerate: no-op
  mg.advise_dontneed();      // evict, then fault everything back in
  EXPECT_EQ(degree_sum(), want);
  std::filesystem::remove_all(dir);
}

TEST(Mapped, BfsAndSsspCompleteAfterResidentEviction) {
  // The out-of-core acceptance shape at unit scale: evict the whole
  // adjacency from the resident set, then run full traversals that must
  // page every window back in through the mmap tier.  bench_compressed
  // runs the larger-than-budget version of this at bench scale.
  auto const dir = fresh_dir("ooc-traversal");
  auto const path = dir + "/g.blk";
  auto const csr = rmat_like(3000, 40000, 37);
  io::write_mapped_graph(path, csr);
  io::mapped_graph<> mg(path);
  g::graph_csr flat;
  flat.set_csr(csr);

  mg.advise_dontneed();  // cold start: nothing resident
  mg.advise_sequential();
  auto const depths = alg::bfs(ex::par, mg, vertex_t{0}).depths;
  EXPECT_EQ(depths, alg::bfs(ex::par, flat, vertex_t{0}).depths);

  mg.advise_dontneed();  // evict again between algorithms
  auto const dist = alg::sssp(ex::par, mg, vertex_t{0}).distances;
  EXPECT_EQ(dist, alg::sssp(ex::par, flat, vertex_t{0}).distances);
  std::filesystem::remove_all(dir);
}

TEST(Mapped, MoveTransfersTheMapping) {
  auto const dir = fresh_dir("move");
  auto const path = dir + "/g.blk";
  io::write_mapped_graph(path, rmat_like(100, 900, 41));
  io::mapped_graph<> a(path);
  auto const edges = a.get_num_edges();
  io::mapped_graph<> b(std::move(a));
  EXPECT_EQ(b.get_num_edges(), edges);
  io::mapped_graph<> c;
  c = std::move(b);
  EXPECT_EQ(c.get_num_edges(), edges);
  int count = 0;
  c.for_each_neighbor(0, [&count](vertex_t, weight_t) { ++count; });
  EXPECT_EQ(count, static_cast<int>(c.get_out_degree(0)));
  std::filesystem::remove_all(dir);
}

TEST(Mapped, RewriteLeavesAnOpenMappingOnTheOldGraph) {
  // Two graphs of one shape (the second renames every id v to 99 - v), so
  // that a file rewritten in place would hold the new graph's sections at
  // the old one's offsets: the open mapping would then decode the new
  // graph instead of faulting.
  auto const dir = fresh_dir("rewrite");
  auto const path = dir + "/g.blk";
  auto const old_csr = rmat_like(100, 300, 43);
  g::coo_t<> renamed;
  renamed.num_rows = renamed.num_cols = 100;
  for (std::size_t u = 0; u < 100; ++u)
    for (auto ed = static_cast<std::size_t>(old_csr.row_offsets[u]);
         ed < static_cast<std::size_t>(old_csr.row_offsets[u + 1]); ++ed)
      renamed.push_back(99 - static_cast<vertex_t>(u),
                        99 - old_csr.column_indices[ed], old_csr.values[ed]);
  auto const new_csr = canonical(std::move(renamed));
  ASSERT_NE(old_csr.column_indices, new_csr.column_indices);
  io::write_mapped_graph(path, old_csr);
  io::mapped_graph<> open_before(path);
  expect_same_csr(open_before.to_csr(), old_csr);

  io::write_mapped_graph(path, new_csr);
  expect_same_csr(open_before.to_csr(), old_csr);
  expect_same_csr(io::mapped_graph<>(path).to_csr(), new_csr);
  // The rename left only the one file behind.
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                          std::filesystem::directory_iterator{}),
            1);
  std::filesystem::remove_all(dir);
}

TEST(Mapped, FailedRenameThrowsAndLeavesNoTempFile) {
  // A directory sits at the target path, so the write reaches the rename
  // and fails there.
  auto const dir = fresh_dir("rename-fails");
  auto const target = std::filesystem::path(dir) / "g.blk";
  std::filesystem::create_directory(target);
  EXPECT_THROW(io::write_mapped_graph(target.string(), rmat_like(50, 200, 47)),
               e::graph_error);
  std::vector<std::string> left;
  for (auto const& entry : std::filesystem::directory_iterator(dir))
    left.push_back(entry.path().filename().string());
  EXPECT_EQ(left, std::vector<std::string>{"g.blk"});
  EXPECT_TRUE(std::filesystem::is_directory(target));
  EXPECT_TRUE(std::filesystem::is_empty(target));
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Registry storage tier
// ---------------------------------------------------------------------------

TEST(Tier, DemoteColdEpochAndServeWarmLookupFromDisk) {
  auto const dir = fresh_dir("demote");
  eng::engine_stats stats;
  eng::graph_registry<g::graph_csr> reg;
  reg.set_stats(&stats);
  reg.enable_tier({dir, 0});  // unlimited budget: only explicit demotes
  EXPECT_TRUE(reg.tier_enabled());

  reg.publish("g", path_graph(64));  // returned pin dropped immediately
  auto const resident_before = reg.resident_bytes();
  EXPECT_GT(resident_before, 0u);

  // Demote: the epoch moves to disk, RAM accounting goes to zero.
  ASSERT_TRUE(reg.demote("g"));
  auto s = stats.snapshot();
  EXPECT_EQ(s.tier_demotions, 1u);
  EXPECT_EQ(s.tier_promotions, 0u);
  EXPECT_EQ(reg.resident_bytes(), 0u);
  EXPECT_GT(reg.spilled_bytes(), 0u);
  EXPECT_EQ(s.tier_resident_bytes, 0u);
  EXPECT_EQ(s.tier_spilled_bytes, reg.spilled_bytes());
  EXPECT_TRUE(reg.demote("g"));  // idempotent: already on disk

  // Warm lookup pages it back; the snapshot is intact.
  auto const p = reg.lookup("g");
  ASSERT_TRUE(p);
  EXPECT_EQ(p.epoch, 1u);
  EXPECT_EQ(p.graph->get_num_vertices(), 64);
  EXPECT_EQ(alg::sssp(ex::seq, *p.graph, 0).distances[63], 63.0f);
  s = stats.snapshot();
  EXPECT_EQ(s.tier_promotions, 1u);
  EXPECT_EQ(reg.resident_bytes(), resident_before);
  // The spill file stays on disk for this epoch (re-demotion is free —
  // covered by Tier.ReDemoteOfUnchangedEpochReusesSpillFile).
  EXPECT_GT(reg.spilled_bytes(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(Tier, ReDemoteOfUnchangedEpochReusesSpillFile) {
  auto const dir = fresh_dir("redemote");
  eng::engine_stats stats;
  eng::graph_registry<g::graph_csr> reg;
  reg.set_stats(&stats);
  reg.enable_tier({dir, 0});
  reg.publish("g", path_graph(64));
  ASSERT_TRUE(reg.demote("g"));
  auto const spilled = reg.spilled_bytes();
  { auto const p = reg.lookup("g"); }  // promote, then drop the pin
  EXPECT_EQ(stats.snapshot().tier_promotions, 1u);
  ASSERT_TRUE(reg.demote("g"));  // fast path: file already durable
  EXPECT_EQ(reg.spilled_bytes(), spilled);
  EXPECT_EQ(stats.snapshot().tier_demotions, 2u);
  EXPECT_EQ(reg.resident_bytes(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(Tier, PinnedEpochIsNeverDemoted) {
  auto const dir = fresh_dir("pinned");
  eng::engine_stats stats;
  eng::graph_registry<g::graph_csr> reg;
  reg.set_stats(&stats);
  reg.enable_tier({dir, 0});
  auto const pin = reg.publish("g", path_graph(32));  // reader holds epoch 1
  EXPECT_FALSE(reg.demote("g"));
  EXPECT_EQ(stats.snapshot().tier_demotions, 0u);
  EXPECT_GT(reg.resident_bytes(), 0u);
  EXPECT_EQ(reg.spilled_bytes(), 0u);
  // The pinned snapshot stays fully usable throughout.
  EXPECT_EQ(alg::sssp(ex::seq, *pin.graph, 0).distances[31], 31.0f);
  std::filesystem::remove_all(dir);
}

TEST(Tier, BudgetEvictsLeastRecentlyUsedVictim) {
  auto const dir = fresh_dir("budget");
  eng::engine_stats stats;
  eng::graph_registry<g::graph_csr> reg;
  reg.set_stats(&stats);
  reg.publish("a", path_graph(512));
  auto const per_graph = reg.resident_bytes();
  ASSERT_GT(per_graph, 0u);

  // Budget fits two graphs but not three.
  reg.enable_tier({dir, per_graph * 5 / 2});
  reg.publish("b", path_graph(512));
  EXPECT_EQ(stats.snapshot().tier_demotions, 0u);  // 2 <= 2.5: all resident

  { auto const p = reg.lookup("a"); }  // bump "a" above "b" in the LRU order
  reg.publish("c", path_graph(512));   // 3 > 2.5: evict exactly one victim
  EXPECT_EQ(stats.snapshot().tier_demotions, 1u);
  EXPECT_GT(reg.spilled_bytes(), 0u);

  // "a" was touched last: still resident (lookup does not promote).
  { auto const p = reg.lookup("a"); }
  EXPECT_EQ(stats.snapshot().tier_promotions, 0u);
  // "b" was the cold one: its lookup pages it back from disk.
  auto const pb = reg.lookup("b");
  ASSERT_TRUE(pb);
  EXPECT_EQ(pb.graph->get_num_vertices(), 512);
  EXPECT_EQ(stats.snapshot().tier_promotions, 1u);
  std::filesystem::remove_all(dir);
}

TEST(Tier, RepublishInvalidatesTheSpillFile) {
  auto const dir = fresh_dir("republish");
  eng::engine_stats stats;
  eng::graph_registry<g::graph_csr> reg;
  reg.set_stats(&stats);
  reg.enable_tier({dir, 0});
  reg.publish("g", path_graph(64));
  ASSERT_TRUE(reg.demote("g"));
  EXPECT_GT(reg.spilled_bytes(), 0u);

  // Epoch 2 supersedes the on-disk epoch 1: the stale file is deleted and
  // unaccounted, and lookups serve the new epoch from RAM.
  reg.publish("g", path_graph(64, /*shortcut=*/true));
  EXPECT_EQ(reg.spilled_bytes(), 0u);
  EXPECT_EQ(stats.snapshot().tier_spilled_bytes, 0u);
  auto const promotions = stats.snapshot().tier_promotions;
  auto const p = reg.lookup("g");
  ASSERT_TRUE(p);
  EXPECT_EQ(p.epoch, 2u);
  EXPECT_EQ(alg::sssp(ex::seq, *p.graph, 0).distances[63], 1.0f);
  EXPECT_EQ(stats.snapshot().tier_promotions, promotions);  // served resident
  // No orphaned spill files remain in the directory.
  std::size_t files = 0;
  for (auto const& entry : std::filesystem::directory_iterator(dir))
    files += entry.is_regular_file() ? 1 : 0;
  EXPECT_EQ(files, 0u);
  std::filesystem::remove_all(dir);
}

TEST(Tier, RemoveDeletesTheSpillFile) {
  auto const dir = fresh_dir("remove");
  eng::graph_registry<g::graph_csr> reg;
  reg.enable_tier({dir, 0});
  reg.publish("g", path_graph(64));
  ASSERT_TRUE(reg.demote("g"));
  EXPECT_GT(reg.spilled_bytes(), 0u);
  EXPECT_TRUE(reg.remove("g"));
  EXPECT_EQ(reg.spilled_bytes(), 0u);
  EXPECT_EQ(reg.resident_bytes(), 0u);
  for (auto const& entry : std::filesystem::directory_iterator(dir))
    FAIL() << "orphaned spill file: " << entry.path();
  EXPECT_FALSE(reg.lookup("g"));
  std::filesystem::remove_all(dir);
}

TEST(Tier, DeltaChainSurvivesDemotion) {
  auto const dir = fresh_dir("delta");
  eng::graph_registry<g::graph_csr> reg;
  reg.enable_tier({dir, 0});

  g::dynamic_graph_t<> dyn(16);
  dyn.add_edge(0, 1, 1.0f);
  reg.publish("g", dyn);  // non-const: delta-capable, epoch 1
  dyn.add_edge(1, 2, 1.0f);
  reg.publish("g", dyn);  // epoch 2, carries the delta
  ASSERT_TRUE(reg.delta_between("g", 1, 2).complete);

  // Demotion moves the snapshot, not the chain.
  ASSERT_TRUE(reg.demote("g"));
  auto const mid = reg.delta_between("g", 1, 2);
  EXPECT_TRUE(mid.complete);
  EXPECT_FALSE(mid.records.empty());

  // Promotion restores the snapshot with the chain still warm, and the
  // next dyn publish extends it across the demote/promote cycle.
  auto const p = reg.lookup("g");
  ASSERT_TRUE(p);
  EXPECT_EQ(p.epoch, 2u);
  dyn.add_edge(2, 3, 1.0f);
  reg.publish("g", dyn);  // epoch 3
  EXPECT_TRUE(reg.delta_between("g", 1, 3).complete);
  std::filesystem::remove_all(dir);
}

TEST(Tier, EngineServesJobsAcrossDemotion) {
  auto const dir = fresh_dir("engine");
  eng::engine_options opt;
  opt.num_runners = 1;
  opt.max_queued = 8;
  opt.cache_capacity = 0;  // force every job through the registry lookup
  opt.tier_spill_dir = dir;
  eng::analytics_engine<g::graph_csr> engine(opt);
  ASSERT_TRUE(engine.registry().tier_enabled());

  engine.registry().publish("g", path_graph(64));
  ASSERT_TRUE(engine.registry().demote("g"));
  EXPECT_EQ(engine.stats().tier_demotions, 1u);
  EXPECT_EQ(engine.stats().tier_resident_bytes, 0u);

  // A job submitted against the demoted graph transparently promotes it.
  eng::job_desc d;
  d.graph = "g";
  d.algorithm = "sssp";
  d.params = "src=0";
  auto j = engine.run(
      d, [](g::graph_csr const& gr,
            eng::job_context&) -> std::shared_ptr<void const> {
        return std::make_shared<alg::sssp_result<weight_t> const>(
            alg::sssp(ex::seq, gr, 0));
      });
  ASSERT_EQ(j->status(), eng::job_status::completed);
  EXPECT_EQ(j->graph_epoch(), 1u);
  EXPECT_EQ(j->result_as<alg::sssp_result<weight_t>>()->distances[63], 63.0f);
  auto const s = engine.stats();
  EXPECT_EQ(s.tier_promotions, 1u);
  EXPECT_GT(s.tier_resident_bytes, 0u);
  std::filesystem::remove_all(dir);
}

TEST(Tier, EnvConfigDrivesTheKnobs) {
  ::setenv("ESSENTIALS_OOC", "1", 1);
  ::setenv("ESSENTIALS_OOC_DIR", "/tmp/essentials-ooc-envtest", 1);
  ::setenv("ESSENTIALS_OOC_BUDGET_MB", "64", 1);
  auto const cfg = eng::tier_config_from_env();
  EXPECT_TRUE(cfg.enabled);
  EXPECT_EQ(cfg.options.spill_dir, "/tmp/essentials-ooc-envtest");
  EXPECT_EQ(cfg.options.resident_budget_bytes, 64ull * 1024 * 1024);

  ::setenv("ESSENTIALS_OOC", "0", 1);
  EXPECT_FALSE(eng::tier_config_from_env().enabled);
  ::unsetenv("ESSENTIALS_OOC");
  ::unsetenv("ESSENTIALS_OOC_DIR");
  ::unsetenv("ESSENTIALS_OOC_BUDGET_MB");
  EXPECT_FALSE(eng::tier_config_from_env().enabled);
  // Without the env override the spill dir falls back to a temp default.
  EXPECT_FALSE(eng::tier_config_from_env().options.spill_dir.empty());
}
