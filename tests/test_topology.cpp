// Tests for the topology layer (parallel/topology.hpp): the sysfs parser
// against canned fixture trees (2-socket SMT, 1-socket, SMT-off), the
// single-node fallback, the placement policies (worker packing, steal
// tiers), first-touch placement semantics, and deterministic CSR
// construction under first-touch.  The operator matrix runs against the
// sequential reference in test_differential.cpp, in both NUMA CI legs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "generators/generators.hpp"
#include "graph/build.hpp"
#include "graph/graph.hpp"
#include "graph/properties.hpp"
#include "parallel/first_touch.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/topology.hpp"

namespace g = essentials::graph;
namespace gen = essentials::generators;
namespace p = essentials::parallel;

namespace {

namespace fs = std::filesystem;

/// One cpu of a fixture: logical id, package id, core id, NUMA node.
struct fixture_cpu {
  int id;
  int package;
  int core;
  int node;
};

void write_file(fs::path const& path, std::string const& contents) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path);
  out << contents << "\n";
}

/// Materialize a canned sysfs tree for `cpus` under a fresh temp dir and
/// return its root.  Online list covers every cpu; one nodeK/cpulist per
/// distinct node.
fs::path make_sysfs_fixture(std::string const& name,
                            std::vector<fixture_cpu> const& cpus) {
  fs::path const root =
      fs::temp_directory_path() / ("essentials_topo_" + name);
  fs::remove_all(root);
  fs::path const cpu_root = root / "devices/system/cpu";

  std::string online;
  for (auto const& c : cpus) {
    if (!online.empty())
      online += ',';
    online += std::to_string(c.id);
  }
  write_file(cpu_root / "online", online);

  for (auto const& c : cpus) {
    fs::path const tdir = cpu_root / ("cpu" + std::to_string(c.id)) / "topology";
    write_file(tdir / "physical_package_id", std::to_string(c.package));
    write_file(tdir / "core_id", std::to_string(c.core));
  }

  std::set<int> nodes;
  for (auto const& c : cpus)
    nodes.insert(c.node);
  for (int node : nodes) {
    std::string cpulist;
    for (auto const& c : cpus) {
      if (c.node != node)
        continue;
      if (!cpulist.empty())
        cpulist += ',';
      cpulist += std::to_string(c.id);
    }
    write_file(root / "devices/system/node" /
                   ("node" + std::to_string(node)) / "cpulist",
               cpulist);
  }
  return root;
}

/// 2 packages x 2 cores x 2 SMT threads, one NUMA node per package.
/// Linux-style sibling numbering: cpu0-3 are first threads, cpu4-7 their
/// SMT siblings.
std::vector<fixture_cpu> two_socket_smt() {
  return {{0, 0, 0, 0}, {1, 0, 1, 0}, {2, 1, 0, 1}, {3, 1, 1, 1},
          {4, 0, 0, 0}, {5, 0, 1, 0}, {6, 1, 0, 1}, {7, 1, 1, 1}};
}

}  // namespace

// --- sysfs parser against canned fixtures -----------------------------------

TEST(Topology, TwoSocketSmtFixture) {
  auto const root = make_sysfs_fixture("2s_smt", two_socket_smt());
  auto const topo = p::machine_topology::discover(root.string());
  EXPECT_TRUE(topo.discovered);
  EXPECT_EQ(topo.num_cpus(), 8u);
  EXPECT_EQ(topo.num_packages, 2u);
  EXPECT_EQ(topo.num_nodes, 2u);
  EXPECT_EQ(topo.num_cores, 4u);
  EXPECT_TRUE(topo.smt);
  EXPECT_EQ(p::node_of_cpu(topo, 0), 0);
  EXPECT_EQ(p::node_of_cpu(topo, 3), 1);
  EXPECT_EQ(p::node_of_cpu(topo, 6), 1);
  EXPECT_EQ(p::node_of_cpu(topo, 99), 0);  // unknown cpu: the flat answer
}

TEST(Topology, SingleSocketFixture) {
  std::vector<fixture_cpu> cpus;
  for (int i = 0; i < 4; ++i)
    cpus.push_back({i, 0, i, 0});
  auto const root = make_sysfs_fixture("1s", cpus);
  auto const topo = p::machine_topology::discover(root.string());
  EXPECT_TRUE(topo.discovered);
  EXPECT_EQ(topo.num_cpus(), 4u);
  EXPECT_EQ(topo.num_packages, 1u);
  EXPECT_EQ(topo.num_nodes, 1u);
  EXPECT_EQ(topo.num_cores, 4u);
  EXPECT_FALSE(topo.smt);
}

TEST(Topology, SmtOffTwoSocketFixture) {
  // 2 packages x 2 cores, one thread per core: packages without SMT.
  std::vector<fixture_cpu> const cpus = {
      {0, 0, 0, 0}, {1, 0, 1, 0}, {2, 1, 0, 1}, {3, 1, 1, 1}};
  auto const root = make_sysfs_fixture("2s_nosmt", cpus);
  auto const topo = p::machine_topology::discover(root.string());
  EXPECT_TRUE(topo.discovered);
  EXPECT_EQ(topo.num_packages, 2u);
  EXPECT_EQ(topo.num_cores, 4u);
  EXPECT_FALSE(topo.smt);
}

TEST(Topology, MissingTreeFallsBackToFlat) {
  auto const topo =
      p::machine_topology::discover("/nonexistent-essentials-sysfs");
  EXPECT_FALSE(topo.discovered);
  EXPECT_GE(topo.num_cpus(), 1u);
  EXPECT_EQ(topo.num_packages, 1u);
  EXPECT_EQ(topo.num_nodes, 1u);
}

TEST(Topology, MissingNodeDirsDegradeToOneNode) {
  // Topology files present, no devices/system/node at all (containers).
  auto const cpus = two_socket_smt();
  auto const root = make_sysfs_fixture("no_nodes", cpus);
  fs::remove_all(root / "devices/system/node");
  auto const topo = p::machine_topology::discover(root.string());
  EXPECT_TRUE(topo.discovered);
  EXPECT_EQ(topo.num_packages, 2u);
  EXPECT_EQ(topo.num_nodes, 1u);
  EXPECT_EQ(p::node_of_cpu(topo, 7), 0);
}

TEST(Topology, FlatTopologyShape) {
  auto const topo = p::machine_topology::flat(4);
  EXPECT_FALSE(topo.discovered);
  EXPECT_EQ(topo.num_cpus(), 4u);
  EXPECT_EQ(topo.num_packages, 1u);
  EXPECT_EQ(topo.num_nodes, 1u);
  EXPECT_EQ(topo.num_cores, 4u);
  EXPECT_FALSE(topo.smt);
  EXPECT_EQ(p::machine_topology::flat(0).num_cpus(), 1u);  // normalized
}

TEST(Topology, ParseCpuListHandlesRangesAndSingles) {
  EXPECT_EQ(p::parse_cpu_list("0-3,8,10-11"),
            (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));
  EXPECT_EQ(p::parse_cpu_list("5"), (std::vector<int>{5}));
  EXPECT_EQ(p::parse_cpu_list("3,1,2,2"), (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(p::parse_cpu_list("").empty());
}

TEST(Topology, ParseCpuListSkipsMalformedFragments) {
  EXPECT_EQ(p::parse_cpu_list("a,2,b-c,4"), (std::vector<int>{2, 4}));
  EXPECT_TRUE(p::parse_cpu_list("garbage").empty());
  EXPECT_TRUE(p::parse_cpu_list("5-3").empty());  // reversed range
  EXPECT_TRUE(p::parse_cpu_list("-3").empty());   // negative ids dropped
}

// --- placement policies ------------------------------------------------------

TEST(Topology, AssignWorkersPacksByLocality) {
  auto const topo = p::machine_topology::discover(
      make_sysfs_fixture("assign", two_socket_smt()).string());
  auto const cpu_of = p::assign_workers(topo, 8);
  ASSERT_EQ(cpu_of.size(), 8u);
  // Locality order is (node, package, core, id): node 0 holds cpus
  // {0,4,1,5} (core 0 siblings first), node 1 holds {2,6,3,7}.
  EXPECT_EQ(cpu_of, (std::vector<int>{0, 4, 1, 5, 2, 6, 3, 7}));
  // More workers than cpus wrap round-robin through the same order.
  auto const wrapped = p::assign_workers(topo, 10);
  EXPECT_EQ(wrapped[8], 0);
  EXPECT_EQ(wrapped[9], 4);
}

TEST(Topology, TieredVictimsClassifyByDistance) {
  auto const topo = p::machine_topology::discover(
      make_sysfs_fixture("tiers", two_socket_smt()).string());
  auto const cpu_of = p::assign_workers(topo, 8);
  // Worker 0 sits on cpu0 = (package 0, core 0); its SMT sibling is worker
  // 1 (cpu4), same-package victims are workers 2,3 (cpus 1,5), remote are
  // workers 4..7.
  auto const tiers = p::tiered_victims(topo, cpu_of, 0);
  ASSERT_EQ(tiers.victims.size(), 7u);
  EXPECT_EQ(tiers.smt_end, 1u);
  EXPECT_EQ(tiers.package_end, 3u);
  EXPECT_EQ(tiers.victims[0], 1u);
  EXPECT_EQ((std::set<std::size_t>{tiers.victims[1], tiers.victims[2]}),
            (std::set<std::size_t>{2u, 3u}));
  for (std::size_t i = tiers.package_end; i < tiers.victims.size(); ++i)
    EXPECT_GE(tiers.victims[i], 4u);
  // No worker is its own victim.
  for (auto v : tiers.victims)
    EXPECT_NE(v, 0u);
}

TEST(Topology, TieredVictimsOnFlatTopologyCollapseToOneTier) {
  auto const topo = p::machine_topology::flat(4);
  auto const cpu_of = p::assign_workers(topo, 4);
  auto const tiers = p::tiered_victims(topo, cpu_of, 2);
  ASSERT_EQ(tiers.victims.size(), 3u);
  EXPECT_EQ(tiers.smt_end, 0u);                     // no SMT siblings
  EXPECT_EQ(tiers.package_end, tiers.victims.size());  // everyone local
}

TEST(Topology, SystemTopologyIsSane) {
  auto const& topo = p::system_topology();
  EXPECT_GE(topo.num_cpus(), 1u);
  EXPECT_GE(topo.num_packages, 1u);
  EXPECT_GE(topo.num_nodes, 1u);
  auto const cpu_of = p::assign_workers(topo, 4);
  EXPECT_EQ(cpu_of.size(), 4u);
}

// --- first-touch placement ---------------------------------------------------

TEST(FirstTouch, ParallelAndSerialFillsAreBitIdentical) {
  p::thread_pool pool(4);
  // Big enough to cross first_touch_min_bytes so the parallel path runs.
  std::size_t const n = (std::size_t{1} << 20) / sizeof(double) + 12345;
  auto const on = p::first_touch_vector<double>(pool, n, 3.5, /*numa=*/true);
  auto const off = p::first_touch_vector<double>(pool, n, 3.5, /*numa=*/false);
  ASSERT_EQ(on.size(), off.size());
  EXPECT_TRUE(std::equal(on.begin(), on.end(), off.begin()));
}

TEST(FirstTouch, SmallArraysFillSerially) {
  p::thread_pool pool(2);
  auto const v = p::first_touch_vector<int>(pool, 100, 7, /*numa=*/true);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_TRUE(std::all_of(v.begin(), v.end(), [](int x) { return x == 7; }));
}

TEST(FirstTouch, FillOverwritesEverySlot) {
  p::thread_pool pool(4);
  std::size_t const n = (std::size_t{1} << 21) / sizeof(std::uint64_t);
  p::numa_vector<std::uint64_t> v;
  v.resize(n);  // default-init: contents unspecified
  p::first_touch_fill(pool, v.data(), n, std::uint64_t{42}, /*numa=*/true);
  EXPECT_TRUE(std::all_of(v.begin(), v.end(),
                          [](std::uint64_t x) { return x == 42; }));
}

TEST(FirstTouch, DefaultInitAllocatorStillValueConstructsWithArgs) {
  // Explicit fill construction and copies behave exactly like std::vector;
  // only no-arg resize changes (default-init instead of value-init).
  p::numa_vector<int> v(16, 9);
  EXPECT_TRUE(std::all_of(v.begin(), v.end(), [](int x) { return x == 9; }));
  p::numa_vector<int> const copy = v;
  EXPECT_TRUE(std::equal(copy.begin(), copy.end(), v.begin()));
  // Non-trivial types are still value-initialized by resize.
  std::vector<std::string, p::default_init_allocator<std::string>> s;
  s.resize(3);
  EXPECT_TRUE(s[0].empty() && s[1].empty() && s[2].empty());
}

// --- deterministic construction under first-touch -------------------------

// CSR construction through the first-touch path is deterministic: building
// the same COO twice (placement pre-touch on, then effectively exercised
// off via the small-array serial path) yields identical bytes, and the
// structure stays valid.
TEST(NumaDifferential, BuildCsrIsDeterministicUnderFirstTouch) {
  gen::rmat_options opt;
  opt.scale = 10;
  opt.edge_factor = 8;
  auto coo = gen::rmat(opt);
  g::remove_self_loops(coo);
  g::sort_and_deduplicate(coo);
  auto const a = g::build_csr(coo);
  auto const b = g::build_csr(coo);
  EXPECT_TRUE(g::is_valid_csr(a));
  EXPECT_EQ(a.row_offsets, b.row_offsets);
  EXPECT_EQ(a.column_indices, b.column_indices);
  EXPECT_EQ(a.values, b.values);
}
