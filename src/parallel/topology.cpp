#include "parallel/topology.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>

#if defined(__linux__)
#include <sched.h>
#endif

namespace essentials::parallel {

namespace {

/// First line of a file, or nullopt when unreadable.
std::optional<std::string> read_line(std::filesystem::path const& path) {
  std::ifstream in(path);
  if (!in)
    return std::nullopt;
  std::string line;
  std::getline(in, line);
  if (in.bad())
    return std::nullopt;
  return line;
}

std::optional<int> read_int(std::filesystem::path const& path) {
  auto const line = read_line(path);
  if (!line)
    return std::nullopt;
  try {
    return std::stoi(*line);
  } catch (...) {
    return std::nullopt;
  }
}

bool env_truthy(char const* name, bool fallback) {
  char const* env = std::getenv(name);
  if (env == nullptr)
    return fallback;
  std::string value(env);
  for (char& c : value)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return !(value.empty() || value == "0" || value == "false" ||
           value == "off" || value == "no");
}

/// Sort key placing a cpu in locality order: node-major, then package,
/// then core (SMT siblings adjacent), then id for determinism.
auto locality_key(topo_cpu const& c) {
  return std::tuple(c.node, c.package, c.core, c.id);
}

}  // namespace

std::vector<int> parse_cpu_list(std::string const& list) {
  std::vector<int> cpus;
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty())
      continue;
    try {
      auto const dash = item.find('-');
      if (dash == std::string::npos) {
        cpus.push_back(std::stoi(item));
      } else {
        int const lo = std::stoi(item.substr(0, dash));
        int const hi = std::stoi(item.substr(dash + 1));
        for (int c = lo; c <= hi && c - lo < 65536; ++c)
          cpus.push_back(c);
      }
    } catch (...) {
      // malformed fragment: skip it, keep the rest
    }
  }
  std::sort(cpus.begin(), cpus.end());
  cpus.erase(std::unique(cpus.begin(), cpus.end()), cpus.end());
  cpus.erase(std::remove_if(cpus.begin(), cpus.end(),
                            [](int c) { return c < 0; }),
             cpus.end());
  return cpus;
}

machine_topology machine_topology::flat(std::size_t n) {
  machine_topology topo;
  if (n == 0)
    n = 1;
  topo.cpus.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    topo.cpus.push_back({static_cast<int>(i), static_cast<int>(i), 0, 0});
  topo.num_packages = 1;
  topo.num_nodes = 1;
  topo.num_cores = n;
  topo.smt = false;
  topo.discovered = false;
  return topo;
}

machine_topology machine_topology::discover(std::string const& sysfs_root) {
  namespace fs = std::filesystem;
  std::size_t const hw = std::max<std::size_t>(
      std::thread::hardware_concurrency(), 1);

  fs::path const cpu_root = fs::path(sysfs_root) / "devices/system/cpu";
  auto const online = read_line(cpu_root / "online");
  if (!online)
    return flat(hw);
  std::vector<int> const ids = parse_cpu_list(*online);
  if (ids.empty())
    return flat(hw);

  machine_topology topo;
  topo.cpus.reserve(ids.size());
  for (int id : ids) {
    fs::path const tdir = cpu_root / ("cpu" + std::to_string(id)) / "topology";
    topo_cpu cpu;
    cpu.id = id;
    cpu.package = read_int(tdir / "physical_package_id").value_or(0);
    cpu.core = read_int(tdir / "core_id").value_or(id);
    cpu.node = 0;  // filled from the node cpulists below
    topo.cpus.push_back(cpu);
  }

  // NUMA nodes: nodeK/cpulist names the cpus of node K.  Missing node
  // directories (containers, non-NUMA kernels) leave every cpu on node 0.
  fs::path const node_root = fs::path(sysfs_root) / "devices/system/node";
  std::error_code ec;
  if (fs::is_directory(node_root, ec)) {
    for (auto const& entry : fs::directory_iterator(node_root, ec)) {
      std::string const name = entry.path().filename().string();
      if (name.rfind("node", 0) != 0)
        continue;
      int node_id = -1;
      try {
        node_id = std::stoi(name.substr(4));
      } catch (...) {
        continue;
      }
      auto const cpulist = read_line(entry.path() / "cpulist");
      if (!cpulist)
        continue;
      for (int id : parse_cpu_list(*cpulist))
        for (auto& cpu : topo.cpus)
          if (cpu.id == id)
            cpu.node = node_id;
    }
  }

  std::set<int> packages, nodes;
  std::set<std::pair<int, int>> cores;
  std::map<std::pair<int, int>, int> threads_per_core;
  for (auto const& cpu : topo.cpus) {
    packages.insert(cpu.package);
    nodes.insert(cpu.node);
    cores.insert({cpu.package, cpu.core});
    ++threads_per_core[{cpu.package, cpu.core}];
  }
  topo.num_packages = std::max<std::size_t>(packages.size(), 1);
  topo.num_nodes = std::max<std::size_t>(nodes.size(), 1);
  topo.num_cores = std::max<std::size_t>(cores.size(), 1);
  topo.smt = std::any_of(threads_per_core.begin(), threads_per_core.end(),
                         [](auto const& kv) { return kv.second > 1; });
  topo.discovered = true;
  return topo;
}

machine_topology const& system_topology() {
  static machine_topology const topo = [] {
    machine_topology t = machine_topology::discover("/sys");
    if (t.cpus.empty())
      t = machine_topology::flat(
          std::max<std::size_t>(std::thread::hardware_concurrency(), 1));
    return t;
  }();
  return topo;
}

bool numa_enabled() {
  static bool const enabled = [] {
#if defined(ESSENTIALS_NUMA_OFF)
    bool fallback = false;
#else
    bool fallback = true;
#endif
    return env_truthy("ESSENTIALS_NUMA", fallback);
  }();
  return enabled;
}

bool pin_enabled() {
  static bool const enabled = env_truthy("ESSENTIALS_PIN", false);
  return enabled && numa_enabled();
}

bool pin_thread_to_cpu(int cpu) {
#if defined(__linux__)
  if (cpu < 0)
    return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu), &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

std::optional<std::uint64_t> steal_seed() {
  char const* env = std::getenv("ESSENTIALS_STEAL_SEED");
  if (env == nullptr || *env == '\0')
    return std::nullopt;
  try {
    return static_cast<std::uint64_t>(std::stoull(env));
  } catch (...) {
    return std::nullopt;
  }
}

std::vector<int> assign_workers(machine_topology const& topo,
                                std::size_t workers) {
  std::vector<topo_cpu> ordered = topo.cpus;
  if (ordered.empty())
    ordered.push_back({0, 0, 0, 0});
  std::sort(ordered.begin(), ordered.end(),
            [](topo_cpu const& a, topo_cpu const& b) {
              return locality_key(a) < locality_key(b);
            });
  std::vector<int> cpu_of(workers);
  for (std::size_t w = 0; w < workers; ++w)
    cpu_of[w] = ordered[w % ordered.size()].id;
  return cpu_of;
}

steal_tiers tiered_victims(machine_topology const& topo,
                           std::vector<int> const& cpu_of_worker,
                           std::size_t self) {
  steal_tiers tiers;
  if (self >= cpu_of_worker.size())
    return tiers;
  auto const place = [&](int cpu) -> topo_cpu {
    for (auto const& c : topo.cpus)
      if (c.id == cpu)
        return c;
    return {cpu, cpu, 0, 0};
  };
  topo_cpu const me = place(cpu_of_worker[self]);

  std::vector<std::size_t> same_core, same_package, remote;
  for (std::size_t w = 0; w < cpu_of_worker.size(); ++w) {
    if (w == self)
      continue;
    topo_cpu const other = place(cpu_of_worker[w]);
    if (other.package == me.package && other.core == me.core)
      same_core.push_back(w);
    else if (other.package == me.package)
      same_package.push_back(w);
    else
      remote.push_back(w);
  }
  tiers.victims.reserve(same_core.size() + same_package.size() +
                        remote.size());
  tiers.victims.insert(tiers.victims.end(), same_core.begin(),
                       same_core.end());
  tiers.smt_end = tiers.victims.size();
  tiers.victims.insert(tiers.victims.end(), same_package.begin(),
                       same_package.end());
  tiers.package_end = tiers.victims.size();
  tiers.victims.insert(tiers.victims.end(), remote.begin(), remote.end());
  return tiers;
}

int node_of_cpu(machine_topology const& topo, int cpu) {
  for (auto const& c : topo.cpus)
    if (c.id == cpu)
      return c.node < 0 ? 0 : c.node;
  return 0;
}

}  // namespace essentials::parallel
