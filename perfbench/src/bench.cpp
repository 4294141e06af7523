#include "bench.hpp"

#include <unistd.h>

#include <fstream>
#include <sstream>
#include <thread>

#ifndef PB_BUILD_TYPE
#define PB_BUILD_TYPE "unknown"
#endif

namespace pb {

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

namespace {

double l3_bytes() {
  long const sc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (sc > 0)
    return static_cast<double>(sc);
  std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string s;
  if (!(f >> s) || s.empty())
    return 0.0;
  double mult = 1.0;
  if (s.back() == 'K') mult = 1024.0;
  if (s.back() == 'M') mult = 1024.0 * 1024.0;
  return std::atof(s.c_str()) * mult;
}

/// (steal, total) jiffies of all CPUs from /proc/stat.
std::pair<double, double> cpu_jiffies() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  double v = 0, total = 0, steal = 0;
  for (int i = 0; i < 8 && (f >> v); ++i) {
    total += v;
    if (i == 7)
      steal = v;
  }
  return {steal, total};
}

std::pair<double, double>& clock_start() {
  static std::pair<double, double> start = cpu_jiffies();
  return start;
}

}  // namespace

void host_clock() { clock_start(); }

std::string host_stamp(options const& opt) {
  auto const [s0, t0] = clock_start();
  auto const [s1, t1] = cpu_jiffies();
  return "{\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"pool_lanes\":" +
         std::to_string(e::parallel::default_pool().size() + 1) +
         ",\"l3_mb\":" + result::num(l3_bytes() / (1024.0 * 1024.0)) +
         ",\"build_type\":" + result::quote(PB_BUILD_TYPE) +
         ",\"telemetry_compiled_in\":" +
         (e::telemetry::compiled_in ? "true" : "false") +
         ",\"steal_share\":" + result::num(t1 > t0 ? (s1 - s0) / (t1 - t0) : 0.0) +
         ",\"seed\":" + std::to_string(opt.seed) +
         ",\"seconds\":" + result::num(opt.seconds) + "}";
}

coo_t rmat_input(int scale, std::uint64_t seed) {
  // R-MAT edges are drawn independently, so four quarter-size draws with
  // seeds derived from `seed` make an edge-factor-16 list; they run on four
  // threads because generation is benchmark input, not measured set-up.
  constexpr int kParts = 4;
  std::vector<coo_t> parts(kParts);
  std::vector<std::thread> threads;
  for (int k = 0; k < kParts; ++k)
    threads.emplace_back([&parts, k, scale, seed] {
      parts[static_cast<std::size_t>(k)] = e::generators::rmat(
          {scale, 16 / kParts, 0.57, 0.19, 0.19, {1.0f, 64.0f},
           seed * kParts + static_cast<std::uint64_t>(k)});
    });
  for (auto& t : threads)
    t.join();
  coo_t coo = std::move(parts[0]);
  for (int k = 1; k < kParts; ++k) {
    auto const& p = parts[static_cast<std::size_t>(k)];
    coo.row_indices.insert(coo.row_indices.end(), p.row_indices.begin(),
                           p.row_indices.end());
    coo.column_indices.insert(coo.column_indices.end(),
                              p.column_indices.begin(), p.column_indices.end());
    coo.values.insert(coo.values.end(), p.values.begin(), p.values.end());
  }
  e::graph::symmetrize(coo);
  e::graph::remove_self_loops(coo);
  return coo;
}

namespace {

/// Union-find over `each(edge_visitor)`, union by smaller root id.
template <typename ForEachEdge>
components union_find(std::size_t n, ForEachEdge each) {
  components c;
  c.labels.resize(n);
  c.has_edge.assign(n, 0);
  auto& parent = c.labels;
  std::iota(parent.begin(), parent.end(), V{0});
  auto find = [&parent](V x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      auto& p = parent[static_cast<std::size_t>(x)];
      p = parent[static_cast<std::size_t>(p)];
      x = p;
    }
    return x;
  };
  each([&](V u, V v) {
    c.has_edge[static_cast<std::size_t>(u)] = 1;
    V const a = find(u), b = find(v);
    if (a < b)
      parent[static_cast<std::size_t>(b)] = a;
    else if (b < a)
      parent[static_cast<std::size_t>(a)] = b;
  });
  for (std::size_t v = 0; v < n; ++v)
    parent[v] = find(static_cast<V>(v));
  return c;
}

}  // namespace

components components_of(csr_t const& g) {
  return union_find(static_cast<std::size_t>(g.num_rows), [&g](auto edge) {
    for (std::size_t u = 0; u + 1 < g.row_offsets.size(); ++u)
      for (auto k = g.row_offsets[u]; k < g.row_offsets[u + 1]; ++k)
        edge(static_cast<V>(u), g.column_indices[static_cast<std::size_t>(k)]);
  });
}

std::vector<V> giant_component_sources(components const& c, std::size_t count,
                                       std::uint64_t seed) {
  auto const& labels = c.labels;
  std::size_t const n = labels.size();
  std::vector<std::size_t> size(n, 0);
  for (auto const l : labels)
    ++size[static_cast<std::size_t>(l)];
  V const giant = static_cast<V>(
      std::max_element(size.begin(), size.end()) - size.begin());
  std::vector<V> eligible;
  for (std::size_t v = 0; v < n; ++v)
    if (labels[v] == giant && c.has_edge[v])
      eligible.push_back(static_cast<V>(v));
  if (eligible.empty())
    throw std::runtime_error("no vertex with degree >= 1");
  // A golden-ratio (Kronecker) sequence over the eligible list from a
  // seeded start: any prefix of it is spread evenly over the vertex ids
  // (and so over R-MAT's degree classes, which follow the ids), so the
  // sources a run reaches cover the graph alike from seed to seed.
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  double const phi = 0.6180339887498949;
  double f = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  std::vector<V> out;
  std::size_t const m = eligible.size();
  for (std::size_t i = 0; i < count; ++i, f = std::fmod(f + phi, 1.0))
    out.push_back(eligible[std::min(m - 1, static_cast<std::size_t>(
                                               f * static_cast<double>(m)))]);
  return out;
}

bool check_bfs(csr_t const& g, std::vector<V> const& labels, V src,
               std::vector<V> const& depths) {
  std::size_t const n = static_cast<std::size_t>(g.num_rows);
  if (depths.size() != n || depths[static_cast<std::size_t>(src)] != 0)
    return false;
  std::vector<char> has_parent(n, 0);
  for (std::size_t u = 0; u < n; ++u) {
    V const du = depths[u];
    if ((du >= 0) != (labels[u] == labels[static_cast<std::size_t>(src)]))
      return false;  // reached set must be exactly src's component
    if (du < 0)
      continue;
    for (auto k = g.row_offsets[u]; k < g.row_offsets[u + 1]; ++k) {
      auto const v = static_cast<std::size_t>(
          g.column_indices[static_cast<std::size_t>(k)]);
      if (depths[v] < 0 || depths[v] > du + 1)
        return false;
      if (depths[v] == du + 1)
        has_parent[v] = 1;
    }
  }
  for (std::size_t v = 0; v < n; ++v)
    if (depths[v] > 0 && !has_parent[v])
      return false;
  return true;
}

bool check_sssp(csr_t const& g, std::vector<V> const& labels, V src,
                std::vector<W> const& dist) {
  std::size_t const n = static_cast<std::size_t>(g.num_rows);
  W const inf = e::infinity_v<W>;
  if (dist.size() != n || dist[static_cast<std::size_t>(src)] != W{0})
    return false;
  std::vector<char> tight(n, 0);
  for (std::size_t u = 0; u < n; ++u) {
    bool const reached = dist[u] != inf;
    if (reached != (labels[u] == labels[static_cast<std::size_t>(src)]))
      return false;
    if (!reached)
      continue;
    for (auto k = g.row_offsets[u]; k < g.row_offsets[u + 1]; ++k) {
      auto const kk = static_cast<std::size_t>(k);
      auto const v = static_cast<std::size_t>(g.column_indices[kk]);
      W const cand = dist[u] + g.values[kk];
      if (dist[v] > cand)
        return false;  // an edge still relaxes: not a fixed point
      if (dist[v] == cand)
        tight[v] = 1;
    }
  }
  for (std::size_t v = 0; v < n; ++v)
    if (v != static_cast<std::size_t>(src) && dist[v] != inf && !tight[v])
      return false;  // a distance no path explains
  return true;
}

bool check_pagerank(std::vector<double> const& got,
                    std::vector<double> const& reference) {
  if (got.size() != reference.size() || got.empty())
    return false;
  double l1 = 0.0, sum = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    l1 += std::abs(got[i] - reference[i]);
    sum += got[i];
  }
  return l1 <= 1e-6 && std::abs(sum - 1.0) <= 1e-6;
}

}  // namespace pb
