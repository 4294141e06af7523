#pragma once

// Shared pieces of the repository benchmark: options, sample statistics,
// the result printer, the in-memory span tracer, input generation, source
// selection from the giant component, and the correctness checks.
//
// Everything here sits *outside* the library: the benchmark only calls the
// public API of src/ and measures from the outside.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <mutex>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "essentials.hpp"

namespace pb {

namespace e = essentials;
using V = e::vertex_t;
using W = e::weight_t;
using coo_t = e::graph::coo_t<>;
using csr_t = e::graph::csr_t<>;
using clk = std::chrono::steady_clock;

inline double ms_since(clk::time_point t0, clk::time_point t1 = clk::now()) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// CPU time all threads of this process have used, ms.  Time the
/// hypervisor steals from a vCPU is not in it, so on a shared host it
/// tracks the work a call does where wall time also tracks the neighbours.
inline double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

// --- options ---------------------------------------------------------------

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;     ///< self-check sizes (same code, small graphs)
  bool corrupt = false;  ///< self-check: corrupt one checked result
  std::string scratch;   ///< per-run scratch directory (span files)
};

// --- sample statistics -----------------------------------------------------

struct samples {
  std::vector<double> v;
  void add(double x) { v.push_back(x); }
  std::size_t size() const { return v.size(); }
  /// Linear-interpolated percentile, p in [0, 100]; 0 when empty.
  double pct(double p) const {
    if (v.empty())
      return 0.0;
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    double const pos = p / 100.0 * static_cast<double>(s.size() - 1);
    auto const lo = static_cast<std::size_t>(std::floor(pos));
    auto const hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
  }
  double median() const { return pct(50.0); }
  double mean() const {
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           static_cast<double>(v.size());
  }
  /// Highest percentile with at least ten samples beyond it (0 if < 11).
  double supported_pct() const {
    if (v.size() < 11)
      return 0.0;
    return 100.0 * (1.0 - 10.0 / static_cast<double>(v.size()));
  }
};

// --- result printing -------------------------------------------------------

struct metric {
  std::string name;
  double value;
  std::string unit;
};

struct result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<metric> metrics;
  /// Free-form "key": value pairs printed on the detail line (JSON text).
  std::vector<std::pair<std::string, std::string>> detail;

  /// --trace 1: emit per-layer metrics, and end-to-end ones as "traced.*".
  bool trace = false;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void e2e(std::string const& name, double value, std::string unit) {
    add(trace ? "traced." + name : name, value, std::move(unit));
  }
  /// A wall-clock end-to-end number: on a shared host it moves with the
  /// neighbours' load, so it carries no bound.  A per-layer metric of the
  /// traced run, and on the detail line of the untraced one.
  void wall(std::string name, double value, std::string unit) {
    if (trace)
      add(std::move(name), value, std::move(unit));
    else
      note(std::move(name), value);
  }
  void layer(std::string name, double value, std::string unit) {
    if (trace)
      add(std::move(name), value, std::move(unit));
  }
  void note(std::string key, std::string json_value) {
    detail.emplace_back(std::move(key), std::move(json_value));
  }
  void note(std::string key, double x) { note(std::move(key), num(x)); }
  void note_samples(std::string const& key, samples const& s) {
    note(key, "{\"n\":" + std::to_string(s.size()) +
                  ",\"p50\":" + num(s.median()) +
                  ",\"supported_pct\":" + num(s.supported_pct()) +
                  ",\"at_supported_pct\":" + num(s.pct(s.supported_pct())) +
                  "}");
  }
  void fail(std::string const& why) {
    correct = false;
    ++failed;
    std::fprintf(stderr, "perfbench: FAIL: %s\n", why.c_str());
  }

  static std::string num(double x) {
    if (!std::isfinite(x))
      return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", x);
    return buf;
  }
  static std::string quote(std::string const& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\')
        out += '\\';
      out += c;
    }
    return out + "\"";
  }

  /// Detail line, then the result line — the last line of stdout.
  void print() const {
    std::string d = "{\"detail\":{";
    for (std::size_t i = 0; i < detail.size(); ++i) {
      if (i)
        d += ',';
      d += quote(detail[i].first) + ":" + detail[i].second;
    }
    d += "}}";
    std::printf("%s\n", d.c_str());
    std::string r = "{\"correct\":" + std::string(correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (i)
        r += ',';
      r += quote(metrics[i].name) + ":{\"value\":" + num(metrics[i].value) +
           ",\"unit\":" + quote(metrics[i].unit) + "}";
    }
    r += "}}";
    std::printf("%s\n", r.c_str());
    std::fflush(stdout);
  }
};

// --- spans -----------------------------------------------------------------

/// In-memory span recorder.  A span covers one call the benchmark makes
/// into a layer; spans of one request share `request` and link to the span
/// that caused them through `parent`.  Disabled unless --trace 1.
class tracer {
 public:
  struct span {
    std::uint64_t id, parent, request;
    char const* layer;
    char const* name;
    std::int64_t t0, t1;  ///< ns since the tracer's epoch
  };

  explicit tracer(bool on) : on_(on) {}

  std::uint64_t next_id() { return ++ids_; }

  std::int64_t ns(clk::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  /// Record a finished span; returns its id (0 when tracing is off).
  std::uint64_t record(char const* layer, char const* name,
                       std::uint64_t request, std::uint64_t parent,
                       clk::time_point t0, clk::time_point t1,
                       std::uint64_t id = 0) {
    if (!on_)
      return 0;
    if (id == 0)
      id = next_id();
    std::lock_guard<std::mutex> guard(mutex_);
    spans_.push_back({id, parent, request, layer, name, ns(t0), ns(t1)});
    return id;
  }

  /// Self time per layer, ms: each span's duration minus the part of its
  /// interval covered by its children.
  std::map<std::string, double> self_ms() const {
    std::lock_guard<std::mutex> guard(mutex_);
    std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
        kids;
    for (auto const& s : spans_)
      if (s.parent != 0)
        kids[s.parent].push_back({s.t0, s.t1});
    std::map<std::string, double> out;
    for (auto const& s : spans_) {
      std::int64_t covered = 0;
      auto it = kids.find(s.id);
      if (it != kids.end()) {
        auto iv = it->second;
        std::sort(iv.begin(), iv.end());
        std::int64_t cur0 = 0, cur1 = -1;
        for (auto [a, b] : iv) {
          a = std::max(a, s.t0);
          b = std::min(b, s.t1);
          if (b <= a)
            continue;
          if (a > cur1) {
            if (cur1 > cur0)
              covered += cur1 - cur0;
            cur0 = a;
            cur1 = b;
          } else {
            cur1 = std::max(cur1, b);
          }
        }
        if (cur1 > cur0)
          covered += cur1 - cur0;
      }
      out[s.layer] += static_cast<double>(s.t1 - s.t0 - covered) / 1e6;
    }
    return out;
  }

  /// Write the spans as JSON lines.
  void write(std::string const& path) const {
    if (!on_)
      return;
    std::ofstream os(path);
    std::lock_guard<std::mutex> guard(mutex_);
    for (auto const& s : spans_)
      os << "{\"id\":" << s.id << ",\"parent\":" << s.parent
         << ",\"request\":" << s.request << ",\"layer\":\"" << s.layer
         << "\",\"name\":\"" << s.name << "\",\"t0_ns\":" << s.t0
         << ",\"t1_ns\":" << s.t1 << "}\n";
  }

 private:
  bool const on_;
  clk::time_point const epoch_ = clk::now();
  std::atomic<std::uint64_t> ids_{0};
  mutable std::mutex mutex_;
  std::vector<span> spans_;
};

// --- process and host ------------------------------------------------------

/// Peak resident set (VmHWM) of this process, MB.
double peak_rss_mb();
/// Host stamp: nproc, pool width, L3, build type, telemetry flag, seed, and
/// the share of CPU time the hypervisor stole since `host_clock()` was
/// first called (other guests on the host; it slows every timing).
std::string host_stamp(options const& opt);
/// Start the host stamp's steal clock.
void host_clock();

// --- inputs ----------------------------------------------------------------

/// Symmetrized R-MAT edge list without self loops, weights in [1, 64).
coo_t rmat_input(int scale, std::uint64_t seed);

/// Connected components of a symmetric edge list by union-find: `labels`
/// gives each vertex the smallest vertex id of its component.
struct components {
  std::vector<V> labels;
  std::vector<char> has_edge;  ///< degree >= 1
};
components components_of(csr_t const& g);

/// Query sources as Graph500 draws them: only vertices of the largest
/// component with degree >= 1, in a seeded low-discrepancy order.
std::vector<V> giant_component_sources(components const& c, std::size_t count,
                                       std::uint64_t seed);

// --- correctness checks ----------------------------------------------------

/// BFS levels against the (symmetric) CSR: no edge spans more than one
/// level, every reached vertex has a parent one level up, and the reached
/// set is exactly the source's component.
bool check_bfs(csr_t const& g, std::vector<V> const& labels, V src,
               std::vector<V> const& depths);
/// SSSP distances: no edge still relaxes, every reached vertex has a tight
/// in-edge, and the reached set is the source's component.
bool check_sssp(csr_t const& g, std::vector<V> const& labels, V src,
                std::vector<W> const& dist);
/// PageRank within 1e-6 (L1) of a reference, summing to 1.
bool check_pagerank(std::vector<double> const& got,
                    std::vector<double> const& reference);

/// Bytes of the CSR arrays (offsets + columns + weights).
inline double csr_bytes(csr_t const& c) {
  return static_cast<double>(c.row_offsets.size() * sizeof(e::edge_t) +
                             c.column_indices.size() * (sizeof(V) + sizeof(W)));
}

// --- workloads -------------------------------------------------------------

void run_analytics(options const& opt, result& out);
void run_serving(options const& opt, result& out);

}  // namespace pb
