#pragma once

/// \file parallel/topology.hpp
/// \brief Hardware-topology discovery and placement policy — the NUMA half
/// of the execution substrate.
///
/// The paper frames graph analytics as memory-bandwidth-bound: operator
/// throughput is set by how fast edges stream out of DRAM.  On multi-socket
/// machines that bandwidth is *per socket*, and remote-node CSR reads cost
/// 1.5–2x a local read — so once work-stealing removed the central-queue
/// bottleneck, cross-socket traffic is the next scaling wall.  This header
/// provides the three ingredients the rest of `parallel/` threads through
/// the hot path:
///
///  1. **Discovery** (`machine_topology::discover`): a sysfs parser — no
///     hwloc dependency — that maps each online CPU to its SMT core, its
///     package (socket) and its NUMA node.  Parsing is rooted at an
///     arbitrary directory so unit tests drive it with canned fixtures
///     (1-socket, 2-socket, SMT-off); any failure collapses to a clean
///     single-socket `flat()` topology, which makes every placement policy
///     a no-op rather than an error.
///  2. **Placement policy**: `assign_workers` packs pool workers onto CPUs
///     in locality order (node-major, then package, then core, SMT
///     siblings adjacent — the katana `HWTopoLinux` packing);
///     `tiered_victims` derives each worker's steal order from that packing
///     (same-core SMT siblings, then same-socket, then remote sockets).
///  3. **Knobs**: `ESSENTIALS_NUMA` gates every placement decision (default
///     on; off, the pool builds its tiers from `flat()` and memory is
///     constructor-touched), `ESSENTIALS_PIN` opts workers into affinity
///     pinning, and `ESSENTIALS_STEAL_SEED` makes the randomized victim
///     sweep reproducible for torture-suite debugging.
///
/// Everything here is observation + pure policy: no thread is created, no
/// memory is placed.  The thread pool (thread_pool.cpp) consumes the
/// policies; first-touch placement lives in parallel/first_touch.hpp.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace essentials::parallel {

/// One logical CPU and where it sits in the machine.
struct topo_cpu {
  int id = -1;       ///< logical cpu number (sysfs cpuN)
  int core = -1;     ///< core id within the package (SMT siblings share it)
  int package = -1;  ///< physical package (socket) id
  int node = -1;     ///< NUMA node id
};

/// The machine as the placement policies see it.  Counts are derived from
/// `cpus` at construction; `discovered` records whether this came from a
/// real sysfs tree (false = the flat fallback, where every placement policy
/// degenerates to the topology-oblivious behaviour).
struct machine_topology {
  std::vector<topo_cpu> cpus;  ///< online CPUs, sorted by id
  std::size_t num_packages = 1;
  std::size_t num_nodes = 1;
  std::size_t num_cores = 0;  ///< distinct (package, core) pairs
  bool smt = false;           ///< any core carries >1 hardware thread
  bool discovered = false;    ///< true iff parsed from a sysfs tree

  std::size_t num_cpus() const noexcept { return cpus.size(); }

  /// Single-socket fallback: n CPUs, each its own core, one package, one
  /// node.  The topology every policy treats as "nothing to exploit".
  static machine_topology flat(std::size_t n);

  /// Parse a sysfs tree rooted at `sysfs_root` (normally "/sys"; tests
  /// pass fixture directories).  Reads
  ///   <root>/devices/system/cpu/online
  ///   <root>/devices/system/cpu/cpuN/topology/{physical_package_id,core_id}
  ///   <root>/devices/system/node/nodeK/cpulist
  /// Missing node directories degrade to one node; a missing/unreadable
  /// cpu list degrades to `flat(hardware_concurrency)`.
  static machine_topology discover(std::string const& sysfs_root);
};

/// The cached machine topology ("/sys", discovered once per process).
machine_topology const& system_topology();

/// Parse a kernel cpu-list string ("0-3,8,10-11") into cpu ids.  Malformed
/// fragments are skipped; the result is sorted and deduplicated.  Exposed
/// for the fixture tests.
std::vector<int> parse_cpu_list(std::string const& list);

// ---------------------------------------------------------------------------
// Knobs
// ---------------------------------------------------------------------------

/// `ESSENTIALS_NUMA`: master switch for every topology-derived placement
/// decision (steal tiers, first-touch, pinning).  Default on (or off when
/// compiled with -DESSENTIALS_NUMA_OFF); the environment variable
/// overrides either way — truthy (`1`, `true`, `on`, `yes`) enables, falsy
/// (`0`, `false`, `off`, `no`) disables.  Read once and cached: the off
/// path is the topology-oblivious configuration CI keeps alive.
bool numa_enabled();

/// `ESSENTIALS_PIN`: opt workers into CPU-affinity pinning (default off —
/// pinning helps dedicated servers and hurts shared/oversubscribed hosts).
/// Only consulted when `numa_enabled()`; read once and cached.
bool pin_enabled();

/// Pin the calling thread to one CPU.  Returns true on success; false on
/// unsupported platforms or kernel refusal (callers treat failure as a
/// performance shrug, never an error).
bool pin_thread_to_cpu(int cpu);

/// `ESSENTIALS_STEAL_SEED`: when set, the base seed for every worker's
/// victim-selection RNG (mixed with the worker's lane id), making steal
/// sweeps — and therefore torture-suite interleavings — reproducible.
/// Read per call (not cached) so tests can set it before building a pool.
std::optional<std::uint64_t> steal_seed();

// ---------------------------------------------------------------------------
// Placement policies (pure functions of a topology)
// ---------------------------------------------------------------------------

/// Map `workers` pool workers onto CPUs in locality order: CPUs sorted by
/// (node, package, core, id) — SMT siblings adjacent, sockets contiguous —
/// assigned round-robin when workers exceed CPUs.  Returns cpu id per
/// worker.  This packed order is what makes "neighboring worker" mean
/// "topologically near worker" for the steal tiers.
std::vector<int> assign_workers(machine_topology const& topo,
                                std::size_t workers);

/// A worker's victims, nearest first.  `victims` holds worker indices
/// (never `self`); [0, smt_end) share self's core, [smt_end, package_end)
/// share its package, [package_end, size()) are remote packages.  The
/// stealing sweep randomizes *within* a tier but always exhausts nearer
/// tiers first, so a steal crosses the interconnect only when the whole
/// local socket is dry.
struct steal_tiers {
  std::vector<std::size_t> victims;
  std::size_t smt_end = 0;
  std::size_t package_end = 0;
};

/// Tiered steal order for worker `self` under the given worker→cpu
/// assignment.  With a flat topology every other worker shares self's
/// package, so the sweep is one randomized tier over all workers.
steal_tiers tiered_victims(machine_topology const& topo,
                           std::vector<int> const& cpu_of_worker,
                           std::size_t self);

/// NUMA node of a cpu id under `topo` (0 when unknown — the flat answer).
int node_of_cpu(machine_topology const& topo, int cpu);

}  // namespace essentials::parallel
