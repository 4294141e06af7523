#pragma once

/// \file algorithms/msbfs.hpp
/// \brief Bit-parallel multi-source traversals (MS-BFS and lane-packed
/// SSSP): run up to 64 searches at once, one bit lane per source.  A
/// vertex's frontier membership across all traversals is a single u64, so
/// one pass over an edge advances every search that wants it — the
/// technique behind fast all-pairs-ish analytics (betweenness sampling,
/// closeness, diameter) and behind the engine's request batcher
/// (engine/batcher.hpp), which fuses concurrent same-graph queries into
/// these lanes.
///
/// The frontier here is a *vector of bitmasks* — yet another underlying
/// representation behind the same conceptual interface, which is the
/// paper's §III-B point taken to its logical extreme.
///
/// Lane masking: both traversals accept a per-superstep `lane_mask`
/// callable returning the set of lanes still allowed to run.  A lane
/// dropped from the mask simply stops propagating — it never aborts the
/// other lanes.  This is how fused engine jobs honor *per-member* deadlines
/// and cancel tokens: the member's `job_context::should_stop()` clears its
/// bit, the batch keeps converging for everyone else.
///
/// Telemetry: each level is recorded as one superstep on the active
/// recorder (core/telemetry.hpp) with an "msbfs.expand" / "mssssp.relax"
/// op record carrying per-lane-applied edge counts — so fused enactments
/// are visible in job traces (schema v5 tags the batch attribution).

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/execution.hpp"
#include "core/operators/compute.hpp"
#include "core/telemetry.hpp"
#include "core/types.hpp"
#include "parallel/atomics.hpp"

namespace essentials::algorithms {

/// Default lane mask: every lane runs to convergence.
struct all_lanes {
  std::uint64_t operator()(std::size_t /*superstep*/) const {
    return ~std::uint64_t{0};
  }
};

template <typename V = vertex_t>
struct msbfs_result {
  /// depth[s][v]: hops from sources[s] to v, -1 if unreached.
  std::vector<std::vector<V>> depth;
  std::size_t iterations = 0;
  /// lane_levels[s]: the last level at which lane s discovered any vertex
  /// (0 when the source reached nothing).  Unlike `iterations` — which is
  /// the batch-wide superstep count — this is a *per-lane* convergence
  /// depth, identical whether the lane ran alone or fused with 63 others.
  std::vector<V> lane_levels;
};

/// Multi-source BFS from up to 64 sources.  Push-style level-synchronous:
/// each superstep, every vertex with new search bits propagates them to
/// its out-neighbors with atomic fetch_or.  `lane_mask(superstep)` gates
/// which lanes may still expand (see file comment); masked-out lanes keep
/// the depths they had discovered so far.
template <typename P, typename G, typename MaskFn = all_lanes>
  requires execution::synchronous_policy<P>
msbfs_result<typename G::vertex_type> multi_source_bfs(
    P policy, G const& g,
    std::vector<typename G::vertex_type> const& sources,
    MaskFn lane_mask = {}) {
  using V = typename G::vertex_type;
  expects(!sources.empty() && sources.size() <= 64,
          "multi_source_bfs: need 1..64 sources");
  std::size_t const n = static_cast<std::size_t>(g.get_num_vertices());
  std::size_t const s = sources.size();
  std::uint64_t const full_mask =
      s == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << s) - 1);

  msbfs_result<V> result;
  result.depth.assign(s, std::vector<V>(n, V{-1}));
  result.lane_levels.assign(s, V{0});

  // seen[v]: searches that have reached v; frontier_bits[v]: searches that
  // reached v in the previous superstep (and must expand from it now).
  std::vector<std::uint64_t> seen(n, 0), frontier_bits(n, 0), next_bits(n, 0);
  std::size_t active = 0;  // vertices with any frontier bit set
  for (std::size_t i = 0; i < s; ++i) {
    V const src = sources[i];
    expects(src >= 0 && src < g.get_num_vertices(),
            "multi_source_bfs: source out of range");
    if (frontier_bits[static_cast<std::size_t>(src)] == 0)
      ++active;
    seen[static_cast<std::size_t>(src)] |= std::uint64_t{1} << i;
    frontier_bits[static_cast<std::size_t>(src)] |= std::uint64_t{1} << i;
    result.depth[i][static_cast<std::size_t>(src)] = 0;
  }

  std::uint64_t* const seen_p = seen.data();
  std::uint64_t* const cur_p = frontier_bits.data();
  std::uint64_t* const nxt_p = next_bits.data();

  telemetry::recorder* const rec = telemetry::current();

  V level = 0;
  bool any = true;
  while (any) {
    // Per-superstep lane gate: a lane dropped here stops propagating (its
    // bits are masked at read time in the expand), everyone else proceeds.
    std::uint64_t const mask = full_mask & lane_mask(result.iterations);
    if (mask == 0)
      break;

    if (rec)
      rec->begin_superstep(active, direction_t::push);
    auto const probe =
        telemetry::make_probe("msbfs.expand", policy, active);

    // Expand: push each vertex's new (live-lane) bits to its neighbors.
    operators::compute_vertices(policy, g, [&g, cur_p, nxt_p, mask,
                                            &probe](V v) {
      std::uint64_t const bits = cur_p[v] & mask;
      if (bits == 0)
        return;
      std::size_t inspected = 0, relaxed = 0;
      for (auto const e : g.get_edges(v)) {
        V const nb = g.get_dest_vertex(e);
        ++inspected;
        // fetch_or only for genuinely new bits cuts contention.
        std::atomic_ref<std::uint64_t> ref(nxt_p[static_cast<std::size_t>(nb)]);
        if ((ref.load(std::memory_order_relaxed) & bits) != bits) {
          ref.fetch_or(bits, std::memory_order_relaxed);
          ++relaxed;
        }
      }
      probe.add_edges(inspected, relaxed);
    });

    // Settle: new = next & ~seen becomes the next frontier; record depths.
    ++level;
    std::uint64_t any_bits = 0;
    std::size_t next_active = 0;
    for (std::size_t v = 0; v < n; ++v) {
      std::uint64_t const fresh = nxt_p[v] & ~seen_p[v];
      seen_p[v] |= fresh;
      cur_p[v] = fresh;
      nxt_p[v] = 0;
      any_bits |= fresh;
      if (fresh != 0) {
        ++next_active;
        std::uint64_t bits = fresh;
        while (bits != 0) {
          unsigned const lane = static_cast<unsigned>(__builtin_ctzll(bits));
          bits &= bits - 1;
          result.depth[lane][v] = level;
          result.lane_levels[lane] = level;
        }
      }
    }
    if (rec)
      rec->end_superstep(next_active);
    any = any_bits != 0;
    active = next_active;
    ++result.iterations;
  }
  return result;
}

// ---------------------------------------------------------------------------
// Lane-packed multi-source SSSP
// ---------------------------------------------------------------------------

template <typename W = weight_t, typename V = vertex_t>
struct mssssp_result {
  /// dist[s][v]: shortest distance from sources[s] to v (infinity_v<W> if
  /// unreachable).  The converged values are the deterministic shortest-path
  /// fixed point — identical whether the lane ran alone or fused.
  std::vector<std::vector<W>> dist;
  std::size_t iterations = 0;
};

/// Multi-source SSSP from up to 64 sources: one label-correcting traversal
/// shared by every lane.  The frontier is the same vector-of-bitmasks as
/// MS-BFS — bit l of `frontier[v]` means "lane l improved dist[l][v] last
/// superstep and must re-relax v's out-edges" — so one pass over an edge
/// relaxes every search that wants it, with per-lane distance arrays
/// (atomic-min lattice, exactly Listing 4's relaxation per lane).  This is
/// the fused enactment behind batched engine SSSP (engine/batch_jobs.hpp).
/// Weights must be non-negative (same contract as `sssp`).
template <typename P, typename G, typename MaskFn = all_lanes>
  requires execution::synchronous_policy<P>
mssssp_result<typename G::weight_type, typename G::vertex_type>
multi_source_sssp(P policy, G const& g,
                  std::vector<typename G::vertex_type> const& sources,
                  MaskFn lane_mask = {}) {
  using V = typename G::vertex_type;
  using W = typename G::weight_type;
  expects(!sources.empty() && sources.size() <= 64,
          "multi_source_sssp: need 1..64 sources");
  std::size_t const n = static_cast<std::size_t>(g.get_num_vertices());
  std::size_t const s = sources.size();
  std::uint64_t const full_mask =
      s == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << s) - 1);

  mssssp_result<W, V> result;
  result.dist.assign(s, std::vector<W>(n, infinity_v<W>));

  std::vector<std::uint64_t> frontier_bits(n, 0), next_bits(n, 0);
  std::size_t active = 0;
  for (std::size_t i = 0; i < s; ++i) {
    V const src = sources[i];
    expects(src >= 0 && src < g.get_num_vertices(),
            "multi_source_sssp: source out of range");
    if (frontier_bits[static_cast<std::size_t>(src)] == 0)
      ++active;
    frontier_bits[static_cast<std::size_t>(src)] |= std::uint64_t{1} << i;
    result.dist[i][static_cast<std::size_t>(src)] = W{0};
  }

  std::uint64_t* const cur_p = frontier_bits.data();
  std::uint64_t* const nxt_p = next_bits.data();
  // Raw lane pointers so the relaxation lambda indexes without bounds
  // re-derivation per edge.
  std::vector<W*> lanes(s);
  for (std::size_t i = 0; i < s; ++i)
    lanes[i] = result.dist[i].data();
  W* const* const lane_p = lanes.data();

  telemetry::recorder* const rec = telemetry::current();

  bool any = true;
  while (any) {
    std::uint64_t const mask = full_mask & lane_mask(result.iterations);
    if (mask == 0)
      break;

    if (rec)
      rec->begin_superstep(active, direction_t::push);
    auto const probe =
        telemetry::make_probe("mssssp.relax", policy, active);

    operators::compute_vertices(policy, g, [&g, cur_p, nxt_p, lane_p, mask,
                                            &probe](V v) {
      std::uint64_t const bits = cur_p[v] & mask;
      if (bits == 0)
        return;
      // Snapshot each live lane's distance at v once per vertex: a stale
      // value only costs a re-relaxation (monotone convergence), and the
      // atomic load keeps TSAN honest about racing atomic::min writers.
      W base[64];
      {
        std::uint64_t b = bits;
        while (b != 0) {
          unsigned const lane = static_cast<unsigned>(__builtin_ctzll(b));
          b &= b - 1;
          base[lane] = atomic::load(&lane_p[lane][v]);
        }
      }
      std::size_t inspected = 0, relaxed = 0;
      for (auto const e : g.get_edges(v)) {
        V const nb = g.get_dest_vertex(e);
        W const weight = g.get_edge_weight(e);
        std::uint64_t improved = 0;
        std::uint64_t b = bits;
        while (b != 0) {
          unsigned const lane = static_cast<unsigned>(__builtin_ctzll(b));
          b &= b - 1;
          ++inspected;
          W const new_d = base[lane] + weight;
          W const curr_d =
              atomic::min(&lane_p[lane][static_cast<std::size_t>(nb)], new_d);
          if (new_d < curr_d) {
            improved |= std::uint64_t{1} << lane;
            ++relaxed;
          }
        }
        if (improved != 0) {
          std::atomic_ref<std::uint64_t> ref(
              nxt_p[static_cast<std::size_t>(nb)]);
          ref.fetch_or(improved, std::memory_order_relaxed);
        }
      }
      probe.add_edges(inspected, relaxed);
    });

    std::uint64_t any_bits = 0;
    std::size_t next_active = 0;
    for (std::size_t v = 0; v < n; ++v) {
      std::uint64_t const fresh = nxt_p[v];
      cur_p[v] = fresh;
      nxt_p[v] = 0;
      any_bits |= fresh;
      if (fresh != 0)
        ++next_active;
    }
    if (rec)
      rec->end_superstep(next_active);
    any = any_bits != 0;
    active = next_active;
    ++result.iterations;
  }
  return result;
}

}  // namespace essentials::algorithms
