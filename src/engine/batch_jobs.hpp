#pragma once

/// \file engine/batch_jobs.hpp
/// \brief Canonical batchable jobs (cold body + lane payload + fused body)
/// for the engine's `submit_batch` path: BFS, SSSP and per-source
/// closeness, all enacted through the lane-packed multi-source traversals
/// of algorithms/msbfs.hpp.
///
/// The bit-identity contract, and how these builders keep it: a batchable
/// job's *cold* body (what runs when no compatible partner survives
/// triage) is its fused body over **one lane** of `multi_source_bfs` /
/// `multi_source_sssp`.  Lane l of a fused wave and a solo run of the same
/// query therefore execute the identical level-synchronous (BFS) or
/// min-lattice (SSSP) fixed-point computation, so per-member results are
/// bit-identical whether the query fused with 63 others or ran alone —
/// differentially verified in tests/test_batch.cpp.
/// (This is also why the payloads are dedicated `*_lanes_result` types
/// rather than `bfs_result`: the single-source `bfs` tracks parents, which
/// are race-dependent, and its `iterations` is batch-wide under fusion —
/// neither belongs in a result that must compare bit-for-bit.)
///
/// Per-member control inside a fused wave: the fused body wraps the
/// wave's contexts in `live_lane_mask`, so a fired deadline/cancel masks
/// the lane out of the traversal at the next superstep and the body
/// returns null for it — the scheduler classifies from the fired record.
///
/// All three builders are one template, `detail::lane_job`: a multi-source
/// traversal plus the lane's payload extractor.
///
/// Usage:
///   auto j = engine.submit_batch(
///       desc, engine::bfs_batch_job<graph_csr>(execution::par, src));

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "algorithms/msbfs.hpp"
#include "engine/batcher.hpp"
#include "engine/engine.hpp"

namespace essentials::engine {

// --- Result payloads -------------------------------------------------------

/// One BFS lane's converged view: hop counts from the member's source
/// (`-1` unreached) and the lane's own convergence depth — both
/// deterministic, identical fused or solo.
template <typename V>
struct bfs_lanes_result {
  std::vector<V> depths;
  V levels{0};  ///< last level at which this lane discovered any vertex
};

/// One SSSP lane's converged view: shortest distances from the member's
/// source (`infinity_v` unreachable) — the deterministic min-lattice fixed
/// point.  (No iteration count: under fusion that is batch-wide and
/// schedule-dependent, so it has no place in a bit-comparable payload.)
template <typename W>
struct sssp_lanes_result {
  std::vector<W> distances;
};

/// Harmonic closeness of one member's source vertex (sum of 1/d over
/// vertices it reaches) — the per-source scalar that closeness/diameter
/// style analytics batch naturally, one lane each.
struct closeness_lane_result {
  double closeness = 0.0;
};

namespace detail {

/// One lane job over source `source`: `traverse(g, sources, lane_mask)`
/// runs the multi-source traversal, `lane_result(r, i)` moves lane i's
/// payload out of its result.  Lanes whose guard fired get no payload (the
/// scheduler retires them `deadline_expired` / `cancelled`, and a
/// truncated payload must never surface or cache).
template <typename GraphT, typename Traverse, typename LaneResult>
batchable_job<GraphT> lane_job(typename GraphT::vertex_type source,
                               Traverse traverse, LaneResult lane_result) {
  using V = typename GraphT::vertex_type;
  auto fused = [traverse, lane_result](GraphT const& g,
                                       std::vector<batch_lane> const& lanes)
      -> fused_outcome {
    std::vector<V> sources;
    std::vector<job_context*> ctxs;
    sources.reserve(lanes.size());
    ctxs.reserve(lanes.size());
    for (auto const& lane : lanes) {
      sources.push_back(*std::static_pointer_cast<V const>(lane.payload));
      ctxs.push_back(lane.ctx);
    }
    auto r = traverse(g, sources, live_lane_mask{ctxs});
    fused_outcome out;
    out.edge_passes = 1;  // one traversal served every lane
    out.results.resize(lanes.size());
    for (std::size_t i = 0; i < lanes.size(); ++i)
      if (ctxs[i]->fired() == job_context::kFiredNone)
        out.results[i] = lane_result(r, i);
    return out;
  };
  auto payload = std::make_shared<V const>(source);
  batchable_job<GraphT> bj;
  bj.cold = [fused, payload](GraphT const& g, job_context& ctx) {
    return fused(g, {batch_lane{payload, &ctx}}).results.front();
  };
  bj.payload = std::move(payload);
  bj.fused = std::move(fused);
  return bj;
}

template <typename V>
double harmonic_from_depths(std::vector<V> const& depths) {
  double acc = 0.0;
  for (auto const d : depths)
    if (d > 0)
      acc += 1.0 / static_cast<double>(d);
  return acc;
}

}  // namespace detail

// --- BFS -------------------------------------------------------------------

template <typename GraphT, typename P>
batchable_job<GraphT> bfs_batch_job(P policy,
                                    typename GraphT::vertex_type source) {
  using V = typename GraphT::vertex_type;
  return detail::lane_job<GraphT>(
      source,
      [policy](GraphT const& g, std::vector<V> const& sources,
               live_lane_mask const& mask) {
        return algorithms::multi_source_bfs(policy, g, sources, mask);
      },
      [](auto& r, std::size_t i) {
        auto out = std::make_shared<bfs_lanes_result<V>>();
        out->depths = std::move(r.depth[i]);
        out->levels = r.lane_levels[i];
        return out;
      });
}

// --- SSSP ------------------------------------------------------------------

template <typename GraphT, typename P>
batchable_job<GraphT> sssp_batch_job(P policy,
                                     typename GraphT::vertex_type source) {
  using V = typename GraphT::vertex_type;
  using W = typename GraphT::weight_type;
  return detail::lane_job<GraphT>(
      source,
      [policy](GraphT const& g, std::vector<V> const& sources,
               live_lane_mask const& mask) {
        return algorithms::multi_source_sssp(policy, g, sources, mask);
      },
      [](auto& r, std::size_t i) {
        auto out = std::make_shared<sssp_lanes_result<W>>();
        out->distances = std::move(r.dist[i]);
        return out;
      });
}

// --- Per-source harmonic closeness -----------------------------------------

/// Closeness of *one* source vertex — the shape closeness/diameter-style
/// analytics submit per vertex, and exactly what the 64 lanes amortize:
/// a burst of per-source closeness queries costs one edge pass per wave.
template <typename GraphT, typename P>
batchable_job<GraphT> closeness_batch_job(
    P policy, typename GraphT::vertex_type source) {
  using V = typename GraphT::vertex_type;
  return detail::lane_job<GraphT>(
      source,
      [policy](GraphT const& g, std::vector<V> const& sources,
               live_lane_mask const& mask) {
        return algorithms::multi_source_bfs(policy, g, sources, mask);
      },
      [](auto& r, std::size_t i) {
        auto out = std::make_shared<closeness_lane_result>();
        out->closeness = detail::harmonic_from_depths(r.depth[i]);
        return out;
      });
}

}  // namespace essentials::engine
