#pragma once

/// \file engine/batcher.hpp
/// \brief Request batching: the type-erased contract that lets the
/// scheduler fuse compatible queued jobs into one lane-packed enactment.
///
/// The serving-stack observation (same one inference batching exploits): N
/// queued traversals over the same `(graph, epoch)` pay N full passes over
/// the edge list, yet the paper's §III-B frontier abstraction already
/// admits a *vector-of-bitmask* representation (algorithms/msbfs.hpp) that
/// advances up to 64 searches per edge pass.  Batching is therefore not a
/// new algorithm but a new *enactment shape* for an existing one — the
/// scheduler only needs a way to (a) recognize compatible jobs at dequeue
/// time and (b) hand them to a fused body that demuxes per-member results.
///
/// This header defines that contract:
///
///  - `batch_spec` — attached to a job at submission when the query is
///    *batchable*.  Carries the compatibility `key` (graph ␟ epoch ␟
///    algorithm — jobs fuse only when the whole tuple matches, so a batch
///    can never straddle an epoch publish: the fused closure pins one
///    snapshot), the member's lane `payload` (e.g. its source vertex) and
///    `fused`, the shared enactment bound by the engine facade.  The cache
///    probe and insert are not part of it: the scheduler runs them for
///    every cacheable job, fused or not.
///  - `batch_lane` / `fused_outcome` — the fused body's in/out shapes: one
///    lane per live member, each with its *own* `job_context`, results
///    demuxed positionally (null for lanes whose guard fired).
///  - `live_lane_mask` — adapts a wave's contexts to the per-superstep
///    `lane_mask` callable of `multi_source_bfs` / `multi_source_sssp`: a
///    member whose deadline or cancel token fires is masked out of the
///    traversal and the batch keeps converging for everyone else.
///
/// The fusion window itself (collect-by-key at dequeue, waves of at most
/// 64 lanes, per-member classification) is a step of the scheduler's one
/// run sequence (engine/scheduler.cpp); the lane jobs live in
/// engine/batch_jobs.hpp.  A query submitted without a spec (plain
/// `submit`) always enacts alone.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/scheduler.hpp"

namespace essentials::engine {

/// One live member of a fused wave, as seen by the fused body.
struct batch_lane {
  /// The member's lane input (engine-bound; e.g. a `vertex_t` source).
  std::shared_ptr<void const> payload;
  /// The member's own stop machinery — deadlines and cancellation stay
  /// *per-member* inside the fused enactment (see `live_lane_mask`).
  job_context* ctx = nullptr;
};

/// What a fused body returns: positionally demuxed per-lane results (null
/// for lanes whose guard fired mid-batch — those members retire
/// `deadline_expired` / `cancelled` and are never cached) plus the number
/// of full edge-list traversals actually performed, so the scheduler can
/// account `edge_passes_saved = members - edge_passes` per wave.
struct fused_outcome {
  std::vector<std::shared_ptr<void const>> results;
  std::size_t edge_passes = 1;
};

/// The shared enactment: runs once for a wave of 2 to 64 members.
using fused_fn = std::function<fused_outcome(std::vector<batch_lane> const&)>;

/// Compatibility key for the fusion window.  U+001F separators keep graph
/// names containing digits from colliding with the epoch field.
inline std::string make_batch_key(std::string const& graph,
                                  std::uint64_t epoch,
                                  std::string const& algorithm) {
  return graph + '\x1f' + std::to_string(epoch) + '\x1f' + algorithm;
}

/// Attached to a job at submission to mark it batchable.  Every member of
/// a wave carries its own spec (own payload); the wave is enacted through
/// the *first* member's `fused` — sound because key equality pins the same
/// graph snapshot content and algorithm.
struct batch_spec {
  /// Fusion compatibility: jobs coalesce iff keys are equal.
  std::string key;

  /// This member's lane input, handed to the fused body positionally.
  std::shared_ptr<void const> payload;

  /// The shared lane-packed enactment (pins its graph snapshot by value).
  fused_fn fused;
};

/// Adapts a wave's member contexts to the `lane_mask(superstep)` shape
/// consumed by `multi_source_bfs` / `multi_source_sssp`: re-evaluates every
/// member's guards at each superstep, so a deadline or cancellation fires
/// *during* the batch masks that lane out of the traversal without
/// aborting anyone else.  `should_stop()` also records which guard fired,
/// which is exactly what the scheduler's post-enactment classification
/// reads — masking and classification can never disagree.
class live_lane_mask {
 public:
  explicit live_lane_mask(std::vector<job_context*> ctxs)
      : ctxs_(std::move(ctxs)) {}

  std::uint64_t operator()(std::size_t /*superstep*/) const {
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < ctxs_.size(); ++i)
      if (ctxs_[i] == nullptr || !ctxs_[i]->should_stop())
        mask |= std::uint64_t{1} << i;
    return mask;
  }

 private:
  std::vector<job_context*> ctxs_;
};

}  // namespace essentials::engine
