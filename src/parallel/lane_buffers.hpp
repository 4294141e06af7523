#pragma once

/// \file parallel/lane_buffers.hpp
/// \brief Cache-line-padded per-lane output buffers — the scratch structure
/// behind lock-free (scan-compacted) frontier generation.
///
/// The pattern: a bulk-parallel producer phase gives every work chunk its
/// own `lane` to emit into (no sharing, no locks, no atomics), then a
/// compaction phase exclusive-scans the lane sizes and copies each lane
/// into its disjoint slice of one flat output array.  This is the
/// Ligra/Gunrock frontier-generation recipe, specialized for the thread
/// pool's deterministic chunking: with chunk index `lo / step` as the lane
/// index, the compacted output order is *deterministic* for fixed
/// (n, grain, pool size) — unlike lock-published buffers, whose order
/// depends on lock acquisition races.
///
/// Lanes are aligned to the destructive-interference size so two lanes'
/// control fields (size, capacity) never share a cache line — concurrent
/// `push_back`s on neighboring lanes must not false-share.
///
/// Reuse contract: `acquire(k)` readies `k` lanes for a new round,
/// *clearing element counts but keeping heap capacity*, so steady-state
/// supersteps allocate nothing.  The structure itself is not thread-safe:
/// one coordinating thread calls `acquire`/`counts`/…, worker lanes touch
/// only their own `operator[](lane)` between those calls.

#include <cstddef>
#include <vector>

#include "parallel/first_touch.hpp"

namespace essentials::parallel {

/// Destructive-interference granularity.  A constant 64 rather than
/// std::hardware_destructive_interference_size: the latter is an ABI
/// hazard (GCC warns when it leaks into headers) and 64 is correct for
/// every deployment target (x86-64, mainstream AArch64).
inline constexpr std::size_t cache_line_size = 64;

template <typename T>
class lane_buffers {
 public:
  /// One producer lane: a private output vector, padded so adjacent lanes
  /// never share a cache line.
  ///
  /// The buffer is a `numa_vector`: growth claims address space without
  /// value-initializing, so pages are first touched by the lane's *owner*
  /// pushing emissions — placing each lane's backing store on its worker's
  /// NUMA node (the first-touch contract of parallel/first_touch.hpp).
  /// With the deterministic chunk→lane map, the worker that emits into a
  /// lane this superstep is the likeliest to emit into it next superstep,
  /// so warm capacity stays node-local across rounds.
  struct alignas(cache_line_size) lane_t {
    numa_vector<T> buf;
  };

  lane_buffers() = default;

  /// Ready `k` lanes for a new production round.  Element counts reset;
  /// heap capacity is kept (the whole point of the scratch).  Returns true
  /// when the round reuses warm capacity from a previous round — the
  /// telemetry "scratch reuse" signal.
  bool acquire(std::size_t k) {
    bool const reused = rounds_ > 0 && lanes_.size() >= k;
    if (lanes_.size() < k)
      lanes_.resize(k);
    for (auto& l : lanes_)
      l.buf.clear();
    ++rounds_;
    return reused;
  }

  std::size_t num_lanes() const noexcept { return lanes_.size(); }
  std::size_t rounds() const noexcept { return rounds_; }

  lane_t& operator[](std::size_t i) { return lanes_[i]; }
  lane_t const& operator[](std::size_t i) const { return lanes_[i]; }

  /// Sum of lane element counts (coordinator-only, between rounds).
  std::size_t total() const noexcept {
    std::size_t n = 0;
    for (auto const& l : lanes_)
      n += l.buf.size();
    return n;
  }

  /// Lane sizes of the first `k` lanes, written into `out[0..k)` — the
  /// input of the compaction prefix sum.
  void sizes(std::size_t k, std::size_t* out) const {
    for (std::size_t i = 0; i < k; ++i)
      out[i] = lanes_[i].buf.size();
  }

  /// Drop all lanes and their capacity (e.g. after a huge superstep, to
  /// return memory).
  void release() {
    lanes_.clear();
    lanes_.shrink_to_fit();
  }

 private:
  std::vector<lane_t> lanes_;
  std::size_t rounds_ = 0;
};

}  // namespace essentials::parallel
