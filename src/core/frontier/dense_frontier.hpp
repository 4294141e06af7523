#pragma once

/// \file core/frontier/dense_frontier.hpp
/// \brief Dense frontier: the active set as a bitmap over all ids —
/// paper §III-B: "a dense frontier can be represented as a boolean array,
/// where each element is true only if the corresponding vertex or edge is
/// active."
///
/// O(1) concurrent activation and membership, O(|V|/64) iteration — the
/// winning representation when the frontier is a large fraction of the
/// graph (and the natural input to pull traversals, which ask "is my
/// neighbor active?").

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "parallel/atomic_bitset.hpp"

namespace essentials::frontier {

template <typename T = vertex_t>
class dense_frontier {
 public:
  using value_type = T;
  static constexpr frontier_kind kind = frontier_kind::vertex_frontier;

  dense_frontier() = default;

  /// A bitmap over the id universe [0, universe).  All inactive initially.
  explicit dense_frontier(std::size_t universe) : bits_(universe) {}

  /// Pool-aware construction: the bitmap is zeroed page-parallel so its
  /// pages are first-touched by the pool's workers (NUMA placement matches
  /// the operators that will activate vertices), not by the constructing
  /// thread.  Bit-identical to the serial constructor.
  dense_frontier(parallel::thread_pool& pool, std::size_t universe) {
    bits_.resize_and_clear(pool, universe);
  }

  /// Number of active elements (popcount scan).
  std::size_t size() const { return bits_.count(); }

  bool empty() const { return size() == 0; }

  /// Id universe (bitmap width), NOT the active count.
  std::size_t universe() const noexcept { return bits_.size(); }

  void clear() { bits_.clear(); }

  void resize_universe(std::size_t universe) {
    bits_.resize_and_clear(universe);
  }

  /// Pool-aware resize: same bits, page-parallel zero-fill (first-touch
  /// placement by the workers that will write the bitmap).
  void resize_universe(parallel::thread_pool& pool, std::size_t universe) {
    bits_.resize_and_clear(pool, universe);
  }

  /// Thread-safe activation; keeps the Listing 2 spelling.
  void add_vertex(T v) { bits_.set(static_cast<std::size_t>(v)); }

  /// Activation that reports whether this caller was first — the primitive
  /// a BFS filter uses to deduplicate for free.
  bool try_add_vertex(T v) {
    return bits_.test_and_set(static_cast<std::size_t>(v));
  }

  /// Activate the ids of word `wi` whose bit `bits` has set, in one atomic
  /// OR — how a pull step publishes the 64 vertices it owns.
  void add_word(std::size_t wi, std::uint64_t bits) {
    bits_.set_word_bits(wi, bits);
  }

  void remove_vertex(T v) { bits_.reset(static_cast<std::size_t>(v)); }

  /// O(1) membership — the query pull traversals hammer.
  bool contains(T v) const { return bits_.test(static_cast<std::size_t>(v)); }

  /// Serial iteration over active ids in increasing order.
  template <typename F>
  void for_each_active(F&& fn) const {
    bits_.for_each_set([&fn](std::size_t i) { fn(static_cast<T>(i)); });
  }

  /// Materialize the active set as a sorted vector.
  std::vector<T> to_vector() const {
    std::vector<T> out;
    out.reserve(size());
    for_each_active([&out](T v) { out.push_back(v); });
    return out;
  }

  /// Word-level access for chunk-parallel iteration by operators.
  parallel::atomic_bitset const& bits() const noexcept { return bits_; }

 private:
  parallel::atomic_bitset bits_;
};

}  // namespace essentials::frontier
