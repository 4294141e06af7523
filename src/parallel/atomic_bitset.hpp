#pragma once

/// \file parallel/atomic_bitset.hpp
/// \brief A fixed-size concurrent bitmap.
///
/// This is the storage behind the paper's *dense frontier* representation
/// (§III-B: "a dense frontier can be represented as a boolean array").  A
/// dense frontier is written concurrently by every lane of an advance
/// operator, so the bits must be set atomically; `test_and_set` also gives
/// filters a linearizable "first visitor wins" primitive for free.
///
/// Storage is a `numa_vector` of 64-bit words accessed through
/// std::atomic_ref, which keeps the container copyable/resizable while the
/// mutating operations stay atomic.  The pool-aware `resize_and_clear`
/// overload zeroes the words page-parallel through the pool's deterministic
/// chunking, so a big bitmap's pages are first-touched — and therefore
/// NUMA-placed — by the workers that will hammer them, instead of all
/// landing on the constructing thread's node.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "parallel/first_touch.hpp"

namespace essentials::parallel {

class atomic_bitset {
 public:
  atomic_bitset() = default;

  /// All bits start cleared.
  explicit atomic_bitset(std::size_t num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {}

  std::size_t size() const noexcept { return num_bits_; }

  /// Grow/shrink to `num_bits`; clears every bit (serial touch).
  void resize_and_clear(std::size_t num_bits) {
    num_bits_ = num_bits;
    words_.assign((num_bits + 63) / 64, 0);
  }

  /// Pool-aware variant: identical bits, but the zero-fill runs
  /// page-parallel on the pool (when NUMA placement is on and the bitmap is
  /// big enough to matter), so pages land on the nodes of the workers that
  /// will write them.  Callers must not race this with concurrent
  /// readers/writers — same contract as the serial overload.
  void resize_and_clear(thread_pool& pool, std::size_t num_bits) {
    num_bits_ = num_bits;
    std::size_t const num_words = (num_bits + 63) / 64;
    words_.clear();
    words_.resize(num_words);  // default-init: no page touch yet
    first_touch_fill(pool, words_.data(), num_words, std::uint64_t{0});
  }

  /// Clear all bits.  Not atomic as a whole — callers clear between
  /// supersteps, when no concurrent writers exist.
  void clear() {
    for (auto& w : words_)
      std::atomic_ref<std::uint64_t>(w).store(0, std::memory_order_relaxed);
  }

  /// Atomically set bit i.
  void set(std::size_t i) {
    std::atomic_ref<std::uint64_t>(word(i)).fetch_or(
        mask(i), std::memory_order_acq_rel);
  }

  /// Atomically set every bit of word `wi` that `bits` has set (ids
  /// wi*64 .. wi*64+63) — one read-modify-write for up to 64 ids.
  void set_word_bits(std::size_t wi, std::uint64_t bits) {
    std::atomic_ref<std::uint64_t>(words_[wi]).fetch_or(
        bits, std::memory_order_acq_rel);
  }

  /// Atomically clear bit i.
  void reset(std::size_t i) {
    std::atomic_ref<std::uint64_t>(word(i)).fetch_and(
        ~mask(i), std::memory_order_acq_rel);
  }

  /// Atomically set bit i; returns true iff the bit was previously clear
  /// (i.e. the caller "claimed" it).
  bool test_and_set(std::size_t i) {
    std::uint64_t const prev = std::atomic_ref<std::uint64_t>(word(i)).fetch_or(
        mask(i), std::memory_order_acq_rel);
    return (prev & mask(i)) == 0;
  }

  bool test(std::size_t i) const {
    return (std::atomic_ref<std::uint64_t const>(word(i)).load(
                std::memory_order_acquire) &
            mask(i)) != 0;
  }

  /// Population count (serial scan over words).
  std::size_t count() const {
    std::size_t total = 0;
    for (std::size_t wi = 0; wi < words_.size(); ++wi)
      total += static_cast<std::size_t>(__builtin_popcountll(load_word(wi)));
    return total;
  }

  /// Invoke fn(i) for every set bit, in increasing order (serial).
  template <typename F>
  void for_each_set(F&& fn) const {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      std::uint64_t bits = load_word(wi);
      while (bits != 0) {
        unsigned const b = static_cast<unsigned>(__builtin_ctzll(bits));
        fn(wi * 64 + b);
        bits &= bits - 1;
      }
    }
  }

  /// Direct word access for chunked parallel iteration.
  std::size_t num_words() const noexcept { return words_.size(); }
  std::uint64_t load_word(std::size_t wi) const {
    return std::atomic_ref<std::uint64_t const>(words_[wi])
        .load(std::memory_order_acquire);
  }

 private:
  std::uint64_t& word(std::size_t i) {
    expects(i < num_bits_, "atomic_bitset: index out of range");
    return words_[i >> 6];
  }
  std::uint64_t const& word(std::size_t i) const {
    expects(i < num_bits_, "atomic_bitset: index out of range");
    return words_[i >> 6];
  }
  static constexpr std::uint64_t mask(std::size_t i) {
    return std::uint64_t{1} << (i & 63);
  }

  std::size_t num_bits_ = 0;
  numa_vector<std::uint64_t> words_;
};

}  // namespace essentials::parallel
