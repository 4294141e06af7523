#pragma once

/// \file parallel/atomics.hpp
/// \brief Atomic read-modify-write helpers used by vertex programs.
///
/// The paper's SSSP lambda (Listing 4) relies on `atomic::min`, an atomic
/// minimum over a `float` distance array that *returns the previous value*
/// so the caller can decide whether its relaxation won.  The C++ standard
/// has no fetch_min for floating point, so we provide the classic
/// compare-exchange loop, plus integral fast paths and fetch_max / fetch_add
/// counterparts.  All helpers operate on plain arrays through
/// std::atomic_ref, so algorithm state can stay in ordinary std::vectors —
/// exactly how shared-memory frontier data is stored in the paper.

#include <atomic>
#include <concepts>
#include <functional>
#include <type_traits>

namespace essentials::atomic {

/// Atomically stores min(*address, value) under the strict order `less`
/// and returns the value observed at *address immediately before this
/// call's update took effect.  The returned "old" value implements Listing
/// 4's contract: `new_d < atomic::min(...)` is true iff this thread's
/// relaxation improved the distance.  The first read is a relaxed probe,
/// so a value that cannot win costs no read-modify-write.
template <typename T, typename Less = std::less<>>
  requires std::strict_weak_order<Less, T, T>
T min(T* address, T value, Less less = {}) {
  std::atomic_ref<T> ref(*address);
  T observed = ref.load(std::memory_order_relaxed);
  while (less(value, observed)) {
    if (ref.compare_exchange_weak(observed, value, std::memory_order_acq_rel,
                                  std::memory_order_relaxed))
      return observed;  // we won; `observed` is the pre-update value
  }
  return observed;  // someone else holds an equal-or-smaller value
}

/// Atomically stores max(*address, value); returns the pre-update value.
template <typename T>
  requires std::totally_ordered<T>
T max(T* address, T value) {
  std::atomic_ref<T> ref(*address);
  T observed = ref.load(std::memory_order_relaxed);
  while (observed < value) {
    if (ref.compare_exchange_weak(observed, value, std::memory_order_acq_rel,
                                  std::memory_order_relaxed))
      return observed;
  }
  return observed;
}

/// Atomic fetch-add working for both integral and floating-point T.
template <typename T>
T add(T* address, T value) {
  std::atomic_ref<T> ref(*address);
  if constexpr (std::is_integral_v<T>) {
    return ref.fetch_add(value, std::memory_order_acq_rel);
  } else {
    T observed = ref.load(std::memory_order_relaxed);
    while (!ref.compare_exchange_weak(observed, observed + value,
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
    }
    return observed;
  }
}

/// Atomic compare-and-swap; returns the pre-update value (CAS succeeded iff
/// the return value equals `expected`).  Used by hook-based connected
/// components and by claim-style filters ("first thread to see this vertex
/// wins").
template <typename T>
T cas(T* address, T expected, T desired) {
  std::atomic_ref<T> ref(*address);
  ref.compare_exchange_strong(expected, desired, std::memory_order_acq_rel,
                              std::memory_order_relaxed);
  return expected;  // compare_exchange writes the observed value on failure
}

/// Atomic exchange; returns the pre-update value.
template <typename T>
T exchange(T* address, T desired) {
  std::atomic_ref<T> ref(*address);
  return ref.exchange(desired, std::memory_order_acq_rel);
}

/// Acquire load through a plain pointer (for monitoring loops).
template <typename T>
T load(T const* address) {
  return std::atomic_ref<T const>(*address).load(std::memory_order_acquire);
}

/// Relaxed load through a plain pointer: a value other lanes may be
/// lowering, read when nothing else is published with it (a pull fold's
/// sources, a push step's source snapshot).
template <typename T>
T load_relaxed(T const* address) {
  return std::atomic_ref<T const>(*address).load(std::memory_order_relaxed);
}

/// Release store through a plain pointer.
template <typename T>
void store(T* address, T value) {
  std::atomic_ref<T>(*address).store(value, std::memory_order_release);
}

}  // namespace essentials::atomic
