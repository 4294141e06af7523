#pragma once

/// \file parallel/barrier.hpp
/// \brief The striped countdown latch behind bulk (fork-join) completion.
///
/// `completion_latch` is the completion structure of
/// `thread_pool::run_blocked`, replacing a flat `std::latch` — a single
/// atomic every lane hammers — with counters spread across cache lines and
/// combined in two levels.  `reset(count)` arms it for `count`
/// completions; `count_down(index)` retires completion `index`.
/// Internally the count is striped over up to 8 cache-line-padded counters
/// by `index % stripes`: work-stealing means *any* lane may retire any
/// chunk, so stripes are keyed by the chunk id (whose distribution is known
/// at reset time), not by the finishing thread.  A stripe reaching zero
/// retires one arrival at the root — no single line written by every
/// chunk.  Reusable: one stack object serves every superstep of an
/// enactment.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>

namespace essentials::parallel {

namespace detail {
/// Short adaptive spin before parking: cheap when the awaited completion is
/// nanoseconds away, harmless (one yield loop) when it is not.  Kept small
/// because CI containers may have fewer cores than lanes.
inline constexpr int barrier_spin_iterations = 128;
}  // namespace detail

class completion_latch {
 public:
  static constexpr std::size_t max_stripes = 8;

  completion_latch() = default;
  explicit completion_latch(std::size_t count) { reset(count); }

  completion_latch(completion_latch const&) = delete;
  completion_latch& operator=(completion_latch const&) = delete;

  /// Arm for `count` completions with indices [0, count).  Index i retires
  /// on stripe i % S where S = min(max_stripes, count), so stripe quotas
  /// are exact by construction.  Must not race count_down/wait — the
  /// owner arms the latch *before* distributing the work that counts it
  /// down, which is the only ordering run_blocked needs.
  void reset(std::size_t count) {
    stripes_used_ =
        count < max_stripes ? (count == 0 ? 1 : count) : max_stripes;
    std::size_t open = 0;
    for (std::size_t s = 0; s < max_stripes; ++s) {
      std::size_t const quota =
          s < stripes_used_
              ? count / stripes_used_ + (s < count % stripes_used_ ? 1 : 0)
              : 0;
      stripes_[s].remaining.store(static_cast<std::int64_t>(quota),
                                  std::memory_order_relaxed);
      open += quota != 0;
    }
    open_stripes_.store(static_cast<std::int64_t>(open),
                        std::memory_order_release);
  }

  /// Retire completion `index` (any thread; once per index per arming).
  void count_down(std::size_t index) {
    stripe& s = stripes_[index % stripes_used_];
    if (s.remaining.fetch_sub(1, std::memory_order_acq_rel) != 1)
      return;
    if (open_stripes_.fetch_sub(1, std::memory_order_acq_rel) == 1)
      open_stripes_.notify_all();
  }

  /// True once every armed completion retired (or the latch was armed with
  /// zero).  Acquire: a true result orders after every count_down.
  bool done() const noexcept {
    return open_stripes_.load(std::memory_order_acquire) <= 0;
  }

  /// Block until done: brief spin (chunks usually finish within the
  /// caller's own drain loop), then futex park.
  void wait() const {
    for (int spin = 0; spin < detail::barrier_spin_iterations; ++spin) {
      if (done())
        return;
      std::this_thread::yield();
    }
    std::int64_t observed;
    while ((observed = open_stripes_.load(std::memory_order_acquire)) > 0)
      open_stripes_.wait(observed, std::memory_order_acquire);
  }

 private:
  struct alignas(64) stripe {
    std::atomic<std::int64_t> remaining{0};
  };
  stripe stripes_[max_stripes];
  std::size_t stripes_used_ = 1;
  alignas(64) std::atomic<std::int64_t> open_stripes_{0};
};

}  // namespace essentials::parallel
