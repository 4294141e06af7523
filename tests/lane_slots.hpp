#pragma once

// Test helper: force a thread pool's injector route.  A thread that holds
// no lane in a pool runs `run_blocked` through its lane deque only if it
// can claim one of the pool's external lane slots; with every slot held by
// another live thread, its chunks go through the locked FIFO injector
// instead.  Differential tests run the same work both ways and compare.

#include <atomic>
#include <cstddef>
#include <latch>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace essentials::test_support {

/// Holds every external lane slot of `pool` on parked threads for its
/// lifetime.  Construct it before the thread under test first touches the
/// pool; the slots return to the pool when the holders exit.
class external_lanes_held {
 public:
  explicit external_lanes_held(parallel::thread_pool& pool)
      : claimed_(static_cast<std::ptrdiff_t>(pool.max_lanes() - pool.size())) {
    std::size_t const slots = pool.max_lanes() - pool.size();
    for (std::size_t i = 0; i < slots; ++i)
      holders_.emplace_back([this, &pool] {
        pool.register_external_lane();
        claimed_.count_down();
        release_.wait(false);
      });
    claimed_.wait();
  }

  ~external_lanes_held() {
    release_.store(true);
    release_.notify_all();
    for (auto& t : holders_)
      t.join();
  }

  external_lanes_held(external_lanes_held const&) = delete;
  external_lanes_held& operator=(external_lanes_held const&) = delete;

 private:
  std::latch claimed_;
  std::atomic<bool> release_{false};
  std::vector<std::thread> holders_;
};

}  // namespace essentials::test_support
