#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

#include "parallel/barrier.hpp"
#include "parallel/work_deque.hpp"

namespace essentials::parallel {

namespace {

/// External (non-worker) lane slots per pool: enough for every live
/// engine runner plus the main thread with headroom.  A slot returns to
/// the pool when its thread exits.  When all are held, run_blocked falls
/// back to injector distribution — correct, just centralized — so this is
/// a performance bound, not a correctness one.
constexpr std::size_t external_lane_slots = 32;

/// Thread-local lane registry: which lane (if any) this thread holds in
/// each pool it has touched, keyed by a process-unique pool id so entries
/// for destroyed pools can never alias a live one.  A handful of entries
/// per thread — linear scan beats any map.
struct lane_key {
  std::uint64_t pool_id;
  std::size_t lane;
  /// External lanes only: the pool's claim flag for `lane`.  Weak, so a
  /// thread that outlives its pool releases nothing of it.
  std::weak_ptr<std::atomic<bool>> claim;
};

struct lane_registry {
  std::vector<lane_key> entries;
  ~lane_registry() {
    // Thread exit: hand every external slot back to its (live) pool.  The
    // release store orders this thread's last use of the lane's deque
    // before the next claimant's acquire CAS.
    for (auto const& entry : entries)
      if (auto const claim = entry.claim.lock())
        claim->store(false, std::memory_order_release);
  }
};

std::vector<lane_key>& tls_lanes() {
  thread_local lane_registry registry;
  return registry.entries;
}

std::uint64_t next_pool_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Per-thread xorshift64 state for randomized victim selection.  Seeded
/// from the thread id; forced odd so the state can never collapse to 0.
std::uint64_t& steal_rng() {
  thread_local std::uint64_t state =
      static_cast<std::uint64_t>(
          std::hash<std::thread::id>{}(std::this_thread::get_id())) |
      1;
  return state;
}

std::size_t next_victim(std::size_t lanes) {
  std::uint64_t& s = steal_rng();
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return static_cast<std::size_t>(s % lanes);
}

}  // namespace

/// One lane: lanes [0, size()) belong to the workers; the rest are
/// claimable by external threads (engine runners, the main thread) so their
/// run_blocked chunks are deque-distributed too.  Tasks are heap-allocated
/// std::functions — the deque stores trivially copyable pointers;
/// ownership transfers to whichever thread dequeues.
struct thread_pool::lane {
  work_deque<std::function<void()>*> deque;
};

thread_pool::thread_pool(std::size_t num_threads)
    : pool_id_(next_pool_id()),
      num_workers_(num_threads == 0 ? 1 : num_threads),
      external_claims_(new std::atomic<bool>[external_lane_slots]{}) {
  lanes_.reserve(num_workers_ + external_lane_slots);
  for (std::size_t i = 0; i < num_workers_ + external_lane_slots; ++i)
    lanes_.push_back(std::make_unique<lane>());
  // Topology packing: worker i runs near cpu_of_worker[i] (advisory unless
  // ESSENTIALS_PIN) and steals from SMT siblings, then its socket, then
  // remote sockets.  With ESSENTIALS_NUMA off the flat topology puts every
  // worker in one tier.  Built before any worker starts, so workers read it
  // without synchronization.
  machine_topology const flat = machine_topology::flat(num_workers_);
  machine_topology const& topo = numa_enabled() ? system_topology() : flat;
  std::vector<int> const cpu_of_worker = assign_workers(topo, num_workers_);
  tiers_.reserve(num_workers_);
  for (std::size_t i = 0; i < num_workers_; ++i)
    tiers_.push_back(tiered_victims(topo, cpu_of_worker, i));
  workers_.reserve(num_workers_);
  for (std::size_t i = 0; i < num_workers_; ++i)
    workers_.emplace_back(
        [this, i, cpu = cpu_of_worker[i]] { worker_loop(i, cpu); });
}

thread_pool::~thread_pool() {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    stopping_ = true;
    ++wake_counter_;
  }
  has_work_.notify_all();
  for (auto& w : workers_)
    w.join();
  // Workers drain every visible task before exiting, and run_blocked never
  // returns with chunks still queued, so lane deques are empty here in any
  // contract-respecting program.  Sweep anyway so a violation leaks tasks,
  // not memory.
  for (auto const& l : lanes_)
    while (auto stranded = l->deque.steal())
      delete *stranded;
}

void thread_pool::submit(std::function<void()> task) {
  pending_.fetch_add(1, std::memory_order_acq_rel);
  std::size_t const self = lane_id();
  if (self != no_lane && self < num_workers_) {
    // Worker origin: own deque, newest-first for the owner, oldest-first
    // for thieves — submission order is preserved across a steal.
    lanes_[self]->deque.push(new std::function<void()>(std::move(task)));
    notify_sleepers(false);
    return;
  }
  // External origin: FIFO injector.
  {
    std::lock_guard<std::mutex> guard(mutex_);
    queue_.push_back(std::move(task));
    queue_size_.store(queue_.size(), std::memory_order_seq_cst);
  }
  notify_sleepers(false);
}

// --- completion plumbing ---------------------------------------------------


void thread_pool::execute(std::function<void()>&& task) {
  busy_.fetch_add(1, std::memory_order_relaxed);
  task();  // user exceptions terminate by design: a lost superstep chunk
           // would otherwise silently corrupt the algorithm's state.
  busy_.fetch_sub(1, std::memory_order_relaxed);
  // Destroy the callable *before* signaling idle: captured state (e.g. a
  // par_nosync telemetry probe, shared_ptr-owned buffers) must be released
  // by the time wait_idle() returns, or callers tearing down that state
  // right after the barrier would race with this destructor.  This is also
  // what makes "every deque empty" insufficient for idleness: a stolen
  // task holds its pending slot until this line has run.
  task = nullptr;
  finish_one();
}

void thread_pool::finish_one() {
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Take the lock before notifying so a wait_idle caller that saw
    // pending != 0 is already parked (or still holds the lock) — without
    // it the notification can fall into the check-then-wait window.
    std::lock_guard<std::mutex> guard(mutex_);
    all_idle_.notify_all();
  }
}

void thread_pool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_idle_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

// --- workers ---------------------------------------------------------------

void thread_pool::worker_loop(std::size_t id, int cpu) {
  tls_lanes().push_back({pool_id_, id, {}});
  if (auto const seed = steal_seed()) {
    // Deterministic victim streams: splitmix64 of (seed, lane) gives each
    // worker a distinct but reproducible sweep, so a torture-suite failure
    // replays with ESSENTIALS_STEAL_SEED=<seed>.
    std::uint64_t z = *seed + 0x9e3779b97f4a7c15ull * (id + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    steal_rng() = z | 1;
  }
  if (pin_enabled())
    pin_thread_to_cpu(cpu);  // failure = performance shrug
  for (;;) {
    if (auto task = find_task(id)) {
      execute(std::move(*task));
      continue;
    }
    // Sleep protocol (store-buffer / Dekker pairing with every producer):
    //   sleeper: sleepers_ += 1 (seq_cst); re-probe all work (seq_cst reads)
    //   producer: publish work (seq_cst store); read sleepers_ (seq_cst)
    // At least one side observes the other, so work published concurrently
    // with this window either shows up in the re-probe or triggers a wake.
    std::unique_lock<std::mutex> lock(mutex_);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    if (visible_work()) {
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      continue;  // lock released; re-run the full find_task sweep
    }
    if (stopping_) {
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      return;  // stopping and nothing visible anywhere: backlog is drained
    }
    std::uint64_t const seen = wake_counter_;
    has_work_.wait(lock,
                   [&] { return wake_counter_ != seen || stopping_; });
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }
}

std::optional<std::function<void()>> thread_pool::find_task(std::size_t self) {
  // 1. Own deque, newest first: fork-join chunks this worker just produced
  //    are the cache-hottest work in the system.
  if (auto ptr = lanes_[self]->deque.pop()) {
    std::unique_ptr<std::function<void()>> owned(*ptr);
    return std::move(*owned);
  }
  // 2. The injector: external fire-and-forget submissions, FIFO.
  if (queue_size_.load(std::memory_order_seq_cst) != 0)
    if (auto task = pop_injector())
      return task;
  // 3. Steal sweep: exhaust same-core SMT siblings, then the same socket,
  //    then remote sockets, then external lanes, randomizing the start
  //    *within* each tier so siblings don't convoy on one victim — a steal
  //    crosses the interconnect only when the whole local socket is dry.
  //    A miss is fine — the sleep path re-probes deterministically.
  auto const try_steal =
      [&](std::size_t victim) -> std::optional<std::function<void()>> {
    if (auto ptr = lanes_[victim]->deque.steal()) {
      std::unique_ptr<std::function<void()>> owned(*ptr);
      return std::move(*owned);
    }
    return std::nullopt;
  };
  auto const& tiers = tiers_[self];
  std::size_t const externals = lanes_.size() - num_workers_;
  for (std::size_t pass = 0; pass < 2; ++pass) {
    std::size_t tier_begin = 0;
    for (std::size_t const tier_end :
         {tiers.smt_end, tiers.package_end, tiers.victims.size()}) {
      std::size_t const count = tier_end - tier_begin;
      if (count != 0) {
        std::size_t const start = next_victim(count);
        for (std::size_t k = 0; k < count; ++k)
          if (auto task =
                  try_steal(tiers.victims[tier_begin + (start + k) % count]))
            return task;
      }
      tier_begin = tier_end;
    }
    std::size_t const start = next_victim(externals);
    for (std::size_t k = 0; k < externals; ++k)
      if (auto task = try_steal(num_workers_ + (start + k) % externals))
        return task;
  }
  return std::nullopt;
}

std::optional<std::function<void()>> thread_pool::pop_injector() {
  std::lock_guard<std::mutex> guard(mutex_);
  if (queue_.empty())
    return std::nullopt;
  std::function<void()> task = std::move(queue_.front());
  queue_.pop_front();
  queue_size_.store(queue_.size(), std::memory_order_seq_cst);
  return task;
}

bool thread_pool::visible_work() const {
  if (queue_size_.load(std::memory_order_seq_cst) != 0)
    return true;
  for (auto const& l : lanes_)
    if (!l->deque.empty_seq_cst())
      return true;
  return false;
}

void thread_pool::notify_sleepers(bool all) {
  // Producer side of the sleep protocol: the work was already published
  // with a seq_cst store (deque bottom or injector size mirror) before this
  // seq_cst read — a sleeper we miss here is one that will see the work.
  if (sleepers_.load(std::memory_order_seq_cst) == 0)
    return;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    ++wake_counter_;
  }
  if (all)
    has_work_.notify_all();
  else
    has_work_.notify_one();
}

std::size_t thread_pool::lane_id() const {
  for (auto const& entry : tls_lanes())
    if (entry.pool_id == pool_id_)
      return entry.lane;
  return no_lane;
}

std::size_t thread_pool::register_external_lane() {
  std::size_t const existing = lane_id();
  if (existing != no_lane)
    return existing;
  for (std::size_t slot = 0; slot < external_lane_slots; ++slot) {
    std::atomic<bool>& flag = external_claims_[slot];
    bool expected = false;
    if (flag.compare_exchange_strong(expected, true,
                                     std::memory_order_acq_rel)) {
      std::size_t const id = num_workers_ + slot;
      // Aliasing pointer: shares ownership of the whole claim array.
      tls_lanes().push_back(
          {pool_id_, id,
           std::shared_ptr<std::atomic<bool>>(external_claims_, &flag)});
      return id;
    }
  }
  return no_lane;  // every slot held by a live thread: injector fallback
}

void thread_pool::run_blocked(
    std::size_t n, std::function<void(std::size_t, std::size_t)> const& fn,
    std::size_t grain) {
  if (n == 0)
    return;
  grain = std::max<std::size_t>(grain, 1);
  std::size_t const step = bulk_step(n, grain);
  std::size_t const chunks = (n + step - 1) / step;
  if (chunks == 1) {
    fn(0, n);
    return;
  }
  std::size_t self = lane_id();
  if (self == no_lane)
    self = register_external_lane();

  // `fn` and `done` are captured by reference: both outlive every chunk
  // because this frame blocks on the latch, and no finisher touches the
  // latch after its count_down (the striped design keeps the final
  // decrement the last access).
  pending_.fetch_add(chunks - 1, std::memory_order_acq_rel);
  completion_latch done(chunks - 1);

  if (self != no_lane) {
    auto& dq = lanes_[self]->deque;
    for (std::size_t c = 1; c < chunks; ++c) {
      std::size_t const begin = c * step;
      std::size_t const end = std::min(n, begin + step);
      dq.push(new std::function<void()>([&fn, &done, begin, end, c] {
        fn(begin, end);
        done.count_down(c - 1);
      }));
    }
    notify_sleepers(true);
    fn(0, std::min(n, step));  // chunk 0 inline: forward progress always
    // Help while the barrier is open: drain our own bottom (our newest
    // chunks — or, when run_blocked nests, the innermost level's chunks
    // first, which is exactly the completion order the nesting needs).
    // An empty pop means the rest were stolen; park on the latch.
    while (!done.done()) {
      auto ptr = dq.pop();
      if (!ptr)
        break;
      std::unique_ptr<std::function<void()>> owned(*ptr);
      execute(std::move(*owned));
    }
    done.wait();
    return;
  }

  // No lane available (external slots exhausted): distribute through the
  // injector.  Correct, just centrally queued — and we still help drain.
  {
    std::lock_guard<std::mutex> guard(mutex_);
    for (std::size_t c = 1; c < chunks; ++c) {
      std::size_t const begin = c * step;
      std::size_t const end = std::min(n, begin + step);
      queue_.emplace_back([&fn, &done, begin, end, c] {
        fn(begin, end);
        done.count_down(c - 1);
      });
    }
    queue_size_.store(queue_.size(), std::memory_order_seq_cst);
  }
  notify_sleepers(true);
  fn(0, std::min(n, step));
  while (!done.done()) {
    auto task = pop_injector();
    if (!task)
      break;
    execute(std::move(*task));
  }
  done.wait();
}

thread_pool& default_pool() {
  static thread_pool pool([] {
    if (char const* env = std::getenv("ESSENTIALS_NUM_THREADS")) {
      int const parsed = std::atoi(env);
      if (parsed > 0)
        return static_cast<std::size_t>(parsed);
    }
    std::size_t hw = std::thread::hardware_concurrency();
    return std::max<std::size_t>(hw, 4);
  }());
  return pool;
}

}  // namespace essentials::parallel
