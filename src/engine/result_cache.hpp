#pragma once

/// \file engine/result_cache.hpp
/// \brief Memoization layer for analytics queries: an LRU cache keyed by
/// (graph name, epoch, algorithm id, canonicalized params).
///
/// The serving observation behind it: analytics traffic is heavily skewed —
/// SSSP from a hot source, PPR from the same seed set, BFS from a landing
/// page — so identical (graph, epoch, algo, params) queries recur within an
/// epoch.  Because every enactment in this framework is deterministic for a
/// fixed graph snapshot (see docs/ARCHITECTURE.md, "Determinism policy"),
/// a cached result is *bit-identical* to a re-enactment, and serving it is
/// pure win.
///
/// Epoch correctness: the epoch is part of the key, so a query against a
/// newly published epoch can never match a stale entry even if invalidation
/// raced with the lookup.
///
/// Warm-startable demotion (PR 4): `invalidate_graph(name)` no longer
/// blanket-evicts.  For each distinct query identity (graph, algorithm,
/// params) it *demotes* the newest-epoch entry to "warm": still exactly
/// addressable under its old-epoch key (in-flight jobs pinned to the old
/// snapshot keep hitting it), and additionally discoverable through
/// `lookup_warm()` by a newer-epoch query that wants to seed an incremental
/// enactment from the stale converged result (algorithms/incremental.hpp).
/// Older duplicates of the same identity are evicted as before.  At most
/// one warm entry exists per identity; a fresh insert at a newer epoch
/// supersedes (evicts) the warm entry it was presumably seeded from.
///
/// Values are type-erased (`shared_ptr<void const>`): the engine serves
/// heterogeneous result types (bfs_result, sssp_result, ppr_result...) out
/// of one cache; the typed accessor lives on the job handle
/// (`job::result_as<R>()`), where the caller knows which algorithm it
/// asked for.  shared_ptr ownership means an entry can be evicted while a
/// client still holds the result — eviction frees the *slot*, never the
/// data under a reader.
///
/// Concurrency: one mutex around map + LRU list.  Lookups and inserts are
/// O(1) map operations plus a list splice; the critical section never runs
/// user code and never allocates proportionally to the value.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "engine/stats.hpp"

namespace essentials::engine {

/// Cache key: the full identity of a deterministic analytics query.
struct cache_key {
  std::string graph;      ///< registry name
  std::uint64_t epoch = 0;  ///< registry epoch the query ran against
  std::string algorithm;  ///< algorithm id ("sssp", "bfs", ...)
  std::string params;     ///< canonicalized parameters ("src=42")

  bool operator==(cache_key const&) const = default;
};

/// The epoch-independent part of a cache key: what `lookup_warm` matches
/// on.  Two keys with equal identity describe the same query against
/// different snapshots of the same graph.
struct cache_identity {
  std::string graph;
  std::string algorithm;
  std::string params;

  bool operator==(cache_identity const&) const = default;
};

inline cache_identity identity_of(cache_key const& k) {
  return {k.graph, k.algorithm, k.params};
}

struct cache_identity_hash {
  std::size_t operator()(cache_identity const& k) const noexcept {
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](char const* data, std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 1099511628211ull;
      }
    };
    mix(k.graph.data(), k.graph.size());
    mix("\x1f", 1);
    mix(k.algorithm.data(), k.algorithm.size());
    mix("\x1f", 1);
    mix(k.params.data(), k.params.size());
    return static_cast<std::size_t>(h);
  }
};

struct cache_key_hash {
  std::size_t operator()(cache_key const& k) const noexcept {
    // FNV-1a over the textual identity; epoch mixed in as bytes.
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](char const* data, std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 1099511628211ull;
      }
    };
    mix(k.graph.data(), k.graph.size());
    mix("\x1f", 1);
    mix(reinterpret_cast<char const*>(&k.epoch), sizeof(k.epoch));
    mix(k.algorithm.data(), k.algorithm.size());
    mix("\x1f", 1);
    mix(k.params.data(), k.params.size());
    return static_cast<std::size_t>(h);
  }
};

/// What `invalidate_graph` did on an epoch publish.
struct invalidation_counts {
  std::size_t evicted = 0;  ///< entries dropped outright
  std::size_t demoted = 0;  ///< entries kept as warm-start seeds
  std::size_t total() const { return evicted + demoted; }
};

/// A warm probe result: the stale converged value plus the epoch it was
/// computed against (the warm-start source epoch for `delta_since`).
struct warm_hit {
  std::shared_ptr<void const> value;
  std::uint64_t epoch = 0;
  explicit operator bool() const { return static_cast<bool>(value); }
};

class result_cache {
 public:
  /// `capacity` bounds the number of entries (LRU eviction past it);
  /// `stats`, when provided, receives hit/miss/eviction/invalidation
  /// counts.  capacity == 0 disables caching (every probe misses).
  explicit result_cache(std::size_t capacity, engine_stats* stats = nullptr)
      : capacity_(capacity), stats_(stats) {}

  result_cache(result_cache const&) = delete;
  result_cache& operator=(result_cache const&) = delete;

  /// O(1) probe; promotes the entry to most-recently-used on hit.  Counts
  /// the hit, and the miss unless `count_miss` is false: a caller that
  /// probes a request again before deciding to enact it leaves the miss to
  /// that deciding probe, so `cache_misses` counts requests, not probes.
  std::shared_ptr<void const> lookup(cache_key const& key,
                                     bool count_miss = true) {
    std::lock_guard<std::mutex> guard(mutex_);
    auto const it = map_.find(key);
    if (it == map_.end()) {
      if (stats_ && count_miss)
        stats_->on_cache_miss();
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);  // move to front
    if (stats_)
      stats_->on_cache_hit();
    return it->second->value;
  }

  /// Insert (or refresh) an entry; evicts the least-recently-used entry
  /// when past capacity.  Null values are not cached.  A fresh insert
  /// supersedes (evicts) any warm entry of the same identity at an older
  /// epoch — the warm seed has served its purpose.
  void insert(cache_key key, std::shared_ptr<void const> value) {
    if (!value || capacity_ == 0)
      return;
    std::lock_guard<std::mutex> guard(mutex_);
    auto const it = map_.find(key);
    if (it != map_.end()) {
      it->second->value = std::move(value);
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    auto const wit = warm_.find(identity_of(key));
    if (wit != warm_.end() && wit->second->key.epoch < key.epoch)
      erase_entry(wit->second);
    lru_.push_front(entry{key, std::move(value), /*warm=*/false});
    map_.emplace(std::move(key), lru_.begin());
    while (map_.size() > capacity_)
      evict_lru();
  }

  /// Probe for a warm-start seed: the demoted (stale-epoch) entry of the
  /// same identity as `key` but an *older* epoch.  The caller pairs the
  /// returned epoch with `delta_since`/`delta_between` to decide whether an
  /// incremental enactment is possible.  Does not touch hit/miss counters —
  /// a warm probe is an optimization attempt, not a serve.
  warm_hit lookup_warm(cache_key const& key) {
    std::lock_guard<std::mutex> guard(mutex_);
    auto const wit = warm_.find(identity_of(key));
    if (wit == warm_.end())
      return {};
    auto const lit = wit->second;
    if (lit->key.epoch >= key.epoch)
      return {};  // not actually older — nothing to warm from
    lru_.splice(lru_.begin(), lru_, lit);  // keep the seed hot in the LRU
    return {lit->value, lit->key.epoch};
  }

  /// Epoch-publish hook: for each query identity of `graph`, *demote* the
  /// newest-epoch entry to a warm-start seed and evict the rest.  Demoted
  /// entries stay exactly addressable under their old-epoch key (in-flight
  /// jobs pinned to the old snapshot still hit) and become discoverable via
  /// `lookup_warm`.  Entries of other graphs survive untouched.
  invalidation_counts invalidate_graph(std::string const& graph) {
    std::lock_guard<std::mutex> guard(mutex_);
    invalidation_counts counts;
    // Pass 1: pick the newest-epoch survivor per identity.
    std::unordered_map<cache_identity, std::list<entry>::iterator,
                       cache_identity_hash>
        newest;
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if (it->key.graph != graph)
        continue;
      auto const [nit, inserted] = newest.try_emplace(identity_of(it->key), it);
      if (!inserted && it->key.epoch > nit->second->key.epoch)
        nit->second = it;
    }
    // Pass 2: demote survivors, evict the rest.
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (it->key.graph != graph) {
        ++it;
        continue;
      }
      auto const nit = newest.find(identity_of(it->key));
      if (nit != newest.end() && nit->second == it) {
        if (!it->warm)
          ++counts.demoted;  // re-demoting an already-warm entry is a no-op
        it->warm = true;
        warm_[nit->first] = it;
        ++it;
      } else {
        ++counts.evicted;
        it = erase_entry(it);
      }
    }
    if (stats_) {
      if (counts.total())
        stats_->on_cache_invalidation(counts.total());
      if (counts.demoted)
        stats_->on_cache_demotion(counts.demoted);
    }
    return counts;
  }

  /// Drop everything (warm seeds included).
  void clear() {
    std::lock_guard<std::mutex> guard(mutex_);
    map_.clear();
    warm_.clear();
    lru_.clear();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return map_.size();
  }

  std::size_t capacity() const { return capacity_; }

  /// Number of warm (demoted) entries currently held.
  std::size_t warm_size() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return warm_.size();
  }

 private:
  struct entry {
    cache_key key;
    std::shared_ptr<void const> value;
    bool warm = false;  ///< demoted: serves lookup_warm, not fresh lookups
  };

  /// Erase one entry from all three structures; returns the next iterator.
  std::list<entry>::iterator erase_entry(std::list<entry>::iterator it) {
    if (it->warm) {
      auto const wit = warm_.find(identity_of(it->key));
      if (wit != warm_.end() && wit->second == it)
        warm_.erase(wit);
    }
    map_.erase(it->key);
    return lru_.erase(it);
  }

  void evict_lru() {
    auto it = std::prev(lru_.end());
    erase_entry(it);
    if (stats_)
      stats_->on_cache_eviction();
  }

  std::size_t capacity_;
  engine_stats* stats_;
  mutable std::mutex mutex_;
  std::list<entry> lru_;  // front == most recently used
  std::unordered_map<cache_key, std::list<entry>::iterator, cache_key_hash>
      map_;
  /// identity → the (single) warm entry for that identity.
  std::unordered_map<cache_identity, std::list<entry>::iterator,
                     cache_identity_hash>
      warm_;
};

}  // namespace essentials::engine
