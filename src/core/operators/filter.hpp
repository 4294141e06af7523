#pragma once

/// \file core/operators/filter.hpp
/// \brief Frontier contraction operators: `filter` keeps the elements that
/// satisfy a predicate, `uniquify` removes duplicates.
///
/// Advance expands, filter contracts — together they are the paper's
/// "traversals or transformations on the frontiers".  A push advance over a
/// graph with shared neighbors emits duplicates; BFS/SSSP pipelines
/// typically run `advance → uniquify` or fold the dedupe into the condition
/// via a claim bitmap.  All overloads are policy-disambiguated like advance.
///
/// Parallel sparse outputs are published by the scan generator
/// (core/frontier/frontier_gen.hpp): lane buffers compacted with a prefix
/// sum, no locks on the output path.  `uniquify(par)` is the one way to
/// turn a sparse frontier into a set: its chunk body claims each id on a
/// bitmap and emits the ids it claimed first.

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/execution.hpp"
#include "core/frontier/frontier.hpp"
#include "core/operators/advance.hpp"
#include "core/telemetry.hpp"
#include "parallel/atomic_bitset.hpp"
#include "parallel/for_each.hpp"

namespace essentials::operators {

/// Sequential filter: reference semantics, preserves input order.
template <typename T, typename Pred>
frontier::sparse_frontier<T> filter(execution::sequenced_policy policy,
                                    frontier::sparse_frontier<T> const& in,
                                    Pred pred) {
  auto const probe = telemetry::make_probe("filter.seq", policy, in.size());
  frontier::sparse_frontier<T> out;
  for (T const& v : in.active())
    if (pred(v))
      out.active().push_back(v);
  probe.set_items_out(out.size());
  return out;
}

/// Parallel synchronous filter.  The scan path yields a deterministic,
/// input-ordered output (chunk boundaries are fixed by the pool's chunking
/// contract).
template <typename T, typename Pred>
frontier::sparse_frontier<T> filter(execution::parallel_policy policy,
                                    frontier::sparse_frontier<T> const& in,
                                    Pred pred) {
  auto const probe = telemetry::make_probe("filter.par", policy, in.size());
  frontier::sparse_frontier<T> out;
  auto const& active = in.active();
  auto const stats = frontier::generate_scan(
      policy.pool(), active.size(), policy.grain, out,
      [&](std::size_t lo, std::size_t hi, auto&& emit) {
        for (std::size_t i = lo; i < hi; ++i)
          if (pred(active[i]))
            emit(active[i]);
      });
  detail::flush_generate_stats(probe, stats);
  probe.set_items_out(out.size());
  return out;
}

/// Dense filter: clears bits whose ids fail the predicate.  In-place by
/// value semantics (returns the filtered copy) to mirror the sparse shape.
template <typename P, typename T, typename Pred>
  requires execution::synchronous_policy<P>
frontier::dense_frontier<T> filter(P policy,
                                   frontier::dense_frontier<T> const& in,
                                   Pred pred) {
  auto const probe = telemetry::make_probe("filter.dense", policy,
                                           telemetry::probe_items(in));
  frontier::dense_frontier<T> out(in.universe());
  auto const copy_if = [&](T v) {
    if (pred(v))
      out.add_vertex(v);
  };
  if constexpr (std::decay_t<P>::is_parallel) {
    auto const& bits = in.bits();
    parallel::parallel_for(
        policy.pool(), std::size_t{0}, bits.num_words(),
        [&](std::size_t wi) {
          std::uint64_t word = bits.load_word(wi);
          while (word != 0) {
            unsigned const b = static_cast<unsigned>(__builtin_ctzll(word));
            word &= word - 1;
            copy_if(static_cast<T>(wi * 64 + b));
          }
        },
        /*grain=*/16);
  } else {
    in.for_each_active(copy_if);
  }
  return out;
}

/// Remove duplicate ids from a sparse frontier (sort + unique).  Determinism
/// bonus: output is sorted regardless of the racy order parallel advance
/// appended in, which makes BSP runs reproducible.
template <typename T>
void uniquify(execution::sequenced_policy policy,
              frontier::sparse_frontier<T>& f) {
  auto const probe = telemetry::make_probe("uniquify.seq", policy, f.size());
  auto& v = f.active();
  std::size_t const before = v.size();
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  probe.add_emits(0, 0, before - v.size());
  probe.set_items_out(v.size());
}

/// Parallel uniquify via a claim bitmap over the id universe: O(|F|) work,
/// no sort.  Each chunk claims its ids on the thread-local `dedup_scratch`
/// bitmap and emits the ones it claimed; the survivors are scan-compacted.
/// Which occurrence of a repeated id wins the claim is a race between
/// chunks, so the order may vary from run to run; the set does not.
/// Telemetry counts the dropped repeats as `dedup_hits`.
template <typename T>
void uniquify(execution::parallel_policy policy,
              frontier::sparse_frontier<T>& f, std::size_t universe) {
  auto const probe = telemetry::make_probe("uniquify.par", policy, f.size());
  frontier::sparse_frontier<T> out;
  auto const& active = f.active();
  auto& claimed = frontier::dedup_scratch(policy.pool(), universe);
  auto const stats = frontier::generate_scan(
      policy.pool(), active.size(), policy.grain, out,
      [&](std::size_t lo, std::size_t hi, auto&& emit) {
        for (std::size_t i = lo; i < hi; ++i)
          if (claimed.test_and_set(static_cast<std::size_t>(active[i])))
            emit(active[i]);
      });
  detail::flush_generate_stats(probe, stats);
  probe.add_emits(0, 0, active.size() - stats.emitted);
  probe.set_items_out(out.size());
  swap(f, out);
}

}  // namespace essentials::operators
