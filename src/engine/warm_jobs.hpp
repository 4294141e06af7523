#pragma once

/// \file engine/warm_jobs.hpp
/// \brief Canonical (cold, warm) job-body pairs for the warm-start-capable
/// engine submission path (`analytics_engine::submit(desc, cold, warm)`).
///
/// Both are instances of two templates, `detail::cold_job` and
/// `detail::warm_job`.  The cold body is exactly what a plain submission
/// would run; the warm body wraps the matching incremental enactor
/// (algorithms/incremental.hpp): it un-erases the stale cached result,
/// seeds the enactment from the delta, and reports the outcome through the
/// job context (`note_warm_start` / `note_delta_fallback`) so engine_stats
/// and telemetry schema v4 attribute the run correctly.  The incremental
/// enactors transparently fall back to the cold algorithm when the delta
/// is not warmable (deletions / weight increases / truncated logs), so the
/// warm body never produces a different payload than the cold one —
/// differentially verified in tests/test_delta.cpp.
///
/// Usage:
///   auto j = engine.submit(desc,
///                          engine::sssp_cold_job<graph_csr>(policy, src),
///                          engine::sssp_warm_job<graph_csr>(policy, src));

#include <memory>
#include <type_traits>
#include <utility>

#include "algorithms/bfs.hpp"
#include "algorithms/connected_components.hpp"
#include "algorithms/incremental.hpp"
#include "algorithms/sssp.hpp"
#include "engine/engine.hpp"

namespace essentials::engine {

namespace detail {

/// The one cold body: `run(g)` is the algorithm; its result is published
/// unless the job's guard fired meanwhile.
template <typename GraphT, typename Run>
typename analytics_engine<GraphT>::typed_job_fn cold_job(Run run) {
  using R = std::invoke_result_t<Run const&, GraphT const&>;
  return [run](GraphT const& g, job_context& ctx)
             -> std::shared_ptr<void const> {
    auto r = run(g);
    if (ctx.should_stop())
      return nullptr;
    return std::make_shared<R const>(std::move(r));
  };
}

/// The one warm body: `run(g, prev, delta, &outcome)` is the incremental
/// enactor, seeded by the stale result `prev` of type `R`.  Warm
/// enactments that internally fell back to the cold algorithm count as
/// delta fallbacks, not warm hits.
template <typename GraphT, typename R, typename Run>
typename analytics_engine<GraphT>::warm_job_fn warm_job(Run run) {
  using delta_t = typename analytics_engine<GraphT>::delta_type;
  return [run](GraphT const& g, std::shared_ptr<void const> const& prev,
               delta_t const& delta, job_context& ctx)
             -> std::shared_ptr<void const> {
    algorithms::incremental_outcome out;
    auto r = run(g, *static_cast<R const*>(prev.get()), delta, &out);
    if (ctx.should_stop())
      return nullptr;
    if (out.warm_started)
      ctx.note_warm_start(out.delta_edges, out.supersteps_saved);
    else
      ctx.note_delta_fallback();
    return std::make_shared<R const>(std::move(r));
  };
}

}  // namespace detail

// --- SSSP ------------------------------------------------------------------

template <typename GraphT, typename P>
typename analytics_engine<GraphT>::typed_job_fn sssp_cold_job(
    P policy, typename GraphT::vertex_type source) {
  return detail::cold_job<GraphT>([policy, source](GraphT const& g) {
    return algorithms::sssp(policy, g, source);
  });
}

template <typename GraphT, typename P>
typename analytics_engine<GraphT>::warm_job_fn sssp_warm_job(
    P policy, typename GraphT::vertex_type source) {
  using R = algorithms::sssp_result<typename GraphT::weight_type>;
  return detail::warm_job<GraphT, R>(
      [policy, source](GraphT const& g, R const& prev, auto const& delta,
                       algorithms::incremental_outcome* out) {
        return algorithms::sssp_incremental(policy, g, source, prev, delta,
                                            out);
      });
}

// --- BFS -------------------------------------------------------------------

template <typename GraphT, typename P>
typename analytics_engine<GraphT>::typed_job_fn bfs_cold_job(
    P policy, typename GraphT::vertex_type source) {
  return detail::cold_job<GraphT>([policy, source](GraphT const& g) {
    return algorithms::bfs(policy, g, source);
  });
}

template <typename GraphT, typename P>
typename analytics_engine<GraphT>::warm_job_fn bfs_warm_job(
    P policy, typename GraphT::vertex_type source) {
  using R = algorithms::bfs_result<typename GraphT::vertex_type>;
  return detail::warm_job<GraphT, R>(
      [policy, source](GraphT const& g, R const& prev, auto const& delta,
                       algorithms::incremental_outcome* out) {
        return algorithms::bfs_incremental(policy, g, source, prev, delta,
                                           out);
      });
}

// --- Connected components --------------------------------------------------

template <typename GraphT, typename P>
typename analytics_engine<GraphT>::typed_job_fn cc_cold_job(P policy) {
  return detail::cold_job<GraphT>([policy](GraphT const& g) {
    return algorithms::connected_components(policy, g);
  });
}

template <typename GraphT, typename P>
typename analytics_engine<GraphT>::warm_job_fn cc_warm_job(P policy) {
  using R = algorithms::cc_result<typename GraphT::vertex_type>;
  return detail::warm_job<GraphT, R>(
      [policy](GraphT const& g, R const& prev, auto const& delta,
               algorithms::incremental_outcome* out) {
        return algorithms::connected_components_incremental(policy, g, prev,
                                                            delta, out);
      });
}

}  // namespace essentials::engine
