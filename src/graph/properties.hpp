#pragma once

/// \file graph/properties.hpp
/// \brief Structural queries over graphs: degree statistics, symmetry,
/// reachability.  Used by the tests' invariant checks and by the examples
/// to describe their inputs.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "core/types.hpp"
#include "graph/formats.hpp"

namespace essentials::graph {

/// Summary of a degree distribution; drives workload characterization in
/// the benches (power-law vs. uniform graphs behave very differently under
/// push/pull and frontier-representation choices).
struct degree_stats_t {
  std::size_t min_degree = 0;
  std::size_t max_degree = 0;
  double mean_degree = 0.0;
  double stddev_degree = 0.0;
  std::size_t isolated_vertices = 0;  ///< out-degree == 0
};

template <typename V, typename E, typename W>
degree_stats_t out_degree_stats(csr_t<V, E, W> const& csr) {
  degree_stats_t s;
  std::size_t const n = static_cast<std::size_t>(csr.num_rows);
  if (n == 0)
    return s;
  s.min_degree = static_cast<std::size_t>(-1);
  double sum = 0.0, sum_sq = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    std::size_t const d =
        static_cast<std::size_t>(csr.row_offsets[v + 1] - csr.row_offsets[v]);
    s.min_degree = std::min(s.min_degree, d);
    s.max_degree = std::max(s.max_degree, d);
    if (d == 0)
      ++s.isolated_vertices;
    sum += static_cast<double>(d);
    sum_sq += static_cast<double>(d) * static_cast<double>(d);
  }
  s.mean_degree = sum / static_cast<double>(n);
  double const var =
      sum_sq / static_cast<double>(n) - s.mean_degree * s.mean_degree;
  s.stddev_degree = var > 0.0 ? std::sqrt(var) : 0.0;
  return s;
}

/// True iff for every edge (u, v) the edge (v, u) also exists (weights are
/// not compared).  O(E log E).
template <typename V, typename E, typename W>
bool is_symmetric(csr_t<V, E, W> const& csr) {
  if (csr.num_rows != csr.num_cols)
    return false;
  std::vector<std::pair<V, V>> edges;
  edges.reserve(csr.column_indices.size());
  for (V u = 0; u < csr.num_rows; ++u)
    for (E e = csr.row_offsets[static_cast<std::size_t>(u)];
         e < csr.row_offsets[static_cast<std::size_t>(u) + 1]; ++e)
      edges.emplace_back(u, csr.column_indices[static_cast<std::size_t>(e)]);
  std::sort(edges.begin(), edges.end());
  for (auto const& [u, v] : edges) {
    if (!std::binary_search(edges.begin(), edges.end(), std::make_pair(v, u)))
      return false;
  }
  return true;
}

/// True iff the CSR has no duplicate (u, v) entries.
template <typename V, typename E, typename W>
bool has_no_duplicate_edges(csr_t<V, E, W> const& csr) {
  for (V u = 0; u < csr.num_rows; ++u) {
    E const begin = csr.row_offsets[static_cast<std::size_t>(u)];
    E const end = csr.row_offsets[static_cast<std::size_t>(u) + 1];
    for (E e = begin + 1; e < end; ++e) {
      if (csr.column_indices[static_cast<std::size_t>(e - 1)] ==
          csr.column_indices[static_cast<std::size_t>(e)])
        return false;
    }
  }
  return true;
}

/// True iff the CSR has no self loops.
template <typename V, typename E, typename W>
bool has_no_self_loops(csr_t<V, E, W> const& csr) {
  for (V u = 0; u < csr.num_rows; ++u)
    for (E e = csr.row_offsets[static_cast<std::size_t>(u)];
         e < csr.row_offsets[static_cast<std::size_t>(u) + 1]; ++e)
      if (csr.column_indices[static_cast<std::size_t>(e)] == u)
        return false;
  return true;
}

/// Structural validity: offsets monotone, indices in range, array sizes
/// consistent.  Every loader/generator result must pass this (tested as an
/// invariant property).
template <typename V, typename E, typename W>
bool is_valid_csr(csr_t<V, E, W> const& csr) {
  std::size_t const n = static_cast<std::size_t>(csr.num_rows);
  if (csr.row_offsets.size() != n + 1)
    return false;
  if (csr.row_offsets.front() != E{0})
    return false;
  if (static_cast<std::size_t>(csr.row_offsets.back()) !=
      csr.column_indices.size())
    return false;
  if (csr.values.size() != csr.column_indices.size())
    return false;
  for (std::size_t v = 0; v < n; ++v)
    if (csr.row_offsets[v] > csr.row_offsets[v + 1])
      return false;
  for (V c : csr.column_indices)
    if (c < 0 || c >= csr.num_cols)
      return false;
  return true;
}

/// Vertices reachable from `source` following out-edges (serial BFS).  The
/// ground-truth oracle for traversal tests.
template <typename V, typename E, typename W>
std::vector<bool> reachable_from(csr_t<V, E, W> const& csr, V source) {
  std::vector<bool> seen(static_cast<std::size_t>(csr.num_rows), false);
  std::vector<V> stack{source};
  seen[static_cast<std::size_t>(source)] = true;
  while (!stack.empty()) {
    V const u = stack.back();
    stack.pop_back();
    for (E e = csr.row_offsets[static_cast<std::size_t>(u)];
         e < csr.row_offsets[static_cast<std::size_t>(u) + 1]; ++e) {
      V const v = csr.column_indices[static_cast<std::size_t>(e)];
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = true;
        stack.push_back(v);
      }
    }
  }
  return seen;
}

}  // namespace essentials::graph
