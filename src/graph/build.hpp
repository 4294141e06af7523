#pragma once

/// \file graph/build.hpp
/// \brief Builders and transformations between graph representations.
///
/// Everything funnels through COO: loaders/generators emit COO, the cleanup
/// passes (dedupe, self-loop removal, symmetrization) operate on COO, and
/// every conversion is one stable counting scatter
/// (`detail::counting_scatter`): count the items per key, prefix-sum the
/// counts into bucket offsets, then scatter the items in input order.
/// `build_csr` buckets COO edges by row and `build_csc` by column, straight
/// from the same COO — which is exactly how the pull structure relates to
/// the push structure conceptually.  `transpose_to_csc` buckets CSR edges
/// by column.  `sort_and_deduplicate` is two scatters, by column and then
/// by row (a radix sort on (row, column)), followed by an in-place merge
/// of duplicates.
///
/// Cost: every builder is O(m + n) for m edges and n rows plus columns; no
/// comparison sort is involved.  Scratch: one cursor per bucket, plus, for
/// `sort_and_deduplicate` only, one (vertex, weight) pair per input edge
/// (8 bytes with the default types).  Its input arrays receive its output,
/// so its peak is the edge list plus the pairs.
///
/// Precondition: every row index lies in [0, num_rows) and every column
/// index in [0, num_cols).  The passes index arrays by vertex id, so an
/// index out of range throws graph_error (via `expects`) before it is used.
///
/// NUMA first-touch: the CSR/CSC arrays are `numa_vector`s, so sizing them
/// leaves physical page placement undecided.  When `parallel::numa_enabled()`
/// the builders pre-touch the edge arrays page-parallel on the default pool
/// (the same chunk map the operators stream with), distributing the graph
/// across the sockets that will read it; with the knob off nothing is
/// pre-touched and the serial scatter performs the single first write —
/// strictly fewer writes than a value-initializing std::vector ever did.
/// Either way every element is written before the builder returns, so the
/// resulting bytes are identical.

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "core/types.hpp"
#include "graph/formats.hpp"
#include "parallel/first_touch.hpp"

namespace essentials::graph::detail {

/// Pre-touch a sized-but-unplaced array page-parallel so its pages land on
/// the workers' nodes; the caller's subsequent serial scatter then writes
/// in-place without migrating anything.  A no-op when NUMA placement is off
/// (the scatter's first write is placement enough) or T is not trivially
/// fillable.
template <typename T>
void place_for_streaming(T* data, std::size_t n) {
  if constexpr (std::is_trivially_copyable_v<T> &&
                std::is_default_constructible_v<T>) {
    if (parallel::numa_enabled())
      parallel::first_touch_fill(parallel::default_pool(), data, n, T{});
  }
}

/// The stable counting scatter every builder is made of.  Item i in
/// [0, m) has key(i) in [0, n).  Counts the items per key into
/// offsets[key + 1], prefix-sums `offsets` (n + 1 zeroed entries) into
/// bucket starts, then calls emit(i, slot) for i = 0, 1, ..., m - 1 in
/// that order, where slot is the item's position in key order; items that
/// share a key keep their input order.  A key out of range throws
/// graph_error(`what`) before any emit.
template <typename O, typename Key, typename Emit>
void counting_scatter(std::size_t m, std::size_t n, O* offsets, Key key,
                      Emit emit, char const* what) {
  for (std::size_t i = 0; i < m; ++i) {
    auto const k = static_cast<std::size_t>(key(i));
    expects(k < n, what);
    ++offsets[k + 1];
  }
  for (std::size_t k = 0; k < n; ++k)
    offsets[k + 1] += offsets[k];
  std::vector<O> cursor(offsets, offsets + n);
  for (std::size_t i = 0; i < m; ++i)
    emit(i, static_cast<std::size_t>(
                cursor[static_cast<std::size_t>(key(i))]++));
}

/// Bucket m edges by key(i) in [0, num_keys) into compressed arrays:
/// `indices` receives other(i), which must lie in [0, num_others), and
/// `values` receives value(i).  This is build_csr, build_csc and
/// transpose_to_csc; only the accessors differ.
template <typename V, typename E, typename W, typename Key, typename Other,
          typename Value>
void compress(std::size_t m, V num_keys, V num_others, Key key, Other other,
              Value value, parallel::numa_vector<E>& offsets,
              parallel::numa_vector<V>& indices,
              parallel::numa_vector<W>& values, char const* what) {
  expects(num_keys >= 0 && num_others >= 0, what);
  std::size_t const n = static_cast<std::size_t>(num_keys);
  // The counting sort needs zeroed offsets anyway; zero them through the
  // first-touch path so the pages land on the pool's workers.  The edge
  // arrays only need *placement* (the scatter below writes every slot), so
  // they are pre-touched solely when NUMA placement is on.
  offsets.resize(n + 1);
  parallel::first_touch_fill(parallel::default_pool(), offsets.data(), n + 1,
                             E{0});
  indices.resize(m);
  values.resize(m);
  place_for_streaming(indices.data(), m);
  place_for_streaming(values.data(), m);
  counting_scatter(
      m, n, offsets.data(), key,
      [&](std::size_t i, std::size_t slot) {
        V const o = other(i);
        expects(o >= 0 && o < num_others, what);
        indices[slot] = o;
        values[slot] = value(i);
      },
      what);
}

}  // namespace essentials::graph::detail

namespace essentials::graph {

/// Policy for edges that appear multiple times in the input.
enum class duplicate_policy {
  keep_first,  ///< keep the first occurrence's weight
  keep_min,    ///< keep the smallest weight (natural for shortest paths)
  sum          ///< sum the weights (natural for linear algebra)
};

/// Sort edges by (row, column) and collapse duplicates according to
/// `policy`.  Stable: duplicates meet in input order, so keep_first keeps
/// the first occurrence and sum adds left to right.  O(m + n); on a throw
/// the COO is unchanged.
template <typename V, typename E, typename W>
void sort_and_deduplicate(coo_t<V, E, W>& coo,
                          duplicate_policy policy = duplicate_policy::keep_first) {
  char const* const what = "sort_and_deduplicate: vertex index out of range";
  expects(coo.num_rows >= 0 && coo.num_cols >= 0, what);
  std::size_t const m = coo.row_indices.size();
  expects(coo.column_indices.size() == m && coo.values.size() == m,
          "sort_and_deduplicate: edge arrays differ in length");
  std::size_t const rows = static_cast<std::size_t>(coo.num_rows);
  std::size_t const cols = static_cast<std::size_t>(coo.num_cols);

  // Pass 1: bucket (row, weight) pairs by column.  Its count checks every
  // column, pass 2's count every row, both before the COO is written.
  struct entry {
    V vertex;
    W weight;
  };
  parallel::numa_vector<entry> by_column(m);
  std::vector<std::size_t> column_start(cols + 1);
  detail::counting_scatter(
      m, cols, column_start.data(),
      [&](std::size_t i) { return coo.column_indices[i]; },
      [&](std::size_t i, std::size_t slot) {
        by_column[slot] = {coo.row_indices[i], coo.values[i]};
      },
      what);

  // Pass 2: the pairs now hold every edge, so the input arrays take the
  // output.  Bucketing by row while visiting columns in order leaves each
  // row sorted by column, with duplicates in input order.
  std::vector<std::size_t> row_start(rows + 1);
  std::size_t c = 0;  // column of pair j: the scatter visits pairs in order
  detail::counting_scatter(
      m, rows, row_start.data(),
      [&](std::size_t j) { return by_column[j].vertex; },
      [&](std::size_t j, std::size_t slot) {
        while (column_start[c + 1] <= j)
          ++c;
        coo.column_indices[slot] = static_cast<V>(c);
        coo.values[slot] = by_column[j].weight;
      },
      what);

  // Merge duplicates in place, row by row, writing each kept edge's row.
  std::size_t kept = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    std::size_t const row_begin = kept;
    for (std::size_t k = row_start[r]; k < row_start[r + 1]; ++k) {
      V const col = coo.column_indices[k];
      W const w = coo.values[k];
      if (kept > row_begin && coo.column_indices[kept - 1] == col) {
        W& merged = coo.values[kept - 1];
        switch (policy) {
          case duplicate_policy::keep_first:
            break;
          case duplicate_policy::keep_min:
            merged = std::min(merged, w);
            break;
          case duplicate_policy::sum:
            merged += w;
            break;
        }
        continue;
      }
      coo.row_indices[kept] = static_cast<V>(r);
      coo.column_indices[kept] = col;
      coo.values[kept] = w;
      ++kept;
    }
  }
  coo.row_indices.resize(kept);
  coo.column_indices.resize(kept);
  coo.values.resize(kept);
}

/// Drop edges whose endpoints coincide.
template <typename V, typename E, typename W>
void remove_self_loops(coo_t<V, E, W>& coo) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < coo.row_indices.size(); ++i) {
    if (coo.row_indices[i] == coo.column_indices[i])
      continue;
    coo.row_indices[kept] = coo.row_indices[i];
    coo.column_indices[kept] = coo.column_indices[i];
    coo.values[kept] = coo.values[i];
    ++kept;
  }
  coo.row_indices.resize(kept);
  coo.column_indices.resize(kept);
  coo.values.resize(kept);
}

/// Add the reverse of every edge.  Followed by sort_and_deduplicate, the
/// edge set is symmetric under every duplicate policy and the weights are
/// symmetric under `keep_min` (under `sum`, up to rounding), but not under
/// the default `keep_first`: an input holding (u,v,w1) and (v,u,w2) keeps
/// w(u,v) = w1 and w(v,u) = w2.
template <typename V, typename E, typename W>
void symmetrize(coo_t<V, E, W>& coo) {
  std::size_t const m = coo.row_indices.size();
  coo.reserve(2 * m);
  for (std::size_t i = 0; i < m; ++i)
    coo.push_back(coo.column_indices[i], coo.row_indices[i], coo.values[i]);
}

/// Swap the roles of rows and columns (reverse every edge) in place.
template <typename V, typename E, typename W>
void transpose(coo_t<V, E, W>& coo) {
  std::swap(coo.num_rows, coo.num_cols);
  std::swap(coo.row_indices, coo.column_indices);
}

/// COO -> CSR: counting sort by row.  Input order is preserved within a
/// row (stable), so edge ids in the CSR follow the COO's column order when
/// the COO is sorted.
template <typename V, typename E, typename W>
csr_t<V, E, W> build_csr(coo_t<V, E, W> const& coo) {
  csr_t<V, E, W> csr;
  csr.num_rows = coo.num_rows;
  csr.num_cols = coo.num_cols;
  detail::compress(
      coo.row_indices.size(), coo.num_rows, coo.num_cols,
      [&](std::size_t i) { return coo.row_indices[i]; },
      [&](std::size_t i) { return coo.column_indices[i]; },
      [&](std::size_t i) { return coo.values[i]; }, csr.row_offsets,
      csr.column_indices, csr.values, "build_csr: vertex index out of range");
  return csr;
}

/// COO -> CSC: counting sort by column, straight from the COO.  Stable
/// like build_csr, so a sorted COO yields ascending rows in every column.
template <typename V, typename E, typename W>
csc_t<V, E, W> build_csc(coo_t<V, E, W> const& coo) {
  csc_t<V, E, W> csc;
  csc.num_rows = coo.num_rows;
  csc.num_cols = coo.num_cols;
  detail::compress(
      coo.column_indices.size(), coo.num_cols, coo.num_rows,
      [&](std::size_t i) { return coo.column_indices[i]; },
      [&](std::size_t i) { return coo.row_indices[i]; },
      [&](std::size_t i) { return coo.values[i]; }, csc.column_offsets,
      csc.row_indices, csc.values, "build_csc: vertex index out of range");
  return csc;
}

/// CSR -> CSC without materializing a COO (transpose of the sparse
/// structure).  Used to derive the pull representation from an existing
/// push representation.
template <typename V, typename E, typename W>
csc_t<V, E, W> transpose_to_csc(csr_t<V, E, W> const& csr) {
  csc_t<V, E, W> csc;
  csc.num_rows = csr.num_rows;
  csc.num_cols = csr.num_cols;
  std::size_t const rows = static_cast<std::size_t>(csr.num_rows);
  std::size_t const m = csr.column_indices.size();
  expects(m == 0 || (csr.row_offsets.size() == rows + 1 &&
                     static_cast<std::size_t>(csr.row_offsets[rows]) == m),
          "transpose_to_csc: row offsets do not cover the edges");
  std::size_t r = 0;  // source row of edge e: the scatter visits edges in order
  detail::compress(
      m, csr.num_cols, csr.num_rows,
      [&](std::size_t e) { return csr.column_indices[e]; },
      [&](std::size_t e) {
        while (static_cast<std::size_t>(csr.row_offsets[r + 1]) <= e)
          ++r;
        return static_cast<V>(r);
      },
      [&](std::size_t e) { return csr.values[e]; }, csc.column_offsets,
      csc.row_indices, csc.values,
      "transpose_to_csc: vertex index out of range");
  return csc;
}

/// CSR -> adjacency list.
template <typename V, typename E, typename W>
adjacency_list_t<V, W> to_adjacency_list(csr_t<V, E, W> const& csr) {
  adjacency_list_t<V, W> adj;
  adj.resize(csr.num_rows);
  for (V v = 0; v < csr.num_rows; ++v)
    for (E e = csr.row_offsets[static_cast<std::size_t>(v)];
         e < csr.row_offsets[static_cast<std::size_t>(v) + 1]; ++e)
      adj.add_edge(v, csr.column_indices[static_cast<std::size_t>(e)],
                   csr.values[static_cast<std::size_t>(e)]);
  return adj;
}

/// Adjacency list -> COO (for round-tripping into CSR/CSC).
template <typename V, typename W>
coo_t<V, edge_t, W> to_coo(adjacency_list_t<V, W> const& adj) {
  coo_t<V, edge_t, W> coo;
  coo.num_rows = adj.num_vertices();
  coo.num_cols = adj.num_vertices();
  coo.reserve(adj.num_edges());
  for (V v = 0; v < adj.num_vertices(); ++v)
    for (auto const& nb : adj.neighbors[static_cast<std::size_t>(v)])
      coo.push_back(v, nb.vertex, nb.weight);
  return coo;
}

}  // namespace essentials::graph
