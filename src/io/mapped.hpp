#pragma once

/// \file io/mapped.hpp
/// \brief Out-of-core block-coded graphs: a page-aligned on-disk layout of
/// the block codec (graph/compressed.hpp) plus `mapped_graph`, an
/// mmap-backed graph that exposes the identical operator-facing API as
/// `compressed_graph`.  BFS/SSSP and the operator matrix run on a graph
/// that never fully resides in RAM: the kernel pages 4 KiB windows of
/// adjacency in on demand and evicts them under pressure.
///
/// File layout (all sections start on a 4096-byte boundary, so every
/// mmap'd section pointer is page- and word-aligned):
///
///     page 0   header: magic "ESSNBLK1", version, endianness tag,
///              element sizes, block_edges, counts, section table
///     section  row offsets     u64[num_vertices + 1]
///     section  block offsets   u64[num_blocks + 1]
///     section  adjacency       block stream (+ trailing slop bytes)
///     section  weights         W[num_edges]
///
/// The reader validates magic/version, the endianness tag (0x01020304
/// round-trips only on a same-endian host), element sizes against the
/// template parameters, and every section's bounds against the real file
/// size — a truncated or garbage file throws graph_error instead of
/// faulting (fuzzed in test_io_fuzz.cpp).
///
/// `madvise` windowing: supersteps walk adjacency front to back, so
/// `advise_sequential()` turns on kernel readahead for the whole
/// adjacency section, and `advise_window(lo, hi)` prefetches exactly the
/// block range covering a vertex interval (WILLNEED) — the
/// segment-windowed access pattern of out-of-core graph engines.
/// `advise_dontneed()` drops cold adjacency pages, which is how the
/// registry's storage tier keeps demoted epochs at near-zero resident
/// cost while still serving lookups.
///
/// NUMA interaction: pages fault in on first touch by the worker that
/// reads them (kernel default policy), so the mmap tier composes with the
/// first-touch placement discipline of parallel/first_touch.hpp without
/// extra code — the thread that owns a vertex range faults its window.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

#include "core/types.hpp"
#include "graph/compressed.hpp"
#include "graph/formats.hpp"

namespace essentials::io {

// ---------------------------------------------------------------------------
// On-disk format
// ---------------------------------------------------------------------------

inline constexpr std::uint64_t kMappedMagic = 0x4553534E424C4B31ull;  // "ESSNBLK1"
inline constexpr std::uint32_t kMappedVersion = 1;
inline constexpr std::uint32_t kEndianTag = 0x01020304u;
inline constexpr std::size_t kMappedPage = 4096;

/// Fixed header filling (the start of) page 0.
struct mapped_header {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t endian_tag;
  std::uint32_t sizeof_vertex;
  std::uint32_t sizeof_edge;
  std::uint32_t sizeof_weight;
  std::uint32_t block_edges;
  std::uint64_t num_vertices;
  std::uint64_t num_cols;
  std::uint64_t num_edges;
  std::uint64_t num_blocks;
  std::uint64_t off_rows, len_rows;        ///< u64[num_vertices + 1]
  std::uint64_t off_blocks, len_blocks;    ///< u64[num_blocks + 1]
  std::uint64_t off_adj, len_adj;          ///< block stream incl. slop
  std::uint64_t off_weights, len_weights;  ///< W[num_edges]
};
static_assert(sizeof(mapped_header) <= kMappedPage,
              "mapped_header must fit the header page");

// ---------------------------------------------------------------------------
// Platform shims (io/mapped.cpp)
// ---------------------------------------------------------------------------

namespace detail {

/// A read-only mapping of a whole file.  On non-mmap platforms this is a
/// heap buffer holding the file contents — same pointers, no paging.
struct file_mapping {
  void* addr = nullptr;
  std::size_t length = 0;
  int fd = -1;        ///< -1 when backed by the heap fallback
  bool heap = false;  ///< true when `addr` is owned heap memory
};

/// Map `path` read-only; throws graph_error on open/map failure.
file_mapping map_readonly(std::string const& path);
void unmap(file_mapping& m) noexcept;

enum class advice { normal, sequential, random, willneed, dontneed };

/// Best-effort madvise over [addr, addr+length), page-aligned internally.
/// No-op on platforms without madvise or for heap-backed mappings.
void advise(file_mapping const& m, std::size_t offset, std::size_t length,
            advice a) noexcept;

std::size_t page_size() noexcept;

/// Resident-set size of the calling process in bytes (0 if unavailable);
/// benches report it next to bytes-per-edge so footprint wins are visible.
std::size_t process_resident_bytes() noexcept;

}  // namespace detail

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

namespace detail {
/// Writes the raw section layout; declared here so the template writer
/// below stays header-only without pulling <fstream> into every TU.
void write_mapped_sections(std::string const& path, mapped_header const& h,
                           void const* rows, void const* blocks,
                           void const* adj, void const* weights);
}  // namespace detail

/// Serialize a compressed graph into the page-aligned on-disk format.  The
/// bytes go to a uniquely named temp file beside `path`, which is fsynced
/// and renamed over `path`: a reader that mapped the old file keeps
/// reading it, and a crash leaves the old file or the new one, never a
/// torn one.  A failure throws graph_error and leaves no temp file.
template <typename V, typename E, typename W>
void write_mapped_graph(std::string const& path,
                        graph::compressed_graph<V, E, W> const& g) {
  static_assert(sizeof(std::uint64_t) == 8);
  mapped_header h{};
  h.magic = kMappedMagic;
  h.version = kMappedVersion;
  h.endian_tag = kEndianTag;
  h.sizeof_vertex = sizeof(V);
  h.sizeof_edge = sizeof(E);
  h.sizeof_weight = sizeof(W);
  h.block_edges = static_cast<std::uint32_t>(graph::blockcodec::block_edges);
  h.num_vertices = static_cast<std::uint64_t>(g.base_num_vertices());
  h.num_cols = static_cast<std::uint64_t>(g.base_num_cols());
  h.num_edges = g.base_num_edges();
  h.num_blocks = g.num_blocks();
  std::uint64_t cursor = kMappedPage;
  auto const place = [&cursor](std::uint64_t& off, std::uint64_t& len,
                               std::uint64_t bytes) {
    off = cursor;
    len = bytes;
    cursor += (bytes + kMappedPage - 1) / kMappedPage * kMappedPage;
  };
  place(h.off_rows, h.len_rows, (h.num_vertices + 1) * sizeof(std::uint64_t));
  place(h.off_blocks, h.len_blocks,
        (h.num_blocks + 1) * sizeof(std::uint64_t));
  place(h.off_adj, h.len_adj,
        g.block_offsets_data()[h.num_blocks] + graph::blockcodec::stream_slop);
  place(h.off_weights, h.len_weights, h.num_edges * sizeof(W));
  detail::write_mapped_sections(path, h, g.row_offsets_data(),
                                g.block_offsets_data(), g.adjacency_data(),
                                g.weights_data());
}

/// Convenience: compress a plain CSR and serialize it in one step.
template <typename V, typename E, typename W>
void write_mapped_graph(std::string const& path,
                        graph::csr_t<V, E, W> const& csr) {
  write_mapped_graph(path, graph::compressed_graph<V, E, W>(csr));
}

// ---------------------------------------------------------------------------
// mapped_graph
// ---------------------------------------------------------------------------

/// Out-of-core block-coded graph: the operator-facing API of
/// `compressed_graph`, served from an mmap'd file.  Immutable, movable,
/// not copyable (the mapping is unique).
template <typename V = vertex_t, typename E = edge_t, typename W = weight_t>
class mapped_graph
    : public graph::block_graph_base<mapped_graph<V, E, W>, V, E, W> {
 public:
  mapped_graph() = default;

  /// Map `path`, validating header and section bounds.  Throws
  /// graph_error on bad magic/version/endianness/element sizes, a
  /// block_edges mismatch with this build, or any section exceeding the
  /// real file size (truncation).
  explicit mapped_graph(std::string const& path)
      : map_(detail::map_readonly(path)),
        cookie_(graph::blockcodec::next_cookie()) {
    try {
      validate();
    } catch (...) {
      detail::unmap(map_);
      throw;
    }
  }

  ~mapped_graph() { detail::unmap(map_); }

  mapped_graph(mapped_graph&& other) noexcept { *this = std::move(other); }
  mapped_graph& operator=(mapped_graph&& other) noexcept {
    if (this != &other) {
      detail::unmap(map_);
      map_ = other.map_;
      header_ = other.header_;
      cookie_ = other.cookie_;
      other.map_ = detail::file_mapping{};
      other.header_ = mapped_header{};
    }
    return *this;
  }
  mapped_graph(mapped_graph const&) = delete;
  mapped_graph& operator=(mapped_graph const&) = delete;

  // Storage access for block_graph_base.
  V base_num_vertices() const { return static_cast<V>(header_.num_vertices); }
  V base_num_cols() const { return static_cast<V>(header_.num_cols); }
  std::uint64_t base_num_edges() const { return header_.num_edges; }
  std::uint64_t const* row_offsets_data() const {
    return section<std::uint64_t>(header_.off_rows);
  }
  std::uint64_t const* block_offsets_data() const {
    return section<std::uint64_t>(header_.off_blocks);
  }
  std::uint8_t const* adjacency_data() const {
    return section<std::uint8_t>(header_.off_adj);
  }
  W const* weights_data() const { return section<W>(header_.off_weights); }
  std::uint64_t cookie() const { return cookie_; }

  // --- madvise windowing -----------------------------------------------------

  /// Kernel readahead across the whole adjacency + weight sections — the
  /// right mode for front-to-back supersteps.
  void advise_sequential() const {
    detail::advise(map_, header_.off_adj, header_.len_adj,
                   detail::advice::sequential);
    detail::advise(map_, header_.off_weights, header_.len_weights,
                   detail::advice::sequential);
  }

  /// Random access (frontier-driven traversals): disable readahead.
  void advise_random() const {
    detail::advise(map_, header_.off_adj, header_.len_adj,
                   detail::advice::random);
  }

  /// Prefetch the adjacency window covering vertices [first, last): the
  /// per-superstep segment window.
  void advise_window(V first, V last) const {
    if (first >= last || header_.num_edges == 0)
      return;
    std::uint64_t const* const row = row_offsets_data();
    std::uint64_t const* const blk = block_offsets_data();
    std::uint64_t const b_lo = row[static_cast<std::size_t>(first)] /
                               graph::blockcodec::block_edges;
    std::uint64_t const e_hi = row[static_cast<std::size_t>(last)];
    std::uint64_t const b_hi =
        (e_hi + graph::blockcodec::block_edges - 1) /
        graph::blockcodec::block_edges;
    std::uint64_t const byte_lo = blk[b_lo];
    std::uint64_t const byte_hi = blk[std::min(b_hi, header_.num_blocks)];
    detail::advise(map_, header_.off_adj + byte_lo, byte_hi - byte_lo,
                   detail::advice::willneed);
  }

  /// Drop adjacency + weight pages from the resident set (cold epoch).
  void advise_dontneed() const {
    detail::advise(map_, header_.off_adj, header_.len_adj,
                   detail::advice::dontneed);
    detail::advise(map_, header_.off_weights, header_.len_weights,
                   detail::advice::dontneed);
  }

  /// Rehydrate a plain CSR (registry promotion path).
  graph::csr_t<V, E, W> to_csr() const {
    graph::csr_t<V, E, W> csr;
    csr.num_rows = base_num_vertices();
    csr.num_cols = base_num_cols();
    csr.row_offsets.resize(static_cast<std::size_t>(header_.num_vertices) + 1);
    std::uint64_t const* const row = row_offsets_data();
    for (std::size_t i = 0; i < csr.row_offsets.size(); ++i)
      csr.row_offsets[i] = static_cast<E>(row[i]);
    csr.column_indices.resize(static_cast<std::size_t>(header_.num_edges));
    for (std::uint64_t b = 0; b < header_.num_blocks; ++b)
      this->decode_block_into(b, csr.column_indices.data() +
                                     b * graph::blockcodec::block_edges);
    W const* const w = weights_data();
    csr.values.assign(w, w + header_.num_edges);
    return csr;
  }

  mapped_header const& header() const { return header_; }
  std::size_t file_bytes() const { return map_.length; }

 private:
  template <typename T>
  T const* section(std::uint64_t off) const {
    return reinterpret_cast<T const*>(static_cast<std::uint8_t const*>(map_.addr) +
                                      off);
  }

  void validate() {
    if (map_.length < sizeof(mapped_header))
      throw graph_error("mapped_graph: file shorter than header");
    std::memcpy(&header_, map_.addr, sizeof header_);
    if (header_.magic != kMappedMagic)
      throw graph_error("mapped_graph: bad magic (not an essentials block file)");
    if (header_.version != kMappedVersion)
      throw graph_error("mapped_graph: unsupported version");
    if (header_.endian_tag != kEndianTag)
      throw graph_error("mapped_graph: endianness mismatch (file written on "
                        "an incompatible host)");
    if (header_.sizeof_vertex != sizeof(V) ||
        header_.sizeof_edge != sizeof(E) ||
        header_.sizeof_weight != sizeof(W))
      throw graph_error("mapped_graph: element sizes do not match this "
                        "instantiation");
    if (header_.block_edges != graph::blockcodec::block_edges)
      throw graph_error("mapped_graph: file block_edges differs from this "
                        "build's ESSENTIALS_BLOCK_EDGES");
    std::uint64_t const expect_blocks =
        (header_.num_edges + graph::blockcodec::block_edges - 1) /
        graph::blockcodec::block_edges;
    if (header_.num_blocks != expect_blocks)
      throw graph_error("mapped_graph: inconsistent block count");
    auto const check = [this](std::uint64_t off, std::uint64_t len,
                              std::uint64_t expect_len, char const* what) {
      if (off % 8 != 0 || off > map_.length || len > map_.length - off)
        throw graph_error(std::string("mapped_graph: truncated or "
                                      "out-of-bounds section: ") + what);
      if (expect_len != ~0ull && len != expect_len)
        throw graph_error(std::string("mapped_graph: section length "
                                      "mismatch: ") + what);
    };
    check(header_.off_rows, header_.len_rows,
          (header_.num_vertices + 1) * sizeof(std::uint64_t), "row offsets");
    check(header_.off_blocks, header_.len_blocks,
          (header_.num_blocks + 1) * sizeof(std::uint64_t), "block offsets");
    check(header_.off_adj, header_.len_adj, ~0ull, "adjacency");
    check(header_.off_weights, header_.len_weights,
          header_.num_edges * sizeof(W), "weights");
    // The block index must be monotone and stay inside the adjacency
    // section (slop included) or decode's unconditional loads could walk
    // off the file.  With this plus decode_block's count clamp, even a
    // file with garbage *payload* bytes decodes to garbage values without
    // ever reading or writing out of bounds.
    std::uint64_t const* const blk = block_offsets_data();
    for (std::uint64_t b = 0; b < header_.num_blocks; ++b)
      if (blk[b] > blk[b + 1] ||
          blk[b + 1] - blk[b] < sizeof(graph::blockcodec::block_header))
        throw graph_error("mapped_graph: corrupt block index");
    std::uint64_t const adj_end =
        blk[header_.num_blocks] + graph::blockcodec::stream_slop;
    if (adj_end > header_.len_adj)
      throw graph_error("mapped_graph: block index exceeds adjacency section");
    std::uint64_t const* const row = row_offsets_data();
    if (row[header_.num_vertices] != header_.num_edges)
      throw graph_error("mapped_graph: row offsets do not sum to edge count");
  }

  detail::file_mapping map_{};
  mapped_header header_{};
  std::uint64_t cookie_ = 0;
};

}  // namespace essentials::io
