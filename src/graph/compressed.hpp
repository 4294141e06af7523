#pragma once

/// \file graph/compressed.hpp
/// \brief Block-coded compressed CSR: a first-class execution tier, not a
/// demo codec.  Adjacency is stored as fixed-size neighbor *blocks*
/// (group-varint zig-zag deltas behind a word-aligned header), and the
/// graph exposes the same CSR-side API the operator matrix compiles
/// against — `get_edges(v)` / `get_dest_vertex(e)` / `get_edge_weight(e)`
/// — so advance / filter / neighbor_reduce run on compressed adjacency
/// *directly* and bit-identically to plain CSR (differentially tested).
///
/// Why blocks.  A byte-at-a-time LEB128 stream behind a forward-only
/// iterator makes random edge access impossible, so the operators could
/// not run on it, and it decodes several times slower.  Block coding fixes
/// both problems at once:
///
///  - the edge-id space [0, E) is cut into blocks of
///    `blockcodec::block_edges` (default 128) consecutive edges;
///  - each block starts 4-byte-aligned with a fixed header
///    {first_id, count, payload_bytes}; the payload is the remaining
///    count-1 column ids as zig-zag deltas from the previous id, packed
///    group-varint style (one tag byte per 4 values, 2 bits each giving
///    the byte length 1..4) and laid out streamvbyte-fashion — all tag
///    bytes first, then the packed delta bytes — so decode runs 4 values
///    at a time with unconditional loads (+ the stream's trailing slop
///    bytes) and its only loop-carried work is one cursor add per group
///    (on SSSE3 hosts a pshufb lane-expansion path is selected at
///    runtime; both paths are bit-identical);
///  - a 64-bit per-block offset index makes any block O(1) to locate, and
///    the retained per-vertex row offsets keep `get_out_degree` /
///    `get_edges` O(1) — exactly CSR's contract.
///
/// Random access decodes the containing block once into a thread-local,
/// cache-line-aligned scratch (the same padded-lane discipline as
/// parallel/lane_buffers.hpp) and serves subsequent hits from it; since
/// operators walk `get_edges(v)` in order, consecutive edge ids land in
/// the same block and the decode amortizes to O(1) per edge.  The scratch
/// is keyed by a per-graph cookie, so interleaved traversals of several
/// compressed graphs on one thread stay correct.
///
/// Zig-zag deltas (not strictly-increasing deltas) are used inside a
/// block because blocks span row boundaries, where the next column id may
/// be smaller than the previous row's last neighbor.  Sorted adjacency
/// still compresses to ~1 byte/edge; the codec merely no longer *requires*
/// sortedness.  Weights do not delta-compress (floats) and stay a parallel
/// array indexed by the edge id.
///
/// All byte cursors, block offsets and row offsets are 64-bit regardless
/// of the edge-id type `E`, so graphs beyond 2^31 edges only need a wider
/// `E` typedef — the codec itself never narrows (static_asserts below).
///
/// The same layout, read through raw pointers, backs the mmap'd on-disk
/// tier (io/mapped.hpp): `block_graph_base` is the CRTP base both the
/// in-memory `compressed_graph` and the out-of-core `mapped_graph` derive
/// their operator-facing API from.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

// SSSE3 pshufb fast path for the group-varint decoder: compiled behind a
// per-function target attribute (no global -march change) and selected at
// runtime via cpuid, so the binary still runs on baseline x86-64 and other
// architectures fall through to the scalar decoder.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ESSENTIALS_BLOCK_SIMD 1
#include <immintrin.h>
#else
#define ESSENTIALS_BLOCK_SIMD 0
#endif

#include "core/types.hpp"
#include "graph/formats.hpp"
#include "graph/graph.hpp"
#include "parallel/lane_buffers.hpp"

namespace essentials::graph {

// ---------------------------------------------------------------------------
// Zig-zag mapping for the block codec's signed deltas
// ---------------------------------------------------------------------------

namespace varint {

/// Zig-zag: signed -> unsigned with small magnitudes staying small.
inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

}  // namespace varint

// ---------------------------------------------------------------------------
// Block codec
// ---------------------------------------------------------------------------

namespace blockcodec {

/// Edges per block.  A compile-time knob (CONTRIBUTING.md): 128 edges keep
/// the decoded block (512 B) inside L1 next to the lane's other scratch,
/// while the 8-byte header amortizes to 0.06 bytes/edge.
#ifndef ESSENTIALS_BLOCK_EDGES
#define ESSENTIALS_BLOCK_EDGES 128
#endif
inline constexpr std::size_t block_edges = ESSENTIALS_BLOCK_EDGES;
static_assert(block_edges >= 4 && block_edges <= 8192,
              "block_edges must be in [4, 8192] (payload_bytes is u16)");

/// Trailing slop appended after the last block so the unconditional loads
/// of the group-varint decoder never read past the buffer: the scalar path
/// loads 4 bytes per value, the SIMD path loads a full 16-byte lane at the
/// start of each group (worst case 12 bytes past a minimal 4-byte group).
inline constexpr std::size_t stream_slop = 16;

/// Word-aligned block header.  `payload_bytes` covers the group-varint
/// payload only (tags + delta bytes), excluding header and alignment pad.
struct block_header {
  std::uint32_t first_id;       ///< raw first column id of the block
  std::uint16_t count;          ///< edges in this block (== block_edges except the last)
  std::uint16_t payload_bytes;  ///< group-varint payload length
};
static_assert(sizeof(block_header) == 8, "block_header must stay 8 bytes");

/// Bytes needed to store v in 1..4 bytes.
inline std::uint32_t byte_width(std::uint32_t v) {
  if (v < (1u << 8))
    return 1;
  if (v < (1u << 16))
    return 2;
  if (v < (1u << 24))
    return 3;
  return 4;
}

/// Owned result of encoding one adjacency array.
struct encoded_adjacency {
  std::vector<std::uint8_t> bytes;         ///< blocks + trailing slop
  std::vector<std::uint64_t> block_offsets;  ///< size num_blocks + 1; [i] =
                                             ///< byte offset of block i,
                                             ///< back() = end of last block
  std::uint64_t num_blocks() const { return block_offsets.size() - 1; }
  /// Encoded adjacency footprint (headers + payloads, without slop).
  std::uint64_t encoded_bytes() const { return block_offsets.back(); }
};

/// Encode `m` column ids into block-coded form.  64-bit cursors
/// throughout: `m` may exceed 2^31 (the caller's edge-id type only bounds
/// what ids it can hand the operators, not what the codec can store).
template <typename V>
encoded_adjacency encode_adjacency(V const* cols, std::uint64_t m) {
  static_assert(sizeof(V) <= 4,
                "block codec stores 32-bit column ids; wider vertex ids "
                "need a wider tag scheme");
  encoded_adjacency enc;
  std::uint64_t const blocks = (m + block_edges - 1) / block_edges;
  enc.block_offsets.reserve(static_cast<std::size_t>(blocks) + 1);
  enc.bytes.reserve(static_cast<std::size_t>(m) + 8 * blocks + stream_slop);
  for (std::uint64_t b = 0; b < blocks; ++b) {
    std::uint64_t const lo = b * block_edges;
    std::uint64_t const hi = std::min<std::uint64_t>(lo + block_edges, m);
    enc.block_offsets.push_back(enc.bytes.size());
    std::size_t const header_at = enc.bytes.size();
    enc.bytes.resize(header_at + sizeof(block_header));
    // Payload: count-1 zig-zag deltas, group-varint packed (4 per tag),
    // laid out streamvbyte-style — ALL tag bytes first, then the packed
    // delta bytes.  Tag addresses are then independent of the
    // variable-length data, so the decoder's only loop-carried dependency
    // is one add per group (the data cursor), not a load->add chain.
    std::size_t const ngroups =
        hi > lo ? (static_cast<std::size_t>(hi - lo) - 1 + 3) / 4 : 0;
    std::size_t const tags_at = enc.bytes.size();
    enc.bytes.resize(tags_at + ngroups, 0);
    std::uint32_t prev = static_cast<std::uint32_t>(cols[lo]);
    std::size_t group = 0;
    for (std::uint64_t i = lo + 1; i < hi; i += 4, ++group) {
      std::uint8_t tag = 0;
      for (std::uint64_t k = 0; k < 4 && i + k < hi; ++k) {
        std::uint32_t const cur = static_cast<std::uint32_t>(cols[i + k]);
        std::int64_t const d = static_cast<std::int64_t>(cur) -
                               static_cast<std::int64_t>(prev);
        std::uint64_t const zz64 = varint::zigzag(d);
        expects(zz64 <= 0xFFFFFFFFull, "block codec: delta overflows u32");
        std::uint32_t const zz = static_cast<std::uint32_t>(zz64);
        std::uint32_t const len = byte_width(zz);
        tag |= static_cast<std::uint8_t>((len - 1) << (2 * k));
        std::uint8_t le[4];
        std::memcpy(le, &zz, 4);  // little-endian on every supported target
        enc.bytes.insert(enc.bytes.end(), le, le + len);
        prev = cur;
      }
      enc.bytes[tags_at + group] = tag;
    }
    // Finalize the header and pad the block to 4-byte alignment so the
    // next header's loads stay aligned.
    block_header h;
    h.first_id = hi > lo ? static_cast<std::uint32_t>(cols[lo]) : 0;
    h.count = static_cast<std::uint16_t>(hi - lo);
    h.payload_bytes = static_cast<std::uint16_t>(enc.bytes.size() -
                                                 header_at -
                                                 sizeof(block_header));
    std::memcpy(enc.bytes.data() + header_at, &h, sizeof h);
    while (enc.bytes.size() % 4 != 0)
      enc.bytes.push_back(0);
  }
  enc.block_offsets.push_back(enc.bytes.size());
  enc.bytes.resize(enc.bytes.size() + stream_slop, 0);
  return enc;
}

/// Per-tag decode plan: where each of the 4 values starts inside the
/// group payload, its extraction mask, and the group's total bytes.
/// Precomputing offsets breaks the load->advance->load dependency chain a
/// running byte cursor would impose — the four loads issue independently
/// and only the prefix-sum over `prev` stays serial.
struct tag_plan {
  std::uint8_t off[4];    ///< payload byte offset of value k
  std::uint32_t msk[4];   ///< 0xFF / 0xFFFF / 0xFFFFFF / 0xFFFFFFFF
  std::uint8_t total;     ///< payload bytes consumed by the group
};

inline tag_plan const* tag_table() {
  static tag_plan const* const table = [] {
    static tag_plan t[256];
    for (unsigned tag = 0; tag < 256; ++tag) {
      std::uint8_t off = 0;
      for (unsigned k = 0; k < 4; ++k) {
        std::uint32_t const len = ((tag >> (2 * k)) & 3u) + 1;
        t[tag].off[k] = off;
        t[tag].msk[k] = len == 4 ? 0xFFFFFFFFu : (1u << (8 * len)) - 1;
        off = static_cast<std::uint8_t>(off + len);
      }
      t[tag].total = off;
    }
    return t;
  }();
  return table;
}

#if ESSENTIALS_BLOCK_SIMD

/// Per-tag pshufb plan: a 16-byte shuffle mask expanding the packed 1..4
/// byte deltas into four zero-extended 32-bit lanes, plus the group's
/// total payload bytes.
struct simd_plan {
  std::uint8_t shuffle[16];
  std::uint8_t total;
};

inline simd_plan const* simd_table() {
  static simd_plan const* const table = [] {
    static simd_plan t[256];
    for (unsigned tag = 0; tag < 256; ++tag) {
      std::uint8_t src = 0;
      for (unsigned k = 0; k < 4; ++k) {
        std::uint32_t const len = ((tag >> (2 * k)) & 3u) + 1;
        for (unsigned j = 0; j < 4; ++j)
          t[tag].shuffle[4 * k + j] =
              j < len ? static_cast<std::uint8_t>(src + j) : 0x80;
        src = static_cast<std::uint8_t>(src + len);
      }
      t[tag].total = src;
    }
    return t;
  }();
  return table;
}

/// Vectorized payload decode (the Lemire/Stepanov group-varint scheme):
/// one 16-byte load + pshufb per group, unzigzag and the 4-lane prefix
/// sum in SIMD registers.  `out[0]` is written from `first`; loads stay
/// in bounds thanks to `stream_slop` (16).  Wrapping u32 arithmetic
/// matches the scalar decoder exactly.
__attribute__((target("ssse3"))) inline void decode_payload_ssse3(
    std::uint8_t const* p, std::uint32_t first, std::size_t count,
    std::uint32_t* out) {
  out[0] = first;
  simd_plan const* const plans = simd_table();
  std::size_t const ngroups = count > 1 ? (count - 1 + 3) / 4 : 0;
  std::uint8_t const* const tags = p;
  std::uint8_t const* data = p + ngroups;
  __m128i const kOne = _mm_set1_epi32(1);
  __m128i const kZero = _mm_setzero_si128();
  __m128i prevv = _mm_set1_epi32(static_cast<int>(first));
  std::size_t i = 1;
  std::size_t g = 0;
  while (i + 4 <= count) {
    simd_plan const& s = plans[tags[g++]];
    __m128i const raw =
        _mm_loadu_si128(reinterpret_cast<__m128i const*>(data));
    __m128i const shuf =
        _mm_loadu_si128(reinterpret_cast<__m128i const*>(s.shuffle));
    __m128i const zz = _mm_shuffle_epi8(raw, shuf);
    // unzigzag each lane: (zz >> 1) ^ -(zz & 1)
    __m128i d = _mm_xor_si128(_mm_srli_epi32(zz, 1),
                              _mm_sub_epi32(kZero, _mm_and_si128(zz, kOne)));
    // inclusive 4-lane prefix sum, then add the running value
    d = _mm_add_epi32(d, _mm_slli_si128(d, 4));
    d = _mm_add_epi32(d, _mm_slli_si128(d, 8));
    __m128i const vals = _mm_add_epi32(d, prevv);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), vals);
    prevv = _mm_shuffle_epi32(vals, _MM_SHUFFLE(3, 3, 3, 3));
    data += s.total;
    i += 4;
  }
  if (i < count) {  // final partial group, scalar
    std::uint32_t prev =
        static_cast<std::uint32_t>(_mm_cvtsi128_si32(prevv));
    tag_plan const& t = tag_table()[tags[g]];
    for (unsigned k = 0; i < count; ++k, ++i) {
      std::uint32_t raw;
      std::memcpy(&raw, data + t.off[k], 4);
      prev = static_cast<std::uint32_t>(
          static_cast<std::int64_t>(prev) + varint::unzigzag(raw & t.msk[k]));
      out[i] = prev;
    }
  }
}

inline bool have_ssse3() {
  static bool const yes = __builtin_cpu_supports("ssse3");
  return yes;
}

#endif  // ESSENTIALS_BLOCK_SIMD

/// Decode block `b` into `out[0..count)`; returns count.  4-at-a-time:
/// one tag-table lookup per group, then four independent little-endian
/// 4-byte loads masked to the encoded width (in-bounds thanks to
/// `stream_slop`).  32-bit outputs take the pshufb path where the CPU has
/// SSSE3 (runtime-dispatched; bit-identical to the scalar decoder).
template <typename V>
std::size_t decode_block(std::uint8_t const* bytes,
                         std::uint64_t const* block_offsets, std::uint64_t b,
                         V* out) {
  std::uint8_t const* p = bytes + block_offsets[b];
  block_header h;
  std::memcpy(&h, p, sizeof h);
  p += sizeof h;
  // Clamp against a corrupted on-disk header: `out` is exactly
  // block_edges wide, and a hostile count must not overflow it (the
  // mapped reader validates sections, not every block header).
  std::size_t const count = std::min<std::size_t>(h.count, block_edges);
  if (count == 0)
    return 0;
#if ESSENTIALS_BLOCK_SIMD
  if constexpr (sizeof(V) == 4) {
    if (have_ssse3()) {
      // int32/uint32 outputs alias legally as uint32_t.
      decode_payload_ssse3(p, h.first_id, count,
                           reinterpret_cast<std::uint32_t*>(out));
      return count;
    }
  }
#endif
  tag_plan const* const plans = tag_table();
  std::size_t const ngroups = count > 1 ? (count - 1 + 3) / 4 : 0;
  std::uint8_t const* const tags = p;
  std::uint8_t const* data = p + ngroups;
  std::uint32_t prev = h.first_id;
  out[0] = static_cast<V>(prev);
  std::size_t i = 1;
  std::size_t g = 0;
  while (i + 4 <= count) {  // full groups, unrolled
    tag_plan const& t = plans[tags[g++]];
    std::uint32_t raw0, raw1, raw2, raw3;
    std::memcpy(&raw0, data + t.off[0], 4);
    std::memcpy(&raw1, data + t.off[1], 4);
    std::memcpy(&raw2, data + t.off[2], 4);
    std::memcpy(&raw3, data + t.off[3], 4);
    prev = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(prev) + varint::unzigzag(raw0 & t.msk[0]));
    out[i] = static_cast<V>(prev);
    prev = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(prev) + varint::unzigzag(raw1 & t.msk[1]));
    out[i + 1] = static_cast<V>(prev);
    prev = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(prev) + varint::unzigzag(raw2 & t.msk[2]));
    out[i + 2] = static_cast<V>(prev);
    prev = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(prev) + varint::unzigzag(raw3 & t.msk[3]));
    out[i + 3] = static_cast<V>(prev);
    data += t.total;
    i += 4;
  }
  if (i < count) {  // final partial group
    tag_plan const& t = plans[tags[g]];
    for (unsigned k = 0; i < count; ++k, ++i) {
      std::uint32_t raw;
      std::memcpy(&raw, data + t.off[k], 4);
      prev = static_cast<std::uint32_t>(
          static_cast<std::int64_t>(prev) + varint::unzigzag(raw & t.msk[k]));
      out[i] = static_cast<V>(prev);
    }
  }
  return count;
}

/// Process-unique cookie for the decode-cache key (one per constructed
/// graph; copies share content, so sharing the cookie is sound).
inline std::uint64_t next_cookie() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace blockcodec

// ---------------------------------------------------------------------------
// block_graph_base: the operator-facing API over any block-coded storage
// ---------------------------------------------------------------------------

/// CRTP base implementing the CSR-side graph concept over block-coded
/// adjacency.  `Derived` supplies raw storage access:
///   base_num_vertices(), base_num_cols(), base_num_edges(),
///   row_offsets_data() -> u64 const*, block_offsets_data() -> u64 const*,
///   adjacency_data() -> u8 const*, weights_data() -> W const*, cookie().
/// Storage may be owned vectors (`compressed_graph`) or an mmap'd file
/// (`io::mapped_graph`); the decode path is identical.
template <typename Derived, typename V, typename E, typename W>
class block_graph_base {
  // The operators iterate edge ids of type E; 64-bit internals mean the
  // codec never narrows, but E itself must be able to *name* every edge.
  static_assert(sizeof(E) >= 4, "edge ids narrower than 32 bits cannot "
                                "index realistic adjacency");

 public:
  using vertex_type = V;
  using edge_type = E;
  using weight_type = W;

  static constexpr bool has_csr = true;  ///< push-side API below
  static constexpr bool has_csc = false;
  static constexpr bool has_coo = false;

  // --- whole-graph queries ---------------------------------------------------

  V get_num_vertices() const { return self().base_num_vertices(); }
  E get_num_edges() const { return static_cast<E>(self().base_num_edges()); }
  id_range<V> get_vertices() const { return {V{0}, get_num_vertices()}; }

  // --- push-side queries (the operator matrix's contract) --------------------

  E get_out_degree(V v) const {
    std::uint64_t const* const row = self().row_offsets_data();
    auto const i = static_cast<std::size_t>(v);
    return static_cast<E>(row[i + 1] - row[i]);
  }

  id_range<E> get_edges(V v) const {
    std::uint64_t const* const row = self().row_offsets_data();
    auto const i = static_cast<std::size_t>(v);
    return {static_cast<E>(row[i]), static_cast<E>(row[i + 1])};
  }

  /// Random edge access through the thread-local block cache: decode the
  /// containing block once, serve every edge of that block from scratch.
  /// Sequential `get_edges(v)` walks hit the cache on all but the first
  /// edge of each block — amortized O(1), the property that lets the
  /// unchanged operators (and their `edge_grain` chunking) run here.
  V get_dest_vertex(E e) const {
    auto& s = scratch();
    std::uint64_t const b =
        static_cast<std::uint64_t>(e) / blockcodec::block_edges;
    if (s.cookie != self().cookie() || s.block != b) {
      blockcodec::decode_block(self().adjacency_data(),
                               self().block_offsets_data(), b, s.vals);
      s.cookie = self().cookie();
      s.block = b;
    }
    return s.vals[static_cast<std::uint64_t>(e) % blockcodec::block_edges];
  }

  W get_edge_weight(E e) const {
    return self().weights_data()[static_cast<std::size_t>(e)];
  }

  /// Source of an edge id: binary search over row offsets (same contract
  /// as csr_view::csr_source).
  V get_source_vertex(E e) const {
    std::uint64_t const* const row = self().row_offsets_data();
    std::size_t const n = static_cast<std::size_t>(get_num_vertices());
    auto const it = std::upper_bound(row, row + n + 1,
                                     static_cast<std::uint64_t>(e));
    return static_cast<V>((it - row) - 1);
  }

  // --- streaming decode ------------------------------------------------------

  /// Visit every out-neighbor of v: fn(dst, weight).  Streams through the
  /// same block cache as `get_dest_vertex`, so mixing call styles stays
  /// coherent and warm.
  template <typename F>
  void for_each_neighbor(V v, F&& fn) const {
    std::uint64_t const* const row = self().row_offsets_data();
    std::uint64_t const lo = row[static_cast<std::size_t>(v)];
    std::uint64_t const hi = row[static_cast<std::size_t>(v) + 1];
    W const* const weights = self().weights_data();
    for (std::uint64_t e = lo; e < hi; ++e)
      fn(get_dest_vertex(static_cast<E>(e)), weights[e]);
  }

  /// Decode block `b` straight into `out` (bench / bulk-rehydrate path;
  /// bypasses the cache).  Returns the block's edge count.
  std::size_t decode_block_into(std::uint64_t b, V* out) const {
    return blockcodec::decode_block(self().adjacency_data(),
                                    self().block_offsets_data(), b, out);
  }

  std::uint64_t num_blocks() const {
    std::uint64_t const m = self().base_num_edges();
    return (m + blockcodec::block_edges - 1) / blockcodec::block_edges;
  }

  // --- footprint reporting ---------------------------------------------------

  /// Bytes of the encoded adjacency (headers + payloads) — the headline.
  std::uint64_t adjacency_bytes() const {
    return self().block_offsets_data()[num_blocks()];
  }
  /// What uncompressed CSR adjacency would use.
  std::uint64_t uncompressed_adjacency_bytes() const {
    return self().base_num_edges() * sizeof(V);
  }
  double compression_ratio() const {
    auto const b = adjacency_bytes();
    return b == 0 ? 1.0
                  : static_cast<double>(uncompressed_adjacency_bytes()) /
                        static_cast<double>(b);
  }
  /// Encoded adjacency bytes per edge (plain CSR: sizeof(V) == 4).
  double bytes_per_edge() const {
    auto const m = self().base_num_edges();
    return m == 0 ? 0.0
                  : static_cast<double>(adjacency_bytes()) /
                        static_cast<double>(m);
  }
  /// Full structure footprint: adjacency + offsets + block index + weights
  /// (what the registry's resident-budget accounting charges).
  std::uint64_t resident_bytes() const {
    return adjacency_bytes() + blockcodec::stream_slop +
           (static_cast<std::uint64_t>(self().base_num_vertices()) + 1) *
               sizeof(std::uint64_t) +
           (num_blocks() + 1) * sizeof(std::uint64_t) +
           self().base_num_edges() * sizeof(W);
  }

 private:
  Derived const& self() const { return *static_cast<Derived const*>(this); }

  /// Thread-local decoded-block scratch, cache-line aligned like a
  /// lane_buffers lane: a stealing worker decoding neighboring blocks must
  /// never false-share another worker's scratch.
  struct decode_scratch_t {
    std::uint64_t cookie = 0;      ///< 0 == empty (graph cookies start at 1)
    std::uint64_t block = ~0ull;
    alignas(parallel::cache_line_size) V vals[blockcodec::block_edges];
  };
  static decode_scratch_t& scratch() {
    thread_local decode_scratch_t s;
    return s;
  }
};

// ---------------------------------------------------------------------------
// compressed_graph: owned block-coded CSR
// ---------------------------------------------------------------------------

/// In-memory block-coded graph.  Satisfies the same push-side concept as
/// `graph_t<csr_view<>>`, so every CSR-side operator and algorithm runs on
/// it unchanged.
template <typename V = vertex_t, typename E = edge_t, typename W = weight_t>
class compressed_graph
    : public block_graph_base<compressed_graph<V, E, W>, V, E, W> {
 public:
  compressed_graph() = default;

  /// Compress a canonical CSR.  Encoding cursors are 64-bit; the only
  /// bound `E` imposes is that it can still name every edge id.
  explicit compressed_graph(csr_t<V, E, W> const& csr)
      : num_vertices_(csr.num_rows),
        num_cols_(csr.num_cols),
        num_edges_(static_cast<std::uint64_t>(csr.column_indices.size())),
        cookie_(blockcodec::next_cookie()),
        weights_(csr.values.begin(), csr.values.end()) {
    expects(num_edges_ <=
                static_cast<std::uint64_t>(std::numeric_limits<E>::max()),
            "compressed_graph: edge count exceeds edge-id type; widen E");
    row_offsets_.assign(csr.row_offsets.begin(), csr.row_offsets.end());
    if (row_offsets_.empty())
      row_offsets_.push_back(0);
    auto enc =
        blockcodec::encode_adjacency(csr.column_indices.data(), num_edges_);
    bytes_ = std::move(enc.bytes);
    block_offsets_ = std::move(enc.block_offsets);
  }

  // Storage access for block_graph_base.
  V base_num_vertices() const { return num_vertices_; }
  V base_num_cols() const { return num_cols_; }
  std::uint64_t base_num_edges() const { return num_edges_; }
  std::uint64_t const* row_offsets_data() const { return row_offsets_.data(); }
  std::uint64_t const* block_offsets_data() const {
    return block_offsets_.data();
  }
  std::uint8_t const* adjacency_data() const { return bytes_.data(); }
  W const* weights_data() const { return weights_.data(); }
  std::uint64_t cookie() const { return cookie_; }

  /// Rehydrate a plain CSR (registry promotion / round-trip tests).
  csr_t<V, E, W> to_csr() const {
    csr_t<V, E, W> csr;
    csr.num_rows = num_vertices_;
    csr.num_cols = num_cols_;
    csr.row_offsets.resize(static_cast<std::size_t>(num_vertices_) + 1);
    for (std::size_t i = 0; i < csr.row_offsets.size(); ++i)
      csr.row_offsets[i] = static_cast<E>(row_offsets_[i]);
    csr.column_indices.resize(static_cast<std::size_t>(num_edges_));
    for (std::uint64_t b = 0; b < this->num_blocks(); ++b)
      this->decode_block_into(
          b, csr.column_indices.data() + b * blockcodec::block_edges);
    csr.values.assign(weights_.begin(), weights_.end());
    return csr;
  }

 private:
  V num_vertices_ = 0;
  V num_cols_ = 0;
  std::uint64_t num_edges_ = 0;
  std::uint64_t cookie_ = 0;
  std::vector<std::uint64_t> row_offsets_;    ///< size V+1 (64-bit: >2^31-edge safe)
  std::vector<std::uint64_t> block_offsets_;  ///< size num_blocks+1
  std::vector<std::uint8_t> bytes_;           ///< blocks + trailing slop
  std::vector<W> weights_;                    ///< parallel to edge ids
};

}  // namespace essentials::graph

namespace essentials::algorithms {

/// SSSP over any graph exposing `for_each_neighbor` (sequential reference
/// loop + the same relaxation) — the memory-bound anchor of the
/// compression bench.
template <typename CG>
std::vector<typename CG::weight_type> sssp_compressed(
    CG const& g, typename CG::vertex_type source) {
  using V = typename CG::vertex_type;
  using W = typename CG::weight_type;
  expects(source >= 0 && source < g.get_num_vertices(),
          "sssp_compressed: source out of range");
  std::vector<W> dist(static_cast<std::size_t>(g.get_num_vertices()),
                      infinity_v<W>);
  dist[static_cast<std::size_t>(source)] = W{0};
  std::vector<V> frontier{source}, next;
  while (!frontier.empty()) {
    next.clear();
    for (V const v : frontier) {
      W const d = dist[static_cast<std::size_t>(v)];
      g.for_each_neighbor(v, [&](V nb, W w) {
        if (d + w < dist[static_cast<std::size_t>(nb)]) {
          dist[static_cast<std::size_t>(nb)] = d + w;
          next.push_back(nb);
        }
      });
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    frontier.swap(next);
  }
  return dist;
}

}  // namespace essentials::algorithms
