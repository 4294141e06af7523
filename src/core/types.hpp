#pragma once

/// \file core/types.hpp
/// \brief Fundamental scalar types, limits and small helpers shared by every
/// module of the essentials framework.
///
/// The paper's abstraction is agnostic to the width of vertex/edge
/// identifiers; we follow the companion artifact (gunrock/essentials) and
/// default to 32-bit vertex ids, 32-bit edge ids and single-precision
/// weights, which fit the graph scales a single node can hold.  Everything
/// that matters is templated on these types, so wider ids are a typedef away.

#include <cstdint>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>

namespace essentials {

/// Default vertex identifier. Signed so that -1 can act as an "invalid"
/// sentinel in textbook-style code, matching the paper's listings which use
/// plain `int` vertices.
using vertex_t = std::int32_t;

/// Default edge identifier (an index into the CSR column/value arrays).
using edge_t = std::int32_t;

/// Default edge-weight type (paper Listing 1 stores `float` values).
using weight_t = float;

/// Canonical "no vertex" sentinel.
template <typename V = vertex_t>
inline constexpr V invalid_vertex = static_cast<V>(-1);

/// Canonical "no edge" sentinel.
template <typename E = edge_t>
inline constexpr E invalid_edge = static_cast<E>(-1);

/// Canonical "unreached" distance, mirroring Listing 4's
/// `std::numeric_limits<float>::max()` initialization.
template <typename W = weight_t>
inline constexpr W infinity_v = std::numeric_limits<W>::max();

/// Error type thrown by loaders/builders on malformed input.  Kept distinct
/// from std::runtime_error so callers can discriminate framework errors.
class graph_error : public std::runtime_error {
 public:
  explicit graph_error(std::string const& what) : std::runtime_error(what) {}
};

namespace detail {

/// The throw behind `expects`, kept out of line so that the check itself
/// stays small enough to inline wherever it is used.
[[noreturn, gnu::cold, gnu::noinline]] inline void throw_graph_error(
    char const* message) {
  throw graph_error(message);
}

}  // namespace detail

/// Lightweight contract check used across the library.  Unlike assert() it
/// fires in release builds too: graph algorithms silently producing wrong
/// results are far worse than an early throw.  Inlined, it also shows the
/// compiler that the code after it runs only when `condition` holds.
inline void expects(bool condition, char const* message) {
  if (!condition)
    detail::throw_graph_error(message);
}

/// Frontier/operator dichotomy: does an active set hold vertices or edges?
/// (Paper §III-C: "the frontier type, expressed as either a set of active
/// vertices or a set of active edges".)
enum class frontier_kind : std::uint8_t {
  vertex_frontier,
  edge_frontier,
};

/// Traversal direction selector (paper §III-C, push vs. pull).
enum class direction_t : std::uint8_t {
  push,      ///< expand out-edges of the input frontier (CSR)
  pull,      ///< gather along in-edges of candidate vertices (CSC)
  optimized  ///< direction-optimizing: pick push/pull per iteration
};

}  // namespace essentials
