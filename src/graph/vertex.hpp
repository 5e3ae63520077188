// Vertex ids of the scan graph G := (V, E) of Sec. III.
//
// An RSN's scan graph lives in the flat arena (src/rsn/flat.hpp).  The
// .rsn grammar and NetworkBuilder only compose hierarchical
// series-parallel structures, so that graph is two-terminal SP by
// construction and needs no general-graph container or SP reducer.
#pragma once

#include <cstdint>

namespace rrsn::graph {

using VertexId = std::uint32_t;

/// Sentinel for "no vertex".
inline constexpr VertexId kNoVertex = static_cast<VertexId>(-1);

}  // namespace rrsn::graph
