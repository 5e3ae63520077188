// Shared helpers for the test suite: a random hierarchical RSN generator
// (for property tests comparing the fast analysis against the oracles)
// and a random-spec shortcut.
#pragma once

#include <string>

#include "graph/digraph.hpp"
#include "rsn/builder.hpp"
#include "rsn/flat.hpp"
#include "rsn/network.hpp"
#include "rsn/spec.hpp"
#include "support/rng.hpp"

namespace rrsn::test {

/// Parameters of the random network generator.
struct RandomNetOptions {
  std::size_t targetSegments = 30;
  double sibProbability = 0.4;   ///< chance a unit is a SIB vs a plain mux
  double nestProbability = 0.5;  ///< chance a mux/SIB content nests deeper
  std::uint32_t maxSegmentLength = 6;
  std::uint32_t maxMuxBranches = 3;
};

/// Builds a random valid hierarchical SP network.  Deterministic in rng.
inline rsn::Network randomNetwork(Rng& rng, const RandomNetOptions& opt = {}) {
  rsn::NetworkBuilder b("random");
  std::size_t segCounter = 0;
  std::size_t muxCounter = 0;

  const auto makeSegment = [&](bool withInstrument) {
    const std::string id = std::to_string(segCounter++);
    const auto len = static_cast<std::uint32_t>(
        rng.range(1, static_cast<std::int64_t>(opt.maxSegmentLength)));
    return b.segment("s" + id, len, withInstrument ? "i" + id : std::string{});
  };

  // Recursive unit builder: returns a handle, consuming budget.
  const auto unit = [&](auto&& self, std::size_t depth) -> rsn::NodeId {
    if (segCounter >= opt.targetSegments || depth > 4 ||
        !rng.chance(opt.nestProbability)) {
      return makeSegment(true);
    }
    // Chain of 1..3 sub-units.
    std::vector<rsn::NodeId> parts;
    const auto count = static_cast<std::size_t>(rng.range(1, 3));
    for (std::size_t k = 0; k < count && segCounter < opt.targetSegments; ++k)
      parts.push_back(self(self, depth + 1));
    if (parts.empty()) parts.push_back(makeSegment(true));
    const rsn::NodeId content =
        parts.size() == 1 ? parts[0] : b.chain(std::move(parts));
    if (rng.chance(opt.sibProbability)) {
      return b.sib("sib" + std::to_string(muxCounter++), content);
    }
    std::vector<rsn::NodeId> branches{content};
    const auto extra = static_cast<std::size_t>(
        rng.range(1, static_cast<std::int64_t>(opt.maxMuxBranches) - 1));
    for (std::size_t k = 0; k < extra; ++k) {
      branches.push_back(rng.chance(0.5) ? b.wire() : makeSegment(true));
    }
    return b.mux("m" + std::to_string(muxCounter++), std::move(branches));
  };

  std::vector<rsn::NodeId> top;
  top.push_back(makeSegment(false));  // leading config/dummy segment
  while (segCounter < opt.targetSegments) top.push_back(unit(unit, 0));
  b.setTop(b.chain(std::move(top)));
  return b.build();
}

/// The arena's scan graph copied into a generic Digraph (vertex ids and
/// per-vertex edge order kept), for the general-graph algorithms:
/// dominators, two-terminal checks, SP virtualization.
inline graph::Digraph digraphOf(const rsn::FlatNetwork& flat) {
  graph::Digraph g;
  for (std::size_t v = 0; v < flat.vertexCount(); ++v) g.addVertex();
  for (graph::VertexId v = 0; v < flat.vertexCount(); ++v)
    for (auto e = flat.fwdOffsets()[v]; e < flat.fwdOffsets()[v + 1]; ++e)
      g.addEdge(v, flat.fwdEdges()[e].other);
  return g;
}

/// Random spec with the paper's 70/70/10/10 recipe.
inline rsn::CriticalitySpec randomSpecFor(const rsn::Network& net, Rng& rng) {
  return rsn::randomSpec(net, rsn::SpecOptions{}, rng);
}

}  // namespace rrsn::test
