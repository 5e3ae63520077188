// Shared helpers for the test suite: a random hierarchical RSN generator
// (for property tests comparing the fast analysis against the oracles),
// definition-level checks on the arena's scan graph and a random-spec
// shortcut.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "graph/vertex.hpp"
#include "rsn/builder.hpp"
#include "rsn/flat.hpp"
#include "rsn/network.hpp"
#include "rsn/spec.hpp"
#include "support/rng.hpp"

namespace rrsn::test {

/// `prefix` followed by the decimal `i`.  Built by appending: GCC 12
/// reports a false -Wrestrict on `"literal" + std::to_string(i)` in
/// optimized builds.
template <typename Int>
std::string indexedName(std::string_view prefix, Int i) {
  std::string name(prefix);
  name += std::to_string(i);
  return name;
}

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
      return b.sib(indexedName("sib", muxCounter++), content);
    }
    std::vector<rsn::NodeId> branches{content};
    const auto extra = static_cast<std::size_t>(
        rng.range(1, static_cast<std::int64_t>(opt.maxMuxBranches) - 1));
    for (std::size_t k = 0; k < extra; ++k) {
      branches.push_back(rng.chance(0.5) ? b.wire() : makeSegment(true));
    }
    return b.mux(indexedName("m", muxCounter++), std::move(branches));
  };

  std::vector<rsn::NodeId> top;
  top.push_back(makeSegment(false));  // leading config/dummy segment
  while (segCounter < opt.targetSegments) top.push_back(unit(unit, 0));
  b.setTop(b.chain(std::move(top)));
  return b.build();
}

/// Vertices of the arena's scan graph reachable from `from` by a plain
/// BFS over the forward CSR (the backward CSR with `backward`), never
/// entering `avoid`.  Independent of the lowering's own bookkeeping, so
/// tests can check graph facts by their definitions.
inline std::vector<bool> reachable(const rsn::FlatNetwork& flat,
                                   graph::VertexId from, bool backward = false,
                                   graph::VertexId avoid = graph::kNoVertex) {
  const auto offsets = backward ? flat.bwdOffsets() : flat.fwdOffsets();
  const auto edges = backward ? flat.bwdEdges() : flat.fwdEdges();
  std::vector<bool> seen(flat.vertexCount(), false);
  std::vector<graph::VertexId> queue{from};
  seen[from] = true;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const graph::VertexId v = queue[head];
    for (auto e = offsets[v]; e < offsets[v + 1]; ++e) {
      const graph::VertexId w = edges[e].other;
      if (w == avoid || seen[w]) continue;
      seen[w] = true;
      queue.push_back(w);
    }
  }
  return seen;
}

/// True if the arena's scan graph is a two-terminal DAG between SI and
/// SO: Kahn's algorithm consumes every vertex (acyclic), and every vertex
/// is reachable from SI and reaches SO.
inline bool isTwoTerminalDag(const rsn::FlatNetwork& flat) {
  const std::size_t n = flat.vertexCount();
  const auto offsets = flat.fwdOffsets();
  const auto edges = flat.fwdEdges();
  std::vector<std::size_t> inDegree(n, 0);
  for (std::size_t e = 0; e < edges.size(); ++e) ++inDegree[edges[e].other];
  std::vector<graph::VertexId> ready;
  for (graph::VertexId v = 0; v < n; ++v)
    if (inDegree[v] == 0) ready.push_back(v);
  std::size_t consumed = 0;
  while (!ready.empty()) {
    const graph::VertexId v = ready.back();
    ready.pop_back();
    ++consumed;
    for (auto e = offsets[v]; e < offsets[v + 1]; ++e)
      if (--inDegree[edges[e].other] == 0) ready.push_back(edges[e].other);
  }
  if (consumed != n) return false;
  const std::vector<bool> fromSi = reachable(flat, flat.scanIn());
  const std::vector<bool> toSo = reachable(flat, flat.scanOut(), true);
  for (std::size_t v = 0; v < n; ++v)
    if (!fromSi[v] || !toSo[v]) return false;
  return true;
}

/// Random spec with the paper's 70/70/10/10 recipe.
/// One TAP-addressed mux of `branches` branches between a head and a
/// tail segment, mixing bypass wires (every seventh branch), segments
/// with and without an instrument, two-segment chains and, in the
/// middle, a SIB gating a nested two-way mux.
inline rsn::Network wideMuxNetwork(std::size_t branches) {
  rsn::NetworkBuilder b("wide_mux");
  const auto head = b.segment("head", 2, "i_head");
  std::vector<rsn::NodeId> arms;
  arms.reserve(branches);
  for (std::size_t k = 0; k < branches; ++k) {
    const std::string id = std::to_string(k);
    if (k == branches / 2) {
      const auto inner = b.mux("inner", {b.segment("n0", 3, "i_n0"),
                                         b.segment("n1", 1, "i_n1")});
      arms.push_back(b.sib("sib", b.chain({b.segment("g", 2, "i_g"), inner})));
    } else if (k % 7 == 3) {
      arms.push_back(b.wire());
    } else if (k % 5 == 1) {
      arms.push_back(b.chain({b.segment("a" + id, 1, "i_a" + id),
                              b.segment("b" + id, 2)}));
    } else {
      arms.push_back(
          b.segment("s" + id, 1, k % 3 == 0 ? std::string{} : "i_s" + id));
    }
  }
  const auto wide = b.mux("wide", std::move(arms));
  b.setTop(b.chain({head, wide, b.segment("tail", 1, "i_tail")}));
  return b.build();
}

inline rsn::CriticalitySpec randomSpecFor(const rsn::Network& net, Rng& rng) {
  return rsn::randomSpec(net, rsn::SpecOptions{}, rng);
}

}  // namespace rrsn::test
