// The hierarchical series-parallel structure of an RSN.
//
// The paper (Sec. III, Def. 1) analyzes RSNs as hierarchical
// series-parallel graphs.  This module stores that structure directly:
// a tree of nodes where
//   * Wire      — a direct connection carrying no scan cell,
//   * Segment   — a scan-segment leaf,
//   * Serial    — a series composition of >= 1 parts in scan order,
//   * MuxJoin   — a parallel composition: a fan-out at the entry, one
//                 sub-structure per branch, closed by a scan multiplexer
//                 (the closing reconvergence gate); branch k is selected
//                 by address value k.
// The flat scan graph of Sec. III (Fig. 2) is lowered from this structure
// into the FlatNetwork arena (flat.hpp), and the binary decomposition
// tree (Fig. 3) is built in src/sp/decomposition.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "rsn/primitives.hpp"
#include "support/error.hpp"

namespace rrsn::rsn {

using NodeId = std::uint32_t;

enum class NodeKind : std::uint8_t { Wire, Segment, MuxJoin, Serial };

/// Arena of structure nodes; nodes are immutable once created and are
/// referenced by dense NodeIds, so a Structure is cheap to copy/move.
class Structure {
 public:
  struct Node {
    NodeKind kind = NodeKind::Wire;
    std::uint32_t prim = kNone;       ///< SegmentId or MuxId depending on kind
    std::vector<NodeId> children;     ///< Serial parts / MuxJoin branches
  };

  /// Creates a wire node (empty bypass branch).
  NodeId makeWire();

  /// Creates a segment leaf.
  NodeId makeSegment(SegmentId segment);

  /// Creates a series composition; `parts` in scan-in -> scan-out order.
  NodeId makeSerial(std::vector<NodeId> parts);

  /// Creates a parallel composition closed by `mux`; branch k corresponds
  /// to address value k.  Requires >= 2 branches.
  NodeId makeMuxJoin(MuxId mux, std::vector<NodeId> branches);

  const Node& node(NodeId id) const {
    RRSN_CHECK(id < nodes_.size(), "structure node id out of range");
    return nodes_[id];
  }

  std::size_t nodeCount() const { return nodes_.size(); }

  NodeId root() const { return root_; }
  void setRoot(NodeId id);
  bool hasRoot() const { return root_ != kNone; }

  /// Depth-first pre-order walk; fn(nodeId) is invoked parent-first.
  template <typename Fn>
  void preOrder(Fn&& fn) const {
    if (!hasRoot()) return;
    std::vector<NodeId> stack{root_};
    while (!stack.empty()) {
      const NodeId id = stack.back();
      stack.pop_back();
      fn(id);
      const Node& n = node(id);
      for (auto it = n.children.rbegin(); it != n.children.rend(); ++it)
        stack.push_back(*it);
    }
  }

 private:
  std::vector<Node> nodes_;
  NodeId root_ = kNone;
};

}  // namespace rrsn::rsn
