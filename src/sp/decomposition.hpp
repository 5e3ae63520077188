// Binary decomposition tree of a series-parallel RSN (Sec. III, Fig. 3).
//
// Internal "S" vertices represent series compositions, "P" vertices
// parallel compositions; every leaf is a scan primitive (segment) or a
// wire.  Each parallel composition is closed by the scan multiplexer that
// forms its reconvergence gate, so P vertices carry the mux id; a mux
// with k > 2 branches becomes a chain of k-1 binary P vertices that all
// carry the same mux.  Series chains are built *balanced*, which keeps
// the tree depth logarithmic even for the 670k-segment MBIST networks
// and makes the per-segment criticality walk O(log N).
//
// The in-order sequence of leaves equals the scan order (scan-in first).
//
// The tree stores its vertices as structure-of-arrays (kind, prim,
// parent, children, subtree weight sums) plus a CSR of mux branch roots,
// and owns the two damage walks of the criticality analysis (Sec. IV-B):
// the break region of a segment and the stuck damage of a mux branch.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "rsn/network.hpp"
#include "rsn/spec.hpp"

namespace rrsn::sp {

using TreeId = std::uint32_t;
inline constexpr TreeId kNoTree = static_cast<TreeId>(-1);

enum class TreeKind : std::uint8_t { LeafWire, LeafSegment, Series, Parallel };

/// By-value view of one vertex of the binary decomposition tree.
struct TreeNode {
  TreeKind kind = TreeKind::LeafWire;
  TreeId left = kNoTree;    ///< internal nodes only
  TreeId right = kNoTree;   ///< internal nodes only
  TreeId parent = kNoTree;  ///< kNoTree for the root
  std::uint32_t prim = rsn::kNone;  ///< SegmentId (LeafSegment) / MuxId (Parallel)

  // Weight annotation (Sec. IV-A): sums of instrument damage weights in
  // the subtree.  Zero until annotate().
  std::uint64_t sumObs = 0;
  std::uint64_t sumSet = 0;
  std::uint32_t instruments = 0;  ///< number of instruments in the subtree
};

/// The annotated binary decomposition tree of one network.
class DecompositionTree {
 public:
  /// Builds the tree shape from the network's hierarchical structure.
  /// Weight annotations are zero until annotate() is called.
  static DecompositionTree build(const rsn::Network& net);

  /// Fills the subtree weight sums and instrument counts bottom-up from
  /// `spec`.
  void annotate(const rsn::CriticalitySpec& spec);

  const rsn::Network& network() const { return *net_; }

  TreeNode node(TreeId id) const {
    RRSN_CHECK(id < kind_.size(), "tree node id out of range");
    return {kind_[id],   left_[id],   right_[id],  parent_[id],
            prim_[id],   sumObs_[id], sumSet_[id], instruments_[id]};
  }
  std::size_t nodeCount() const { return kind_.size(); }
  TreeId root() const { return root_; }

  /// Leaf holding a given segment.
  TreeId leafOfSegment(rsn::SegmentId seg) const {
    RRSN_CHECK(seg < leafOfSegment_.size(), "segment id out of range");
    return leafOfSegment_[seg];
  }

  /// Topmost P vertex of a mux's parallel group.
  TreeId parallelOfMux(rsn::MuxId mux) const {
    RRSN_CHECK(mux < parallelOfMux_.size(), "mux id out of range");
    return parallelOfMux_[mux];
  }

  /// Roots of the k branch subtrees of a mux, in address order.
  std::span<const TreeId> branchesOfMux(rsn::MuxId mux) const {
    RRSN_CHECK(mux < parallelOfMux_.size(), "mux id out of range");
    return {branchRoots_.data() + branchOffsets_[mux],
            branchRoots_.data() + branchOffsets_[mux + 1]};
  }

  /// Nearest strict ancestor of `id` that is a P vertex — the segment's
  /// *parental multiplexer* region (Sec. IV-B1); kNoTree if the primitive
  /// sits on the top-level serial path.
  TreeId parentalParallel(TreeId id) const;

  /// The break region of segment `seg`: walks from its leaf up to the
  /// nearest P ancestor and calls visit(subtree, upstream) for every
  /// sibling subtree on the way.  An upstream (scan-in side, left)
  /// sibling loses observability, a downstream (right) one settability.
  template <typename Visit>
  void forEachBreakSibling(rsn::SegmentId seg, Visit&& visit) const {
    TreeId cur = leafOfSegment(seg);
    for (TreeId p = parent_[cur];
         p != kNoTree && kind_[p] != TreeKind::Parallel;
         cur = p, p = parent_[p]) {
      if (right_[p] == cur)
        visit(left_[p], /*upstream=*/true);
      else
        visit(right_[p], /*upstream=*/false);
    }
  }

  /// Weighted damage of a break of `seg` (Eq. 1 restricted to that
  /// fault): its own instrument's do + ds, upstream do, downstream ds.
  /// O(tree depth).  The tree must be annotate()d.
  std::uint64_t breakDamage(rsn::SegmentId seg) const {
    const TreeId leaf = leafOfSegment(seg);
    std::uint64_t damage = sumObs_[leaf] + sumSet_[leaf];
    forEachBreakSibling(seg, [&](TreeId sibling, bool upstream) {
      damage += upstream ? sumObs_[sibling] : sumSet_[sibling];
    });
    return damage;
  }

  /// Weighted damage of mux `mux` stuck at `branch`: every other branch
  /// is disconnected both ways, so it is the sums of the whole parallel
  /// group minus those of the selected branch.  O(1).  The tree must be
  /// annotate()d.
  std::uint64_t stuckDamage(rsn::MuxId mux, std::uint32_t branch) const {
    const auto branches = branchesOfMux(mux);
    RRSN_CHECK(branch < branches.size(), "stuck branch out of range");
    const TreeId top = parallelOfMux_[mux];
    const TreeId kept = branches[branch];
    return (sumObs_[top] + sumSet_[top]) - (sumObs_[kept] + sumSet_[kept]);
  }

  /// Scan order (in-order position, scan-in first) of each segment leaf.
  /// Useful for reports and for the brute-force cross-check.
  std::vector<rsn::SegmentId> scanOrder() const;

  /// Tree depth (edges on the longest root-to-leaf path).
  std::size_t depth() const;

  /// ASCII rendering in the style of Fig. 3 (S/P internal vertices,
  /// primitive names at the leaves, weight annotations when present).
  std::string toAscii() const;

  /// Graphviz DOT rendering of the tree.
  std::string toDot(const std::string& graphName) const;

 private:
  DecompositionTree() = default;

  TreeId addNode(TreeKind kind, std::uint32_t prim, TreeId left = kNoTree,
                 TreeId right = kNoTree);
  TreeId convert(rsn::NodeId structNode);
  TreeId buildBalancedSeries(const std::vector<TreeId>& parts, std::size_t lo,
                             std::size_t hi);
  bool isInternal(TreeId id) const {
    return kind_[id] == TreeKind::Series || kind_[id] == TreeKind::Parallel;
  }
  std::string label(TreeId id) const;

  const rsn::Network* net_ = nullptr;
  std::vector<TreeKind> kind_;
  std::vector<std::uint32_t> prim_;
  std::vector<TreeId> parent_, left_, right_;
  std::vector<std::uint64_t> sumObs_, sumSet_;
  std::vector<std::uint32_t> instruments_;
  TreeId root_ = kNoTree;
  std::vector<TreeId> leafOfSegment_;
  std::vector<TreeId> parallelOfMux_;
  /// Mux m's branch subtree roots: branchRoots_[branchOffsets_[m],
  /// branchOffsets_[m + 1]).
  std::vector<std::uint32_t> branchOffsets_;
  std::vector<TreeId> branchRoots_;
};

}  // namespace rrsn::sp
