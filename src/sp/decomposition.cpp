#include "sp/decomposition.hpp"

#include <algorithm>
#include <sstream>

namespace rrsn::sp {

using rsn::NodeKind;

TreeId DecompositionTree::addNode(TreeKind kind, std::uint32_t prim,
                                  TreeId left, TreeId right) {
  const auto id = static_cast<TreeId>(kind_.size());
  kind_.push_back(kind);
  prim_.push_back(prim);
  parent_.push_back(kNoTree);
  left_.push_back(left);
  right_.push_back(right);
  if (left != kNoTree) parent_[left] = id;
  if (right != kNoTree) parent_[right] = id;
  return id;
}

TreeId DecompositionTree::buildBalancedSeries(const std::vector<TreeId>& parts,
                                              std::size_t lo, std::size_t hi) {
  if (hi - lo == 1) return parts[lo];
  const std::size_t mid = lo + (hi - lo) / 2;
  const TreeId left = buildBalancedSeries(parts, lo, mid);
  const TreeId right = buildBalancedSeries(parts, mid, hi);
  return addNode(TreeKind::Series, rsn::kNone, left, right);
}

TreeId DecompositionTree::convert(rsn::NodeId structNode) {
  const auto& n = net_->structure().node(structNode);
  switch (n.kind) {
    case NodeKind::Wire:
      return addNode(TreeKind::LeafWire, rsn::kNone);
    case NodeKind::Segment: {
      const TreeId id = addNode(TreeKind::LeafSegment, n.prim);
      leafOfSegment_[n.prim] = id;
      return id;
    }
    case NodeKind::Serial: {
      std::vector<TreeId> parts;
      parts.reserve(n.children.size());
      for (rsn::NodeId c : n.children) parts.push_back(convert(c));
      return buildBalancedSeries(parts, 0, parts.size());
    }
    case NodeKind::MuxJoin: {
      // Binarize the k branches into a left-leaning chain of P vertices
      // that all carry this mux: P(P(b0, b1), b2) ...  The branch roots
      // are remembered for the O(1) stuck damage.
      TreeId* roots = branchRoots_.data() + branchOffsets_[n.prim];
      for (std::size_t b = 0; b < n.children.size(); ++b)
        roots[b] = convert(n.children[b]);
      TreeId acc = roots[0];
      for (std::size_t b = 1; b < n.children.size(); ++b)
        acc = addNode(TreeKind::Parallel, n.prim, acc, roots[b]);
      parallelOfMux_[n.prim] = acc;
      return acc;
    }
  }
  throw Error("unreachable structure node kind");
}

DecompositionTree DecompositionTree::build(const rsn::Network& net) {
  DecompositionTree t;
  t.net_ = &net;
  const std::size_t muxes = net.muxes().size();
  t.leafOfSegment_.assign(net.segments().size(), kNoTree);
  t.parallelOfMux_.assign(muxes, kNoTree);
  t.branchOffsets_.assign(muxes + 1, 0);
  // Branch-root CSR: row m has one slot per branch of mux m.
  net.structure().preOrder([&](rsn::NodeId id) {
    const auto& n = net.structure().node(id);
    if (n.kind != NodeKind::MuxJoin) return;
    t.branchOffsets_[n.prim + 1] =
        static_cast<std::uint32_t>(n.children.size());
  });
  for (std::size_t m = 0; m < muxes; ++m)
    t.branchOffsets_[m + 1] += t.branchOffsets_[m];
  t.branchRoots_.assign(t.branchOffsets_[muxes], kNoTree);
  const std::size_t expected = 2 * net.segments().size() + 4 * muxes + 8;
  t.kind_.reserve(expected);
  for (auto* ids : {&t.prim_, &t.parent_, &t.left_, &t.right_})
    ids->reserve(expected);
  t.root_ = t.convert(net.structure().root());
  t.sumObs_.assign(t.nodeCount(), 0);
  t.sumSet_.assign(t.nodeCount(), 0);
  t.instruments_.assign(t.nodeCount(), 0);
  return t;
}

void DecompositionTree::annotate(const rsn::CriticalitySpec& spec) {
  RRSN_CHECK(spec.size() == net_->instruments().size(),
             "spec does not match the network");
  // Children are always created before their parents (addNode appends
  // after converting subtrees), so a single forward sweep accumulates
  // bottom-up.
  for (TreeId i = 0; i < nodeCount(); ++i) {
    if (isInternal(i)) {
      sumObs_[i] = sumObs_[left_[i]] + sumObs_[right_[i]];
      sumSet_[i] = sumSet_[left_[i]] + sumSet_[right_[i]];
      instruments_[i] = instruments_[left_[i]] + instruments_[right_[i]];
      continue;
    }
    sumObs_[i] = sumSet_[i] = 0;
    instruments_[i] = 0;
    if (kind_[i] != TreeKind::LeafSegment) continue;
    const auto inst = net_->segment(prim_[i]).instrument;
    if (inst == rsn::kNone) continue;
    sumObs_[i] = spec.of(inst).obs;
    sumSet_[i] = spec.of(inst).set;
    instruments_[i] = 1;
  }
}

TreeId DecompositionTree::parentalParallel(TreeId id) const {
  RRSN_CHECK(id < nodeCount(), "tree node id out of range");
  for (TreeId cur = parent_[id]; cur != kNoTree; cur = parent_[cur])
    if (kind_[cur] == TreeKind::Parallel) return cur;
  return kNoTree;
}

std::vector<rsn::SegmentId> DecompositionTree::scanOrder() const {
  std::vector<rsn::SegmentId> order;
  order.reserve(net_->segments().size());
  // Iterative in-order traversal (left = closer to scan-in).
  std::vector<TreeId> stack{root_};
  while (!stack.empty()) {
    const TreeId id = stack.back();
    stack.pop_back();
    if (kind_[id] == TreeKind::LeafSegment) {
      order.push_back(prim_[id]);
    } else if (isInternal(id)) {
      stack.push_back(right_[id]);
      stack.push_back(left_[id]);
    }
  }
  return order;
}

std::size_t DecompositionTree::depth() const {
  std::size_t best = 0;
  std::vector<std::pair<TreeId, std::size_t>> stack{{root_, 0}};
  while (!stack.empty()) {
    const auto [id, d] = stack.back();
    stack.pop_back();
    best = std::max(best, d);
    if (!isInternal(id)) continue;
    stack.emplace_back(left_[id], d + 1);
    stack.emplace_back(right_[id], d + 1);
  }
  return best;
}

std::string DecompositionTree::label(TreeId id) const {
  switch (kind_[id]) {
    case TreeKind::LeafWire:
      return "~";
    case TreeKind::LeafSegment:
      return net_->segment(prim_[id]).name;
    case TreeKind::Series:
      return "S";
    case TreeKind::Parallel:
      return "P[" + net_->mux(prim_[id]).name + "]";
  }
  return "?";
}

std::string DecompositionTree::toAscii() const {
  std::ostringstream os;
  // Pre-order walk with an explicit stack (a k-branch mux is a P chain
  // of depth k - 1).  Every entry records how much of the shared guide
  // prefix belongs to its parent; a subtree only ever appends to it.
  struct Entry {
    TreeId id;
    std::size_t prefixLen;
    bool last;
  };
  std::string prefix;
  std::vector<Entry> stack{{root_, 0, true}};
  while (!stack.empty()) {
    const Entry e = stack.back();
    stack.pop_back();
    prefix.resize(e.prefixLen);
    const bool isRoot = e.id == root_;
    os << prefix << (isRoot ? "" : (e.last ? "`-- " : "|-- ")) << label(e.id);
    if (instruments_[e.id] > 0)
      os << "  (do=" << sumObs_[e.id] << ", ds=" << sumSet_[e.id] << ")";
    os << '\n';
    if (!isInternal(e.id)) continue;
    if (!isRoot) prefix += e.last ? "    " : "|   ";
    stack.push_back({right_[e.id], prefix.size(), true});
    stack.push_back({left_[e.id], prefix.size(), false});
  }
  return os.str();
}

std::string DecompositionTree::toDot(const std::string& graphName) const {
  std::ostringstream os;
  os << "digraph \"" << graphName << "\" {\n";
  for (TreeId i = 0; i < nodeCount(); ++i) {
    const char* shape = "box";
    const char* color = "white";
    if (kind_[i] == TreeKind::Series) {
      shape = "circle";
      color = "lightblue";
    } else if (kind_[i] == TreeKind::Parallel) {
      shape = "circle";
      color = "palegreen";
    }
    os << "  t" << i << " [label=\"" << label(i) << "\",shape=" << shape
       << ",style=filled,fillcolor=" << color << "];\n";
  }
  for (TreeId i = 0; i < nodeCount(); ++i) {
    if (!isInternal(i)) continue;
    os << "  t" << i << " -> t" << left_[i] << ";\n";
    os << "  t" << i << " -> t" << right_[i] << ";\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace rrsn::sp
