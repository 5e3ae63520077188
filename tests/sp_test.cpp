#include <gtest/gtest.h>

#include "rsn/example_networks.hpp"
#include "sp/decomposition.hpp"
#include "test_util.hpp"

namespace rrsn::sp {
namespace {

using rsn::makeFig1Network;
using rsn::makeFig1Spec;

TEST(Decomposition, Fig1TreeShape) {
  const rsn::Network net = makeFig1Network();
  const DecompositionTree tree = DecompositionTree::build(net);
  // In-order leaves = scan order.
  const auto order = tree.scanOrder();
  std::vector<std::string> names;
  for (auto s : order) names.push_back(net.segment(s).name);
  EXPECT_EQ(names,
            (std::vector<std::string>{"c0", "seg_i1", "sb1", "seg_i2",
                                      "seg_i3", "c2", "c1"}));
}

TEST(Decomposition, ParentalParallelMatchesPaper) {
  // "m0 is referred as a parent of c2" (Sec. III).
  const rsn::Network net = makeFig1Network();
  const DecompositionTree tree = DecompositionTree::build(net);
  const TreeId c2leaf = tree.leafOfSegment(net.findSegment("c2"));
  const TreeId parental = tree.parentalParallel(c2leaf);
  ASSERT_NE(parental, kNoTree);
  EXPECT_EQ(tree.node(parental).prim, net.findMux("m0"));

  // Top-level segments have no parental parallel.
  const TreeId c0leaf = tree.leafOfSegment(net.findSegment("c0"));
  EXPECT_EQ(tree.parentalParallel(c0leaf), kNoTree);
}

TEST(Decomposition, AnnotationSums) {
  const rsn::Network net = makeFig1Network();
  DecompositionTree tree = DecompositionTree::build(net);
  tree.annotate(makeFig1Spec(net));
  const TreeNode& root = tree.node(tree.root());
  EXPECT_EQ(root.sumObs, 9u);   // 4 + 3 + 2
  EXPECT_EQ(root.sumSet, 9u);   // 1 + 3 + 5
  EXPECT_EQ(root.instruments, 3u);

  // m0's content branch carries all three instruments.
  const auto& branches = tree.branchesOfMux(net.findMux("m0"));
  ASSERT_EQ(branches.size(), 2u);
  EXPECT_EQ(tree.node(branches[0]).instruments, 3u);
  EXPECT_EQ(tree.node(branches[1]).instruments, 0u);
}

TEST(Decomposition, BalancedSeriesDepthIsLogarithmic) {
  // A 4096-segment flat chain must produce an O(log n) tree, not a spine.
  rsn::NetworkBuilder b("chain");
  std::vector<rsn::NodeId> parts;
  for (int i = 0; i < 4096; ++i)
    parts.push_back(b.segment(test::indexedName("s", i), 1));
  b.setTop(b.chain(std::move(parts)));
  const rsn::Network net = b.build();
  const DecompositionTree tree = DecompositionTree::build(net);
  EXPECT_LE(tree.depth(), 14u);
  EXPECT_GE(tree.depth(), 12u);
}

TEST(Decomposition, MultiBranchMuxBinarized) {
  rsn::NetworkBuilder b("multi");
  auto s0 = b.segment("a", 1, "ia");
  auto s1 = b.segment("b", 1, "ib");
  auto s2 = b.segment("c", 1, "ic");
  auto m = b.mux("m", {s0, s1, s2});
  b.setTop(m);
  const rsn::Network net = b.build();
  const DecompositionTree tree = DecompositionTree::build(net);
  const auto& branches = tree.branchesOfMux(0);
  ASSERT_EQ(branches.size(), 3u);
  // The parallel group is a chain of two binary P vertices, same mux.
  const TreeId top = tree.parallelOfMux(0);
  EXPECT_EQ(tree.node(top).kind, TreeKind::Parallel);
  EXPECT_EQ(tree.node(top).prim, 0u);
  const TreeId left = tree.node(top).left;
  EXPECT_EQ(tree.node(left).kind, TreeKind::Parallel);
  EXPECT_EQ(tree.node(left).prim, 0u);
}

TEST(Decomposition, LeafCountMatchesSegments) {
  Rng rng(5);
  for (int round = 0; round < 8; ++round) {
    const rsn::Network net = test::randomNetwork(rng);
    const DecompositionTree tree = DecompositionTree::build(net);
    EXPECT_EQ(tree.scanOrder().size(), net.segments().size());
    // Every segment has a leaf, and the leaf points back at it.
    for (rsn::SegmentId s = 0; s < net.segments().size(); ++s) {
      const TreeId leaf = tree.leafOfSegment(s);
      EXPECT_EQ(tree.node(leaf).kind, TreeKind::LeafSegment);
      EXPECT_EQ(tree.node(leaf).prim, s);
    }
  }
}

TEST(Decomposition, AsciiAndDotRender) {
  const rsn::Network net = makeFig1Network();
  DecompositionTree tree = DecompositionTree::build(net);
  tree.annotate(makeFig1Spec(net));
  const std::string ascii = tree.toAscii();
  EXPECT_NE(ascii.find("P[m0]"), std::string::npos);
  EXPECT_NE(ascii.find("seg_i2"), std::string::npos);
  EXPECT_NE(ascii.find("(do=3, ds=3)"), std::string::npos);
  const std::string dot = tree.toDot("fig3");
  EXPECT_NE(dot.find("palegreen"), std::string::npos);   // P vertices
  EXPECT_NE(dot.find("lightblue"), std::string::npos);   // S vertices
}

}  // namespace
}  // namespace rrsn::sp
