#include <gtest/gtest.h>

#include "benchgen/registry.hpp"
#include "fault/effects.hpp"
#include "fault/fault.hpp"
#include "rsn/example_networks.hpp"
#include "rsn/flat.hpp"
#include "test_util.hpp"

namespace rrsn::fault {
namespace {

using rsn::makeFig1Network;

std::vector<std::string> instrumentNames(const rsn::Network& net,
                                         const DynamicBitset& bits) {
  std::vector<std::string> names;
  bits.forEachSet([&](std::size_t i) {
    names.push_back(net.instrument(static_cast<rsn::InstrumentId>(i)).name);
  });
  return names;
}

TEST(FaultUniverse, CountsPerPrimitive) {
  const rsn::Network net = makeFig1Network();
  const FaultUniverse universe(net);
  // 7 segment breaks + 4 two-input muxes * 2 stuck values = 15 faults.
  EXPECT_EQ(universe.size(), 15u);
  EXPECT_EQ(universe
                .faultsAt({rsn::PrimitiveRef::Kind::Segment,
                           net.findSegment("c0")})
                .size(),
            1u);
  EXPECT_EQ(
      universe.faultsAt({rsn::PrimitiveRef::Kind::Mux, net.findMux("m0")})
          .size(),
      2u);
}

TEST(FaultUniverse, Describe) {
  const rsn::Network net = makeFig1Network();
  EXPECT_EQ(describe(net, Fault::segmentBreak(net.findSegment("c2"))),
            "break(c2)");
  EXPECT_EQ(describe(net, Fault::muxStuck(net.findMux("m0"), 1)),
            "stuck(m0=1)");
}

TEST(FaultEffects, Fig4GoldenM0Stuck1) {
  // Fig. 4: "Due to a stuck-at-1 fault of the multiplexer m0 the
  // instruments i1, i2 and i3 become inaccessible."
  const rsn::Network net = makeFig1Network();
  sp::DecompositionTree tree = sp::DecompositionTree::build(net);
  tree.annotate(rsn::makeFig1Spec(net));
  const Fault f = Fault::muxStuck(net.findMux("m0"), 1);
  const AccessibilityLoss loss = lossUnderFaultTree(tree, f);
  EXPECT_EQ(instrumentNames(net, loss.unobservable),
            (std::vector<std::string>{"i1", "i2", "i3"}));
  EXPECT_EQ(instrumentNames(net, loss.unsettable),
            (std::vector<std::string>{"i1", "i2", "i3"}));
}

TEST(FaultEffects, M0StuckOnContentBranchIsHarmless) {
  const rsn::Network net = makeFig1Network();
  sp::DecompositionTree tree = sp::DecompositionTree::build(net);
  tree.annotate(rsn::makeFig1Spec(net));
  const AccessibilityLoss loss =
      lossUnderFaultTree(tree, Fault::muxStuck(net.findMux("m0"), 0));
  EXPECT_EQ(loss.unobservable.count(), 0u);
  EXPECT_EQ(loss.unsettable.count(), 0u);
}

TEST(FaultEffects, SibStuckDeassertedHidesContent) {
  // SIB branch 0 is the bypass: stuck there denies access to i1 only.
  const rsn::Network net = makeFig1Network();
  sp::DecompositionTree tree = sp::DecompositionTree::build(net);
  tree.annotate(rsn::makeFig1Spec(net));
  const AccessibilityLoss loss =
      lossUnderFaultTree(tree, Fault::muxStuck(net.findMux("sb1_mux"), 0));
  EXPECT_EQ(instrumentNames(net, loss.unobservable),
            (std::vector<std::string>{"i1"}));
  EXPECT_EQ(instrumentNames(net, loss.unsettable),
            (std::vector<std::string>{"i1"}));
}

TEST(FaultEffects, SibStuckAssertedIsHarmless) {
  const rsn::Network net = makeFig1Network();
  sp::DecompositionTree tree = sp::DecompositionTree::build(net);
  tree.annotate(rsn::makeFig1Spec(net));
  const AccessibilityLoss loss =
      lossUnderFaultTree(tree, Fault::muxStuck(net.findMux("sb1_mux"), 1));
  EXPECT_EQ(loss.unobservable.count(), 0u);
  EXPECT_EQ(loss.unsettable.count(), 0u);
}

TEST(FaultEffects, SegmentBreakSplitsBranch) {
  // break(seg_i2): i2 loses both; everything else is recoverable by
  // deselecting m1's content branch.
  const rsn::Network net = makeFig1Network();
  sp::DecompositionTree tree = sp::DecompositionTree::build(net);
  tree.annotate(rsn::makeFig1Spec(net));
  const AccessibilityLoss loss = lossUnderFaultTree(
      tree, Fault::segmentBreak(net.findSegment("seg_i2")));
  EXPECT_EQ(instrumentNames(net, loss.unobservable),
            (std::vector<std::string>{"i2"}));
  EXPECT_EQ(instrumentNames(net, loss.unsettable),
            (std::vector<std::string>{"i2"}));
}

TEST(FaultEffects, SibRegisterBreakSplitsUpstreamDownstream) {
  // break(sb1): i1 sits upstream of the register inside m0's branch ->
  // unobservable but still settable; i2/i3 sit downstream -> unsettable
  // but still observable.
  const rsn::Network net = makeFig1Network();
  sp::DecompositionTree tree = sp::DecompositionTree::build(net);
  tree.annotate(rsn::makeFig1Spec(net));
  const AccessibilityLoss loss =
      lossUnderFaultTree(tree, Fault::segmentBreak(net.findSegment("sb1")));
  EXPECT_EQ(instrumentNames(net, loss.unobservable),
            (std::vector<std::string>{"i1"}));
  EXPECT_EQ(instrumentNames(net, loss.unsettable),
            (std::vector<std::string>{"i2", "i3"}));
}

TEST(FaultEffects, TopLevelBreakHasNoIsolation) {
  // break(c0): c0 is the first top-level segment — everything downstream
  // loses settability, nothing was upstream.
  const rsn::Network net = makeFig1Network();
  sp::DecompositionTree tree = sp::DecompositionTree::build(net);
  tree.annotate(rsn::makeFig1Spec(net));
  const AccessibilityLoss loss =
      lossUnderFaultTree(tree, Fault::segmentBreak(net.findSegment("c0")));
  EXPECT_EQ(loss.unobservable.count(), 0u);
  EXPECT_EQ(instrumentNames(net, loss.unsettable),
            (std::vector<std::string>{"i1", "i2", "i3"}));
}

TEST(FaultEffects, DamageOfLossMatchesWeights) {
  const rsn::Network net = makeFig1Network();
  const auto spec = rsn::makeFig1Spec(net);
  sp::DecompositionTree tree = sp::DecompositionTree::build(net);
  tree.annotate(spec);
  const Fault f = Fault::muxStuck(net.findMux("m0"), 1);
  const auto loss = lossUnderFaultTree(tree, f);
  // All obs (9) + all set (9).
  EXPECT_EQ(damageOfLoss(spec, loss), 18u);
  EXPECT_EQ(damageUnderFaultTree(tree, f), 18u);
}

// The two independent fault-effect implementations agree on every fault
// of the paper example and of two generated benchmarks (a deep SoC and
// a SIB-gated MBIST network).
TEST(FaultEffects, TreeAndGraphOraclesAgreeOnNamedNetworks) {
  for (const std::string name : {"fig1", "p34392", "MBIST_1_5_5"}) {
    const rsn::Network net =
        name == "fig1" ? makeFig1Network() : benchgen::buildBenchmark(name);
    Rng rng(7);
    const auto spec = name == "fig1" ? rsn::makeFig1Spec(net)
                                     : test::randomSpecFor(net, rng);
    sp::DecompositionTree tree = sp::DecompositionTree::build(net);
    tree.annotate(spec);
    const auto flat = rsn::FlatNetwork::lower(net);
    const FaultUniverse universe(net);
    for (const Fault& f : universe.faults()) {
      const auto t = lossUnderFaultTree(tree, f);
      const auto g = lossUnderFaultGraph(*flat, f);
      EXPECT_EQ(t.unobservable, g.unobservable)
          << name << " " << describe(net, f);
      EXPECT_EQ(t.unsettable, g.unsettable) << name << " " << describe(net, f);
      EXPECT_EQ(damageUnderFaultTree(tree, f), damageOfLoss(spec, t))
          << name << " " << describe(net, f);
    }
  }
}

// Property sweep: the two independent fault-effect implementations agree
// on every fault of randomly generated networks.
class FaultOracleEquivalence : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(FaultOracleEquivalence, TreeMatchesGraph) {
  Rng rng(GetParam());
  const rsn::Network net = test::randomNetwork(rng);
  const auto spec = test::randomSpecFor(net, rng);
  sp::DecompositionTree tree = sp::DecompositionTree::build(net);
  tree.annotate(spec);
  const auto flat = rsn::FlatNetwork::lower(net);
  const FaultUniverse universe(net);
  for (const Fault& f : universe.faults()) {
    const auto t = lossUnderFaultTree(tree, f);
    const auto g = lossUnderFaultGraph(*flat, f);
    ASSERT_EQ(t.unobservable, g.unobservable)
        << net.name() << " seed=" << GetParam() << " " << describe(net, f);
    ASSERT_EQ(t.unsettable, g.unsettable)
        << net.name() << " seed=" << GetParam() << " " << describe(net, f);
    ASSERT_EQ(damageUnderFaultTree(tree, f), damageOfLoss(spec, t))
        << describe(net, f);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultOracleEquivalence,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace rrsn::fault
