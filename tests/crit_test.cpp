#include <gtest/gtest.h>

#include "benchgen/registry.hpp"
#include "crit/analyzer.hpp"
#include "rsn/example_networks.hpp"
#include "support/hash.hpp"
#include "support/parallel.hpp"
#include "test_util.hpp"

namespace rrsn::crit {
namespace {

using rsn::makeFig1Network;
using rsn::makeFig1Spec;
using rsn::PrimitiveRef;

std::uint64_t damageOfNamed(const rsn::Network& net,
                            const CriticalityResult& res,
                            const std::string& name) {
  const rsn::SegmentId seg = net.findSegment(name);
  if (seg != rsn::kNone)
    return res.damageOf(net.linearId({PrimitiveRef::Kind::Segment, seg}));
  const rsn::MuxId mux = net.findMux(name);
  EXPECT_NE(mux, rsn::kNone) << name;
  return res.damageOf(net.linearId({PrimitiveRef::Kind::Mux, mux}));
}

TEST(Criticality, Fig1GoldenDamages) {
  // Hand-computed per-primitive damages for the Fig. 1 example with
  // weights i1=(4,1), i2=(3,3), i3=(2,5); a mux is charged its worst
  // stuck value.
  const rsn::Network net = makeFig1Network();
  const CriticalityAnalyzer analyzer(net, makeFig1Spec(net));
  const CriticalityResult res = analyzer.run();

  EXPECT_EQ(damageOfNamed(net, res, "c0"), 9u);       // all set weights
  EXPECT_EQ(damageOfNamed(net, res, "c1"), 9u);       // all obs weights
  EXPECT_EQ(damageOfNamed(net, res, "c2"), 9u);       // branch obs weights
  EXPECT_EQ(damageOfNamed(net, res, "sb1"), 12u);     // 4 + (3 + 5)
  EXPECT_EQ(damageOfNamed(net, res, "seg_i1"), 5u);   // own 4+1
  EXPECT_EQ(damageOfNamed(net, res, "seg_i2"), 6u);   // own 3+3
  EXPECT_EQ(damageOfNamed(net, res, "seg_i3"), 7u);   // own 2+5
  EXPECT_EQ(damageOfNamed(net, res, "sb1_mux"), 5u);  // hide i1
  EXPECT_EQ(damageOfNamed(net, res, "m1"), 6u);
  EXPECT_EQ(damageOfNamed(net, res, "m2"), 7u);
  EXPECT_EQ(damageOfNamed(net, res, "m0"), 18u);      // hide the branch

  EXPECT_EQ(res.totalDamage(), 93u);
}

TEST(Criticality, M0IsTheMostCriticalPrimitive) {
  const rsn::Network net = makeFig1Network();
  const CriticalityResult res =
      CriticalityAnalyzer(net, makeFig1Spec(net)).run();
  const auto order = res.ranking();
  EXPECT_EQ(net.primitiveName(net.refOf(order[0])), "m0");
}

TEST(Criticality, ReportListsTopPrimitives) {
  const rsn::Network net = makeFig1Network();
  const CriticalityResult res =
      CriticalityAnalyzer(net, makeFig1Spec(net)).run();
  const std::string report = res.report(3).render();
  EXPECT_NE(report.find("m0"), std::string::npos);
  EXPECT_NE(report.find("mux"), std::string::npos);
  EXPECT_EQ(res.report(100).rowCount(), net.primitiveCount());
}

TEST(Criticality, BruteForceMatchesFastOnFig1) {
  const rsn::Network net = makeFig1Network();
  const auto spec = makeFig1Spec(net);
  EXPECT_EQ(CriticalityAnalyzer(net, spec).run().damages(),
            bruteForceAnalysis(net, spec).damages());
}

TEST(Criticality, WideMuxMatchesBruteForce) {
  // A stuck branch's damage comes from the subtree sums of the whole
  // parallel group; a 2,000-way mux with wires, chains and a nested SIB
  // exercises every branch shape the subtraction has to get right.
  const rsn::Network net = test::wideMuxNetwork(2000);
  Rng rng(11);
  const auto spec = test::randomSpecFor(net, rng);
  const auto fast = CriticalityAnalyzer(net, spec).run();
  const auto brute = bruteForceAnalysis(net, spec);
  EXPECT_EQ(fast.damages(), brute.damages());
  EXPECT_GT(damageOfNamed(net, fast, "wide"), 0u);
}

TEST(Criticality, ZeroWeightsZeroDamage) {
  const rsn::Network net = makeFig1Network();
  const rsn::CriticalitySpec zero(net.instruments().size());
  const auto res = CriticalityAnalyzer(net, zero).run();
  EXPECT_EQ(res.totalDamage(), 0u);
}

TEST(Criticality, HardenedPrimitiveContributesNoDamage) {
  // Eq. 2-3 semantics: hardening removes d_j from the sum; handled by the
  // optimizer as damageTotal - sum(gains).  Check consistency here.
  const rsn::Network net = makeFig1Network();
  const auto res = CriticalityAnalyzer(net, makeFig1Spec(net)).run();
  std::uint64_t remaining = res.totalDamage();
  remaining -= damageOfNamed(net, res, "m0");
  EXPECT_EQ(remaining, 75u);
}

// Damages and the Fig. 3 tree rendering are pinned on the designs the
// hardening flow and the MBIST width ladder run, so a change to the tree
// storage or the damage walks cannot move a single byte of either.
TEST(CriticalityGolden, DamagesMatchPinnedDigests) {
  struct Pin {
    const char* design;
    std::uint64_t damages;
    std::uint64_t dot;
  };
  const Pin pins[] = {
      {"TreeFlat", 0xe1b13e1389b49d25ULL, 0xb8d7d44b862bc99dULL},
      {"TreeUnbalanced", 0x531aaf9384140a8fULL, 0xd4dd3e19e728426eULL},
      {"TreeBalanced", 0x7f43a71d7431cb85ULL, 0xa7a1f692c6678718ULL},
      {"TreeFlat_Ex", 0x2897519b3db676baULL, 0x0ad020a100e7ba50ULL},
      {"q12710", 0xd592b49b60a50331ULL, 0xcd4c2c800e7b1400ULL},
      {"a586710", 0x91edad417691220dULL, 0x8199d879cc8712beULL},
      {"p34392", 0xa3e5de79bf61ecf8ULL, 0x160c0a803dab3f53ULL},
      {"t512505", 0xb0c8f2e72eadf853ULL, 0xcd048b41639b50faULL},
      {"p22810", 0x9d33e140fa16ab15ULL, 0xb801babe1014c41cULL},
      {"p93791", 0x65ed640a227a4c3eULL, 0xae7ed123007b9937ULL},
      {"MBIST_1_5_5", 0x3d69dcfd56e631eaULL, 0x36b4711c514640beULL},
      {"MBIST_1_5_20", 0xbc7449ff4c840667ULL, 0xb7fe158400cd2549ULL},
      {"MBIST_2_5_5", 0x6f10d9bf521a0dfcULL, 0x7a24a76775f2d465ULL},
      {"MBIST_2_5_20", 0xda6af3751eba9747ULL, 0xe7cf2e39d2aa23feULL},
      {"MBIST_1_20_20", 0xd82e07b763074ec4ULL, 0xc88e353a85f71d8cULL},
      {"MBIST_2_20_20", 0xa3c3a4bf39c6bc32ULL, 0x5d61daad04b6e97cULL},
  };
  for (const Pin& pin : pins) {
    const rsn::Network net = benchgen::buildBenchmark(pin.design);
    Rng rng(2022);
    const auto spec = test::randomSpecFor(net, rng);
    std::uint64_t dot = hash::kFnvOffset;
    hash::fnvMix(dot, sp::DecompositionTree::build(net).toDot(pin.design));
    EXPECT_EQ(dot, pin.dot) << pin.design;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      setThreadCount(threads);
      const CriticalityResult res = CriticalityAnalyzer(net, spec).run();
      std::uint64_t damages = hash::kFnvOffset;
      for (const std::uint64_t d : res.damages()) hash::fnvMix(damages, d);
      EXPECT_EQ(damages, pin.damages)
          << pin.design << " at " << threads << " threads";
    }
  }
  setThreadCount(0);
}

// Property: fast hierarchical analysis == brute-force graph analysis on
// random networks with random specifications.
class AnalyzerEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AnalyzerEquivalence, FastMatchesBruteForce) {
  Rng rng(GetParam() * 1000 + 17);
  const rsn::Network net = test::randomNetwork(rng);
  const auto spec = test::randomSpecFor(net, rng);
  const auto fast = CriticalityAnalyzer(net, spec).run();
  const auto brute = bruteForceAnalysis(net, spec);
  ASSERT_EQ(fast.damages(), brute.damages()) << "seed=" << GetParam();
  EXPECT_EQ(fast.totalDamage(), brute.totalDamage());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalyzerEquivalence,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace rrsn::crit
