#include <gtest/gtest.h>

#include <sstream>

#include "benchgen/registry.hpp"
#include "rsn/builder.hpp"
#include "rsn/example_networks.hpp"
#include "rsn/flat.hpp"
#include "rsn/netlist_io.hpp"
#include "rsn/spec.hpp"
#include "test_util.hpp"

namespace rrsn::rsn {
namespace {

TEST(Builder, TinyNetworkShape) {
  const Network net = makeTinyNetwork();
  EXPECT_EQ(net.name(), "tiny");
  EXPECT_EQ(net.segments().size(), 2u);
  EXPECT_EQ(net.muxes().size(), 1u);
  EXPECT_EQ(net.instruments().size(), 2u);
  EXPECT_EQ(net.findSegment("seg_a"), 0u);
  EXPECT_EQ(net.findSegment("nope"), kNone);
  EXPECT_EQ(net.findInstrument("inst_b"),
            net.segment(net.findSegment("seg_b")).instrument);
}

TEST(Builder, Fig1Shape) {
  const Network net = makeFig1Network();
  // 7 segments: c0, seg_i1, sb1 (SIB register), seg_i2, seg_i3, c2, c1.
  EXPECT_EQ(net.segments().size(), 7u);
  // 4 muxes: sb1_mux, m1, m2, m0.
  EXPECT_EQ(net.muxes().size(), 4u);
  EXPECT_EQ(net.instruments().size(), 3u);
  EXPECT_TRUE(net.segment(net.findSegment("sb1")).isSibRegister);
  // The SIB register drives its own mux.
  const MuxId sibMux = net.findMux("sb1_mux");
  EXPECT_EQ(net.mux(sibMux).controlSegment, net.findSegment("sb1"));
  // m0 is driven by c0.
  EXPECT_EQ(net.mux(net.findMux("m0")).controlSegment, net.findSegment("c0"));
}

TEST(Builder, LinearIdRoundTrip) {
  const Network net = makeFig1Network();
  for (std::size_t i = 0; i < net.primitiveCount(); ++i) {
    const PrimitiveRef ref = net.refOf(i);
    EXPECT_EQ(net.linearId(ref), i);
  }
  EXPECT_THROW(net.refOf(net.primitiveCount()), Error);
}

TEST(Builder, StatsAreConsistent) {
  const Network net = makeFig1Network();
  const NetworkStats s = net.stats();
  EXPECT_EQ(s.segments, 7u);
  EXPECT_EQ(s.muxes, 4u);
  EXPECT_EQ(s.instruments, 3u);
  // c0(1)+seg_i1(4)+sb1(1)+seg_i2(3)+seg_i3(5)+c2(1)+c1(2) = 17 cells.
  EXPECT_EQ(s.scanCells, 17u);
  // m0 encloses sb1_mux / m1 / m2: nesting depth 2.
  EXPECT_EQ(s.maxMuxNesting, 2u);
}

TEST(Builder, DuplicateNamesRejected) {
  NetworkBuilder b("dup");
  auto s1 = b.segment("x", 1);
  auto s2 = b.segment("x", 1);
  b.setTop(b.chain({s1, s2}));
  EXPECT_THROW(b.build(), ValidationError);
}

TEST(Builder, ZeroLengthSegmentRejected) {
  NetworkBuilder b("zero");
  EXPECT_THROW(b.segment("x", 0), Error);
}

TEST(Builder, MissingTopRejected) {
  NetworkBuilder b("noTop");
  (void)b.segment("x", 1);
  EXPECT_THROW(b.build(), Error);
}

TEST(Builder, UnusedSegmentRejected) {
  NetworkBuilder b("unused");
  auto used = b.segment("used", 1);
  (void)b.segment("orphan", 1);
  b.setTop(used);
  EXPECT_THROW(b.build(), ValidationError);
}

TEST(Builder, AllWireMuxRejected) {
  NetworkBuilder b("wires");
  auto m = b.mux("m", {b.wire(), b.wire()});
  auto s = b.segment("s", 1);
  b.setTop(b.chain({m, s}));
  EXPECT_THROW(b.build(), ValidationError);
}

TEST(Builder, UnknownControlSegmentRejected) {
  NetworkBuilder b("ctrl");
  auto s = b.segment("s", 1);
  EXPECT_THROW(b.mux("m", {s, b.wire()}, "missing"), Error);
}

TEST(Builder, MuxNeedsTwoBranches) {
  NetworkBuilder b("one");
  auto s = b.segment("s", 1);
  EXPECT_THROW(b.mux("m", {s}), Error);
}

// ------------------------------------------------------------ scan graph

TEST(FlatGraph, Fig1GraphIsTwoTerminalDag) {
  const Network net = makeFig1Network();
  const auto flat = FlatNetwork::lower(net);
  // SI + SO + 7 segments + 4 muxes + 4 fan-outs = 17 vertices.
  EXPECT_EQ(flat->vertexCount(), 17u);
  EXPECT_TRUE(test::isTwoTerminalDag(*flat));
}

TEST(FlatGraph, RandomAndSmallBenchmarkGraphsAreTwoTerminalDags) {
  // The grammar only composes hierarchical SP structures, so every
  // lowered scan graph is a two-terminal DAG between SI and SO.
  Rng rng(17);
  for (int round = 0; round < 8; ++round) {
    const Network net = test::randomNetwork(rng);
    EXPECT_TRUE(test::isTwoTerminalDag(*FlatNetwork::lower(net)))
        << "round " << round;
  }
  for (const char* name : {"TreeFlat", "TreeUnbalanced", "TreeBalanced",
                           "TreeFlat_Ex", "q12710", "a586710", "MBIST_1_5_5"}) {
    const Network net = benchgen::buildBenchmark(name);
    EXPECT_TRUE(test::isTwoTerminalDag(*FlatNetwork::lower(net))) << name;
  }
}

TEST(FlatGraph, PaperFactM0DominatesC2) {
  // Sec. III: "Since all the paths through the segment c2 traverse the
  // multiplexer m0, then m0 dominates c2" — with data flowing toward
  // scan-out, i.e. m0 post-dominates c2: by definition, removing m0
  // disconnects c2 from SO.
  const Network net = makeFig1Network();
  const auto flat = FlatNetwork::lower(net);
  const auto c2 = flat->segmentVertex()[net.findSegment("c2")];
  const auto m0 = flat->muxVertex()[net.findMux("m0")];
  const auto m1 = flat->muxVertex()[net.findMux("m1")];
  const auto m2 = flat->muxVertex()[net.findMux("m2")];
  EXPECT_TRUE(test::reachable(*flat, c2)[flat->scanOut()]);
  EXPECT_FALSE(test::reachable(*flat, c2, false, m0)[flat->scanOut()]);
  // "The multiplexer m2 dominates m1":
  EXPECT_TRUE(test::reachable(*flat, m1)[flat->scanOut()]);
  EXPECT_FALSE(test::reachable(*flat, m1, false, m2)[flat->scanOut()]);
  // m1 lies upstream of c2, so it does not post-dominate it.
  EXPECT_TRUE(test::reachable(*flat, c2, false, m1)[flat->scanOut()]);
}

TEST(FlatGraph, MuxBranchExitsRecorded) {
  const Network net = makeFig1Network();
  const auto flat = FlatNetwork::lower(net);
  const MuxId m0 = net.findMux("m0");
  ASSERT_EQ(flat->muxArity()[m0], 2u);
  const auto exits = flat->muxBranchExit().data() + flat->muxBranchOffsets()[m0];
  // Branch 0 exits at c2, branch 1 (bypass wire) at the fan-out.
  EXPECT_EQ(exits[0], flat->segmentVertex()[net.findSegment("c2")]);
  EXPECT_EQ(exits[1], flat->fanoutVertex(m0));
}

TEST(FlatGraph, DotContainsShapes) {
  const Network net = makeTinyNetwork();
  const std::string dot = toDot(net);
  EXPECT_NE(dot.find("shape=box"), std::string::npos);
  EXPECT_NE(dot.find("shape=trapezium"), std::string::npos);
  EXPECT_NE(dot.find("shape=ellipse"), std::string::npos);
}

// ----------------------------------------------------------------- spec

TEST(Spec, RandomSpecFollowsPaperRecipe) {
  Rng rng(123);
  test::RandomNetOptions opt;
  opt.targetSegments = 200;
  const Network net = test::randomNetwork(rng, opt);
  const std::size_t n = net.instruments().size();
  ASSERT_GT(n, 50u);
  const CriticalitySpec spec = randomSpec(net, SpecOptions{}, rng);

  std::size_t obsNonZero = 0, setNonZero = 0, obsCrit = 0, setCrit = 0;
  std::uint64_t uncritObs = 0;
  for (InstrumentId i = 0; i < n; ++i) {
    const auto& w = spec.of(i);
    obsNonZero += w.obs > 0;
    setNonZero += w.set > 0;
    obsCrit += w.criticalObs;
    setCrit += w.criticalSet;
    if (!w.criticalObs) uncritObs += w.obs;
  }
  // 10% critical; criticals are also non-zero, so non-zero counts lie in
  // [70%, 70%+10%] of n.
  EXPECT_NEAR(static_cast<double>(obsCrit), 0.10 * static_cast<double>(n),
              1.0);
  EXPECT_NEAR(static_cast<double>(setCrit), 0.10 * static_cast<double>(n),
              1.0);
  EXPECT_GE(obsNonZero, static_cast<std::size_t>(0.65 * static_cast<double>(n)));
  EXPECT_LE(obsNonZero, static_cast<std::size_t>(0.85 * static_cast<double>(n)));
  EXPECT_GE(setNonZero, static_cast<std::size_t>(0.65 * static_cast<double>(n)));

  // Dominance requirement: every critical weight exceeds the sum of all
  // uncritical weights of its kind (Sec. IV-A).
  for (InstrumentId i = 0; i < n; ++i) {
    if (spec.of(i).criticalObs) {
      EXPECT_GT(spec.of(i).obs, uncritObs);
    }
  }
}

TEST(Spec, RoundTripThroughText) {
  Rng rng(7);
  const Network net = makeFig1Network();
  CriticalitySpec spec = makeFig1Spec(net);
  spec.of(net.findInstrument("i2")).criticalSet = true;

  std::stringstream ss;
  writeSpec(ss, net, spec);
  const CriticalitySpec back = readSpec(ss, net);
  for (InstrumentId i = 0; i < net.instruments().size(); ++i) {
    EXPECT_EQ(back.of(i).obs, spec.of(i).obs);
    EXPECT_EQ(back.of(i).set, spec.of(i).set);
    EXPECT_EQ(back.of(i).criticalObs, spec.of(i).criticalObs);
    EXPECT_EQ(back.of(i).criticalSet, spec.of(i).criticalSet);
  }
}

TEST(Spec, ReadRejectsUnknownInstrument) {
  const Network net = makeTinyNetwork();
  std::istringstream is("ghost obs=1 set=2\n");
  EXPECT_THROW(readSpec(is, net), ParseError);
}

TEST(Spec, ReadRejectsMalformedLine) {
  const Network net = makeTinyNetwork();
  std::istringstream is("inst_a obs=1\n");
  EXPECT_THROW(readSpec(is, net), ParseError);
}

TEST(Spec, TotalsAndCriticalLists) {
  const Network net = makeFig1Network();
  const CriticalitySpec spec = makeFig1Spec(net);
  EXPECT_EQ(spec.totalObs(), 9u);
  EXPECT_EQ(spec.totalSet(), 9u);
  EXPECT_TRUE(spec.criticalObsInstruments().empty());
}

TEST(Spec, RobustEndsPlacementUsesScanEnds) {
  // A long flat chain of instruments: with RobustEnds the obs-critical
  // instruments come from the scan-out third, the set-critical ones from
  // the scan-in third.
  NetworkBuilder b("chain");
  std::vector<NodeId> parts;
  for (int i = 0; i < 60; ++i)
    parts.push_back(
        b.segment(test::indexedName("s", i), 1, test::indexedName("i", i)));
  b.setTop(b.chain(std::move(parts)));
  const Network net = b.build();

  Rng rng(5);
  SpecOptions opt;
  opt.placement = CriticalPlacement::RobustEnds;
  const CriticalitySpec spec = randomSpec(net, opt, rng);
  for (InstrumentId i = 0; i < net.instruments().size(); ++i) {
    if (spec.of(i).criticalObs) {
      EXPECT_GE(i, 40u) << "obs-critical i" << i;
    }
    if (spec.of(i).criticalSet) {
      EXPECT_LT(i, 20u) << "set-critical i" << i;
    }
  }
  // The counts still follow the 10% rule.
  EXPECT_EQ(spec.criticalObsInstruments().size(), 6u);
  EXPECT_EQ(spec.criticalSetInstruments().size(), 6u);
}

TEST(Spec, RobustEndsDominanceStillHolds) {
  Rng rng(6);
  const Network net = test::randomNetwork(rng);
  SpecOptions opt;
  opt.placement = CriticalPlacement::RobustEnds;
  const CriticalitySpec spec = randomSpec(net, opt, rng);
  std::uint64_t uncritObs = 0;
  for (InstrumentId i = 0; i < net.instruments().size(); ++i)
    if (!spec.of(i).criticalObs) uncritObs += spec.of(i).obs;
  for (InstrumentId i = 0; i < net.instruments().size(); ++i) {
    if (spec.of(i).criticalObs) {
      EXPECT_GT(spec.of(i).obs, uncritObs);
    }
  }
}

// ------------------------------------------------------------ netlist IO

TEST(NetlistIo, WriteParsePreservesStructure) {
  const Network net = makeFig1Network();
  const std::string text = netlistToString(net);
  const Network back = parseNetlistString(text);
  EXPECT_EQ(back.name(), net.name());
  EXPECT_EQ(back.segments().size(), net.segments().size());
  EXPECT_EQ(back.muxes().size(), net.muxes().size());
  EXPECT_EQ(back.instruments().size(), net.instruments().size());
  // Canonical form is a fixed point.
  EXPECT_EQ(netlistToString(back), text);
}

TEST(NetlistIo, SibSugarSurvivesRoundTrip) {
  const Network net = makeFig1Network();
  const std::string text = netlistToString(net);
  EXPECT_NE(text.find("sib sb1 {"), std::string::npos);
  const Network back = parseNetlistString(text);
  EXPECT_TRUE(back.segment(back.findSegment("sb1")).isSibRegister);
}

TEST(NetlistIo, RandomNetworksRoundTrip) {
  Rng rng(31);
  for (int round = 0; round < 10; ++round) {
    const Network net = test::randomNetwork(rng);
    const std::string text = netlistToString(net);
    const Network back = parseNetlistString(text);
    EXPECT_EQ(back.segments().size(), net.segments().size());
    EXPECT_EQ(back.muxes().size(), net.muxes().size());
    EXPECT_EQ(netlistToString(back), text) << text;
  }
}

TEST(NetlistIo, ParseErrors) {
  EXPECT_THROW(parseNetlistString("netwrk x { wire; }"), ParseError);
  EXPECT_THROW(parseNetlistString("network x { segment s"), ParseError);
  EXPECT_THROW(parseNetlistString("network x { mux m { branch { wire; } } }"),
               ParseError);  // one branch only
  EXPECT_THROW(parseNetlistString("network x { segment s foo=1; }"),
               ParseError);
  EXPECT_THROW(parseNetlistString("network x { bogus; }"), ParseError);
  EXPECT_THROW(parseNetlistString("network x { wire; } trailing"), ParseError);
}

TEST(NetlistIo, ParseMinimalNetwork) {
  const Network net = parseNetlistString(
      "network mini {\n"
      "  chain {\n"
      "    segment cfg;\n"
      "    mux m ctrl=cfg { branch { segment tdr len=4 instrument=t; }\n"
      "                     branch { wire; } }\n"
      "  }\n"
      "}\n");
  EXPECT_EQ(net.segments().size(), 2u);
  EXPECT_EQ(net.muxes().size(), 1u);
  EXPECT_EQ(net.mux(0).controlSegment, net.findSegment("cfg"));
  EXPECT_EQ(net.segment(net.findSegment("tdr")).length, 4u);
}

TEST(NetlistIo, CommentsAndWhitespaceIgnored) {
  const Network net = parseNetlistString(
      "# header comment\n"
      "network c { # inline\n"
      "  segment s len=2; # tail\n"
      "}\n");
  EXPECT_EQ(net.segments().size(), 1u);
}

}  // namespace
}  // namespace rrsn::rsn
