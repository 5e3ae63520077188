#include <gtest/gtest.h>

#include <sstream>

#include "harden/fault_tolerant.hpp"
#include "harden/hardening.hpp"
#include "moo/spea2.hpp"
#include "rsn/example_networks.hpp"
#include "rsn/flat.hpp"
#include "sim/retarget.hpp"
#include "test_util.hpp"

namespace rrsn::harden {
namespace {

using rsn::makeFig1Network;
using rsn::makeFig1Spec;

HardeningProblem fig1Problem(const rsn::Network& net) {
  const auto analysis = crit::CriticalityAnalyzer(net, makeFig1Spec(net)).run();
  return HardeningProblem::assemble(net, analysis);
}

TEST(CostModel, DefaultsScaleWithLength) {
  const rsn::Network net = makeFig1Network();
  const CostModel model;
  // seg_i3 has 5 cells: 1 + ceil(5/8) = 2 units.
  EXPECT_EQ(model.costOf(net, {rsn::PrimitiveRef::Kind::Segment,
                               net.findSegment("seg_i3")}),
            2u);
  // every mux costs 5.
  EXPECT_EQ(model.costOf(net, {rsn::PrimitiveRef::Kind::Mux,
                               net.findMux("m0")}),
            5u);
  EXPECT_EQ(model.costs(net).size(), net.primitiveCount());
}

TEST(Problem, AssembleMatchesAnalysis) {
  const rsn::Network net = makeFig1Network();
  const HardeningProblem p = fig1Problem(net);
  EXPECT_EQ(p.linear.size(), net.primitiveCount());
  EXPECT_EQ(p.maxDamage, 93u);  // Fig. 1 golden total
  EXPECT_EQ(p.maxCost, p.linear.costTotal());
  EXPECT_GT(p.maxCost, 0u);
}

TEST(Plan, EvaluateMatchesLinearObjectives) {
  const rsn::Network net = makeFig1Network();
  const auto analysis = crit::CriticalityAnalyzer(net, makeFig1Spec(net)).run();
  const HardeningProblem p = HardeningProblem::assemble(net, analysis);

  Rng rng(3);
  for (int round = 0; round < 20; ++round) {
    const moo::Genome g =
        moo::Genome::random(net.primitiveCount(), rng.uniform(), rng);
    const moo::Objectives viaProblem = evaluate(p.linear, g, p.maxDamage);
    const HardeningPlan plan(net, g);
    const moo::Objectives viaPlan = plan.evaluate(analysis);
    ASSERT_EQ(viaPlan.cost, viaProblem.cost);
    ASSERT_EQ(viaPlan.damage, viaProblem.damage);
  }
}

TEST(Plan, HardenedPrimitiveQueries) {
  const rsn::Network net = makeFig1Network();
  const std::size_t m0 = net.linearId(
      {rsn::PrimitiveRef::Kind::Mux, net.findMux("m0")});
  moo::Genome g(net.primitiveCount());
  g.flip(static_cast<std::uint32_t>(m0));
  const HardeningPlan plan(net, g);
  EXPECT_EQ(plan.hardenedCount(), 1u);
  EXPECT_TRUE(plan.isHardenedLinear(m0));
  const auto prims = plan.hardenedPrimitives();
  ASSERT_EQ(prims.size(), 1u);
  EXPECT_EQ(net.primitiveName(prims[0]), "m0");
}

TEST(Plan, ResidualDamageAndReport) {
  const rsn::Network net = makeFig1Network();
  const auto analysis = crit::CriticalityAnalyzer(net, makeFig1Spec(net)).run();
  moo::Genome g(net.primitiveCount());
  g.flip(static_cast<std::uint32_t>(
      net.linearId({rsn::PrimitiveRef::Kind::Mux, net.findMux("m0")})));
  const HardeningPlan plan(net, g);
  const auto residual = plan.residualDamage(analysis);
  std::uint64_t sum = 0;
  for (const auto& [ref, d] : residual) sum += d;
  EXPECT_EQ(sum, 93u - 18u);
  const std::string report = plan.report(analysis).render();
  EXPECT_NE(report.find("m0"), std::string::npos);
}

TEST(Solutions, ExtractPaperSolutions) {
  const rsn::Network net = makeFig1Network();
  const HardeningProblem p = fig1Problem(net);
  moo::EvolutionOptions opt;
  opt.populationSize = 40;
  opt.generations = 80;
  opt.seed = 1;
  const moo::RunResult res = moo::runSpea2(p.linear, opt);
  const PaperSolutions sols = extractPaperSolutions(res.archive, p);
  ASSERT_TRUE(sols.minCost.has_value());
  ASSERT_TRUE(sols.minDamage.has_value());
  EXPECT_LE(sols.minCost->obj.damage,
            static_cast<std::uint64_t>(0.10 * static_cast<double>(p.maxDamage)));
  EXPECT_LE(sols.minDamage->obj.cost,
            static_cast<std::uint64_t>(0.10 * static_cast<double>(p.maxCost)));
}

TEST(Plan, SerializationRoundTrip) {
  const rsn::Network net = makeFig1Network();
  moo::Genome g(net.primitiveCount());
  g.flip(static_cast<std::uint32_t>(
      net.linearId({rsn::PrimitiveRef::Kind::Mux, net.findMux("m0")})));
  g.flip(static_cast<std::uint32_t>(net.linearId(
      {rsn::PrimitiveRef::Kind::Segment, net.findSegment("sb1")})));
  const HardeningPlan plan(net, g);

  std::stringstream ss;
  writePlan(ss, plan);
  const HardeningPlan back = readPlan(ss, net);
  EXPECT_EQ(back.hardenedCount(), 2u);
  EXPECT_TRUE(back.isHardened({rsn::PrimitiveRef::Kind::Mux,
                               net.findMux("m0")}));
  EXPECT_TRUE(back.isHardened({rsn::PrimitiveRef::Kind::Segment,
                               net.findSegment("sb1")}));
}

TEST(Plan, ReadRejectsUnknownPrimitive) {
  const rsn::Network net = makeFig1Network();
  std::istringstream is("no_such_primitive\n");
  EXPECT_THROW(readPlan(is, net), ParseError);
}

TEST(Plan, ReadSkipsCommentsAndBlanks) {
  const rsn::Network net = makeFig1Network();
  std::istringstream is("# comment\n\n  m0  \n");
  const HardeningPlan plan = readPlan(is, net);
  EXPECT_EQ(plan.hardenedCount(), 1u);
}

TEST(Safety, CriticalExposuresDetectsUnprotectedCritical) {
  const rsn::Network net = makeFig1Network();
  rsn::CriticalitySpec spec = makeFig1Spec(net);
  spec.of(net.findInstrument("i1")).criticalObs = true;

  // Nothing hardened: i1 is exposed through several faults (its own
  // segment, the SIB, m0, ...).
  const HardeningPlan nothing(net, moo::Genome(net.primitiveCount()));
  EXPECT_FALSE(criticalExposures(net, spec, nothing).empty());

  // Hardening every primitive on i1's access path removes all exposures.
  moo::Genome g(net.primitiveCount());
  const auto hardenSeg = [&](const char* name) {
    g.flip(static_cast<std::uint32_t>(net.linearId(
        {rsn::PrimitiveRef::Kind::Segment, net.findSegment(name)})));
  };
  const auto hardenMux = [&](const char* name) {
    g.flip(static_cast<std::uint32_t>(
        net.linearId({rsn::PrimitiveRef::Kind::Mux, net.findMux(name)})));
  };
  hardenSeg("seg_i1");
  hardenSeg("sb1");
  hardenSeg("c2");
  hardenSeg("c1");
  hardenMux("sb1_mux");
  hardenMux("m0");
  hardenMux("m1");
  hardenMux("m2");
  const HardeningPlan protective(net, g);
  const auto exposures = criticalExposures(net, spec, protective);
  EXPECT_TRUE(exposures.empty())
      << "first exposure: "
      << (exposures.empty() ? "" : fault::describe(net, exposures.front()));
}

TEST(Safety, MinDamageSolutionProtectsCriticalInstruments) {
  // End-to-end on a random network with the paper's 70/70/10/10 spec:
  // drive the damage below the smallest critical weight and verify that
  // no critical instrument can be lost anymore.
  Rng rng(77);
  test::RandomNetOptions netOpt;
  netOpt.targetSegments = 40;
  const rsn::Network net = test::randomNetwork(rng, netOpt);
  const auto spec = test::randomSpecFor(net, rng);
  const auto analysis = crit::CriticalityAnalyzer(net, spec).run();
  const HardeningProblem p = HardeningProblem::assemble(net, analysis);

  // Choose a plan greedily until the residual damage is below every
  // critical weight (possible: harden everything => zero damage).
  const auto ranking = analysis.ranking();
  std::uint64_t minCritical = ~0ULL;
  for (rsn::InstrumentId i = 0; i < net.instruments().size(); ++i) {
    const auto& w = spec.of(i);
    if (w.criticalObs) minCritical = std::min(minCritical, w.obs);
    if (w.criticalSet) minCritical = std::min(minCritical, w.set);
  }
  ASSERT_NE(minCritical, ~0ULL);

  moo::Genome g(net.primitiveCount());
  std::uint64_t residual = analysis.totalDamage();
  for (std::size_t id : ranking) {
    if (residual < minCritical) break;
    g.flip(static_cast<std::uint32_t>(id));
    residual -= analysis.damageOf(id);
  }
  const HardeningPlan plan(net, g);
  EXPECT_TRUE(criticalExposures(net, spec, plan).empty());
}

TEST(FaultTolerant, AugmentationPreservesInstruments) {
  const rsn::Network net = makeFig1Network();
  const FaultTolerantRsn ft = augmentFaultTolerant(net);
  EXPECT_EQ(ft.network.instruments().size(), net.instruments().size());
  EXPECT_EQ(ft.network.segments().size(), net.segments().size());
  EXPECT_EQ(ft.network.muxes().size(), net.muxes().size() + ft.addedMuxes);
  EXPECT_GT(ft.addedMuxes, 0u);
  EXPECT_EQ(ft.addedCost, ft.addedMuxes * CostModel{}.muxCost);
}

TEST(FaultTolerant, ToleratesEverySegmentBreak) {
  // After augmentation, any single segment break leaves every *other*
  // instrument observable and settable (route around the defect).
  const rsn::Network net = makeFig1Network();
  const FaultTolerantRsn ft = augmentFaultTolerant(net);
  const auto flat = rsn::FlatNetwork::lower(ft.network);
  for (rsn::SegmentId s = 0; s < ft.network.segments().size(); ++s) {
    const auto loss =
        fault::lossUnderFaultGraph(*flat, fault::Fault::segmentBreak(s));
    const rsn::InstrumentId own = ft.network.segment(s).instrument;
    loss.unobservable.forEachSet([&](std::size_t i) {
      EXPECT_EQ(static_cast<rsn::InstrumentId>(i), own)
          << "break(" << ft.network.segment(s).name << ") lost instrument "
          << ft.network.instrument(static_cast<rsn::InstrumentId>(i)).name;
    });
    loss.unsettable.forEachSet([&](std::size_t i) {
      EXPECT_EQ(static_cast<rsn::InstrumentId>(i), own);
    });
  }
}

TEST(FaultTolerant, ToleratesSegmentBreaksOnRandomNetworks) {
  Rng rng(99);
  for (int round = 0; round < 6; ++round) {
    const rsn::Network net = test::randomNetwork(rng);
    const FaultTolerantRsn ft = augmentFaultTolerant(net);
    const auto flat = rsn::FlatNetwork::lower(ft.network);
    for (rsn::SegmentId s = 0; s < ft.network.segments().size(); ++s) {
      const auto loss =
          fault::lossUnderFaultGraph(*flat, fault::Fault::segmentBreak(s));
      const rsn::InstrumentId own = ft.network.segment(s).instrument;
      const std::size_t expected = own == rsn::kNone ? 0u : 1u;
      ASSERT_LE(loss.unobservable.count(), expected);
      ASSERT_LE(loss.unsettable.count(), expected);
    }
  }
}

TEST(FaultTolerant, CostsScaleWithSegmentCount) {
  // The augmentation needs roughly one skip mux per primitive; selective
  // hardening's knee is far cheaper on the same network (the paper's
  // "needs less hardware overhead").
  const rsn::Network net = makeFig1Network();
  const FaultTolerantRsn ft = augmentFaultTolerant(net);
  EXPECT_GE(ft.addedMuxes, net.segments().size());
  const HardeningProblem p = fig1Problem(net);
  const auto knee = moo::greedyMinCost(
      p.linear,
      static_cast<std::uint64_t>(0.10 * static_cast<double>(p.maxDamage)));
  ASSERT_TRUE(knee.has_value());
  EXPECT_LT(knee->obj.cost, ft.addedCost);
}

TEST(FaultTolerant, ChangesTopologyUnlikeHardening) {
  // The augmented network has different primitive counts — existing
  // access patterns cannot apply (Sec. II motivates why hardening
  // deliberately avoids this).
  const rsn::Network net = makeFig1Network();
  const FaultTolerantRsn ft = augmentFaultTolerant(net);
  EXPECT_NE(ft.network.muxes().size(), net.muxes().size());
  sim::ScanSimulator original(net);
  sim::Retargeter rt(original);
  const auto access = rt.readInstrument(net.findInstrument("i2"));
  ASSERT_TRUE(access.success);
  sim::ScanSimulator augmented(ft.network);
  EXPECT_FALSE(sim::replayPatterns(augmented, access));
}

}  // namespace
}  // namespace rrsn::harden
