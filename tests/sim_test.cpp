#include <gtest/gtest.h>

#include <algorithm>

#include "fault/effects.hpp"
#include "harden/fault_tolerant.hpp"
#include "rsn/builder.hpp"
#include "rsn/example_networks.hpp"
#include "sim/retarget.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace rrsn::sim {
namespace {

using fault::Fault;
using rsn::makeFig1Network;

std::vector<Bit> bits(const std::string& s) { return bitsFromString(s); }

TEST(Bits, StringConversions) {
  EXPECT_EQ(toString(bits("01x")), "01x");
  EXPECT_THROW(bitsFromString("012"), ParseError);
  EXPECT_EQ(bitOf(true), Bit::One);
  EXPECT_EQ(bitOf(false), Bit::Zero);
}

TEST(Simulator, ResetPathIsBypass) {
  // Fig. 1 at reset: every mux selects branch 0; m0's branch 0 is the
  // content branch (address from c0 = 0), SIBs are closed.
  const rsn::Network net = makeFig1Network();
  ScanSimulator sim(net);
  const auto path = sim.activePath();
  ASSERT_TRUE(path.has_value());
  std::vector<std::string> names;
  for (auto s : path->segments) names.push_back(net.segment(s).name);
  // m0 selects branch 0 (content), SIB closed (bypass), m1/m2 select
  // their instrument branches (branch 0).
  EXPECT_EQ(names, (std::vector<std::string>{"c0", "sb1", "seg_i2", "seg_i3",
                                             "c2", "c1"}));
  EXPECT_EQ(path->totalBits, 1u + 1 + 3 + 5 + 1 + 2);
}

TEST(Simulator, CsuWritesImage) {
  const rsn::Network net = makeFig1Network();
  ScanSimulator sim(net);
  const auto path = sim.activePath();
  ASSERT_TRUE(path);
  // Compose an image: c0=1 (select bypass next), everything else zero.
  std::vector<Bit> image(path->totalBits, Bit::Zero);
  image[0] = Bit::One;  // c0 is the first bit on the path
  sim.csu(ScanSimulator::shiftInForImage(image));
  EXPECT_EQ(sim.segmentUpdate(net.findSegment("c0")), bits("1"));
  // m0 now selects branch 1 (bypass): the path shrinks to c0 -> c1.
  const auto newPath = sim.activePath();
  ASSERT_TRUE(newPath);
  EXPECT_EQ(newPath->segments.size(), 2u);
}

TEST(Simulator, CsuShiftsCaptureOut) {
  const rsn::Network net = makeFig1Network();
  ScanSimulator sim(net);
  const rsn::InstrumentId i2 = net.findInstrument("i2");
  sim.setInstrumentValue(i2, bits("101"));
  const auto path = sim.activePath();
  ASSERT_TRUE(path);
  const std::vector<Bit> in(path->totalBits, Bit::Zero);
  const auto out = sim.csu(in);
  // out[t] = captured image cell (B-1-t); check seg_i2's cells.
  const auto offset =
      ScanSimulator::offsetOf(net, *path, net.findSegment("seg_i2"));
  ASSERT_TRUE(offset);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(out[path->totalBits - 1 - (*offset + k)], bits("101")[k]);
  }
}

TEST(Simulator, ExternalAddressControlsBareMux) {
  const rsn::Network net = rsn::makeTinyNetwork();  // mux 'mx' TAP-controlled
  ScanSimulator sim(net);
  ASSERT_TRUE(sim.activePath());
  EXPECT_EQ(sim.activePath()->segments.size(), 2u);  // seg_a + seg_b
  sim.setExternalAddress(net.findMux("mx"), 1);      // bypass branch
  EXPECT_EQ(sim.activePath()->segments.size(), 1u);  // only seg_b
}

TEST(Simulator, ExternalAddressRejectedForControlledMux) {
  const rsn::Network net = makeFig1Network();
  ScanSimulator sim(net);
  EXPECT_THROW(sim.setExternalAddress(net.findMux("m0"), 1), Error);
}

TEST(Simulator, BrokenSegmentPoisonsDownstreamShifts) {
  const rsn::Network net = makeFig1Network();
  ScanSimulator sim(net);
  sim.injectFault(Fault::segmentBreak(net.findSegment("sb1")));
  const auto path = sim.activePath();
  ASSERT_TRUE(path);
  // Shift a full image of ones: everything downstream of the break must
  // come out X after passing the broken register.
  const std::vector<Bit> in(path->totalBits, Bit::One);
  sim.csu(in);
  // seg_i2 sits after sb1 on the path: its update must be poisoned.
  const auto i2 = sim.segmentUpdate(net.findSegment("seg_i2"));
  for (Bit b : i2) EXPECT_EQ(b, Bit::X);
  // c0 sits before the break: it received clean ones.
  EXPECT_EQ(sim.segmentUpdate(net.findSegment("c0")), bits("1"));
}

TEST(Simulator, StuckMuxIgnoresAddress) {
  const rsn::Network net = makeFig1Network();
  ScanSimulator sim(net);
  sim.injectFault(Fault::muxStuck(net.findMux("m0"), 1));
  // Address says branch 0, but the mux is stuck on the bypass.
  EXPECT_EQ(sim.muxSelection(net.findMux("m0")), 1u);
  const auto path = sim.activePath();
  ASSERT_TRUE(path);
  EXPECT_EQ(path->segments.size(), 2u);  // c0, c1
}

// ------------------------------------------------------------ retargeting

// An out-of-range stuck branch names hardware that does not exist; it
// must be rejected on injection, not index a neighbouring mux's branches.
TEST(Simulator, OutOfRangeStuckBranchIsRejected) {
  const rsn::Network net = makeFig1Network();
  const rsn::MuxId m0 = net.findMux("m0");
  ScanSimulator sim(net);
  EXPECT_THROW(sim.injectFault(Fault::muxStuck(m0, 2)), Error);
  EXPECT_THROW(sim.injectFaults({Fault::muxStuck(m0, 70000000)}), Error);
  EXPECT_THROW(sim.injectFaults({Fault::muxStuck(m0, 1),
                                 Fault::muxStuck(m0, 7)}),
               Error);
  EXPECT_THROW(sim.injectFault(Fault::muxStuck(
                   static_cast<rsn::MuxId>(net.muxes().size()), 0)),
               Error);
  EXPECT_TRUE(sim.injectedFaults().empty());
  EXPECT_NO_THROW(sim.injectFault(Fault::muxStuck(m0, 1)));
}

TEST(Retarget, OpensSibToReadInstrument) {
  const rsn::Network net = makeFig1Network();
  ScanSimulator sim(net);
  Retargeter rt(sim);
  const auto res = rt.readInstrument(net.findInstrument("i1"));
  EXPECT_TRUE(res.success);
  // Opening the SIB takes one configuration round plus the read access.
  EXPECT_GE(res.rounds, 2u);
  EXPECT_FALSE(res.patterns.empty());
}

TEST(Retarget, WritesInstrumentValue) {
  const rsn::Network net = makeFig1Network();
  ScanSimulator sim(net);
  Retargeter rt(sim);
  const auto value = bits("1100");
  const auto res = rt.writeInstrument(net.findInstrument("i1"), value);
  EXPECT_TRUE(res.success);
  EXPECT_EQ(sim.instrumentUpdate(net.findInstrument("i1")), value);
}

TEST(Retarget, FaultFreeEverythingAccessible) {
  const rsn::Network net = makeFig1Network();
  const AccessReport strict = strictAccessibility(net, nullptr);
  EXPECT_EQ(strict.observable.count(), net.instruments().size());
  EXPECT_EQ(strict.settable.count(), net.instruments().size());
}

TEST(Retarget, StuckM0MakesAllInstrumentsInaccessible) {
  const rsn::Network net = makeFig1Network();
  const Fault f = Fault::muxStuck(net.findMux("m0"), 1);
  const AccessReport strict = strictAccessibility(net, &f);
  EXPECT_EQ(strict.observable.count(), 0u);
  EXPECT_EQ(strict.settable.count(), 0u);
}

TEST(Retarget, BrokenInstrumentSegmentOnlyKillsItself) {
  const rsn::Network net = makeFig1Network();
  const Fault f = Fault::segmentBreak(net.findSegment("seg_i2"));
  const AccessReport strict = strictAccessibility(net, &f);
  const auto i2 = net.findInstrument("i2");
  EXPECT_FALSE(strict.observable.test(i2));
  EXPECT_FALSE(strict.settable.test(i2));
  EXPECT_TRUE(strict.observable.test(net.findInstrument("i1")));
  EXPECT_TRUE(strict.observable.test(net.findInstrument("i3")));
  EXPECT_TRUE(strict.settable.test(net.findInstrument("i1")));
}

TEST(Retarget, StrictNeverExceedsStructural) {
  // The strict (simulation-backed) accessibility can only be a subset of
  // the structural one: the structural analysis ignores how control bits
  // are applied.
  const rsn::Network net = makeFig1Network();
  const auto flat = rsn::FlatNetwork::lower(net);
  const fault::FaultUniverse universe(net);
  for (const Fault& f : universe.faults()) {
    const AccessReport strict = strictAccessibility(net, &f);
    const fault::AccessibilityLoss structural =
        fault::lossUnderFaultGraph(*flat, f);
    for (rsn::InstrumentId i = 0; i < net.instruments().size(); ++i) {
      if (strict.observable.test(i)) {
        EXPECT_FALSE(structural.unobservable.test(i))
            << fault::describe(net, f) << " instrument " << i;
      }
      if (strict.settable.test(i)) {
        EXPECT_FALSE(structural.unsettable.test(i))
            << fault::describe(net, f) << " instrument " << i;
      }
    }
  }
}

TEST(Retarget, ControlDependencyGapExists) {
  // break(c0) kills m0's address register.  Structurally i1..i3 remain
  // observable (the branch is already selected at reset in our model, but
  // the structural analysis even says they are observable regardless);
  // strictly, writing the SIB open-bit still works only if the CSU can
  // pass... This documents at least one instrument where strict is more
  // pessimistic than structural across the fault universe.
  const rsn::Network net = makeFig1Network();
  const auto flat = rsn::FlatNetwork::lower(net);
  const fault::FaultUniverse universe(net);
  std::size_t gaps = 0;
  for (const Fault& f : universe.faults()) {
    const AccessReport strict = strictAccessibility(net, &f);
    const fault::AccessibilityLoss structural =
        fault::lossUnderFaultGraph(*flat, f);
    for (rsn::InstrumentId i = 0; i < net.instruments().size(); ++i) {
      gaps += !structural.unobservable.test(i) && !strict.observable.test(i);
      gaps += !structural.unsettable.test(i) && !strict.settable.test(i);
    }
  }
  EXPECT_GT(gaps, 0u);
}

// Property sweep: on random fault-free networks the retargeter reaches
// every instrument end to end.
class RetargetSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RetargetSweep, FaultFreeFullAccess) {
  Rng rng(GetParam() * 31 + 5);
  test::RandomNetOptions opt;
  opt.targetSegments = 20;
  const rsn::Network net = test::randomNetwork(rng, opt);
  const AccessReport strict = strictAccessibility(net, nullptr);
  EXPECT_EQ(strict.observable.count(), net.instruments().size())
      << "seed=" << GetParam();
  EXPECT_EQ(strict.settable.count(), net.instruments().size())
      << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RetargetSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

// Pattern compatibility (Sec. II): hardening does not change the RSN, so
// the pattern log captured on the original network replays bit-identically
// on the "hardened" one.
TEST(PatternCompatibility, HardenedNetworkAcceptsSamePatterns) {
  const rsn::Network original = makeFig1Network();
  const rsn::Network hardened = makeFig1Network();  // same topology

  ScanSimulator simA(original);
  const auto i1 = original.findInstrument("i1");
  Retargeter rtA(simA);
  const auto res = rtA.readInstrument(i1);
  ASSERT_TRUE(res.success);

  // Replay on the hardened network with the same instrument stimulus:
  // identical shift-out streams bit for bit.
  ScanSimulator simB(hardened);
  simB.setInstrumentValue(
      i1, accessMarker(hardened.segment(hardened.instrument(i1).segment).length));
  EXPECT_TRUE(replayPatterns(simB, res));
}

TEST(PatternCompatibility, ReplayDetectsDivergentNetwork) {
  // Replaying on a *different* topology must be rejected, not silently
  // accepted — the guarantee is specific to topology-preserving plans.
  const rsn::Network original = makeFig1Network();
  ScanSimulator simA(original);
  Retargeter rtA(simA);
  const auto res = rtA.readInstrument(original.findInstrument("i1"));
  ASSERT_TRUE(res.success);

  const rsn::Network other = rsn::makeTinyNetwork();
  ScanSimulator simB(other);
  EXPECT_FALSE(replayPatterns(simB, res));
}

// Pattern compatibility under an injected fault: a recorded access whose
// path avoids the defect replays bit-exactly on the (topology-identical)
// hardened network even when the same fault is present there.  Checked
// on both example networks.
TEST(PatternCompatibility, ReplaysUnderFaultOnHardenedTopology) {
  struct Case {
    rsn::Network net;
    const char* instrument;
    const char* brokenSegment;
  };
  // fig1: break seg_i3, access i2 (different branch of the inner chain);
  // tiny: break seg_a, access inst_b (mx can bypass seg_a entirely).
  Case cases[] = {{makeFig1Network(), "i2", "seg_i3"},
                  {rsn::makeTinyNetwork(), "inst_b", "seg_a"}};
  for (Case& c : cases) {
    const Fault f = Fault::segmentBreak(c.net.findSegment(c.brokenSegment));
    ScanSimulator simA(c.net);
    simA.injectFault(f);
    Retargeter rtA(simA);
    const auto i = c.net.findInstrument(c.instrument);
    const auto res = rtA.readInstrument(i);
    ASSERT_TRUE(res.success) << c.net.name();

    // The hardened network shares the topology (hardening never changes
    // it); the recorded patterns must replay bit for bit, fault and all.
    ScanSimulator simB(c.net);
    simB.injectFault(f);
    simB.setInstrumentValue(
        i, accessMarker(c.net.segment(c.net.instrument(i).segment).length));
    EXPECT_TRUE(replayPatterns(simB, res)) << c.net.name();
  }
}

TEST(PatternCompatibility, ReplayFailsOnAugmentedTopology) {
  // The fault-tolerant augmentation inserts skip multiplexers, changing
  // the scan path lengths: patterns recorded on the original network
  // must NOT replay (the paper's compatibility argument, Sec. II).
  for (const rsn::Network& net : {makeFig1Network(), rsn::makeTinyNetwork()}) {
    ScanSimulator simA(net);
    Retargeter rtA(simA);
    ASSERT_FALSE(net.instruments().empty());
    const auto res = rtA.readInstrument(static_cast<rsn::InstrumentId>(0));
    ASSERT_TRUE(res.success) << net.name();

    const harden::FaultTolerantRsn ft = harden::augmentFaultTolerant(net);
    ScanSimulator simB(ft.network);
    EXPECT_FALSE(replayPatterns(simB, res)) << net.name();
  }
}

// ------------------------------------------------- bounded retargeting

TEST(RetargetBounds, StuckAddressFaultFailsInsteadOfLooping) {
  // break(c0) leaves m0's address register permanently poisoned after
  // the first CSU round — the configuration can never converge.  The
  // engine must give up within its round budget and report failure, not
  // iterate forever.
  const rsn::Network net = makeFig1Network();
  ScanSimulator sim(net);
  sim.injectFault(Fault::segmentBreak(net.findSegment("c0")));
  RetargetOptions options;
  options.maxRounds = 3;
  Retargeter engine(sim, options);
  const auto res = engine.readInstrument(net.findInstrument("i1"));
  EXPECT_FALSE(res.success);
  EXPECT_LE(res.rounds, 3u);
}

TEST(RetargetBounds, StuckMuxWriteFailsWithinRoundCap) {
  // m_sb1 stuck on the bypass: the SIB can never open, so i1 stays
  // unreachable no matter how many rounds are granted.
  const rsn::Network net = makeFig1Network();
  ScanSimulator sim(net);
  sim.injectFault(Fault::muxStuck(net.findMux("sb1_mux"), 0));
  RetargetOptions options;
  options.maxRounds = 5;
  Retargeter engine(sim, options);
  const auto res = engine.writeInstrument(
      net.findInstrument("i1"),
      accessMarker(net.segment(net.findSegment("seg_i1")).length));
  EXPECT_FALSE(res.success);
  EXPECT_LE(res.rounds, 5u);
}

TEST(RetargetBounds, RerouteBudgetIsHonored) {
  // With rerouting disabled the engine only tries the nominal recipe;
  // allowing it again on the augmented topology recovers the access.
  const harden::FaultTolerantRsn ft =
      harden::augmentFaultTolerant(makeFig1Network());
  const rsn::Network& net = ft.network;
  const Fault f = Fault::segmentBreak(net.findSegment("c2"));

  ScanSimulator noReroute(net);
  noReroute.injectFault(f);
  RetargetOptions off;
  off.maxReroutes = 0;
  const auto denied =
      Retargeter(noReroute, off).readInstrument(net.findInstrument("i3"));

  ScanSimulator withReroute(net);
  withReroute.injectFault(f);
  const auto recovered =
      Retargeter(withReroute).readInstrument(net.findInstrument("i3"));
  ASSERT_TRUE(recovered.success);
  if (denied.success) {
    // If even the nominal recipe works, the reroute flag must be clear.
    EXPECT_FALSE(denied.rerouted);
  } else {
    EXPECT_TRUE(recovered.rerouted);
  }
}

// ------------------------------------------------ multi-fault injection

TEST(MultiFault, TwoBreaksPoisonBothDownstreamRanges) {
  const rsn::Network net = makeFig1Network();
  ScanSimulator sim(net);
  sim.injectFaults({Fault::segmentBreak(net.findSegment("sb1")),
                    Fault::segmentBreak(net.findSegment("c2"))});
  ASSERT_EQ(sim.injectedFaults().size(), 2u);
  const auto path = sim.activePath();
  ASSERT_TRUE(path);
  sim.csu(std::vector<Bit>(path->totalBits, Bit::One));
  // Downstream of either break is poisoned; upstream of both is clean.
  for (Bit b : sim.segmentUpdate(net.findSegment("seg_i2")))
    EXPECT_EQ(b, Bit::X);  // after sb1
  for (Bit b : sim.segmentUpdate(net.findSegment("c1")))
    EXPECT_EQ(b, Bit::X);  // after c2
  EXPECT_EQ(sim.segmentUpdate(net.findSegment("c0")), bits("1"));
}

TEST(MultiFault, StuckMuxAndBreakCombine) {
  const rsn::Network net = makeFig1Network();
  ScanSimulator sim(net);
  sim.injectFaults({Fault::muxStuck(net.findMux("m0"), 1),
                    Fault::segmentBreak(net.findSegment("c0"))});
  ASSERT_EQ(sim.injectedFaults().size(), 2u);
  // Injection keeps the given order: the stuck mux comes first.
  EXPECT_EQ(sim.injectedFaults().front().kind, fault::FaultKind::MuxStuck);
  // The stuck mux forces the bypass path c0 -> c1 regardless of the
  // address; the break on c0 then poisons everything downstream of it.
  EXPECT_EQ(sim.muxSelection(net.findMux("m0")), 1u);
  const auto path = sim.activePath();
  ASSERT_TRUE(path);
  ASSERT_EQ(path->segments.size(), 2u);
  sim.csu(std::vector<Bit>(path->totalBits, Bit::One));
  for (Bit b : sim.segmentUpdate(net.findSegment("c1"))) EXPECT_EQ(b, Bit::X);
}

// ------------------------------------------------- transient upsets

TEST(Transient, UpsetFiresOnceAfterConfiguredRound) {
  const rsn::Network net = makeFig1Network();
  ScanSimulator sim(net);
  const rsn::SegmentId target = net.findSegment("seg_i2");
  sim.armTransientUpset({target, 1});
  EXPECT_TRUE(sim.transientPending());

  // All-zero rounds keep the reset configuration (and thus the full
  // path, seg_i2 included) stable across every CSU.
  const auto zeros = [&]() {
    const auto path = sim.activePath();
    EXPECT_TRUE(path);
    return std::vector<Bit>(path->totalBits, Bit::Zero);
  };
  // Round 0 completes cleanly: the upset waits for round 1.
  sim.csu(zeros());
  EXPECT_TRUE(sim.transientPending());
  EXPECT_EQ(sim.segmentUpdate(target), bits("000"));
  // Round 1 completes, then the upset fires: shift and update of the
  // target X-corrupted, the upset consumed.
  sim.csu(zeros());
  EXPECT_FALSE(sim.transientPending());
  for (Bit b : sim.segmentUpdate(target)) EXPECT_EQ(b, Bit::X);
  // One-shot: the next clean round fully rewrites the segment.
  sim.csu(zeros());
  EXPECT_EQ(sim.segmentUpdate(target), bits("000"));
}

TEST(Transient, ResetConfigurationRecoversThePath) {
  const rsn::Network net = makeFig1Network();
  ScanSimulator sim(net);
  const Fault keep = Fault::segmentBreak(net.findSegment("seg_i1"));
  sim.injectFault(keep);
  // Upset c0 (it controls m0): once its update register reads X the
  // active path is gone — the transient-loss scenario.
  sim.armTransientUpset({net.findSegment("c0"), 0});
  const auto path = sim.activePath();
  ASSERT_TRUE(path);
  sim.csu(std::vector<Bit>(path->totalBits, Bit::One));
  EXPECT_FALSE(sim.transientPending());
  for (Bit b : sim.segmentUpdate(net.findSegment("c0"))) EXPECT_EQ(b, Bit::X);
  EXPECT_FALSE(sim.activePath().has_value());
  // The 1687-style reconfiguration sequence restores the update
  // registers (and external addresses) to their reset values without a
  // power cycle; permanent faults stay injected.
  sim.resetConfiguration();
  EXPECT_EQ(sim.segmentUpdate(net.findSegment("c0")), bits("0"));
  ASSERT_TRUE(sim.activePath().has_value());
  ASSERT_EQ(sim.injectedFaults().size(), 1u);
  EXPECT_EQ(sim.injectedFaults().front(), keep);
}

// ------------------------------------------------- CSU closed form

using Ranges = std::vector<std::pair<std::size_t, std::size_t>>;

/// The clock-by-clock CSU shift the closed form replaced, kept as its
/// oracle: the capture poisons the broken cells, then every clock emits
/// the scan-out cell, moves the register one index up, loads the next
/// input bit at index 0 and re-poisons the broken ranges.
std::vector<Bit> shiftClockByClock(std::vector<Bit>& reg, const Ranges& broken,
                                   const std::vector<Bit>& in) {
  const auto poison = [&]() {
    for (const auto& [first, last] : broken)
      for (std::size_t i = first; i < last; ++i) reg[i] = Bit::X;
  };
  poison();
  std::vector<Bit> out;
  for (std::size_t t = 0; t < in.size(); ++t) {
    out.push_back(reg.back());
    for (std::size_t i = reg.size() - 1; i > 0; --i) reg[i] = reg[i - 1];
    reg[0] = in[t];
    poison();
  }
  return out;
}

Bit randomBit(Rng& rng) {
  return rng.chance(0.2) ? Bit::X : bitOf(rng.chance(0.5));
}

std::vector<Bit> randomBits(Rng& rng, std::size_t n) {
  std::vector<Bit> out(n);
  for (Bit& b : out) b = randomBit(rng);
  return out;
}

TEST(CsuClosedForm, MatchesClockByClockShift) {
  // Random paths of 0-6 segments of length 0-5 (so B = 0 and zero-length
  // segments occur), 0-3 of them broken, X in the captured content and
  // in the shift-in stream.
  Rng rng(2022);
  std::size_t emptyPaths = 0, emptyBroken = 0, multiBroken = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    Ranges segments;
    std::size_t bitsTotal = 0;
    const auto count = static_cast<std::size_t>(rng.range(0, 6));
    for (std::size_t k = 0; k < count; ++k) {
      const auto len = static_cast<std::size_t>(rng.range(0, 5));
      segments.emplace_back(bitsTotal, bitsTotal + len);
      bitsTotal += len;
    }
    std::shuffle(segments.begin(), segments.end(), rng);
    const std::size_t brokenCount = std::min<std::size_t>(
        segments.size(), static_cast<std::size_t>(rng.range(0, 3)));
    const Ranges broken(segments.begin(),
                        segments.begin() +
                            static_cast<std::ptrdiff_t>(brokenCount));
    emptyPaths += bitsTotal == 0 ? 1 : 0;
    multiBroken += brokenCount > 1 ? 1 : 0;
    for (const auto& [first, last] : broken)
      emptyBroken += first == last ? 1 : 0;

    const std::vector<Bit> captured = randomBits(rng, bitsTotal);
    const std::vector<Bit> in = randomBits(rng, bitsTotal);
    std::vector<Bit> expectReg = captured;
    const std::vector<Bit> expectOut = shiftClockByClock(expectReg, broken, in);
    std::vector<Bit> reg = captured;
    const std::vector<Bit> out = ScanSimulator::shiftThrough(reg, broken, in);
    ASSERT_EQ(toString(out), toString(expectOut)) << "trial " << trial;
    ASSERT_EQ(toString(reg), toString(expectReg)) << "trial " << trial;
  }
  EXPECT_GT(emptyPaths, 0u);
  EXPECT_GT(emptyBroken, 0u);
  EXPECT_GT(multiBroken, 0u);
}

// Simulator level: every CSU round on random networks with 0-3 broken
// segments, X-carrying instrument values and shift-in streams, and a
// pending transient upset must leave every segment's shift and update
// register exactly where a clock-by-clock reference model puts them.
class CsuReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsuReference, EveryRegisterMatchesTheClockByClockModel) {
  Rng rng(GetParam() * 53 + 9);
  test::RandomNetOptions opt;
  opt.targetSegments = 24;
  const rsn::Network net = test::randomNetwork(rng, opt);
  const std::size_t segs = net.segments().size();

  ScanSimulator sim(net);
  std::vector<fault::Fault> faults;
  const auto breaks = static_cast<std::size_t>(rng.range(0, 3));
  for (std::size_t k = 0; k < breaks; ++k)
    faults.push_back(Fault::segmentBreak(
        static_cast<rsn::SegmentId>(rng.below(segs))));
  sim.injectFaults(faults);
  const TransientUpset upset{static_cast<rsn::SegmentId>(rng.below(segs)),
                             static_cast<std::uint32_t>(rng.range(0, 3))};
  sim.armTransientUpset(upset);

  // The reference model: shift and update registers of every segment
  // plus the instrument values the captures read.
  std::vector<std::vector<Bit>> shift(segs), update(segs), captureValue(segs);
  for (rsn::SegmentId s = 0; s < segs; ++s) {
    shift[s] = update[s] = std::vector<Bit>(net.segment(s).length, Bit::Zero);
  }
  for (rsn::InstrumentId i = 0; i < net.instruments().size(); ++i) {
    if (!rng.chance(0.5)) continue;
    const rsn::SegmentId s = net.instrument(i).segment;
    captureValue[s] = randomBits(rng, net.segment(s).length);
    sim.setInstrumentValue(i, captureValue[s]);
  }
  const auto broken = [&](rsn::SegmentId s) {
    return std::any_of(faults.begin(), faults.end(),
                       [&](const Fault& f) { return f.prim == s; });
  };

  for (std::uint32_t round = 0; round < 6; ++round) {
    const auto path = sim.activePath();
    if (!path) break;  // an address register went X
    std::vector<Bit> reg;
    Ranges brokenRanges;
    for (rsn::SegmentId s : path->segments) {
      const auto& captured =
          captureValue[s].empty() ? update[s] : captureValue[s];
      if (broken(s)) brokenRanges.emplace_back(reg.size(), reg.size() + captured.size());
      reg.insert(reg.end(), captured.begin(), captured.end());
    }
    // Mostly known bits so the configuration keeps changing, some X.
    const std::vector<Bit> in = randomBits(rng, path->totalBits);
    const std::vector<Bit> expectOut = shiftClockByClock(reg, brokenRanges, in);
    std::size_t offset = 0;
    for (rsn::SegmentId s : path->segments) {
      const auto len = static_cast<std::ptrdiff_t>(net.segment(s).length);
      shift[s].assign(reg.begin() + static_cast<std::ptrdiff_t>(offset),
                      reg.begin() + static_cast<std::ptrdiff_t>(offset) + len);
      update[s] = shift[s];
      offset += net.segment(s).length;
    }
    if (round == upset.round) {
      std::fill(shift[upset.segment].begin(), shift[upset.segment].end(), Bit::X);
      std::fill(update[upset.segment].begin(), update[upset.segment].end(),
                Bit::X);
    }

    const std::vector<Bit> out = sim.csu(in);
    ASSERT_EQ(toString(out), toString(expectOut)) << "round " << round;
    EXPECT_EQ(sim.transientPending(), round < upset.round);
    for (rsn::SegmentId s = 0; s < segs; ++s) {
      ASSERT_EQ(toString(sim.segmentShift(s)), toString(shift[s]))
          << "round " << round << " segment " << net.segment(s).name;
      ASSERT_EQ(toString(sim.segmentUpdate(s)), toString(update[s]))
          << "round " << round << " segment " << net.segment(s).name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsuReference,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(Simulator, WideControlRegisterNeverWrapsOntoABranch) {
  // A 70-bit address register: bits 32-63 used to be truncated away
  // (2^32 + 1 selected branch 1) and bits from 64 on were never read
  // (an X there was ignored).
  rsn::NetworkBuilder b("wide");
  const auto ctl = b.segment("ctl", 70);
  const auto mux =
      b.mux("m", {b.segment("a", 2, "ia"), b.segment("b", 3, "ib")}, "ctl");
  b.setTop(b.chain({ctl, mux}));
  const rsn::Network net = b.build();
  const rsn::MuxId m = net.findMux("m");
  ScanSimulator sim(net);

  // Loads the address register through one raw CSU round from reset
  // (the reset path is ctl followed by branch a).
  const auto load = [&](const std::vector<std::size_t>& ones,
                        std::optional<std::size_t> xAt) {
    sim.reset();
    const auto path = sim.activePath();
    EXPECT_TRUE(path);
    std::vector<Bit> image(path->totalBits, Bit::Zero);
    for (const std::size_t k : ones) image[k] = Bit::One;
    if (xAt) image[*xAt] = Bit::X;
    sim.csu(ScanSimulator::shiftInForImage(image));
    return sim.muxSelection(m);
  };

  EXPECT_EQ(load({0}, std::nullopt), 1u);
  ASSERT_TRUE(sim.activePath());
  EXPECT_EQ(load({0, 32}, std::nullopt), kOutOfRangeSelection);
  EXPECT_FALSE(sim.activePath());
  EXPECT_EQ(load({40}, std::nullopt), kOutOfRangeSelection);
  EXPECT_EQ(load({69}, std::nullopt), kOutOfRangeSelection);
  EXPECT_EQ(load({0}, 66), kInvalidSelection);
  EXPECT_FALSE(sim.activePath());
  // X wins over an out-of-range value, wherever it sits.
  EXPECT_EQ(load({0, 32}, 66), kInvalidSelection);
  EXPECT_EQ(load({33}, 5), kInvalidSelection);
  EXPECT_THROW(sim.csu({}), ValidationError);
}

}  // namespace
}  // namespace rrsn::sim
