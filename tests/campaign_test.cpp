// Campaign engine tests: the acceptance gates of the fault-injection
// subsystem.
//  * Exhaustive campaigns on the example networks report zero
//    expected-vs-simulated mismatches for segment breaks (and, with the
//    control-aware oracle, for stuck muxes too); the strict-vs-plain
//    structural differences are itemized as gaps, never dropped.
//  * Campaign results are bitwise identical for 1 and 4 worker threads.
//  * A deadline-interrupted campaign resumed from its checkpoint ends in
//    exactly the report of an uninterrupted run.
//  * On the fault-tolerant augmented topology the bounded reroute search
//    recovers accesses (graceful degradation shows up as Recovered).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>

#include "campaign/campaign.hpp"
#include "benchgen/registry.hpp"
#include "campaign/checkpoint.hpp"
#include "diag/diagnosis.hpp"
#include "harden/fault_tolerant.hpp"
#include "obs/obs.hpp"
#include "rsn/example_networks.hpp"
#include "support/hash.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"

namespace rrsn {
namespace {

std::string reportString(const rsn::Network& net,
                         const campaign::CampaignResult& result) {
  return json::serialize(campaign::reportJson(net, result), 1);
}

campaign::CampaignResult runCampaign(const rsn::Network& net,
                                     campaign::CampaignConfig config = {}) {
  return campaign::CampaignEngine(net, std::move(config)).run();
}

/// Sum of the named obs counter over every thread of the snapshot.
std::uint64_t counterValue(const obs::Snapshot& snap, const std::string& name) {
  std::uint64_t n = 0;
  for (const auto& [id, v] : snap.counters)
    if (snap.names[id] == name) n += v;
  return n;
}

/// Unique-ish checkpoint path under the test's working directory.
std::string checkpointPath(const std::string& tag) {
  return "campaign_test_" + tag + ".ckpt.json";
}

TEST(Campaign, ExampleNetworksHaveZeroMismatches) {
  for (const rsn::Network& net :
       {rsn::makeFig1Network(), rsn::makeTinyNetwork()}) {
    const campaign::CampaignResult result = runCampaign(net);
    const campaign::CampaignSummary s = result.summary();
    EXPECT_TRUE(s.complete()) << net.name();
    EXPECT_EQ(s.oracleDisagreements, 0u) << net.name();
    // The acceptance gate: simulation never disagrees with the
    // control-aware expectation on segment breaks.
    EXPECT_EQ(s.segmentBreakMismatches, 0u) << net.name();
    EXPECT_EQ(s.muxStuckMismatches, 0u) << net.name();
    // Strict-vs-structural differences are reported, not dropped: every
    // gap pair appears in the itemized list.
    EXPECT_EQ(result.structuralGaps().size(),
              s.segmentBreakGapPairs + s.muxStuckGapPairs)
        << net.name();
  }
}

TEST(Campaign, Fig1GapsAreTheDocumentedControlDependency) {
  // fig1: break(c0) kills multi-round accesses (c0 controls m0 and sits
  // on the reset path), and break(sb1) blocks writing i1's guard.  Both
  // losses are invisible to the plain structural oracle — they must be
  // itemized as gaps with zero mismatches.
  const rsn::Network net = rsn::makeFig1Network();
  const campaign::CampaignResult result = runCampaign(net);
  const auto gaps = result.structuralGaps();
  ASSERT_EQ(gaps.size(), 2u);
  for (const campaign::Mismatch& gap : gaps) {
    EXPECT_EQ(gap.scenario.a.kind, fault::FaultKind::SegmentBreak);
    EXPECT_EQ(gap.simulated, campaign::Outcome::Lost);
    EXPECT_TRUE(gap.referenceAccessible);
  }
}

TEST(Campaign, DeterministicAcrossThreadCounts) {
  const rsn::Network net = rsn::makeFig1Network();
  setThreadCount(1);
  const std::string serial = reportString(net, runCampaign(net));
  setThreadCount(4);
  const std::string parallel = reportString(net, runCampaign(net));
  setThreadCount(0);  // restore the environment-configured pool
  EXPECT_EQ(serial, parallel);
}

TEST(Campaign, SmallSampledCampaignDeterministicAcrossThreadCounts) {
  // Eight scenarios is below twice the default grain, so this only
  // leaves the serial path because the batch loop fans out at grain 1.
  const rsn::Network net = benchgen::buildBenchmark("MBIST_1_5_5");
  campaign::CampaignConfig config;
  config.sample = 8;
  config.seed = 3;
  setThreadCount(1);
  const std::string serial = reportString(net, runCampaign(net, config));
  setThreadCount(4);
  const std::string parallel = reportString(net, runCampaign(net, config));
  setThreadCount(0);  // restore the environment-configured pool
  EXPECT_EQ(serial, parallel);
}

TEST(Campaign, SampledCampaignIsDeterministicSubset) {
  const rsn::Network net = rsn::makeFig1Network();
  campaign::CampaignConfig config;
  config.sample = 5;
  config.seed = 7;
  campaign::CampaignEngine a(net, config), b(net, config);
  ASSERT_EQ(a.universe().size(), 5u);
  const std::string ra = reportString(net, a.run());
  const std::string rb = reportString(net, b.run());
  EXPECT_EQ(ra, rb);
}

struct OracleWork {
  std::uint64_t oracleRows = 0;     ///< campaign.oracle_rows
  std::uint64_t certifiedRows = 0;  ///< rows the certifier decided
};

/// Runs `engine` and returns the oracle work the run did.
OracleWork runCountingOracleWork(campaign::CampaignEngine& engine,
                                 campaign::CampaignResult& out) {
  const auto read = [](const obs::Snapshot& snap) {
    OracleWork w;
    for (const auto& [id, v] : snap.counters) {
      if (snap.names[id] == "campaign.oracle_rows") w.oracleRows += v;
      if (snap.names[id] == "verify.rows_fast" ||
          snap.names[id] == "verify.rows_fixpoint")
        w.certifiedRows += v;
    }
    return w;
  };
  obs::enable();
  const OracleWork before = read(obs::snapshot());
  out = engine.run();
  const OracleWork after = read(obs::snapshot());
  obs::disable();
  return {after.oracleRows - before.oracleRows,
          after.certifiedRows - before.certifiedRows};
}

void expectSameRecord(const campaign::FaultRecord& a,
                      const campaign::FaultRecord& b) {
  EXPECT_TRUE(a.scenario == b.scenario);
  EXPECT_EQ(a.done, b.done);
  EXPECT_EQ(a.read, b.read);
  EXPECT_EQ(a.write, b.write);
  EXPECT_EQ(a.structObservable, b.structObservable);
  EXPECT_EQ(a.structSettable, b.structSettable);
  EXPECT_EQ(a.expectObservable, b.expectObservable);
  EXPECT_EQ(a.expectSettable, b.expectSettable);
  EXPECT_EQ(a.oracleDisagreements, b.oracleDisagreements);
}

TEST(Campaign, SampledOraclesCoverOnlyTheReferencedSingles) {
  // A sampled campaign computes oracle rows for the faults it probes
  // and nothing else, and those rows classify exactly as in the
  // exhaustive run.
  for (const rsn::Network& net :
       {rsn::makeFig1Network(), benchgen::buildBenchmark("q12710")}) {
    const campaign::CampaignResult full = runCampaign(net);
    campaign::CampaignConfig config;
    config.sample = 6;
    config.seed = 11;
    campaign::CampaignEngine engine(net, config);
    campaign::CampaignResult sampled;
    const OracleWork work = runCountingOracleWork(engine, sampled);
    EXPECT_EQ(work.oracleRows, engine.universe().size()) << net.name();
    // Only the sampled faults' primitives are certified (a sampled stuck
    // branch brings its mux's other branches along).
    EXPECT_LT(work.certifiedRows, full.records.size()) << net.name();
    ASSERT_EQ(sampled.records.size(), 6u) << net.name();
    for (const campaign::FaultRecord& rec : sampled.records) {
      const auto& s = rec.scenario;
      expectSameRecord(rec, full.records[s.aIdx]);
    }
  }
}

TEST(Campaign, SampledPairAndTransientOraclesCoverOnlyTheirSingles) {
  const rsn::Network net = rsn::makeFig1Network();
  campaign::CampaignConfig pairs;
  pairs.mode = campaign::CampaignMode::Pairs;
  const campaign::CampaignResult fullPairs = runCampaign(net, pairs);
  pairs.sample = 5;
  pairs.seed = 3;
  campaign::CampaignEngine engine(net, pairs);
  std::vector<std::uint32_t> members;
  for (const campaign::FaultScenario& s : engine.universe()) {
    members.push_back(s.aIdx);
    members.push_back(s.bIdx);
  }
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  campaign::CampaignResult sampled;
  EXPECT_EQ(runCountingOracleWork(engine, sampled).oracleRows,
            members.size());
  for (const campaign::FaultRecord& rec : sampled.records) {
    const auto match = std::find_if(
        fullPairs.records.begin(), fullPairs.records.end(),
        [&](const campaign::FaultRecord& r) {
          return r.scenario == rec.scenario;
        });
    ASSERT_NE(match, fullPairs.records.end());
    expectSameRecord(rec, *match);
  }

  campaign::CampaignConfig transient;
  transient.mode = campaign::CampaignMode::Transient;
  campaign::CampaignEngine upsetEngine(net, transient);
  campaign::CampaignResult upsets;
  const OracleWork upsetWork = runCountingOracleWork(upsetEngine, upsets);
  EXPECT_EQ(upsetWork.oracleRows, 0u);
  EXPECT_EQ(upsetWork.certifiedRows, 0u);
  EXPECT_TRUE(upsets.summary().complete());
}

TEST(Campaign, CheckpointResumeMatchesUninterruptedRun) {
  const rsn::Network net = rsn::makeFig1Network();
  const std::string path = checkpointPath("resume");
  std::remove(path.c_str());

  const std::string uninterrupted = reportString(net, runCampaign(net));

  // First run: small batches, cancel after the first finished batch.
  CancellationToken cancel;
  campaign::CampaignConfig config;
  config.checkpointPath = path;
  config.checkpointEvery = 4;
  config.cancel = &cancel;
  config.progress = [&](std::size_t done, std::size_t) {
    if (done >= 4) cancel.cancel();
  };
  const campaign::CampaignResult partial = runCampaign(net, config);
  const campaign::CampaignSummary ps = partial.summary();
  EXPECT_FALSE(ps.complete());
  EXPECT_GE(ps.faultsDone, 4u);

  // Second run: fresh engine, same checkpoint, no cancellation.
  campaign::CampaignConfig resume;
  resume.checkpointPath = path;
  resume.checkpointEvery = 4;
  const campaign::CampaignResult final = runCampaign(net, resume);
  EXPECT_TRUE(final.summary().complete());
  EXPECT_EQ(reportString(net, final), uninterrupted);
  std::remove(path.c_str());
}

TEST(Campaign, DeadlineMidScenarioLeavesNoPartialRecordDone) {
  // t512505 has 288 instruments, nine probe blocks per scenario, so a
  // deadline usually trips between two blocks of one scenario.  That
  // scenario must stay pending (not done, nothing recorded, not in the
  // checkpoint), and resuming must end in the uninterrupted report.
  const rsn::Network net = benchgen::buildBenchmark("t512505");
  campaign::CampaignConfig base;
  base.sample = 6;
  base.seed = 2022;
  const campaign::CampaignResult reference = runCampaign(net, base);
  const std::string uninterrupted = reportString(net, reference);
  const std::uint64_t perScenario = 2 * net.instruments().size();

  setThreadCount(1);  // blocks run in order: a trip cuts one scenario
  bool midScenario = false;
  for (std::uint64_t ms = 1; ms <= 4096 && !midScenario; ms *= 2) {
    const std::string path = checkpointPath("mid_scenario");
    std::remove(path.c_str());
    campaign::CampaignConfig first = base;
    first.checkpointPath = path;
    first.deadlineMs = ms;
    obs::enable();
    const std::uint64_t before = counterValue(obs::snapshot(), "sim.accesses");
    const campaign::CampaignResult partial = runCampaign(net, first);
    const std::uint64_t accesses =
        counterValue(obs::snapshot(), "sim.accesses") - before;
    obs::disable();
    const campaign::CampaignSummary ps = partial.summary();
    if (ps.complete()) break;  // the deadline never tripped
    // Accesses beyond two per instrument of every finished scenario were
    // spent on a scenario the deadline cut short.
    midScenario = accesses > perScenario * ps.faultsDone;
    for (std::size_t k = 0; k < partial.records.size(); ++k) {
      const campaign::FaultRecord& rec = partial.records[k];
      if (rec.done) {
        expectSameRecord(rec, reference.records[k]);
      } else {
        EXPECT_TRUE(rec.read.empty()) << "record " << k;
        EXPECT_TRUE(rec.write.empty()) << "record " << k;
      }
    }

    campaign::CampaignConfig resume = base;
    resume.checkpointPath = path;
    campaign::CampaignEngine engine(net, resume);
    obs::enable();
    const std::uint64_t restoredBefore =
        counterValue(obs::snapshot(), "campaign.restored");
    const campaign::CampaignResult final = engine.run();
    const std::uint64_t restored =
        counterValue(obs::snapshot(), "campaign.restored") - restoredBefore;
    obs::disable();
    EXPECT_EQ(restored, ps.faultsDone) << "deadline " << ms << " ms";
    EXPECT_TRUE(final.summary().complete());
    EXPECT_EQ(reportString(net, final), uninterrupted)
        << "deadline " << ms << " ms";
    std::remove(path.c_str());
  }
  setThreadCount(0);
  EXPECT_TRUE(midScenario) << "no deadline tripped inside a scenario";
}

TEST(Campaign, CheckpointIgnoresDifferentConfiguration) {
  const rsn::Network net = rsn::makeFig1Network();
  const std::string path = checkpointPath("fingerprint");
  std::remove(path.c_str());

  campaign::CampaignConfig config;
  config.checkpointPath = path;
  (void)runCampaign(net, config);

  // Same file, different campaign shape: the fingerprint must not match,
  // and loadCheckpoint must report the rejection as a typed Status
  // instead of throwing — the engine restarts from scratch.
  {
    campaign::CampaignConfig other = config;
    other.sample = 3;
    campaign::CampaignEngine engine(net, other);
    campaign::CampaignResult probe;
    probe.instruments = net.instruments().size();
    probe.records.resize(engine.universe().size());
    const campaign::CheckpointLoad load = campaign::loadCheckpoint(
        path, campaign::campaignFingerprint(net, other), probe);
    EXPECT_EQ(load.status.code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(load.restored, 0u);
    // The full run degrades gracefully: complete, stale file overwritten.
    const campaign::CampaignResult result = runCampaign(net, other);
    EXPECT_TRUE(result.summary().complete());
    EXPECT_EQ(result.records.size(), 3u);
  }

  // A different network is rejected (gracefully) too, and the campaign
  // still produces the uninterrupted report byte for byte.
  {
    const rsn::Network tiny = rsn::makeTinyNetwork();
    const std::string clean = reportString(tiny, runCampaign(tiny));
    std::remove(path.c_str());
    (void)runCampaign(net, config);  // rewrite fig1's checkpoint
    campaign::CampaignConfig sameShape;
    sameShape.checkpointPath = path;
    EXPECT_EQ(reportString(tiny, runCampaign(tiny, sameShape)), clean);
  }
  std::remove(path.c_str());
}

TEST(Campaign, CorruptedCheckpointRestartsInsteadOfThrowing) {
  const rsn::Network net = rsn::makeFig1Network();
  const std::string path = checkpointPath("corrupt");
  const std::string clean = reportString(net, runCampaign(net));

  campaign::CampaignConfig config;
  config.checkpointPath = path;

  const auto writeFile = [&](const std::string& text) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  };

  // Produce a genuine checkpoint, then damage it in representative ways:
  // truncated mid-document, plain garbage, and hand-edited (valid JSON,
  // torn record).  Every variant must restart and reproduce the clean
  // report — never throw, never merge partial corrupt state.
  (void)runCampaign(net, config);
  std::string good;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    good = text.str();
  }
  ASSERT_GT(good.size(), 32u);

  const std::string truncated = good.substr(0, good.size() / 2);
  const std::string garbage = "not json at all {{{";
  std::string handEdited = good;
  const auto at = handEdited.find("\"read\"");
  ASSERT_NE(at, std::string::npos);
  handEdited.replace(at, 6, "\"r34d\"");  // one record loses its field

  for (const std::string& bad : {truncated, garbage, handEdited}) {
    writeFile(bad);
    campaign::CampaignResult probe;
    probe.instruments = net.instruments().size();
    probe.records.resize(campaign::CampaignEngine(net, config).universe().size());
    const campaign::CheckpointLoad load = campaign::loadCheckpoint(
        path, campaign::campaignFingerprint(net, config), probe);
    EXPECT_EQ(load.status.code(), StatusCode::kDataLoss);
    EXPECT_EQ(load.restored, 0u);
    for (const campaign::FaultRecord& rec : probe.records)
      EXPECT_FALSE(rec.done);  // nothing half-applied

    writeFile(bad);
    const campaign::CampaignResult result = runCampaign(net, config);
    EXPECT_TRUE(result.summary().complete());
    EXPECT_EQ(reportString(net, result), clean);
  }
  std::remove(path.c_str());
}

TEST(Campaign, ExcludedPrimitivesShrinkTheUniverse) {
  const rsn::Network net = rsn::makeFig1Network();
  const std::size_t all =
      campaign::CampaignEngine(net).universe().size();

  campaign::CampaignConfig config;
  config.excludePrimitives = DynamicBitset(net.primitiveCount());
  config.excludePrimitives.set(net.linearId(
      rsn::PrimitiveRef{rsn::PrimitiveRef::Kind::Segment, net.findSegment("c0")}));
  campaign::CampaignEngine engine(net, config);
  EXPECT_LT(engine.universe().size(), all);
  for (const campaign::FaultScenario& s : engine.universe()) {
    EXPECT_FALSE(s.a.kind == fault::FaultKind::SegmentBreak &&
                 s.a.prim == net.findSegment("c0"));
  }
  // The excluded-universe campaign reports no break(c0) record at all.
  const campaign::CampaignResult result =
      campaign::CampaignEngine(net, config).run();
  EXPECT_EQ(result.records.size(), engine.universe().size());
}

TEST(Campaign, AugmentedTopologyRecoversAccesses) {
  // The fault-tolerant baseline adds TAP-controlled skip paths; the
  // bounded reroute search must use them, classifying accesses that the
  // nominal recipe loses as Recovered — and still match the expectation.
  const harden::FaultTolerantRsn ft =
      harden::augmentFaultTolerant(rsn::makeFig1Network());
  const campaign::CampaignResult result = runCampaign(ft.network);
  const campaign::CampaignSummary s = result.summary();
  EXPECT_TRUE(s.complete());
  EXPECT_GT(s.readRecovered + s.writeRecovered, 0u);
  EXPECT_EQ(s.segmentBreakMismatches, 0u);
  EXPECT_EQ(s.muxStuckMismatches, 0u);
}

TEST(Campaign, NoRerouteMeansNoRecovered) {
  const harden::FaultTolerantRsn ft =
      harden::augmentFaultTolerant(rsn::makeFig1Network());
  campaign::CampaignConfig config;
  config.retarget.maxReroutes = 0;
  const campaign::CampaignSummary s = runCampaign(ft.network, config).summary();
  EXPECT_EQ(s.readRecovered + s.writeRecovered, 0u);
}

TEST(Campaign, ReportJsonIsCanonical) {
  const rsn::Network net = rsn::makeTinyNetwork();
  const campaign::CampaignResult result = runCampaign(net);
  const std::string a = reportString(net, result);
  const std::string b = reportString(net, result);
  EXPECT_EQ(a, b);
  const json::Value doc = json::parse(a);
  EXPECT_EQ(doc.at("network").asString(), "tiny");
  EXPECT_EQ(doc.at("summary").at("segment_break_mismatches").asUnsigned(), 0u);
  EXPECT_EQ(doc.at("summary").at("mux_stuck_mismatches").asUnsigned(), 0u);
}

/// FNV-1a digest of a campaign's canonical JSON report.
std::uint64_t reportDigest(const rsn::Network& net,
                           const campaign::CampaignResult& result) {
  std::uint64_t h = hash::kFnvOffset;
  hash::fnvMix(h, reportString(net, result));
  return h;
}

TEST(CampaignGolden, ReportsMatchPinnedDigestsAtAnyThreadCount) {
  // Digests of reportJson pinned before the simulator fast paths
  // (nominal-first retargeting, the closed-form CSU shift, the
  // per-instrument-block fan-out).  Each of them changes how much work a
  // probe costs, never its outcome, so the reports stay byte-identical.
  struct Pin {
    const char* design;
    campaign::CampaignMode mode;
    std::size_t sample;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {"p34392", campaign::CampaignMode::Single, 6, 0x22f5c33972f77aa7ULL},
      {"t512505", campaign::CampaignMode::Single, 6, 0x9016a845b62b83bfULL},
      {"MBIST_1_5_20", campaign::CampaignMode::Single, 64, 0x99748eb7f190a048ULL},
      {"fig1", campaign::CampaignMode::Pairs, 12, 0x32d29f808f7fd436ULL},
      {"fig1", campaign::CampaignMode::Transient, 0, 0xe9ce1f1cfc3b8962ULL},
  };
  const std::size_t kThreadCounts[] = {1, 2, 4};
  for (const Pin& pin : pins) {
    const std::string design = pin.design;
    const rsn::Network net = design == "fig1"
                                 ? rsn::makeFig1Network()
                                 : benchgen::buildBenchmark(design);
    campaign::CampaignConfig config;
    config.mode = pin.mode;
    config.sample = pin.sample;
    config.seed = 2022;
    for (const std::size_t threads : kThreadCounts) {
      setThreadCount(threads);
      EXPECT_EQ(reportDigest(net, runCampaign(net, config)), pin.digest)
          << design << " " << campaign::campaignModeName(pin.mode) << " at "
          << threads << " threads";
    }
  }
  setThreadCount(0);
}

// ------------------------------------------------------ pair campaigns

bool isContradictory(const fault::Fault& a, const fault::Fault& b) {
  return a.kind == fault::FaultKind::MuxStuck &&
         b.kind == fault::FaultKind::MuxStuck && a.prim == b.prim;
}

TEST(PairCampaign, ExhaustiveUniverseIsCanonicalAndContradictionFree) {
  const rsn::Network net = rsn::makeFig1Network();
  campaign::CampaignConfig config;
  config.mode = campaign::CampaignMode::Pairs;
  campaign::CampaignEngine engine(net, config);
  const auto& singles = engine.singles();
  const auto& universe = engine.universe();

  std::size_t expected = 0;
  for (std::size_t i = 0; i < singles.size(); ++i)
    for (std::size_t j = i + 1; j < singles.size(); ++j)
      if (!isContradictory(singles[i], singles[j])) ++expected;
  ASSERT_EQ(universe.size(), expected);

  for (std::size_t k = 0; k < universe.size(); ++k) {
    const campaign::FaultScenario& s = universe[k];
    EXPECT_EQ(s.kind, campaign::CampaignMode::Pairs);
    ASSERT_LT(s.aIdx, s.bIdx);
    ASSERT_LT(s.bIdx, singles.size());
    EXPECT_TRUE(s.a == singles[s.aIdx]);
    EXPECT_TRUE(s.b == singles[s.bIdx]);
    EXPECT_FALSE(isContradictory(s.a, s.b));
    if (k > 0) {
      // Strictly increasing canonical (aIdx, bIdx) order: no duplicates.
      const campaign::FaultScenario& prev = universe[k - 1];
      EXPECT_TRUE(std::tie(prev.aIdx, prev.bIdx) < std::tie(s.aIdx, s.bIdx));
    }
  }
}

TEST(PairCampaign, StratifiedSampleIsDeterministicAndCoversStrata) {
  const rsn::Network net = rsn::makeFig1Network();
  campaign::CampaignConfig config;
  config.mode = campaign::CampaignMode::Pairs;
  config.sample = 20;
  config.seed = 5;
  campaign::CampaignEngine a(net, config), b(net, config);
  ASSERT_EQ(a.universe().size(), b.universe().size());
  for (std::size_t k = 0; k < a.universe().size(); ++k)
    EXPECT_TRUE(a.universe()[k] == b.universe()[k]);
  // Contradictory draws may shrink the sample, never grow it.
  EXPECT_LE(a.universe().size(), 20u);
  EXPECT_GE(a.universe().size(), 1u);
  // Largest-remainder allocation over the break/break, break/stuck and
  // stuck/stuck strata reaches every stratum at this sample size.
  bool bb = false, bs = false, ss = false;
  for (const campaign::FaultScenario& s : a.universe()) {
    const bool aBreak = s.a.kind == fault::FaultKind::SegmentBreak;
    const bool bBreak = s.b.kind == fault::FaultKind::SegmentBreak;
    (aBreak && bBreak ? bb : (aBreak || bBreak ? bs : ss)) = true;
  }
  EXPECT_TRUE(bb);
  EXPECT_TRUE(bs);
  EXPECT_TRUE(ss);
}

TEST(PairCampaign, SampleFractionRoundsUpAndCapsAtOne) {
  const rsn::Network net = rsn::makeFig1Network();
  campaign::CampaignConfig all;
  all.mode = campaign::CampaignMode::Pairs;
  campaign::CampaignEngine exhaustive(net, all);
  const std::size_t total = exhaustive.universe().size();
  // The fraction targets the raw pair space C(F, 2); contradictory
  // same-mux draws are then dropped, so the compatible universe can be
  // a little smaller than the target (and `total` smaller than C(F,2)).
  const std::size_t f = exhaustive.singles().size();
  const std::size_t rawPairs = f * (f - 1) / 2;
  ASSERT_LE(total, rawPairs);

  campaign::CampaignConfig half = all;
  half.sampleFraction = 0.5;
  const std::size_t target = (rawPairs + 1) / 2;
  const std::size_t sampled =
      campaign::CampaignEngine(net, half).universe().size();
  EXPECT_LE(sampled, target);
  EXPECT_GE(sampled + (rawPairs - total), target);

  campaign::CampaignConfig tiny = all;
  tiny.sampleFraction = 1e-9;
  EXPECT_EQ(campaign::CampaignEngine(net, tiny).universe().size(), 1u);

  campaign::CampaignConfig full = all;
  full.sampleFraction = 1.0;
  EXPECT_EQ(campaign::CampaignEngine(net, full).universe().size(), total);
}

TEST(PairCampaign, DeterministicAcrossThreadCounts) {
  const rsn::Network net = rsn::makeFig1Network();
  campaign::CampaignConfig config;
  config.mode = campaign::CampaignMode::Pairs;
  config.sample = 16;
  config.seed = 3;
  setThreadCount(1);
  const std::string serial = reportString(net, runCampaign(net, config));
  setThreadCount(2);
  const std::string two = reportString(net, runCampaign(net, config));
  setThreadCount(4);
  const std::string four = reportString(net, runCampaign(net, config));
  setThreadCount(0);
  EXPECT_EQ(serial, two);
  EXPECT_EQ(serial, four);
}

TEST(PairCampaign, CheckpointResumeMatchesUninterruptedRun) {
  const rsn::Network net = rsn::makeFig1Network();
  const std::string path = checkpointPath("pair_resume");
  std::remove(path.c_str());

  campaign::CampaignConfig base;
  base.mode = campaign::CampaignMode::Pairs;
  base.sample = 12;
  base.seed = 11;
  const std::string uninterrupted = reportString(net, runCampaign(net, base));

  CancellationToken cancel;
  campaign::CampaignConfig first = base;
  first.checkpointPath = path;
  first.checkpointEvery = 4;
  first.cancel = &cancel;
  first.progress = [&](std::size_t done, std::size_t) {
    if (done >= 4) cancel.cancel();
  };
  const campaign::CampaignSummary ps = runCampaign(net, first).summary();
  EXPECT_FALSE(ps.complete());
  EXPECT_GE(ps.faultsDone, 4u);

  // Resume at a different thread count: the same sampled pairs finish
  // with the same report, byte for byte.
  setThreadCount(2);
  campaign::CampaignConfig resume = base;
  resume.checkpointPath = path;
  resume.checkpointEvery = 4;
  const campaign::CampaignResult final = runCampaign(net, resume);
  setThreadCount(0);
  EXPECT_TRUE(final.summary().complete());
  EXPECT_EQ(reportString(net, final), uninterrupted);
  std::remove(path.c_str());
}

TEST(PairCampaign, InteractionsAreDiffsNotMismatches) {
  const rsn::Network net = rsn::makeFig1Network();
  campaign::CampaignConfig config;
  config.mode = campaign::CampaignMode::Pairs;
  const campaign::CampaignResult result = runCampaign(net, config);
  const campaign::CampaignSummary s = result.summary();
  EXPECT_TRUE(s.complete());
  // The pair-composed oracle is a bound, not ground truth: divergence is
  // an interaction effect, never an engine mismatch.
  EXPECT_TRUE(result.mismatches().empty());
  EXPECT_EQ(s.readMismatches + s.writeMismatches, 0u);
  EXPECT_EQ(result.pairInteractions().size(), s.pairCompounded + s.pairMasked);
  const campaign::RobustnessReport r = result.robustness();
  EXPECT_EQ(r.mode, campaign::CampaignMode::Pairs);
  EXPECT_EQ(r.compounded, s.pairCompounded);
  EXPECT_EQ(r.masked, s.pairMasked);
  EXPECT_GE(r.retention(), 0.0);
  EXPECT_LE(r.retention(), 1.0);
}

// -------------------------------------------------- transient campaigns

TEST(TransientCampaign, EveryUpsetRecovers) {
  // The headline transient guarantee: a one-shot upset never loses an
  // instrument permanently — a reconfiguration sequence (or plain
  // retry) always restores access, and the classification agrees with
  // the fault-free expectation everywhere.
  for (const rsn::Network& net :
       {rsn::makeFig1Network(), rsn::makeTinyNetwork()}) {
    campaign::CampaignConfig config;
    config.mode = campaign::CampaignMode::Transient;
    const campaign::CampaignResult result = runCampaign(net, config);
    const campaign::CampaignSummary s = result.summary();
    EXPECT_TRUE(s.complete()) << net.name();
    EXPECT_EQ(s.readLost + s.writeLost, 0u) << net.name();
    EXPECT_GT(s.readReconfigured + s.writeReconfigured, 0u) << net.name();
    EXPECT_EQ(s.readMismatches + s.writeMismatches, 0u) << net.name();
    EXPECT_EQ(result.robustness().retention(), 1.0) << net.name();
    // Universe: every segment times every configured upset round.
    EXPECT_EQ(result.records.size(),
              net.segments().size() * config.transientRounds.size())
        << net.name();
    for (const campaign::FaultRecord& rec : result.records) {
      EXPECT_EQ(rec.scenario.kind, campaign::CampaignMode::Transient);
      EXPECT_NE(rec.scenario.upsetSegment, rsn::kNone);
    }
  }
}

TEST(TransientCampaign, ReferenceRowMatchesTheSimulator) {
  // Transient classification is judged against the fault-free row; that
  // reference must be the simulator's own fault-free syndrome.
  const rsn::Network net = rsn::makeFig1Network();
  const diag::Syndrome probe = diag::FaultDictionary::measure(net, nullptr);

  campaign::CampaignConfig config;
  config.mode = campaign::CampaignMode::Transient;
  const campaign::CampaignResult result = runCampaign(net, config);
  for (const campaign::FaultRecord& rec : result.records) {
    ASSERT_TRUE(rec.done);
    for (std::size_t i = 0; i < result.instruments; ++i) {
      EXPECT_EQ(rec.expectObservable.test(i), probe.passed.test(2 * i));
      EXPECT_EQ(rec.expectSettable.test(i), probe.passed.test(2 * i + 1));
    }
  }
}

// ------------------------------------------------- config validation

TEST(CampaignConfigValidation, TypedStatusForEveryBadKnob) {
  using campaign::validateCampaignConfig;
  campaign::CampaignConfig good;
  EXPECT_TRUE(validateCampaignConfig(good).ok());

  campaign::CampaignConfig bad = good;
  bad.sampleFraction = -0.25;
  EXPECT_EQ(validateCampaignConfig(bad).code(), StatusCode::kInvalidArgument);
  bad.sampleFraction = 1.5;
  EXPECT_EQ(validateCampaignConfig(bad).code(), StatusCode::kInvalidArgument);
  bad.sampleFraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(validateCampaignConfig(bad).code(), StatusCode::kInvalidArgument);

  bad = good;
  bad.sample = 4;
  bad.sampleFraction = 0.5;
  EXPECT_EQ(validateCampaignConfig(bad).code(), StatusCode::kInvalidArgument);

  bad = good;
  bad.deadlineMs = 0;
  EXPECT_EQ(validateCampaignConfig(bad).code(), StatusCode::kInvalidArgument);

  bad = good;
  bad.checkpointPath = ".";  // a directory, not a state file
  EXPECT_EQ(validateCampaignConfig(bad).code(), StatusCode::kInvalidArgument);

  bad = good;
  bad.mode = campaign::CampaignMode::Transient;
  bad.transientRounds = {};
  EXPECT_EQ(validateCampaignConfig(bad).code(), StatusCode::kInvalidArgument);
  bad.transientRounds = {1, 0, 1};
  EXPECT_EQ(validateCampaignConfig(bad).code(), StatusCode::kInvalidArgument);
  bad.transientRounds = {0, 1, 2};
  EXPECT_TRUE(validateCampaignConfig(bad).ok());

  // The engine constructor surfaces the same rejection as a typed throw.
  campaign::CampaignConfig throwing;
  throwing.sampleFraction = 2.0;
  EXPECT_THROW(campaign::CampaignEngine(rsn::makeTinyNetwork(), throwing),
               ValidationError);
}

// --------------------------------------------- checkpoint format version

TEST(CheckpointVersion, WrongVersionOrModeRestartsGracefully) {
  const rsn::Network net = rsn::makeFig1Network();
  const std::string path = checkpointPath("version");
  std::remove(path.c_str());

  campaign::CampaignConfig config;
  config.checkpointPath = path;
  const std::string clean = reportString(net, runCampaign(net, config));

  std::string good;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    good = text.str();
  }
  ASSERT_NE(good.find("\"version\": 2"), std::string::npos);

  const auto writeFile = [&](const std::string& text) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  };
  const auto probeLoad = [&]() {
    campaign::CampaignResult probe;
    probe.instruments = net.instruments().size();
    probe.records.resize(
        campaign::CampaignEngine(net, config).universe().size());
    return campaign::loadCheckpoint(
        path, campaign::campaignFingerprint(net, config), probe);
  };

  // A version-1 file (what PR 2's engine wrote): wrong version, typed
  // rejection, zero restored — and the full run restarts cleanly.
  std::string v1 = good;
  const auto vAt = v1.find("\"version\": 2");
  v1.replace(vAt, 12, "\"version\": 1");
  writeFile(v1);
  {
    const campaign::CheckpointLoad load = probeLoad();
    EXPECT_EQ(load.status.code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(load.restored, 0u);
  }
  writeFile(v1);
  EXPECT_EQ(reportString(net, runCampaign(net, config)), clean);

  // Same for a file written by a different campaign mode.
  std::string wrongMode = good;
  const auto mAt = wrongMode.find("\"mode\": \"single\"");
  ASSERT_NE(mAt, std::string::npos);
  wrongMode.replace(mAt, 16, "\"mode\": \"pairs\"");
  writeFile(wrongMode);
  {
    const campaign::CheckpointLoad load = probeLoad();
    EXPECT_EQ(load.status.code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(load.restored, 0u);
  }
  writeFile(wrongMode);
  EXPECT_EQ(reportString(net, runCampaign(net, config)), clean);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rrsn
