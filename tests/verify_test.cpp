// Static robustness certifier: exhaustive agreement with the campaign
// accessibility oracle on the paper networks, witness sanity, hardened
// exclusion of fault sites, Unknown accounting under an exhausted
// fixpoint budget, thread-count byte-determinism of the canonical JSON
// report and the work counters, the SARIF export shape, and the lane
// tier's batch boundaries: rows of partial and multi-batch universes
// match the syndrome oracle and never depend on their batch-mates.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "benchgen/registry.hpp"
#include "campaign/campaign.hpp"
#include "diag/batched.hpp"
#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "rsn/example_networks.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "test_util.hpp"
#include "verify/certifier.hpp"

namespace rrsn::verify {
namespace {

/// Asserts every certifier verdict on `net` against the batched
/// syndrome oracle over the full single-fault universe.  Proven must
/// coincide with oracle-accessible, Vulnerable with oracle-severed; the
/// default budget must leave nothing Unknown.
void expectExhaustiveAgreement(const rsn::Network& net) {
  const Certifier certifier(net);
  CertifyOptions options;
  options.crossCheck = false;  // this test IS the cross-check
  const CertificationResult result = certifier.run(options);
  EXPECT_EQ(result.summary().unknownCells(), 0u);

  const diag::BatchedSyndromeEngine oracle(net);
  for (std::size_t fi = 0; fi < result.universe.size(); ++fi) {
    const fault::Fault& f = result.universe[fi];
    const campaign::Expectation expect = campaign::expectedAccessibility(
        oracle, result.instruments, f, /*worker=*/0);
    for (std::size_t i = 0; i < result.instruments; ++i) {
      EXPECT_EQ(result.read(fi, i) == Verdict::Proven, expect.observable.test(i))
          << fault::describe(net, f) << " / read " << net.instrument(
                 static_cast<rsn::InstrumentId>(i)).name;
      EXPECT_EQ(result.write(fi, i) == Verdict::Proven, expect.settable.test(i))
          << fault::describe(net, f) << " / write " << net.instrument(
                 static_cast<rsn::InstrumentId>(i)).name;
    }
  }
}

TEST(Certifier, Fig1AgreesWithCampaignOracleExhaustively) {
  expectExhaustiveAgreement(rsn::makeFig1Network());
}

TEST(Certifier, TinyAgreesWithCampaignOracleExhaustively) {
  expectExhaustiveAgreement(rsn::makeTinyNetwork());
}

TEST(Certifier, RandomNetworksAgreeWithCampaignOracle) {
  for (const std::uint64_t seed : {11u, 23u, 47u}) {
    Rng rng(seed);
    expectExhaustiveAgreement(test::randomNetwork(rng));
  }
}

TEST(Certifier, SelfFaultWitnessOnOwnSegmentBreak) {
  const rsn::Network net = rsn::makeFig1Network();
  const Certifier certifier(net);
  const CertificationResult result = certifier.run();
  for (std::size_t i = 0; i < result.instruments; ++i) {
    if (!result.reachable.test(i)) continue;
    // Locate the break fault at the instrument's hosting segment.
    for (std::size_t fi = 0; fi < result.universe.size(); ++fi) {
      const fault::Fault& f = result.universe[fi];
      if (f.kind != fault::FaultKind::SegmentBreak ||
          f.prim != result.instrumentSegment[i])
        continue;
      EXPECT_EQ(result.read(fi, i), Verdict::Vulnerable);
      EXPECT_EQ(result.write(fi, i), Verdict::Vulnerable);
      const Witness w = result.readWitness(fi, i);
      EXPECT_EQ(w.kind, WitnessKind::SelfFault);
      EXPECT_EQ(w.subject, result.instrumentSegment[i]);
    }
  }
}

TEST(Certifier, WitnessKindsPartitionByVerdict) {
  const rsn::Network net = benchgen::buildBenchmark("q12710");
  const CertificationResult result = Certifier(net).run();
  bool sawDominatorCut = false;
  for (std::size_t fi = 0; fi < result.universe.size(); ++fi) {
    for (std::size_t i = 0; i < result.instruments; ++i) {
      for (const bool isRead : {true, false}) {
        const Verdict v = isRead ? result.read(fi, i) : result.write(fi, i);
        const Witness w =
            isRead ? result.readWitness(fi, i) : result.writeWitness(fi, i);
        if (v == Verdict::Proven) {
          EXPECT_TRUE(w.kind == WitnessKind::NonCut ||
                      w.kind == WitnessKind::StuckBenign ||
                      w.kind == WitnessKind::PathStrict ||
                      w.kind == WitnessKind::PathCleanSuffix ||
                      w.kind == WitnessKind::PathDepthBounded)
              << witnessKindName(w.kind);
        } else {
          ASSERT_EQ(v, Verdict::Vulnerable);
          EXPECT_TRUE(w.kind == WitnessKind::SelfFault ||
                      w.kind == WitnessKind::Unreachable ||
                      w.kind == WitnessKind::DominatorCut ||
                      w.kind == WitnessKind::ControlCollapse ||
                      w.kind == WitnessKind::GuardCut)
              << witnessKindName(w.kind);
          sawDominatorCut |= w.kind == WitnessKind::DominatorCut;
        }
      }
    }
  }
  EXPECT_TRUE(sawDominatorCut)
      << "a SoC-style network must expose at least one dominator cut";
}

TEST(Certifier, HardenedPlanShrinksTheFaultUniverse) {
  const rsn::Network net = rsn::makeFig1Network();
  const Certifier certifier(net);
  const CertificationResult full = certifier.run();

  // Harden every instrument-hosting segment: their breaks leave the
  // universe, and nothing else changes.
  CertifyOptions options;
  options.excludePrimitives = DynamicBitset(net.primitiveCount());
  std::set<std::uint32_t> hardened;
  for (const rsn::Instrument& inst : net.instruments()) {
    options.excludePrimitives.set(net.linearId(
        {rsn::PrimitiveRef::Kind::Segment, inst.segment}));
    hardened.insert(inst.segment);
  }
  const CertificationResult filtered = certifier.run(options);
  EXPECT_EQ(filtered.universe.size(), full.universe.size() - hardened.size());
  for (const fault::Fault& f : filtered.universe) {
    if (f.kind == fault::FaultKind::SegmentBreak) {
      EXPECT_EQ(hardened.count(f.prim), 0u)
          << "excluded primitive still in the universe";
    }
  }
}

TEST(Certifier, ExhaustedBudgetIsCountedUnknownNeverSilent) {
  const rsn::Network net = rsn::makeFig1Network();
  const Certifier certifier(net);
  CertifyOptions options;
  options.fixpointBudget = 0;  // every slow-tier row gives up immediately
  options.crossCheck = false;
  const CertificationResult result = certifier.run(options);
  const CertifySummary s = result.summary();
  EXPECT_GT(s.unknownCells(), 0u);
  // Fast-tier rows never touch the fixpoint, so they stay decided; the
  // Unknown count must be exactly the slow-tier rows, both directions.
  EXPECT_EQ(s.unknownRead, (s.faults - s.fastRows) * s.instruments);
  EXPECT_EQ(s.unknownWrite, (s.faults - s.fastRows) * s.instruments);
  for (std::size_t fi = 0; fi < result.universe.size(); ++fi) {
    for (std::size_t i = 0; i < result.instruments; ++i) {
      if (result.read(fi, i) != Verdict::Unknown) continue;
      EXPECT_EQ(result.readWitness(fi, i).kind, WitnessKind::Budget);
    }
  }
}

TEST(Certifier, JsonReportByteIdenticalAcrossThreadCounts) {
  const rsn::Network net = benchgen::buildBenchmark("TreeFlat");
  const std::size_t saved = threadCount();
  std::vector<std::string> reports;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    setThreadCount(threads);
    const Certifier certifier(net);
    reports.push_back(
        json::serialize(reportJson(net, certifier.run()), 1));
  }
  setThreadCount(saved);
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_EQ(reports[0], reports[2]);
}

TEST(Certifier, SarifExportShape) {
  const rsn::Network net = rsn::makeFig1Network();
  const CertificationResult result = Certifier(net).run();
  const json::Value doc = sarifReport(net, result, "example:fig1");
  EXPECT_EQ(doc.at("version").asString(), "2.1.0");
  EXPECT_NE(doc.at("$schema").asString().find("sarif-2.1.0"),
            std::string::npos);
  const json::Value& run = doc.at("runs").asArray().at(0);
  EXPECT_EQ(run.at("tool").at("driver").at("name").asString(), "rrsn_verify");
  const std::set<std::string> known = {
      "verify.control-safety", "verify.single-fault", "verify.unknown",
      "verify.unreachable"};
  std::set<std::string> declared;
  for (const json::Value& rule : run.at("tool").at("driver").at("rules").asArray()) {
    declared.insert(rule.at("id").asString());
  }
  EXPECT_EQ(declared, known);
  const json::Array& results = run.at("results").asArray();
  ASSERT_GT(results.size(), 0u) << "fig1 has severing faults";
  bool sawSingleFault = false;
  for (const json::Value& item : results) {
    const std::string& rule = item.at("ruleId").asString();
    EXPECT_EQ(known.count(rule), 1u) << rule;
    sawSingleFault |= rule == "verify.single-fault";
    EXPECT_EQ(item.at("locations")
                  .asArray()
                  .at(0)
                  .at("physicalLocation")
                  .at("artifactLocation")
                  .at("uri")
                  .asString(),
              "example:fig1");
  }
  EXPECT_TRUE(sawSingleFault);
}

TEST(Certifier, CrossCheckModeReplaysThroughTheOracle) {
  const rsn::Network net = rsn::makeFig1Network();
  CertifyOptions options;
  options.crossCheck = true;
  options.crossCheckSampleEvery = 1;  // replay every row
  const CertificationResult result = Certifier(net).run(options);
  EXPECT_EQ(result.crossCheckedRowCount, result.universe.size())
      << "sampleEvery=1 must replay the whole universe";
}

/// Exclusion mask that keeps a fault universe of exactly `faults` rows:
/// primitives are taken in an rng-shuffled order while they fit (a mux
/// brings all its stuck branches), so breaks and stucks interleave in
/// the canonical order and batch-mates differ from the full run's.
DynamicBitset universeOfSize(const rsn::Network& net,
                             const rsn::FlatNetwork& flat, std::size_t faults,
                             std::uint64_t seed) {
  std::vector<std::uint32_t> order(net.primitiveCount());
  for (std::uint32_t p = 0; p < order.size(); ++p) order[p] = p;
  Rng rng(seed);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1],
              order[static_cast<std::size_t>(
                  rng.range(0, static_cast<std::int64_t>(i) - 1))]);
  const std::size_t segments = net.segments().size();
  DynamicBitset exclude(net.primitiveCount());
  exclude.setAll();
  std::size_t kept = 0;
  for (const std::uint32_t p : order) {
    const std::size_t rows = p < segments ? 1 : flat.muxArity()[p - segments];
    if (kept + rows > faults) continue;
    exclude.reset(p);
    kept += rows;
  }
  EXPECT_EQ(kept, faults) << net.name() << ": universe cannot be cut";
  return exclude;
}

/// Row `fi` of `result` as comparable text: the packed cells plus the
/// collapsed-mux witness subject.
std::string rowKey(const CertificationResult& result, std::size_t fi) {
  std::string key = std::to_string(result.collapsedMux[fi]) + ":";
  for (std::size_t i = 0; i < result.instruments; ++i)
    key += std::to_string(result.cell(fi, i)) + ",";
  return key;
}

using FaultKey = std::tuple<fault::FaultKind, std::uint32_t, std::uint32_t>;

FaultKey keyOf(const fault::Fault& f) {
  return {f.kind, f.prim, f.stuckBranch};
}

std::map<FaultKey, std::string> rowsByFault(const CertificationResult& result) {
  std::map<FaultKey, std::string> rows;
  for (std::size_t fi = 0; fi < result.universe.size(); ++fi)
    rows.emplace(keyOf(result.universe[fi]), rowKey(result, fi));
  return rows;
}

TEST(Certifier, PartialAndMultiBatchUniversesAreRowIsolated) {
  std::vector<rsn::Network> nets;
  nets.push_back(benchgen::buildBenchmark("MBIST_1_5_20"));
  for (const std::uint64_t seed : {5u, 6u}) {
    Rng rng(seed);
    test::RandomNetOptions opt;
    opt.targetSegments = 200;
    nets.push_back(test::randomNetwork(rng, opt));
  }
  for (const rsn::Network& net : nets) {
    const Certifier certifier(net);
    CertifyOptions options;
    options.crossCheck = false;
    const std::map<FaultKey, std::string> full =
        rowsByFault(certifier.run(options));
    for (const std::size_t faults : {1u, 63u, 64u, 65u, 129u}) {
      CertifyOptions cut;
      cut.excludePrimitives = universeOfSize(net, certifier.flat(), faults, faults);
      // Every row replayed through the batched syndrome engine; a
      // divergence throws.
      cut.crossCheck = true;
      cut.crossCheckSampleEvery = 1;
      const CertificationResult result = certifier.run(cut);
      ASSERT_EQ(result.universe.size(), faults) << net.name();
      EXPECT_EQ(result.crossCheckedRowCount, faults) << net.name();
      EXPECT_EQ(result.fastRowCount + result.fixpointRowCount, faults);
      for (std::size_t fi = 0; fi < faults; ++fi)
        EXPECT_EQ(rowKey(result, fi), full.at(keyOf(result.universe[fi])))
            << net.name() << " universe " << faults << ": "
            << fault::describe(net, result.universe[fi]);
    }
  }
}

TEST(Certifier, BudgetExhaustionIsPerLane) {
  // Budget 1 decides the rows whose first sweep already is the fixpoint
  // and gives up on the rest — both kinds share batches here.  Each row
  // must equal the same fault certified in a universe of its own
  // primitive (a mux brings its other stuck branches).
  for (const char* name : {"MBIST_1_5_5", "TreeUnbalanced"}) {
    const rsn::Network net = benchgen::buildBenchmark(name);
    const Certifier certifier(net);
    CertifyOptions options;
    options.fixpointBudget = 1;
    options.crossCheck = false;
    const CertificationResult batched = certifier.run(options);
    const CertifySummary s = batched.summary();
    EXPECT_GT(s.unknownRead, 0u) << name;
    EXPECT_LT(s.unknownRead, s.fixpointRows * s.instruments) << name;

    const std::size_t segments = net.segments().size();
    for (std::size_t fi = 0; fi < batched.universe.size(); ++fi) {
      const fault::Fault& f = batched.universe[fi];
      CertifyOptions alone = options;
      alone.excludePrimitives = DynamicBitset(net.primitiveCount());
      alone.excludePrimitives.setAll();
      alone.excludePrimitives.reset(
          f.kind == fault::FaultKind::SegmentBreak ? f.prim
                                                   : segments + f.prim);
      const CertificationResult solo = certifier.run(alone);
      const auto at = std::find(solo.universe.begin(), solo.universe.end(), f);
      ASSERT_NE(at, solo.universe.end());
      EXPECT_EQ(rowKey(batched, fi),
                rowKey(solo, static_cast<std::size_t>(
                                 at - solo.universe.begin())))
          << name << ": " << fault::describe(net, f);
    }
  }
}

TEST(Certifier, WorkCountersIdenticalAcrossThreadCounts) {
  const rsn::Network net = benchgen::buildBenchmark("MBIST_1_5_20");
  const Certifier certifier(net);
  const std::vector<std::string> names = {
      "verify.rows_fixpoint", "verify.lane_batches", "verify.lane_passes"};
  const auto read = [&]() {
    const obs::Snapshot snap = obs::snapshot();
    std::vector<std::uint64_t> values(names.size(), 0);
    for (const auto& [id, v] : snap.counters)
      for (std::size_t k = 0; k < names.size(); ++k)
        if (snap.names[id] == names[k]) values[k] += v;
    return values;
  };
  const std::size_t saved = threadCount();
  std::vector<std::vector<std::uint64_t>> deltas;
  obs::enable();
  for (const std::size_t threads : {1u, 2u, 4u}) {
    setThreadCount(threads);
    const std::vector<std::uint64_t> before = read();
    const CertificationResult result = certifier.run();
    const std::vector<std::uint64_t> after = read();
    std::vector<std::uint64_t> delta(names.size());
    for (std::size_t k = 0; k < names.size(); ++k)
      delta[k] = after[k] - before[k];
    EXPECT_EQ(delta[0], result.fixpointRowCount);
    EXPECT_EQ(delta[1], result.laneBatchCount);
    EXPECT_EQ(delta[2], result.lanePassCount);
    deltas.push_back(std::move(delta));
  }
  obs::disable();
  setThreadCount(saved);
  ASSERT_EQ(deltas.size(), 3u);
  EXPECT_GT(deltas[0][1], 1u) << "the universe must span several batches";
  EXPECT_EQ(deltas[0], deltas[1]);
  EXPECT_EQ(deltas[0], deltas[2]);
}

}  // namespace
}  // namespace rrsn::verify
