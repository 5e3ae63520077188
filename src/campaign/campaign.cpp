#include "campaign/campaign.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "campaign/checkpoint.hpp"
#include "diag/batched.hpp"
#include "fault/effects.hpp"
#include "lint/lint.hpp"
#include "obs/obs.hpp"
#include "rsn/flat.hpp"
#include "sp/decomposition.hpp"
#include "support/rng.hpp"
#include "verify/certifier.hpp"

namespace rrsn::campaign {

char toChar(Outcome o) {
  switch (o) {
    case Outcome::Accessible:
      return 'A';
    case Outcome::Recovered:
      return 'R';
    case Outcome::RecoveredAfterReconfiguration:
      return 'C';
    case Outcome::Lost:
      return 'L';
  }
  RRSN_CHECK(false, "invalid Outcome");
}

Outcome outcomeFromChar(char c) {
  switch (c) {
    case 'A':
      return Outcome::Accessible;
    case 'R':
      return Outcome::Recovered;
    case 'C':
      return Outcome::RecoveredAfterReconfiguration;
    case 'L':
      return Outcome::Lost;
    default:
      throw ValidationError("invalid outcome character in campaign record");
  }
}

const char* campaignModeName(CampaignMode m) {
  switch (m) {
    case CampaignMode::Single:
      return "single";
    case CampaignMode::Pairs:
      return "pairs";
    case CampaignMode::Transient:
      return "transient";
  }
  RRSN_CHECK(false, "invalid CampaignMode");
}

std::vector<fault::Fault> FaultScenario::permanentFaults() const {
  switch (kind) {
    case CampaignMode::Single:
      return {a};
    case CampaignMode::Pairs:
      return {a, b};
    case CampaignMode::Transient:
      return {};
  }
  RRSN_CHECK(false, "invalid scenario kind");
}

std::string describe(const rsn::Network& net, const FaultScenario& s) {
  switch (s.kind) {
    case CampaignMode::Single:
      return fault::describe(net, s.a);
    case CampaignMode::Pairs:
      return "pair(" + fault::describe(net, s.a) + "+" +
             fault::describe(net, s.b) + ")";
    case CampaignMode::Transient:
      return "upset(" + net.segment(s.upsetSegment).name + "@" +
             std::to_string(s.upsetRound) + ")";
  }
  RRSN_CHECK(false, "invalid scenario kind");
}

namespace {

/// One end-to-end access on a freshly reset scenario-injected simulator.
/// The simulator and engine are shared across the scenario's probes (the
/// reset between probes restores power-up state exactly, and the
/// engine's path tables depend only on the topology); any engine-level
/// failure (no valid path, rounds exhausted, marker poisoned) is the
/// definition of "lost", so Error maps to Lost rather than escaping the
/// campaign.  Transient scenarios get one recovery retry: the
/// reconfiguration sequence restores the reset configuration (the
/// corrupted shift cells are overwritten by the next capture) and the
/// access is re-attempted — success is the new
/// RecoveredAfterReconfiguration class.  Note the retry relies on the
/// fault-free candidate list being a single nominal recipe: the
/// retargeter never power-cycles mid-access, so a still-pending upset is
/// not disarmed behind our back.
Outcome probeAccess(sim::ScanSimulator& sim, sim::Retargeter& engine,
                    const FaultScenario& s, rsn::InstrumentId inst,
                    bool isRead) {
  const auto attempt = [&]() -> sim::RetargetResult {
    if (isRead) return engine.readInstrument(inst);
    const rsn::Network& net = sim.network();
    const std::uint32_t len = net.segment(net.instrument(inst).segment).length;
    return engine.writeInstrument(inst, sim::accessMarker(len));
  };

  try {
    sim.reset();
    sim.injectFaults(s.permanentFaults());
    if (s.kind == CampaignMode::Transient)
      sim.armTransientUpset({s.upsetSegment, s.upsetRound});
    const sim::RetargetResult r = attempt();
    if (r.success)
      return r.rerouted ? Outcome::Recovered : Outcome::Accessible;
  } catch (const Error&) {
    // fall through to the recovery retry (transient) or Lost
  }
  if (s.kind != CampaignMode::Transient) return Outcome::Lost;
  try {
    sim.resetConfiguration();
    const sim::RetargetResult r = attempt();
    if (r.success) return Outcome::RecoveredAfterReconfiguration;
  } catch (const Error&) {
  }
  return Outcome::Lost;
}

/// Kind bucket for the per-kind gap/mismatch counters: a scenario lands
/// in the segment-break bucket when any of its members is a break (a
/// transient upset is a segment event, so it counts as a break too).
bool inBreakBucket(const FaultScenario& s) {
  switch (s.kind) {
    case CampaignMode::Single:
      return s.a.kind == fault::FaultKind::SegmentBreak;
    case CampaignMode::Pairs:
      return s.a.kind == fault::FaultKind::SegmentBreak ||
             s.b.kind == fault::FaultKind::SegmentBreak;
    case CampaignMode::Transient:
      return true;
  }
  return true;
}

void tallyByKind(const FaultScenario& s, std::size_t& breaks,
                 std::size_t& stucks) {
  if (inBreakBucket(s)) {
    breaks += 1;
  } else {
    stucks += 1;
  }
}

/// Collects sim-vs-reference disagreements of one finished record.
void collectDiffs(const FaultRecord& rec, std::size_t instruments,
                  const DynamicBitset& refObservable,
                  const DynamicBitset& refSettable,
                  std::vector<Mismatch>& items) {
  for (std::size_t i = 0; i < instruments; ++i) {
    const auto inst = static_cast<rsn::InstrumentId>(i);
    if (rec.readAccessible(i) != refObservable.test(i)) {
      items.push_back({rec.scenario, inst, /*isRead=*/true,
                       outcomeFromChar(rec.read[i]), refObservable.test(i)});
    }
    if (rec.writeAccessible(i) != refSettable.test(i)) {
      items.push_back({rec.scenario, inst, /*isRead=*/false,
                       outcomeFromChar(rec.write[i]), refSettable.test(i)});
    }
  }
}

}  // namespace

Expectation expectedAccessibility(const diag::BatchedSyndromeEngine& engine,
                                  std::size_t instruments,
                                  const fault::Fault& f, std::size_t worker) {
  const diag::Syndrome row = engine.row(&f, worker);
  Expectation e{DynamicBitset(instruments), DynamicBitset(instruments)};
  for (std::size_t i = 0; i < instruments; ++i) {
    if (row.passed.test(2 * i)) e.observable.set(i);
    if (row.passed.test(2 * i + 1)) e.settable.set(i);
  }
  return e;
}

CampaignSummary CampaignResult::summary() const {
  CampaignSummary s;
  s.mode = mode;
  s.faultsTotal = records.size();
  s.instruments = instruments;
  for (const FaultRecord& rec : records) {
    if (!rec.done) continue;
    s.faultsDone += 1;
    s.oracleDisagreements += rec.oracleDisagreements;
    for (std::size_t i = 0; i < instruments; ++i) {
      switch (outcomeFromChar(rec.read[i])) {
        case Outcome::Accessible:
          s.readAccessible += 1;
          break;
        case Outcome::Recovered:
          s.readRecovered += 1;
          break;
        case Outcome::RecoveredAfterReconfiguration:
          s.readRecovered += 1;
          s.readReconfigured += 1;
          break;
        case Outcome::Lost:
          s.readLost += 1;
          break;
      }
      switch (outcomeFromChar(rec.write[i])) {
        case Outcome::Accessible:
          s.writeAccessible += 1;
          break;
        case Outcome::Recovered:
          s.writeRecovered += 1;
          break;
        case Outcome::RecoveredAfterReconfiguration:
          s.writeRecovered += 1;
          s.writeReconfigured += 1;
          break;
        case Outcome::Lost:
          s.writeLost += 1;
          break;
      }
      const bool readAcc = rec.readAccessible(i);
      const bool writeAcc = rec.writeAccessible(i);
      if (mode == CampaignMode::Pairs) {
        // Disagreements with the pair-composed oracle are interaction
        // effects (composition is a bound, not ground truth), never
        // engine errors — they get their own counters.
        if (readAcc != rec.expectObservable.test(i))
          (readAcc ? s.pairMasked : s.pairCompounded) += 1;
        if (writeAcc != rec.expectSettable.test(i))
          (writeAcc ? s.pairMasked : s.pairCompounded) += 1;
      } else {
        if (readAcc != rec.expectObservable.test(i)) {
          s.readMismatches += 1;
          tallyByKind(rec.scenario, s.segmentBreakMismatches,
                      s.muxStuckMismatches);
        }
        if (writeAcc != rec.expectSettable.test(i)) {
          s.writeMismatches += 1;
          tallyByKind(rec.scenario, s.segmentBreakMismatches,
                      s.muxStuckMismatches);
        }
      }
      if (readAcc != rec.structObservable.test(i) ||
          writeAcc != rec.structSettable.test(i)) {
        tallyByKind(rec.scenario, s.segmentBreakGapPairs, s.muxStuckGapPairs);
      }
    }
  }
  return s;
}

std::vector<Mismatch> CampaignResult::mismatches() const {
  std::vector<Mismatch> items;
  if (mode == CampaignMode::Pairs) return items;  // see pairInteractions()
  for (const FaultRecord& rec : records) {
    if (!rec.done) continue;
    collectDiffs(rec, instruments, rec.expectObservable, rec.expectSettable,
                 items);
  }
  return items;
}

std::vector<Mismatch> CampaignResult::pairInteractions() const {
  std::vector<Mismatch> items;
  if (mode != CampaignMode::Pairs) return items;
  for (const FaultRecord& rec : records) {
    if (!rec.done) continue;
    collectDiffs(rec, instruments, rec.expectObservable, rec.expectSettable,
                 items);
  }
  return items;
}

std::vector<Mismatch> CampaignResult::structuralGaps() const {
  std::vector<Mismatch> items;
  for (const FaultRecord& rec : records) {
    if (!rec.done) continue;
    collectDiffs(rec, instruments, rec.structObservable, rec.structSettable,
                 items);
  }
  return items;
}

RobustnessReport CampaignResult::robustness() const {
  RobustnessReport r;
  r.mode = mode;
  for (const FaultRecord& rec : records) {
    if (!rec.done) continue;
    for (std::size_t i = 0; i < instruments; ++i) {
      const auto probe = [&](bool predicted, bool observed, char outcome) {
        r.probes += 1;
        if (predicted) r.predictedAccessible += 1;
        if (observed) r.observedAccessible += 1;
        if (predicted && !observed) r.compounded += 1;
        if (!predicted && observed) r.masked += 1;
        if (outcome == 'C') r.reconfigured += 1;
      };
      probe(rec.expectObservable.test(i), rec.readAccessible(i), rec.read[i]);
      probe(rec.expectSettable.test(i), rec.writeAccessible(i), rec.write[i]);
    }
  }
  return r;
}

Status validateCampaignConfig(const CampaignConfig& config) {
  if (config.sampleFraction != 0.0 &&
      (!(config.sampleFraction > 0.0) || config.sampleFraction > 1.0)) {
    return Status::invalidArgument(
        "campaign sampleFraction must lie in (0, 1], got " +
        std::to_string(config.sampleFraction));
  }
  if (config.sample != 0 && config.sampleFraction != 0.0) {
    return Status::invalidArgument(
        "campaign sample and sampleFraction are mutually exclusive; set "
        "at most one");
  }
  if (config.deadlineMs == 0) {
    return Status::invalidArgument(
        "campaign deadline of 0 ms would cancel the run before the first "
        "probe; omit the deadline instead");
  }
  if (!config.checkpointPath.empty()) {
    std::error_code ec;
    if (std::filesystem::is_directory(config.checkpointPath, ec)) {
      return Status::invalidArgument("campaign checkpoint path names a "
                                     "directory, not a state file: " +
                                     config.checkpointPath);
    }
  }
  if (config.mode == CampaignMode::Transient) {
    if (config.transientRounds.empty()) {
      return Status::invalidArgument(
          "transient campaign needs at least one upset round");
    }
    std::vector<std::uint32_t> rounds = config.transientRounds;
    std::sort(rounds.begin(), rounds.end());
    if (std::adjacent_find(rounds.begin(), rounds.end()) != rounds.end()) {
      return Status::invalidArgument(
          "transient upset rounds contain a duplicate");
    }
  }
  return {};
}

CampaignEngine::CampaignEngine(const rsn::Network& net, CampaignConfig config)
    : net_(&net),
      config_(std::move(config)),
      flat_(rsn::FlatNetwork::lower(net)) {
  const Status valid = validateCampaignConfig(config_);
  if (!valid.ok()) throw ValidationError("campaign config: " + valid.message());
  if (!config_.excludePrimitives.empty()) {
    RRSN_CHECK(config_.excludePrimitives.size() == net.primitiveCount(),
               "excludePrimitives must have one bit per network primitive");
  }
  const fault::FaultUniverse all(net);
  for (const fault::Fault& f : all.faults()) {
    const rsn::PrimitiveRef ref = fault::refOf(f);
    if (!config_.excludePrimitives.empty() &&
        config_.excludePrimitives.test(net.linearId(ref))) {
      continue;
    }
    singles_.push_back(f);
  }
  switch (config_.mode) {
    case CampaignMode::Single:
      buildSingleUniverse();
      break;
    case CampaignMode::Pairs:
      buildPairUniverse();
      break;
    case CampaignMode::Transient:
      buildTransientUniverse();
      break;
  }
}

namespace {

/// Sample size for a universe of `n` elements: an explicit count wins,
/// then a fraction (rounded up, at least one scenario), else everything.
std::size_t sampleTarget(const CampaignConfig& config, std::size_t n) {
  if (config.sampleFraction > 0.0) {
    const double ideal = config.sampleFraction * static_cast<double>(n);
    const auto k = static_cast<std::size_t>(std::ceil(ideal));
    return std::min(n, std::max<std::size_t>(k, n == 0 ? 0 : 1));
  }
  if (config.sample != 0) return std::min(config.sample, n);
  return n;
}

/// Keeps a deterministic sorted `k`-subset of `scenarios` (no-op when
/// k covers everything).  sampleIndices is sorted, so the sampled
/// campaign keeps the canonical scenario order of the exhaustive one.
void sampleInPlace(std::vector<FaultScenario>& scenarios, std::size_t k,
                   std::uint64_t seed) {
  if (k >= scenarios.size()) return;
  Rng rng(seed);
  const std::vector<std::size_t> keep = rng.sampleIndices(scenarios.size(), k);
  std::vector<FaultScenario> sampled;
  sampled.reserve(keep.size());
  for (std::size_t idx : keep) sampled.push_back(scenarios[idx]);
  scenarios = std::move(sampled);
}

/// Largest-remainder proportional allocation of `k` draws over three
/// strata, capped per stratum; any residue (from caps) round-robins to
/// strata with spare capacity in index order.  Deterministic.
std::array<std::uint64_t, 3> allocateLargestRemainder(
    const std::array<std::uint64_t, 3>& sizes, std::uint64_t k) {
  const double total = static_cast<double>(sizes[0]) +
                       static_cast<double>(sizes[1]) +
                       static_cast<double>(sizes[2]);
  std::array<std::uint64_t, 3> alloc{};
  std::array<double, 3> frac{};
  std::uint64_t used = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    const double ideal =
        total == 0.0 ? 0.0
                     : static_cast<double>(k) *
                           (static_cast<double>(sizes[i]) / total);
    alloc[i] = std::min(sizes[i], static_cast<std::uint64_t>(ideal));
    frac[i] = ideal - static_cast<double>(alloc[i]);
    used += alloc[i];
  }
  while (used < k) {
    std::size_t best = 3;
    for (std::size_t i = 0; i < 3; ++i) {
      if (alloc[i] >= sizes[i]) continue;
      if (best == 3 || frac[i] > frac[best]) best = i;
    }
    if (best == 3) break;  // every stratum exhausted
    alloc[best] += 1;
    frac[best] -= 1.0;
    used += 1;
  }
  return alloc;
}

/// Unranks combination rank `r` (0-based) of the C(n, 2) ordered pairs
/// (i, j), i < j, in lexicographic order: the number of pairs whose
/// first element precedes `i` is prefix(i) = i*(2n-i-1)/2; binary-search
/// the largest i with prefix(i) <= r, then j falls out of the offset.
std::pair<std::size_t, std::size_t> unrankPair(std::size_t n,
                                               std::uint64_t r) {
  const auto prefix = [&](std::uint64_t i) {
    return i * (2 * static_cast<std::uint64_t>(n) - i - 1) / 2;
  };
  // Invariant: prefix(lo) <= r < prefix(hi); prefix(n-1) = C(n, 2) > r.
  std::uint64_t lo = 0, hi = n - 1;
  while (lo + 1 < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (prefix(mid) <= r) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const std::uint64_t j = lo + 1 + (r - prefix(lo));
  return {static_cast<std::size_t>(lo), static_cast<std::size_t>(j)};
}

/// Two stuck faults on one mux describe contradictory hardware; they
/// are excluded from the pair space (breaks cannot collide — the
/// universe has one break per segment).
bool contradictoryPair(const fault::Fault& a, const fault::Fault& b) {
  return a.kind == fault::FaultKind::MuxStuck &&
         b.kind == fault::FaultKind::MuxStuck && a.prim == b.prim;
}

}  // namespace

void CampaignEngine::buildSingleUniverse() {
  universe_.reserve(singles_.size());
  for (std::size_t i = 0; i < singles_.size(); ++i) {
    FaultScenario s;
    s.kind = CampaignMode::Single;
    s.a = singles_[i];
    s.aIdx = static_cast<std::uint32_t>(i);
    universe_.push_back(s);
  }
  sampleInPlace(universe_, sampleTarget(config_, universe_.size()),
                config_.seed);
}

void CampaignEngine::buildPairUniverse() {
  // Stratify the pair space by fault-kind combination so a sampled
  // campaign covers all three interaction classes proportionally:
  // break+break, break+stuck, stuck+stuck.
  std::vector<std::uint32_t> breaks, stucks;
  for (std::size_t i = 0; i < singles_.size(); ++i) {
    (singles_[i].kind == fault::FaultKind::SegmentBreak ? breaks : stucks)
        .push_back(static_cast<std::uint32_t>(i));
  }
  const auto c2 = [](std::uint64_t n) { return n * (n - 1) / 2; };
  const std::array<std::uint64_t, 3> sizes = {
      c2(breaks.size()), static_cast<std::uint64_t>(breaks.size()) *
                             static_cast<std::uint64_t>(stucks.size()),
      c2(stucks.size())};
  const std::uint64_t totalPairs = sizes[0] + sizes[1] + sizes[2];

  const auto pushPair = [&](std::uint32_t i, std::uint32_t j) {
    if (i > j) std::swap(i, j);
    if (contradictoryPair(singles_[i], singles_[j])) return;
    FaultScenario s;
    s.kind = CampaignMode::Pairs;
    s.a = singles_[i];
    s.b = singles_[j];
    s.aIdx = i;
    s.bIdx = j;
    universe_.push_back(s);
  };

  const std::size_t target = sampleTarget(
      config_, static_cast<std::size_t>(totalPairs));
  if (static_cast<std::uint64_t>(target) >= totalPairs) {
    // Exhaustive: every admissible pair in lexicographic index order.
    for (std::uint32_t i = 0; i + 1 < singles_.size(); ++i)
      for (std::uint32_t j = i + 1; j < singles_.size(); ++j) pushPair(i, j);
    return;
  }

  // Stratified sample: largest-remainder allocation over the strata,
  // then a sorted Floyd draw of combination *ranks* per stratum — the
  // pair space is never materialized.  One Rng consumed in fixed
  // stratum order (BB, BS, SS) keeps the draw deterministic; sampled
  // ranks that unrank to a contradictory pair are dropped (the universe
  // excludes them, see contradictoryPair).
  const std::array<std::uint64_t, 3> alloc =
      allocateLargestRemainder(sizes, target);
  Rng rng(config_.seed);
  const auto drawRanks = [&](std::uint64_t space, std::uint64_t k) {
    return rng.sampleIndices(static_cast<std::size_t>(space),
                             static_cast<std::size_t>(k));
  };
  for (const std::size_t r : drawRanks(sizes[0], alloc[0])) {
    const auto [x, y] = unrankPair(breaks.size(), r);
    pushPair(breaks[x], breaks[y]);
  }
  for (const std::size_t r : drawRanks(sizes[1], alloc[1])) {
    pushPair(breaks[r / stucks.size()], stucks[r % stucks.size()]);
  }
  for (const std::size_t r : drawRanks(sizes[2], alloc[2])) {
    const auto [x, y] = unrankPair(stucks.size(), r);
    pushPair(stucks[x], stucks[y]);
  }
  std::sort(universe_.begin(), universe_.end(),
            [](const FaultScenario& lhs, const FaultScenario& rhs) {
              return std::tie(lhs.aIdx, lhs.bIdx) <
                     std::tie(rhs.aIdx, rhs.bIdx);
            });
}

void CampaignEngine::buildTransientUniverse() {
  for (rsn::SegmentId s = 0; s < net_->segments().size(); ++s) {
    if (!config_.excludePrimitives.empty() &&
        config_.excludePrimitives.test(net_->linearId(
            {rsn::PrimitiveRef::Kind::Segment, s}))) {
      continue;
    }
    for (const std::uint32_t round : config_.transientRounds) {
      FaultScenario scenario;
      scenario.kind = CampaignMode::Transient;
      scenario.upsetSegment = s;
      scenario.upsetRound = round;
      universe_.push_back(scenario);
    }
  }
  sampleInPlace(universe_, sampleTarget(config_, universe_.size()),
                config_.seed);
}

/// Per-single-fault oracle rows computed once per run() for the singles
/// the universe references: the expected (control-aware) verdicts from
/// the certifier plus both plain structural oracles.  Pair scenarios
/// compose entries by AND; transient scenarios use the fault-free row.
struct CampaignEngine::OracleCache {
  std::vector<Expectation> expect;       ///< per singles() index
  std::vector<DynamicBitset> graphObs, graphSet;
  std::vector<DynamicBitset> treeObs, treeSet;
  Expectation faultFree;
};

FaultRecord CampaignEngine::probeScenario(
    const OracleCache& oracles, const FaultScenario& s,
    std::atomic<std::uint64_t>& probes) const {
  FaultRecord rec;
  rec.scenario = s;
  const std::size_t n = net_->instruments().size();
  switch (s.kind) {
    case CampaignMode::Single: {
      rec.structObservable = oracles.graphObs[s.aIdx];
      rec.structSettable = oracles.graphSet[s.aIdx];
      rec.expectObservable = oracles.expect[s.aIdx].observable;
      rec.expectSettable = oracles.expect[s.aIdx].settable;
      for (std::size_t i = 0; i < n; ++i) {
        if (oracles.graphObs[s.aIdx].test(i) !=
                oracles.treeObs[s.aIdx].test(i) ||
            oracles.graphSet[s.aIdx].test(i) !=
                oracles.treeSet[s.aIdx].test(i)) {
          rec.oracleDisagreements += 1;
        }
      }
      break;
    }
    case CampaignMode::Pairs: {
      rec.structObservable = oracles.graphObs[s.aIdx];
      rec.structObservable &= oracles.graphObs[s.bIdx];
      rec.structSettable = oracles.graphSet[s.aIdx];
      rec.structSettable &= oracles.graphSet[s.bIdx];
      rec.expectObservable = oracles.expect[s.aIdx].observable;
      rec.expectObservable &= oracles.expect[s.bIdx].observable;
      rec.expectSettable = oracles.expect[s.aIdx].settable;
      rec.expectSettable &= oracles.expect[s.bIdx].settable;
      DynamicBitset tObs = oracles.treeObs[s.aIdx];
      tObs &= oracles.treeObs[s.bIdx];
      DynamicBitset tSet = oracles.treeSet[s.aIdx];
      tSet &= oracles.treeSet[s.bIdx];
      for (std::size_t i = 0; i < n; ++i) {
        if (rec.structObservable.test(i) != tObs.test(i) ||
            rec.structSettable.test(i) != tSet.test(i)) {
          rec.oracleDisagreements += 1;
        }
      }
      break;
    }
    case CampaignMode::Transient: {
      // No permanent defect: the plain structural oracle predicts full
      // access, and the expected verdict is the fault-free row — any
      // probe the recovery retry cannot rescue is a mismatch.
      rec.structObservable = DynamicBitset(n);
      rec.structSettable = DynamicBitset(n);
      rec.structObservable.setAll();
      rec.structSettable.setAll();
      rec.expectObservable = oracles.faultFree.observable;
      rec.expectSettable = oracles.faultFree.settable;
      break;
    }
  }
  rec.read.assign(n, 'L');
  rec.write.assign(n, 'L');
  sim::ScanSimulator sim(*net_);
  sim::Retargeter engine(sim, flat_, config_.retarget);
  for (std::size_t i = 0; i < n; ++i) {
    const auto inst = static_cast<rsn::InstrumentId>(i);
    rec.read[i] = toChar(probeAccess(sim, engine, s, inst, /*isRead=*/true));
    rec.write[i] = toChar(probeAccess(sim, engine, s, inst, /*isRead=*/false));
#ifndef NDEBUG
    // Debug acceptance gate for the pair family: the classification on
    // the shared simulator must match a per-probe reference that uses a
    // fresh simulator and retargeter for each access — state leaking
    // across probes would show up here, not as an oracle "interaction".
    if (s.kind == CampaignMode::Pairs) {
      sim::ScanSimulator ref(*net_);
      sim::Retargeter refEngine(ref, flat_, config_.retarget);
      const char refRead =
          toChar(probeAccess(ref, refEngine, s, inst, /*isRead=*/true));
      const char refWrite =
          toChar(probeAccess(ref, refEngine, s, inst, /*isRead=*/false));
      RRSN_CHECK(rec.read[i] == refRead && rec.write[i] == refWrite,
                 "pair campaign probe diverges from the per-probe "
                 "reference for " +
                     describe(*net_, s) + " on instrument " +
                     net_->instrument(inst).name);
    }
#endif
    probes.fetch_add(2, std::memory_order_relaxed);
  }
  rec.done = true;
  return rec;
}

CampaignResult CampaignEngine::run() {
  RRSN_OBS_SPAN("campaign.run");
  if (config_.lint) lint::enforceClean(*net_, *flat_, "campaign");
  CampaignResult result;
  result.mode = config_.mode;
  result.instruments = net_->instruments().size();
  result.records.resize(universe_.size());
  for (std::size_t k = 0; k < universe_.size(); ++k)
    result.records[k].scenario = universe_[k];

  const std::uint64_t fingerprint = campaignFingerprint(*net_, config_);
  std::size_t restored = 0;
  if (!config_.checkpointPath.empty()) {
    RRSN_OBS_SPAN("campaign.checkpoint_load");
    const CheckpointLoad load =
        loadCheckpoint(config_.checkpointPath, fingerprint, result);
    if (!load.status.ok()) {
      // A damaged or stale state file downgrades to a fresh start: the
      // checkpoint exists to save work, never to abort the campaign.
      std::fprintf(stderr, "campaign: checkpoint ignored, restarting: %s\n",
                   load.status.message().c_str());
    }
    restored = load.restored;
  }
  static const obs::MetricId kRestored = obs::counter("campaign.restored");
  obs::count(kRestored, restored);

  // Per-single oracle rows, shared by every scenario of the sweep (a
  // pair composes two rows; recomputing them per pair would square the
  // oracle cost).  Only the singles the universe references get rows: a
  // sampled campaign pays for its sample, a transient one only for the
  // fault-free row.
  OracleCache oracles;
  {
    RRSN_OBS_SPAN("campaign.oracles");
    static const obs::MetricId kOracleRows =
        obs::counter("campaign.oracle_rows");
    const std::size_t m = singles_.size();
    const std::size_t n = result.instruments;
    std::vector<bool> referenced(m, false);
    for (const FaultScenario& s : universe_) {
      if (s.kind == CampaignMode::Transient) continue;
      referenced[s.aIdx] = true;
      if (s.kind == CampaignMode::Pairs) referenced[s.bIdx] = true;
    }
    std::vector<std::size_t> rows;
    // The certifier runs over the referenced singles' primitives only
    // (same linear-id layout as excludePrimitives); a referenced stuck
    // branch brings its mux's other branches along, which are skipped.
    DynamicBitset exclude(net_->primitiveCount());
    exclude.setAll();
    for (std::size_t k = 0; k < m; ++k) {
      if (!referenced[k]) continue;
      rows.push_back(k);
      exclude.reset(net_->linearId(fault::refOf(singles_[k])));
    }
    obs::count(kOracleRows, rows.size());

    oracles.expect.resize(m);
    oracles.graphObs.resize(m);
    oracles.graphSet.resize(m);
    oracles.treeObs.resize(m);
    oracles.treeSet.resize(m);
    const verify::CertificationResult cert =
        verify::Certifier(flat_).runExact(std::move(exclude));
    oracles.faultFree = {cert.reachable, cert.reachable};
    // Both universes are in canonical fault order, and every referenced
    // single is in the certifier's, so one merge walk maps them.
    std::size_t fi = 0;
    for (const std::size_t k : rows) {
      while (fi < cert.universe.size() && cert.universe[fi] != singles_[k])
        ++fi;
      RRSN_CHECK(fi < cert.universe.size(),
                 "referenced single missing from the certified universe");
      Expectation& e = oracles.expect[k];
      e = {DynamicBitset(n), DynamicBitset(n)};
      for (std::size_t i = 0; i < n; ++i) {
        if (cert.read(fi, i) == verify::Verdict::Proven) e.observable.set(i);
        if (cert.write(fi, i) == verify::Verdict::Proven) e.settable.set(i);
      }
    }
    const sp::DecompositionTree tree = sp::DecompositionTree::build(*net_);
    parallelFor(rows.size(), [&](std::size_t r) {
      const std::size_t k = rows[r];
      const fault::Fault& f = singles_[k];
      const fault::AccessibilityLoss graphLoss =
          fault::lossUnderFaultGraph(*flat_, f);
      const fault::AccessibilityLoss treeLoss =
          fault::lossUnderFaultTree(tree, f);
      const auto invert = [n](const DynamicBitset& lost) {
        DynamicBitset kept(n);
        kept.setAll();
        lost.forEachSet([&](std::size_t i) { kept.reset(i); });
        return kept;
      };
      oracles.graphObs[k] = invert(graphLoss.unobservable);
      oracles.graphSet[k] = invert(graphLoss.unsettable);
      oracles.treeObs[k] = invert(treeLoss.unobservable);
      oracles.treeSet[k] = invert(treeLoss.unsettable);
    });
  }

  // Cancellation: an external token, an engine-owned deadline, or both.
  // parallelForCancellable takes one token, so with a deadline the
  // worker propagates an external trip into the deadline token.
  CancellationToken deadlineToken;
  const bool hasDeadline = config_.deadlineMs != CampaignConfig::kNoDeadline;
  if (hasDeadline) {
    deadlineToken.setDeadlineFromNow(
        std::chrono::milliseconds(config_.deadlineMs));
  }
  const CancellationToken* cancel =
      hasDeadline ? &deadlineToken : config_.cancel;
  const auto tripped = [&]() {
    return (cancel != nullptr && cancel->cancelled()) ||
           (config_.cancel != nullptr && config_.cancel->cancelled());
  };

  std::vector<std::size_t> pending;
  for (std::size_t k = 0; k < result.records.size(); ++k)
    if (!result.records[k].done) pending.push_back(k);
  std::size_t done = result.records.size() - pending.size();
  if (config_.progress) config_.progress(done, result.records.size());

  // Always-on accounting oracle: every scenario probed this run must
  // issue exactly two probes per instrument, and every finished record
  // must classify every instrument.  Checked after the sweep; a
  // mismatch is an engine bug (skipped or double-issued probes), not a
  // user error.
  std::atomic<std::uint64_t> probes{0};
  std::size_t faultsProbed = 0;

  static const obs::MetricId kProbes = obs::counter("campaign.probes");
  static const obs::MetricId kFaults = obs::counter("campaign.faults_probed");
  const std::size_t batchSize =
      config_.checkpointEvery != 0 ? config_.checkpointEvery
                                   : std::max<std::size_t>(pending.size(), 1);
  for (std::size_t at = 0; at < pending.size(); at += batchSize) {
    if (tripped()) break;
    const std::size_t end = std::min(at + batchSize, pending.size());
    {
      RRSN_OBS_SPAN("campaign.batch");
      // Each scenario is a whole simulator run, so even a handful of
      // them is worth fanning out: grain 1, as in Certifier::run.
      parallelForCancellable(
          end - at, cancel,
          [&](std::size_t j) {
            if (hasDeadline && config_.cancel != nullptr &&
                config_.cancel->cancelled()) {
              deadlineToken.cancel();
              return;
            }
            const std::size_t k = pending[at + j];
            result.records[k] = probeScenario(oracles, universe_[k], probes);
          },
          /*grain=*/1);
    }
    // Under cancellation some records of the batch may not have run;
    // count what actually finished and persist exactly that.
    std::size_t finished = 0;
    for (std::size_t j = at; j < end; ++j)
      if (result.records[pending[j]].done) finished += 1;
    done += finished;
    faultsProbed += finished;
    if (!config_.checkpointPath.empty()) {
      RRSN_OBS_SPAN("campaign.checkpoint_save");
      // A checkpoint that cannot be durably written must abort loudly:
      // continuing would let a deadline later discard finished work the
      // caller believes is resumable.
      const Status st =
          saveCheckpoint(config_.checkpointPath, fingerprint, result);
      if (!st.ok()) throw IoError(st.toString());
    }
    if (config_.progress) config_.progress(done, result.records.size());
  }
  obs::count(kProbes, probes.load(std::memory_order_relaxed));
  obs::count(kFaults, faultsProbed);

  const std::uint64_t expectProbes =
      2 * static_cast<std::uint64_t>(result.instruments) *
      static_cast<std::uint64_t>(faultsProbed);
  if (probes.load(std::memory_order_relaxed) != expectProbes) {
    obs::raiseIfError(Status::internal(
        "campaign probe accounting mismatch: issued " +
        std::to_string(probes.load(std::memory_order_relaxed)) +
        " probes for " + std::to_string(faultsProbed) + " faults x " +
        std::to_string(result.instruments) + " instruments (expected " +
        std::to_string(expectProbes) + ")"));
  }
  std::size_t classified = 0;
  for (const FaultRecord& rec : result.records)
    if (rec.done) classified += rec.read.size() + rec.write.size();
  if (classified != 2 * result.instruments * done) {
    obs::raiseIfError(Status::internal(
        "campaign classification accounting mismatch: " +
        std::to_string(classified) + " outcomes recorded for " +
        std::to_string(done) + " finished faults x " +
        std::to_string(result.instruments) + " instruments"));
  }
  return result;
}

TextTable summaryTable(const CampaignSummary& s) {
  TextTable t({"access", "pairs", "accessible", "recovered", "reconfig",
               "lost", "mismatches", "struct gap"});
  t.setAlign(0, TextTable::Align::Left);
  const auto row = [&](const char* name, std::size_t a, std::size_t r,
                       std::size_t c, std::size_t l, std::size_t m,
                       std::size_t gap) {
    t.addRow({name, withThousands(static_cast<std::uint64_t>(a + r + l)),
              withThousands(static_cast<std::uint64_t>(a)),
              withThousands(static_cast<std::uint64_t>(r)),
              withThousands(static_cast<std::uint64_t>(c)),
              withThousands(static_cast<std::uint64_t>(l)),
              withThousands(static_cast<std::uint64_t>(m)),
              withThousands(static_cast<std::uint64_t>(gap))});
  };
  row("read", s.readAccessible, s.readRecovered, s.readReconfigured,
      s.readLost, s.readMismatches, 0);
  row("write", s.writeAccessible, s.writeRecovered, s.writeReconfigured,
      s.writeLost, s.writeMismatches, 0);
  t.addSeparator();
  row("total", s.readAccessible + s.writeAccessible,
      s.readRecovered + s.writeRecovered,
      s.readReconfigured + s.writeReconfigured, s.readLost + s.writeLost,
      s.readMismatches + s.writeMismatches,
      s.segmentBreakGapPairs + s.muxStuckGapPairs);
  return t;
}

TextTable robustnessTable(const RobustnessReport& r) {
  TextTable t({"mode", "probes", "predicted", "observed", "compounded",
               "masked", "reconfig", "retention"});
  t.setAlign(0, TextTable::Align::Left);
  char retention[32];
  std::snprintf(retention, sizeof retention, "%.4f", r.retention());
  t.addRow({campaignModeName(r.mode),
            withThousands(static_cast<std::uint64_t>(r.probes)),
            withThousands(static_cast<std::uint64_t>(r.predictedAccessible)),
            withThousands(static_cast<std::uint64_t>(r.observedAccessible)),
            withThousands(static_cast<std::uint64_t>(r.compounded)),
            withThousands(static_cast<std::uint64_t>(r.masked)),
            withThousands(static_cast<std::uint64_t>(r.reconfigured)),
            retention});
  return t;
}

namespace {

const char* outcomeWord(Outcome o) {
  switch (o) {
    case Outcome::Accessible:
      return "accessible";
    case Outcome::Recovered:
      return "recovered";
    case Outcome::RecoveredAfterReconfiguration:
      return "reconfigured";
    case Outcome::Lost:
      return "lost";
  }
  RRSN_CHECK(false, "invalid Outcome");
}

}  // namespace

TextTable mismatchTable(const rsn::Network& net,
                        const std::vector<Mismatch>& items) {
  TextTable t({"scenario", "instrument", "access", "simulated", "reference"});
  for (std::size_t c = 0; c < 5; ++c) t.setAlign(c, TextTable::Align::Left);
  for (const Mismatch& m : items) {
    t.addRow({describe(net, m.scenario), net.instrument(m.instrument).name,
              m.isRead ? "read" : "write", outcomeWord(m.simulated),
              m.referenceAccessible ? "accessible" : "lost"});
  }
  return t;
}

TextTable outcomeTable(const rsn::Network& net, const CampaignResult& result) {
  TextTable t({"scenario", "done", "read", "write", "struct_obs",
               "struct_set", "expect_obs", "expect_set",
               "oracle_disagreements"});
  t.setAlign(0, TextTable::Align::Left);
  t.setAlign(2, TextTable::Align::Left);
  t.setAlign(3, TextTable::Align::Left);
  const auto bits = [](const DynamicBitset& b) {
    std::string s(b.size(), '0');
    for (std::size_t i = 0; i < b.size(); ++i)
      if (b.test(i)) s[i] = '1';
    return s;
  };
  for (const FaultRecord& rec : result.records) {
    t.addRow({describe(net, rec.scenario), rec.done ? "1" : "0", rec.read,
              rec.write, bits(rec.structObservable), bits(rec.structSettable),
              bits(rec.expectObservable), bits(rec.expectSettable),
              withThousands(static_cast<std::uint64_t>(rec.oracleDisagreements))});
  }
  return t;
}

namespace {

json::Array diffsToJson(const rsn::Network& net,
                        const std::vector<Mismatch>& items) {
  json::Array out;
  for (const Mismatch& m : items) {
    json::Object o;
    o["scenario"] = json::Value(describe(net, m.scenario));
    o["instrument"] = json::Value(net.instrument(m.instrument).name);
    o["access"] = json::Value(m.isRead ? "read" : "write");
    o["simulated"] = json::Value(outcomeWord(m.simulated));
    o["reference_accessible"] = json::Value(m.referenceAccessible);
    out.push_back(json::Value(std::move(o)));
  }
  return out;
}

}  // namespace

json::Value reportJson(const rsn::Network& net, const CampaignResult& result) {
  const CampaignSummary s = result.summary();
  json::Object summary;
  summary["mode"] = json::Value(campaignModeName(s.mode));
  summary["faults_total"] = json::Value(static_cast<std::uint64_t>(s.faultsTotal));
  summary["faults_done"] = json::Value(static_cast<std::uint64_t>(s.faultsDone));
  summary["instruments"] = json::Value(static_cast<std::uint64_t>(s.instruments));
  summary["read_accessible"] =
      json::Value(static_cast<std::uint64_t>(s.readAccessible));
  summary["read_recovered"] =
      json::Value(static_cast<std::uint64_t>(s.readRecovered));
  summary["read_reconfigured"] =
      json::Value(static_cast<std::uint64_t>(s.readReconfigured));
  summary["read_lost"] = json::Value(static_cast<std::uint64_t>(s.readLost));
  summary["write_accessible"] =
      json::Value(static_cast<std::uint64_t>(s.writeAccessible));
  summary["write_recovered"] =
      json::Value(static_cast<std::uint64_t>(s.writeRecovered));
  summary["write_reconfigured"] =
      json::Value(static_cast<std::uint64_t>(s.writeReconfigured));
  summary["write_lost"] = json::Value(static_cast<std::uint64_t>(s.writeLost));
  summary["read_mismatches"] =
      json::Value(static_cast<std::uint64_t>(s.readMismatches));
  summary["write_mismatches"] =
      json::Value(static_cast<std::uint64_t>(s.writeMismatches));
  summary["segment_break_mismatches"] =
      json::Value(static_cast<std::uint64_t>(s.segmentBreakMismatches));
  summary["mux_stuck_mismatches"] =
      json::Value(static_cast<std::uint64_t>(s.muxStuckMismatches));
  summary["pair_compounded"] =
      json::Value(static_cast<std::uint64_t>(s.pairCompounded));
  summary["pair_masked"] = json::Value(static_cast<std::uint64_t>(s.pairMasked));
  summary["segment_break_gap_pairs"] =
      json::Value(static_cast<std::uint64_t>(s.segmentBreakGapPairs));
  summary["mux_stuck_gap_pairs"] =
      json::Value(static_cast<std::uint64_t>(s.muxStuckGapPairs));
  summary["oracle_disagreements"] =
      json::Value(static_cast<std::uint64_t>(s.oracleDisagreements));

  json::Array faults;
  for (const FaultRecord& rec : result.records) {
    json::Object o;
    o["scenario"] = json::Value(describe(net, rec.scenario));
    o["done"] = json::Value(rec.done);
    if (rec.done) {
      o["read"] = json::Value(rec.read);
      o["write"] = json::Value(rec.write);
    }
    faults.push_back(json::Value(std::move(o)));
  }

  json::Object root;
  root["network"] = json::Value(net.name());
  root["mode"] = json::Value(campaignModeName(result.mode));
  root["summary"] = json::Value(std::move(summary));
  root["faults"] = json::Value(std::move(faults));
  root["mismatches"] = json::Value(diffsToJson(net, result.mismatches()));
  root["pair_interactions"] =
      json::Value(diffsToJson(net, result.pairInteractions()));
  root["control_dependency_gaps"] =
      json::Value(diffsToJson(net, result.structuralGaps()));
  if (result.mode != CampaignMode::Single) {
    const RobustnessReport r = result.robustness();
    json::Object rj;
    rj["probes"] = json::Value(static_cast<std::uint64_t>(r.probes));
    rj["predicted_accessible"] =
        json::Value(static_cast<std::uint64_t>(r.predictedAccessible));
    rj["observed_accessible"] =
        json::Value(static_cast<std::uint64_t>(r.observedAccessible));
    rj["compounded"] = json::Value(static_cast<std::uint64_t>(r.compounded));
    rj["masked"] = json::Value(static_cast<std::uint64_t>(r.masked));
    rj["reconfigured"] =
        json::Value(static_cast<std::uint64_t>(r.reconfigured));
    rj["retention"] = json::Value(r.retention());
    root["robustness"] = json::Value(std::move(rj));
  }
  return json::Value(std::move(root));
}

}  // namespace rrsn::campaign
