#include "diag/diagnosis.hpp"

#include <algorithm>
#include <string>
#include <tuple>

#include "obs/obs.hpp"
#include "sim/retarget.hpp"
#include "support/hash.hpp"
#include "verify/certifier.hpp"

namespace rrsn::diag {

Syndrome FaultDictionary::measure(const rsn::Network& net,
                                  const fault::Fault* f) {
  return measureMulti(net, f != nullptr ? std::vector<fault::Fault>{*f}
                                        : std::vector<fault::Fault>{});
}

Syndrome FaultDictionary::measureMulti(const rsn::Network& net,
                                       const std::vector<fault::Fault>& faults) {
  const sim::AccessReport report =
      sim::probeAccessSet(net, rsn::FlatNetwork::lower(net), faults);
  const std::size_t n = net.instruments().size();
  Syndrome syn;
  syn.passed = DynamicBitset(2 * n);
  report.observable.forEachSet([&](std::size_t i) { syn.passed.set(2 * i); });
  report.settable.forEachSet(
      [&](std::size_t i) { syn.passed.set(2 * i + 1); });
  return syn;
}

Syndrome composeSyndromes(const Syndrome& a, const Syndrome& b) {
  RRSN_CHECK(a.passed.size() == b.passed.size(),
             "cannot compose syndromes of different networks");
  Syndrome out;
  out.passed = a.passed;
  out.passed &= b.passed;
  return out;
}

FaultDictionary FaultDictionary::build(const rsn::Network& net) {
  RRSN_OBS_SPAN("diag.dictionary_build");
  static const obs::MetricId kSyndromes = obs::counter("diag.syndromes");
  FaultDictionary dict;
  dict.net_ = &net;
  // Rows are projections of the certifier's exact verdict table: a
  // Proven read sets bit 2i, a Proven write bit 2i+1.
  const verify::CertificationResult cert = verify::Certifier(net).runExact();
  const std::size_t n = cert.instruments;
  dict.faults_ = cert.universe;
  dict.faultFree_.passed = DynamicBitset(2 * n);
  cert.reachable.forEachSet([&](std::size_t i) {
    dict.faultFree_.passed.set(2 * i);
    dict.faultFree_.passed.set(2 * i + 1);
  });
  dict.syndromes_.resize(dict.faults_.size());
  for (std::size_t k = 0; k < dict.faults_.size(); ++k) {
    DynamicBitset& bits = dict.syndromes_[k].passed;
    bits = DynamicBitset(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
      if (cert.read(k, i) == verify::Verdict::Proven) bits.set(2 * i);
      if (cert.write(k, i) == verify::Verdict::Proven) bits.set(2 * i + 1);
    }
  }
  obs::count(kSyndromes, dict.syndromes_.size());
  dict.buildIndex();
  return dict;
}

void FaultDictionary::buildIndex() {
  const std::size_t n = syndromes_.size();
  fingerprints_.resize(n);
  popcounts_.resize(n);
  exactIndex_.clear();
  exactIndex_.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    fingerprints_[k] = hash::fingerprint(syndromes_[k].passed);
    popcounts_[k] = static_cast<std::uint32_t>(syndromes_[k].passed.count());
    exactIndex_[fingerprints_[k]].push_back(static_cast<std::uint32_t>(k));
  }
}

const Syndrome& FaultDictionary::syndromeOf(std::size_t faultIndex) const {
  RRSN_CHECK(faultIndex < syndromes_.size(), "fault index out of range");
  return syndromes_[faultIndex];
}

Diagnosis FaultDictionary::diagnose(const Syndrome& observed) const {
  Diagnosis d;
  if (observed == faultFree_) {
    d.faultFree = true;
    return d;
  }
  // Exact matches: one hash probe instead of the O(|faults|) scan; the
  // bucket keeps fault order, and a full comparison guards against
  // fingerprint collisions.
  if (const auto it = exactIndex_.find(hash::fingerprint(observed.passed));
      it != exactIndex_.end()) {
    for (const std::uint32_t k : it->second)
      if (syndromes_[k] == observed) d.exactMatches.push_back(faults_[k]);
  }
  if (!d.exactMatches.empty()) return d;

  // Nearest search with a popcount lower bound: |popcount(a) -
  // popcount(b)| <= hamming(a, b), so entries that cannot reach the
  // current best distance are skipped without touching their words.
  const std::size_t observedCount = observed.passed.count();
  std::size_t best = ~std::size_t{0};
  for (std::size_t k = 0; k < faults_.size(); ++k) {
    const std::size_t pc = popcounts_[k];
    const std::size_t lower =
        pc > observedCount ? pc - observedCount : observedCount - pc;
    if (lower > best) continue;
    const std::size_t dist = syndromes_[k].distanceToAtMost(observed, best);
    if (dist > best) continue;
    if (dist < best) {
      best = dist;
      d.nearestMatches.clear();
    }
    d.nearestMatches.push_back(faults_[k]);
  }
  d.nearestDistance = best;
  return d;
}

namespace {

/// Two stuck faults on one mux cannot coexist in real hardware.
bool contradictoryPair(const fault::Fault& a, const fault::Fault& b) {
  return a.kind == fault::FaultKind::MuxStuck &&
         b.kind == fault::FaultKind::MuxStuck && a.prim == b.prim;
}

}  // namespace

FaultDictionary::PairDiagnosis FaultDictionary::diagnosePair(
    const Syndrome& observed) const {
  PairDiagnosis d;
  if (observed == faultFree_) {
    d.faultFree = true;
    return d;
  }
  // Group faults into syndrome equivalence classes, keeping fault
  // order.  Composition depends only on the class representative's row,
  // so candidate pairs are found class-by-class and expanded to member
  // pairs only on a match — quadratic in |classes|, not |faults|.
  std::vector<std::vector<std::uint32_t>> classes;
  {
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> byPrint;
    for (std::uint32_t k = 0; k < faults_.size(); ++k) {
      auto& bucket = byPrint[fingerprints_[k]];
      bool placed = false;
      for (const std::size_t c : bucket) {
        if (syndromes_[classes[c].front()] == syndromes_[k]) {
          classes[c].push_back(k);
          placed = true;
          break;
        }
      }
      if (!placed) {
        bucket.push_back(classes.size());
        classes.push_back({k});
      }
    }
  }

  const std::uint64_t observedPrint = hash::fingerprint(observed.passed);
  for (std::size_t ci = 0; ci < classes.size(); ++ci) {
    const Syndrome& rowA = syndromes_[classes[ci].front()];
    for (std::size_t cj = ci; cj < classes.size(); ++cj) {
      const Syndrome& rowB = syndromes_[classes[cj].front()];
      const Syndrome composed = composeSyndromes(rowA, rowB);
      if (hash::fingerprint(composed.passed) != observedPrint ||
          !(composed == observed)) {
        continue;
      }
      for (std::size_t x = 0; x < classes[ci].size(); ++x) {
        const std::size_t yBegin = ci == cj ? x + 1 : 0;
        for (std::size_t y = yBegin; y < classes[cj].size(); ++y) {
          std::uint32_t ka = classes[ci][x], kb = classes[cj][y];
          if (ka > kb) std::swap(ka, kb);
          if (contradictoryPair(faults_[ka], faults_[kb])) continue;
          d.exactPairCount += 1;
          if (d.exactPairs.size() < PairDiagnosis::kMaxListedPairs)
            d.exactPairs.emplace_back(faults_[ka], faults_[kb]);
        }
      }
    }
  }
  std::sort(d.exactPairs.begin(), d.exactPairs.end(),
            [](const auto& lhs, const auto& rhs) {
              return std::tie(lhs.first.kind, lhs.first.prim,
                              lhs.first.stuckBranch, lhs.second.kind,
                              lhs.second.prim, lhs.second.stuckBranch) <
                     std::tie(rhs.first.kind, rhs.first.prim,
                              rhs.first.stuckBranch, rhs.second.kind,
                              rhs.second.prim, rhs.second.stuckBranch);
            });

  // Composition is only a bound, so cross-check the first candidates
  // end to end on the simulator.  A candidate that re-measures
  // differently is a pair whose interaction (masking) escapes the
  // row-union model — the campaign layer itemizes those.
  const std::size_t limit =
      std::min(d.exactPairs.size(), PairDiagnosis::kMaxVerifiedPairs);
  for (std::size_t p = 0; p < limit; ++p) {
    const Syndrome measured = measureMulti(
        *net_, {d.exactPairs[p].first, d.exactPairs[p].second});
    if (measured == observed) {
      d.verifiedBySimulation = true;
      break;
    }
  }
  return d;
}

FaultDictionary::Resolution FaultDictionary::resolution() const {
  std::vector<bool> none(net_->primitiveCount(), false);
  return resolutionExcluding(none);
}

FaultDictionary::Resolution FaultDictionary::resolutionExcluding(
    const std::vector<bool>& hardenedLinear) const {
  RRSN_CHECK(hardenedLinear.size() == net_->primitiveCount(),
             "hardening mask does not match the network");
  Resolution r;
  // Class sizes keyed by syndrome fingerprint; a bucket holds one
  // (representative, count) pair per distinct syndrome that collided
  // into the hash.  Counting is order-independent, so the statistics
  // match the former sorted-map implementation exactly.
  struct Bucket {
    std::uint32_t rep;
    std::size_t size;
  };
  std::unordered_map<std::uint64_t, std::vector<Bucket>> classSizes;
  for (std::size_t k = 0; k < faults_.size(); ++k) {
    if (hardenedLinear[net_->linearId(fault::refOf(faults_[k]))])
      continue;  // fault avoided
    ++r.faults;
    if (syndromes_[k] == faultFree_) continue;  // undetectable
    ++r.detectable;
    auto& buckets = classSizes[fingerprints_[k]];
    bool found = false;
    for (Bucket& b : buckets) {
      if (syndromes_[b.rep] == syndromes_[k]) {
        ++b.size;
        found = true;
        break;
      }
    }
    if (!found) buckets.push_back({static_cast<std::uint32_t>(k), 1});
  }
  double total = 0.0;
  for (const auto& [fp, buckets] : classSizes) {
    r.classes += buckets.size();
    for (const Bucket& b : buckets)
      total += static_cast<double>(b.size) * static_cast<double>(b.size);
  }
  if (r.detectable > 0) {
    // Mean ambiguity, fault-weighted: E[|class of f|].
    r.avgAmbiguity = total / static_cast<double>(r.detectable);
  }
  return r;
}

TextTable FaultDictionary::classTable(std::size_t maxRows) const {
  // Group all faults (including the undetectable class) by syndrome,
  // fingerprint-first with equality on collision; members stay in
  // ascending fault order.
  std::vector<std::vector<std::size_t>> classes;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> byFp;
  for (std::size_t k = 0; k < faults_.size(); ++k) {
    auto& ids = byFp[fingerprints_[k]];
    bool found = false;
    for (const std::size_t id : ids) {
      if (syndromes_[classes[id].front()] == syndromes_[k]) {
        classes[id].push_back(k);
        found = true;
        break;
      }
    }
    if (!found) {
      ids.push_back(classes.size());
      classes.push_back({k});
    }
  }

  TextTable table({"class size", "failing accesses", "example faults"});
  table.setAlign(2, TextTable::Align::Left);
  // Largest (most ambiguous) classes first; ties broken by the smallest
  // member fault index so the rendering is deterministic.
  std::vector<std::size_t> order(classes.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (classes[a].size() != classes[b].size())
      return classes[a].size() > classes[b].size();
    return classes[a].front() < classes[b].front();
  });
  for (std::size_t r = 0; r < std::min(maxRows, order.size()); ++r) {
    const auto& faultIdx = classes[order[r]];
    std::string examples;
    for (std::size_t j = 0; j < std::min<std::size_t>(3, faultIdx.size());
         ++j) {
      if (j != 0) examples += ", ";
      examples += fault::describe(*net_, faults_[faultIdx[j]]);
    }
    if (faultIdx.size() > 3) examples += ", ...";
    const std::size_t failing =
        faultFree_.passed.count() - syndromes_[faultIdx.front()].passed.count();
    table.addRow({std::to_string(faultIdx.size()), std::to_string(failing),
                  examples});
  }
  return table;
}

}  // namespace rrsn::diag
