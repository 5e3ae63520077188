// Fault diagnosis for RSNs.
//
// The paper positions selective hardening against fault-*tolerant* RSNs
// [4], which "require diagnostic support [5]" to locate a defect before
// access can be re-routed around it.  This module provides that
// substrate: a fault dictionary built from end-to-end access outcomes.
// For every instrument the engine attempts one retargeted read and one
// retargeted write; the pass/fail vector over all attempts is the
// network's *syndrome*.  Comparing an observed syndrome against the
// precomputed dictionary yields the candidate fault set.
//
// The rows are projections of the static certifier's exact verdict
// table (verify/certifier.hpp): the network is lowered once, every
// fault's row is decided by dataflow instead of 2·|instruments|
// simulated accesses, and RRSN_CERTIFY_MODE=checked replays it against
// the batched syndrome engine (diag/batched.hpp).  measure() stays the
// independent, simulator-backed reference.
//
// The dictionary doubles as an analysis tool: its equivalence-class
// structure tells how *diagnosable* a network is (how many faults are
// distinguishable from each other and from the fault-free RSN), and how
// a hardening plan — which removes faults from the universe — improves
// both numbers.  Classes are keyed by FNV-1a fingerprints of the
// syndrome bits (support/hash.hpp) with equality checks on collision.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "diag/batched.hpp"
#include "fault/fault.hpp"
#include "rsn/network.hpp"
#include "support/bitset.hpp"
#include "support/table.hpp"

namespace rrsn::diag {

/// Row-union composition of two single-fault syndromes: an access can
/// only pass under the simultaneous pair if it passes under both faults
/// individually, so the composed *failure* set is the union of the two
/// rows' failures (passed = AND).  Composition is a structural bound,
/// not ground truth — real pair physics can mask one fault behind the
/// other — which is exactly why diagnosePair cross-checks candidates on
/// the simulator.
Syndrome composeSyndromes(const Syndrome& a, const Syndrome& b);

/// Result of diagnosing one observed syndrome.
struct Diagnosis {
  /// Faults whose dictionary syndrome matches exactly (empty if the
  /// syndrome equals the fault-free one or is unknown).
  std::vector<fault::Fault> exactMatches;
  /// True if the observed syndrome equals the fault-free syndrome.
  bool faultFree = false;
  /// When there is no exact match: the dictionary entries at minimum
  /// Hamming distance (defect outside the single-fault model, or a
  /// multi-fault situation).
  std::vector<fault::Fault> nearestMatches;
  std::size_t nearestDistance = 0;
};

/// Precomputed syndrome dictionary over the single-fault universe.
class FaultDictionary {
 public:
  /// Lowers the network once and projects the certifier's exact run
  /// (Certifier::runExact) into syndrome rows.  The certifier fans the
  /// fault universe out over the process thread pool (RRSN_THREADS);
  /// the dictionary is byte-identical for any thread count.
  static FaultDictionary build(const rsn::Network& net);

  const rsn::Network& network() const { return *net_; }
  const Syndrome& faultFreeSyndrome() const { return faultFree_; }
  const std::vector<fault::Fault>& faults() const { return faults_; }
  const Syndrome& syndromeOf(std::size_t faultIndex) const;

  /// Measures the syndrome of a (possibly fault-injected) network by
  /// running the standard access set on the simulator
  /// (sim::probeAccessSet, the per-probe reference path, independent of
  /// the certifier) and projecting it into syndrome bits.
  static Syndrome measure(const rsn::Network& net, const fault::Fault* f);

  /// Same, with any number of simultaneous permanent faults injected —
  /// the reference measurement for multi-fault diagnosis.
  static Syndrome measureMulti(const rsn::Network& net,
                               const std::vector<fault::Fault>& faults);

  /// Looks the observed syndrome up in the dictionary: exact matches
  /// via the fingerprint index, otherwise a popcount-pruned
  /// nearest-distance scan.
  Diagnosis diagnose(const Syndrome& observed) const;

  /// Result of diagnosing an observed syndrome against *composed* fault
  /// pairs.  The candidate set is every unordered pair of single faults
  /// whose row-union composition (composeSyndromes) reproduces the
  /// observation; pairs are enumerated over syndrome equivalence
  /// classes, so the scan is quadratic in the class count, not the
  /// fault count.  The listing is capped; exactPairCount keeps the true
  /// ambiguity (how many pairs are indistinguishable from the
  /// observation under composition).
  struct PairDiagnosis {
    /// True if the observed syndrome equals the fault-free one.
    bool faultFree = false;
    /// Candidate pairs in canonical (fault-index) order, first
    /// kMaxListedPairs only.
    std::vector<std::pair<fault::Fault, fault::Fault>> exactPairs;
    /// Total number of composition-matching pairs (the ambiguity).
    std::size_t exactPairCount = 0;
    /// True when at least one of the first kMaxVerifiedPairs candidate
    /// pairs, re-measured on the simulator (measureMulti), reproduces
    /// the observation exactly.  False when every re-measured candidate
    /// diverges — the signature of a pair whose physics the composition
    /// bound cannot express.
    bool verifiedBySimulation = false;

    static constexpr std::size_t kMaxListedPairs = 64;
    static constexpr std::size_t kMaxVerifiedPairs = 8;
  };

  /// Diagnoses `observed` as a simultaneous fault pair.  The first
  /// kMaxVerifiedPairs candidates are cross-checked against the
  /// per-probe simulator (see PairDiagnosis::verifiedBySimulation).
  PairDiagnosis diagnosePair(const Syndrome& observed) const;

  /// Diagnosability statistics.
  struct Resolution {
    std::size_t faults = 0;        ///< size of the fault universe
    std::size_t detectable = 0;    ///< syndrome differs from fault-free
    std::size_t classes = 0;       ///< distinct syndromes among detectable
    double avgAmbiguity = 0.0;     ///< mean candidates per detectable fault
  };
  Resolution resolution() const;

  /// Resolution restricted to faults at unhardened primitives (a
  /// hardening plan removes the others from the universe).
  Resolution resolutionExcluding(
      const std::vector<bool>& hardenedLinear) const;

  /// Per-class summary table (size-capped) for reports.  Rows are
  /// ordered by class size descending, ties broken by the smallest
  /// member fault index.
  TextTable classTable(std::size_t maxRows) const;

 private:
  /// Fingerprints, popcounts and the exact-match hash index over the
  /// built syndromes.
  void buildIndex();

  const rsn::Network* net_ = nullptr;
  std::vector<fault::Fault> faults_;
  std::vector<Syndrome> syndromes_;
  Syndrome faultFree_;
  std::vector<std::uint64_t> fingerprints_;  ///< per fault, of syndromes_
  std::vector<std::uint32_t> popcounts_;     ///< per fault, of syndromes_
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> exactIndex_;
};

}  // namespace rrsn::diag
