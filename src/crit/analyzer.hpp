// Criticality analysis (Sec. IV): per-primitive damage d_j.
//
// The damage of primitive j (Eq. 1) is the weighted sum of instruments
// that become unobservable / unsettable when j is defect:
//
//   d_j = sum_i do_i * y_ij + sum_i ds_i * z_ij
//
// Segments have exactly one fault (break); a k-input multiplexer has k
// stuck-at faults and is charged the most damaging one (the paper speaks
// of "a defect" per primitive; the worst case is the conservative choice
// for hardening decisions).
//
// CriticalityAnalyzer is the paper's fast hierarchical computation on the
// annotated binary decomposition tree (O(N log N) total).
// bruteForceAnalysis recomputes every d_j from the flat-graph fault
// oracle (O(N * E)) and exists purely to cross-check the fast path.
#pragma once

#include <cstdint>
#include <vector>

#include "rsn/network.hpp"
#include "rsn/spec.hpp"
#include "sp/decomposition.hpp"
#include "support/table.hpp"

namespace rrsn::crit {

struct AnalysisOptions {
  /// Fail fast on networks with error-severity lint findings (control
  /// deadlocks, unreachable segments, ...): the analyzer throws
  /// lint::LintError from its constructor instead of computing damages
  /// for configurations that can never be reached.  Disable to analyze
  /// a known-defective model anyway.
  bool lint = true;
};

/// Result of a criticality analysis: d_j per linear primitive id
/// (segments first, then muxes — see Network::linearId).
class CriticalityResult {
 public:
  CriticalityResult(const rsn::Network& net, std::vector<std::uint64_t> d);

  const rsn::Network& network() const { return *net_; }

  const std::vector<std::uint64_t>& damages() const { return damages_; }
  std::uint64_t damageOf(std::size_t linearId) const {
    RRSN_CHECK(linearId < damages_.size(), "linear id out of range");
    return damages_[linearId];
  }

  /// Sum over all primitives: the paper's "Max. Damage" (Table I col 5) —
  /// the accumulated damage when no primitive is hardened.
  std::uint64_t totalDamage() const { return total_; }

  /// Linear ids sorted by decreasing damage (ties by id).
  std::vector<std::size_t> ranking() const;

  /// Table of the `topK` most critical primitives.
  TextTable report(std::size_t topK) const;

 private:
  const rsn::Network* net_;
  std::vector<std::uint64_t> damages_;
  std::uint64_t total_ = 0;
};

/// Fast hierarchical analysis on the annotated decomposition tree: a
/// segment's damage is one break-region walk (O(tree depth)), a mux
/// branch's stuck damage is O(1) from the tree's subtree sums.
class CriticalityAnalyzer {
 public:
  CriticalityAnalyzer(const rsn::Network& net, const rsn::CriticalitySpec& spec,
                      AnalysisOptions options = {});

  /// Runs (or re-runs) the analysis.
  CriticalityResult run() const;

 private:
  const rsn::Network* net_;
  sp::DecompositionTree tree_;
};

/// Oracle analysis from the flat-graph fault effects; cross-checks the
/// fast path in tests.  Quadratic — use on small/medium networks only.
CriticalityResult bruteForceAnalysis(const rsn::Network& net,
                                     const rsn::CriticalitySpec& spec);

}  // namespace rrsn::crit
