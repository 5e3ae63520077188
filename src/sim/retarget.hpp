// Retargeting: turning "access instrument i" into concrete CSU patterns.
//
// An RSN instrument is reached by steering every multiplexer on the path
// from scan-in to its segment; segment-controlled muxes (SIBs, address
// registers) must be written through the RSN itself, which takes one CSU
// round per hierarchy level.  The engine below reproduces that protocol
// and — because it runs on the fault-injecting simulator — doubles as the
// *strict* accessibility oracle: an instrument counts as observable /
// settable only if a marker value actually makes it through the defect
// RSN end to end.  This is stronger than the paper's structural analysis
// (which assumes control bits can always be applied); the
// bench_control_dependency ablation quantifies the difference.
#pragma once

#include <map>
#include <memory>

#include "rsn/flat.hpp"
#include "sim/simulator.hpp"
#include "support/bitset.hpp"

namespace rrsn::sim {

/// Mux selections an access steers: branch per mux.
using Selections = std::map<rsn::MuxId, std::uint32_t>;

/// One applied scan access (for pattern logging / replay).
struct ScanPattern {
  std::vector<Bit> shiftIn;   ///< stream fed to scan-in
  std::vector<Bit> shiftOut;  ///< stream observed at scan-out
};

/// Bounds of one retargeting attempt.  Every limit exists so that a
/// defective network (e.g. a stuck address register that silently drops
/// control writes) degrades into a failed RetargetResult instead of an
/// unbounded configuration loop.
struct RetargetOptions {
  /// CSU rounds allowed per realizeSelections attempt; 0 = automatic
  /// (deepest mux nesting + 2, enough for any healthy access).
  std::size_t maxRounds = 0;
  /// Alternative-path realizations attempted per access after the
  /// nominal (fault-unaware) recipe fails; caps both the path
  /// enumeration and the CSU work spent on graceful degradation.  0 =
  /// never reroute around an injected fault.
  std::size_t maxReroutes = 8;

  /// A copy with an automatic maxRounds replaced by its value for `net`.
  /// That value walks the whole structure, so callers spawning many
  /// engines over one network resolve once and pass the result.
  RetargetOptions resolvedFor(const rsn::Network& net) const;
};

/// Outcome of a retargeting attempt.  `externalSelections` records the
/// TAP-instruction part of the access (addresses of muxes that are not
/// segment-controlled); together with `patterns` it is the complete
/// reproducible access recipe.
struct RetargetResult {
  bool success = false;
  /// Success came from a fault-aware alternative mux branch, not from
  /// the nominal recipe — the access *degraded gracefully*.  Always
  /// false on a fault-free simulator.
  bool rerouted = false;
  std::size_t rounds = 0;              ///< CSU rounds spent
  std::vector<ScanPattern> patterns;   ///< in application order
  std::vector<std::pair<rsn::MuxId, std::uint32_t>> externalSelections;
};

/// The marker value the engine plants when verifying an access; exposed
/// so replay checks can reproduce the instrument-side stimulus.
std::vector<Bit> accessMarker(std::uint32_t length);

/// Replays a recorded access on another simulator (e.g. the synthesized
/// hardened RSN, which shares the topology).  Applies the external
/// selections, re-runs every pattern and returns true iff each shift-out
/// stream matches the recording bit for bit (Sec. II, "able to use the
/// same access patterns as the initial unhardened RSN").
bool replayPatterns(ScanSimulator& sim, const RetargetResult& recorded);

/// Retargeting engine bound to one simulator instance.
class Retargeter {
 public:
  /// Binds the engine to `sim` and to the arena lowered from the
  /// simulated network; callers running many accesses (campaigns, the
  /// access-set probe) lower once and share it.
  Retargeter(ScanSimulator& sim, std::shared_ptr<const rsn::FlatNetwork> flat,
             RetargetOptions options = {});
  /// One-off engine: lowers the simulated network itself.
  explicit Retargeter(ScanSimulator& sim, RetargetOptions options = {});

  /// Steers the given mux selections (segment-controlled muxes through
  /// CSU rounds, TAP-controlled ones directly).  Selections of muxes not
  /// listed are left alone.  Fails if the fault in the simulator blocks a
  /// required write or the rounds budget is exhausted.
  RetargetResult realizeSelections(const Selections& selections);

  /// Every access tries the nominal (fault-unaware) recipe first and
  /// enumerates fault-aware reroutes only if it fails (at most
  /// RetargetOptions::maxReroutes); the counter `sim.reroute_searches`
  /// counts the accesses that ran that enumeration.
  ///
  /// End-to-end read: configures a path through instrument i's segment,
  /// captures a marker from the instrument and checks the marker arrives
  /// at scan-out unpoisoned.  Throws Error if an injected fault names a
  /// primitive or stuck branch the network does not have.
  RetargetResult readInstrument(rsn::InstrumentId i);

  /// End-to-end write: configures a path, shifts `value` into the
  /// segment and checks the update register took it exactly.
  RetargetResult writeInstrument(rsn::InstrumentId i,
                                 const std::vector<Bit>& value);

 private:
  const std::optional<Selections>& nominalSelections(rsn::SegmentId seg);
  /// The shared attempt loop of readInstrument / writeInstrument:
  /// realizes each recipe in turn and calls finish(path, attempt) to
  /// apply and check the payload round.
  template <typename Finish>
  RetargetResult access(rsn::SegmentId seg, bool breakBeforeSegTolerable,
                        Finish&& finish);

  ScanSimulator* sim_;
  RetargetOptions options_;  ///< resolved: maxRounds != 0
  /// The scan graph paths are searched on; the topology never changes
  /// under a fault.
  std::shared_ptr<const rsn::FlatNetwork> flat_;
  /// Nominal recipe per segment accessed so far.
  std::map<rsn::SegmentId, std::optional<Selections>> nominal_;
};

/// Per-instrument accessibility under an optional fault.
struct AccessReport {
  DynamicBitset observable;
  DynamicBitset settable;
};

/// The standard access set on the simulator: one read and one write of
/// every instrument, each from power-on with `faults` injected, retargeted
/// over `flat` (lowered from `net`).  The one per-probe loop behind
/// strictAccessibility and the fault dictionary's measurements.
AccessReport probeAccessSet(const rsn::Network& net,
                            std::shared_ptr<const rsn::FlatNetwork> flat,
                            const std::vector<fault::Fault>& faults);

/// Strict (simulation-backed) accessibility: probeAccessSet with `f`
/// injected (nullptr: fault-free).  Exponentially safer but linear-time
/// slower than the structural analysis; intended for small/medium
/// networks.
AccessReport strictAccessibility(const rsn::Network& net,
                                 const fault::Fault* f);

}  // namespace rrsn::sim
