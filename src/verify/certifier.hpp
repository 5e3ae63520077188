// Static robustness certifier: a flow-sensitive fixpoint dataflow
// engine over the flat arena (rsn::FlatNetwork) that *proves* — without
// simulation — the paper's robustness claim per instrument:
//
//  (1) reachability       — a satisfiable control assignment exists
//                           that puts the instrument on the active scan
//                           path (the fault-free fixpoint's strict
//                           forward ∩ backward reach);
//  (2) single-fault
//      accessibility      — for every structural fault in the universe,
//                           either the fault provably cannot sever all
//                           of the instrument's access paths (dominator
//                           /cut analysis over the guarded-CSR data
//                           graph), or the surviving access mode is
//                           named, or a concrete severing witness is
//                           produced;
//  (3) control-safety     — no control register that gates the access
//                           is itself only reachable through what the
//                           same fault severs (a shrinking fixpoint
//                           over the control-dependency structure; a
//                           collapse is witnessed by the mux whose
//                           selectable set shrank).
//
// Verdict lattice per (fault, instrument, direction):
//
//          Unknown            (fixpoint budget exhausted; bounded and
//         /       \            counted, never silently dropped)
//      Proven   Vulnerable    (each carrying a witness)
//
// The engine has two tiers.  The *fast tier* decides whole fault rows
// from the fault-free analysis alone: a segment break whose vertex
// controls no mux, is not control-critical (does not dominate any
// reachable control register) and neither dominates nor post-dominates
// any accessible instrument cannot change the control fixpoint or cut
// any access — the row equals the fault-free row.  Likewise a mux
// stuck on a branch that leaves every guard decision of that mux
// unchanged under the fault-free selectable sets.  The *lane tier*
// replays the exact access-mode composition of the batched syndrome
// oracle (strict / clean-suffix / depth-bounded; see diag/batched.cpp)
// for 64 fault rows at once: lane k of a per-vertex uint64_t column
// stands for fault k, every reach is one pull pass over the data DAG in
// (reverse) topological order, and the budgeted control fixpoint runs
// on transposed selectable sets (one lane mask per (mux, branch)).
// That traversal is independent of the oracle's direction-optimizing
// BFS, so certifier verdicts are definitionally comparable to the
// batched engine's syndrome rows, and the cross-check mode replays
// Vulnerable rows and sampled Proven rows through that engine,
// treating any divergence as a hard error.  The certifier is the only
// production engine for exact accessibility: fault-dictionary rows and
// campaign oracle rows are projections of runExact().
//
// Determinism: every cell depends only on its fault (a lane never reads
// another lane's bits); the fan-out runs over fixed 64-row windows of
// the universe on the deterministic chunk grid, so results, work
// counters and all serialized reports are byte-identical at any
// RRSN_THREADS.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "rsn/flat.hpp"
#include "rsn/network.hpp"
#include "sim/control_view.hpp"
#include "support/bitset.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

namespace rrsn::verify {

enum class Verdict : std::uint8_t { Proven = 0, Vulnerable = 1, Unknown = 2 };

/// 'P' / 'V' / 'U' — the per-instrument encoding used in reports and
/// cached artifacts.
char toChar(Verdict v);
Verdict verdictFromChar(char c);

/// Why a verdict holds.  Proven kinds name the surviving structure,
/// Vulnerable kinds the severing one, Budget the bounded give-up.
enum class WitnessKind : std::uint8_t {
  None = 0,          ///< padding default (never emitted for a cell)
  // ------------------------------------------------------- Proven
  NonCut,            ///< fast tier: fault site off every access cut
  StuckBenign,       ///< fast tier: stuck branch changes no guard
  PathStrict,        ///< a strict (fault-avoiding) access path survives
  PathCleanSuffix,   ///< survives via the clean-suffix access mode
  PathDepthBounded,  ///< survives via the depth-bounded access mode
  // --------------------------------------------------- Vulnerable
  SelfFault,         ///< the instrument's own segment is the fault site
  Unreachable,       ///< inaccessible even fault-free (property 1 fails)
  DominatorCut,      ///< fault site dominates/post-dominates the access
  ControlCollapse,   ///< a gating control register loses its last path
  GuardCut,          ///< selectable-set shrink closes every guard
  // ------------------------------------------------------ Unknown
  Budget,            ///< control fixpoint iteration budget exhausted
};

/// Stable kebab-case name ("dominator-cut", ...) for reports.
const char* witnessKindName(WitnessKind k);

/// One materialized witness.  `subject` is kind-dependent: the severing
/// segment for SelfFault/DominatorCut/GuardCut, the collapsed mux for
/// ControlCollapse, the instrument's own segment for Unreachable,
/// rsn::kNone otherwise.
struct Witness {
  WitnessKind kind = WitnessKind::None;
  std::uint32_t subject = rsn::kNone;

  bool operator==(const Witness&) const = default;
};

/// Certification knobs.
struct CertifyOptions {
  /// Faults located at these primitives (by Network::linearId: segments
  /// in [0, S), muxes in [S, S + M)) are excluded — a hardened
  /// primitive cannot fail.  Empty = the full single-fault universe.
  DynamicBitset excludePrimitives;
  /// Iteration budget of each per-fault control fixpoint (counted per
  /// lane).  Exhaustion yields Unknown(Budget) for exactly that row —
  /// counted, never hidden.
  /// The fixpoint shrinks a finite set monotonically, so any budget
  /// >= the control-nesting depth terminates with a proof; the default
  /// is far above every realistic nesting.
  std::size_t fixpointBudget = 1024;
  /// Replay every row containing a Vulnerable verdict, and every
  /// crossCheckSampleEvery-th row regardless, through the batched
  /// syndrome oracle; any divergence throws support::Error.  See
  /// crossCheckDefault() for the environment policy.
  bool crossCheck = false;
  std::size_t crossCheckSampleEvery = 16;
};

/// RRSN_CERTIFY_MODE=fast|checked; unset defaults to checked in debug
/// builds and fast in release builds.  The one self-check switch: it
/// covers certify runs, every fault-dictionary build and every campaign
/// oracle.
bool crossCheckDefault();

/// Aggregate counters over one certification.
struct CertifySummary {
  std::size_t instruments = 0;
  std::size_t faults = 0;
  std::size_t reachableInstruments = 0;  ///< property (1)
  std::size_t provenRead = 0, provenWrite = 0;
  std::size_t vulnerableRead = 0, vulnerableWrite = 0;
  std::size_t unknownRead = 0, unknownWrite = 0;
  std::size_t fastRows = 0;      ///< rows decided by the fast tier
  std::size_t fixpointRows = 0;  ///< rows decided by the lane tier
  std::size_t controlCollapseCells = 0;  ///< property (3) violations
  std::size_t crossCheckedRows = 0;

  std::size_t unknownCells() const { return unknownRead + unknownWrite; }
};

/// Full certification state: the (filtered) fault universe in canonical
/// order plus one packed cell per (fault, instrument).
class CertificationResult {
 public:
  /// Canonical fault order: one SegmentBreak per non-excluded segment
  /// in id order, then one MuxStuck per non-excluded (mux, branch).
  std::vector<fault::Fault> universe;
  std::size_t instruments = 0;
  /// Property (1) per instrument: accessible under the fault-free
  /// control fixpoint.
  DynamicBitset reachable;

  Verdict read(std::size_t faultIdx, std::size_t inst) const {
    return static_cast<Verdict>(cell(faultIdx, inst) & 3u);
  }
  Verdict write(std::size_t faultIdx, std::size_t inst) const {
    return static_cast<Verdict>((cell(faultIdx, inst) >> 2) & 3u);
  }
  Witness readWitness(std::size_t faultIdx, std::size_t inst) const;
  Witness writeWitness(std::size_t faultIdx, std::size_t inst) const;

  CertifySummary summary() const;

  /// "PVU..." strings (one char per instrument) for row `faultIdx`.
  std::string readRow(std::size_t faultIdx) const;
  std::string writeRow(std::size_t faultIdx) const;

  // ------------------------------------------------- packed internals
  // One cell per (fault, instrument), row-major: bits 0-1 read verdict,
  // 2-3 write verdict, 4-7 read witness kind, 8-11 write witness kind.
  // Witness *subjects* are derivable (fault site, instrument segment,
  // or the per-row collapsed mux), so cells stay 2 bytes and a full
  // MBIST-class universe certifies in memory comparable to its fault
  // dictionary.
  std::vector<std::uint16_t> cells;
  /// Per-fault: first control mux whose selectable set collapsed under
  /// the fault (kNone when the control fixpoint matched fault-free).
  std::vector<std::uint32_t> collapsedMux;
  /// Per-instrument hosting segment (witness subjects for Unreachable).
  std::vector<std::uint32_t> instrumentSegment;
  /// Tier accounting, filled by Certifier::run (not derivable from the
  /// cells): rows decided by the fast tier, rows decided by the lane
  /// tier, 64-lane batches and topological passes the lane tier ran,
  /// and rows replayed through the syndrome oracle.  All are functions
  /// of the universe alone, never of the thread count.
  std::size_t fastRowCount = 0;
  std::size_t fixpointRowCount = 0;
  std::size_t laneBatchCount = 0;
  std::size_t lanePassCount = 0;
  std::size_t crossCheckedRowCount = 0;

  std::uint16_t cell(std::size_t faultIdx, std::size_t inst) const {
    return cells[faultIdx * instruments + inst];
  }

 private:
  Witness witnessAt(std::size_t faultIdx, std::size_t inst,
                    bool isRead) const;
};

/// The certifier.  Construction runs the fault-free base analysis
/// (topological order and the position-indexed lane CSR, final
/// selectable sets and strict reaches as a one-lane batch, immediate
/// dominators and post-dominators with DFS interval numbering, the
/// control-critical vertex set, and per-(mux, branch) stuck-safety
/// masks); run() fans 64-row batches of the universe out over the
/// thread pool.
class Certifier {
 public:
  explicit Certifier(const rsn::Network& net);
  explicit Certifier(std::shared_ptr<const rsn::FlatNetwork> flat);

  /// Certifies the (filtered) single-fault universe.  Throws
  /// support::Error on cross-check divergence or malformed options.
  CertificationResult run(const CertifyOptions& options = {}) const;

  /// The exact run the fault dictionary and the campaign oracle read:
  /// the fixpoint budget is the arena's total selectable branches + 1,
  /// which the control fixpoint cannot exhaust; crossCheck follows
  /// crossCheckDefault(); an Unknown cell raises an internal error.
  CertificationResult runExact(DynamicBitset excludePrimitives = {}) const;

  const rsn::FlatNetwork& flat() const { return *cv_.flat; }

 private:
  /// Fault rows decided per lane-tier batch: one bit of a uint64_t each.
  static constexpr std::size_t kLanes = 64;

  /// Per-worker lane column, transposed selectable sets and the batch
  /// being decided.
  struct LaneScratch;

  void buildBase();

  /// One pull pass over the data DAG in topological order (Forward) or
  /// reverse topological order, overwriting s.col (one lane word per
  /// position).
  /// Mirrors a BFS from each lane's source(s): lanes in `rootSeed` start
  /// at scan-in (Forward) / scan-out, lanes in `breakSeed` at their own
  /// broken vertex; a source is always reached, and blocking — the
  /// lane's broken vertex for lanes in `breakBlock`, every control
  /// register when `avoidCtrlRegs` — applies to every other vertex.
  template <bool Forward>
  void lanePass(LaneScratch& s, std::uint64_t rootSeed,
                std::uint64_t breakSeed, std::uint64_t breakBlock,
                bool avoidCtrlRegs) const;

  /// Budgeted control fixpoint for `lanes`, each counting its own
  /// iterations; leaves s.col = strict forward reach under the final
  /// sets.  Returns the lanes whose budget ran out.
  std::uint64_t laneFixpoint(LaneScratch& s, std::uint64_t lanes,
                             std::size_t budget) const;

  /// Lane tier: decides every row of the batch loaded in `s` into
  /// result.cells / result.collapsedMux.  Returns the lanes that ran
  /// out of budget (their rows are Unknown).
  std::uint64_t decideBatch(LaneScratch& s, std::size_t budget,
                            CertificationResult& result) const;

  /// Fast tier: decides the whole row from the base analysis when
  /// sound; returns false when the row needs the lane tier.
  bool tryFastRow(const fault::Fault& f, std::uint16_t* rowCells) const;

  bool domAncestor(graph::VertexId a, graph::VertexId v) const;
  bool pdomAncestor(graph::VertexId a, graph::VertexId v) const;

  sim::ControlView cv_;

  // ------------------------------------------------ fault-free base
  std::vector<std::uint64_t> sel0_;   ///< final fault-free selectable sets
  DynamicBitset inStrict0_, outStrict0_;
  DynamicBitset accessible0_;         ///< per instrument (property 1)
  std::vector<std::uint32_t> topoIdx_, rtopoIdx_;
  std::vector<graph::VertexId> idom_, ipdom_;
  std::vector<std::uint32_t> domTin_, domTout_, pdomTin_, pdomTout_;
  DynamicBitset ctrlCritical_;        ///< dominates a reachable ctrl reg
  std::vector<std::uint64_t> stuckSafe_;  ///< sel-layout (mux, branch) mask

  // ------------------------------------- lane kernel (position-indexed)
  /// Data-graph edge between topological positions, open in the lanes
  /// of guard word `guard` (0 = unguarded, open in every lane).
  struct LaneEdge {
    std::uint32_t other, guard;
  };
  std::vector<graph::VertexId> order_;  ///< position -> vertex
  std::vector<std::uint32_t> inOffsets_, outOffsets_;
  std::vector<LaneEdge> inEdges_, outEdges_;
  /// Transposed selectable sets: mux m owns lane words
  /// [branchBase_[m], branchBase_[m] + muxArity[m]), one per branch.
  std::vector<std::uint32_t> branchBase_;
  std::size_t selLaneWords_ = 0;
  /// Edge guards, one per guarded edge of either CSR: guard g >= 1 is
  /// open in the OR of the lane words
  /// guardBranches_[guardOffsets_[g - 1], guardOffsets_[g]).
  std::vector<std::uint32_t> guardOffsets_, guardBranches_;
  std::vector<std::uint8_t> ctrlRegAt_;  ///< per position
  /// Per position: kChainFwd when its only in-edge is unguarded from the
  /// previous position, kChainBwd when its only out-edge is unguarded to
  /// the next one.
  static constexpr std::uint8_t kChainFwd = 1, kChainBwd = 2;
  std::vector<std::uint8_t> chain_;
};

// ------------------------------------------------------------ reports

/// Two-row (read / write) verdict tally for CLI output.
TextTable summaryTable(const CertifySummary& s);

/// Itemization of the first `limit` Vulnerable / Unknown cells, with
/// witness names resolved against the network.
TextTable vulnerabilityTable(const rsn::Network& net,
                             const CertificationResult& result,
                             std::size_t limit = 20);

/// Canonical JSON document (sorted keys, no timestamps): summary,
/// per-instrument reachability, per-fault verdict rows, itemized
/// witnesses.  Byte-equality of two reports proves determinism.
json::Value reportJson(const rsn::Network& net,
                       const CertificationResult& result);

/// SARIF 2.1.0 document via the shared emitter: verify.unreachable /
/// verify.single-fault / verify.control-safety / verify.unknown rules,
/// one result per affected (fault, instrument).
json::Value sarifReport(const rsn::Network& net,
                        const CertificationResult& result,
                        const std::string& artifactUri);

}  // namespace rrsn::verify
