#include "verify/certifier.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <utility>

#include "diag/batched.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"

namespace rrsn::verify {

namespace {

const obs::MetricId kCertifyCalls = obs::counter("verify.certify_calls");
const obs::MetricId kRowsFast = obs::counter("verify.rows_fast");
const obs::MetricId kRowsFixpoint = obs::counter("verify.rows_fixpoint");
const obs::MetricId kLaneBatches = obs::counter("verify.lane_batches");
const obs::MetricId kLanePasses = obs::counter("verify.lane_passes");
const obs::MetricId kCellsUnknown = obs::counter("verify.cells_unknown");
const obs::MetricId kRowsCrossChecked =
    obs::counter("verify.rows_crosschecked");
const obs::MetricId kUniverseFaults = obs::histogram("verify.universe_faults");

constexpr std::uint16_t packCell(Verdict r, WitnessKind rk, Verdict w,
                                 WitnessKind wk) {
  return static_cast<std::uint16_t>(
      static_cast<std::uint16_t>(r) | (static_cast<std::uint16_t>(w) << 2) |
      (static_cast<std::uint16_t>(rk) << 4) |
      (static_cast<std::uint16_t>(wk) << 8));
}

constexpr std::uint16_t kUnknownCell =
    packCell(Verdict::Unknown, WitnessKind::Budget, Verdict::Unknown,
             WitnessKind::Budget);

/// Nearest-common-dominator walk of the Cooper–Harvey–Kennedy scheme,
/// parameterized on the rank order (topological for dominators,
/// reverse-topological for post-dominators).
graph::VertexId intersect(graph::VertexId a, graph::VertexId b,
                          const std::vector<graph::VertexId>& idom,
                          const std::vector<std::uint32_t>& rank) {
  while (a != b) {
    while (rank[a] > rank[b]) a = idom[a];
    while (rank[b] > rank[a]) b = idom[b];
  }
  return a;
}

/// DFS entry/exit numbering of an idom tree: `a` dominates `v` iff
/// tin[a] <= tin[v] && tout[v] <= tout[a].  Vertices outside the tree
/// keep tin = 0, which no ancestor test matches.
void domIntervals(const std::vector<graph::VertexId>& idom,
                  graph::VertexId root, std::vector<std::uint32_t>& tin,
                  std::vector<std::uint32_t>& tout) {
  const std::size_t vertices = idom.size();
  tin.assign(vertices, 0);
  tout.assign(vertices, 0);
  std::vector<std::uint32_t> offsets(vertices + 1, 0);
  for (std::size_t v = 0; v < vertices; ++v)
    if (v != root && idom[v] != graph::kNoVertex) ++offsets[idom[v] + 1];
  for (std::size_t v = 0; v < vertices; ++v) offsets[v + 1] += offsets[v];
  std::vector<graph::VertexId> children(offsets[vertices]);
  std::vector<std::uint32_t> fill(offsets.begin(), offsets.end() - 1);
  for (std::size_t v = 0; v < vertices; ++v)
    if (v != root && idom[v] != graph::kNoVertex)
      children[fill[idom[v]]++] = static_cast<graph::VertexId>(v);

  std::uint32_t clock = 0;
  std::vector<std::pair<graph::VertexId, std::uint32_t>> stack;
  stack.reserve(64);
  stack.emplace_back(root, offsets[root]);
  tin[root] = ++clock;
  while (!stack.empty()) {
    const graph::VertexId v = stack.back().first;
    const std::uint32_t next = stack.back().second;
    if (next < offsets[v + 1]) {
      ++stack.back().second;  // advance before the push invalidates back()
      const graph::VertexId c = children[next];
      tin[c] = ++clock;
      stack.emplace_back(c, offsets[c]);
    } else {
      tout[v] = clock;
      stack.pop_back();
    }
  }
}

}  // namespace

char toChar(Verdict v) {
  switch (v) {
    case Verdict::Proven:
      return 'P';
    case Verdict::Vulnerable:
      return 'V';
    case Verdict::Unknown:
      return 'U';
  }
  return '?';
}

const char* witnessKindName(WitnessKind k) {
  switch (k) {
    case WitnessKind::None:
      return "none";
    case WitnessKind::NonCut:
      return "non-cut";
    case WitnessKind::StuckBenign:
      return "stuck-benign";
    case WitnessKind::PathStrict:
      return "path-strict";
    case WitnessKind::PathCleanSuffix:
      return "path-clean-suffix";
    case WitnessKind::PathDepthBounded:
      return "path-depth-bounded";
    case WitnessKind::SelfFault:
      return "self-fault";
    case WitnessKind::Unreachable:
      return "unreachable";
    case WitnessKind::DominatorCut:
      return "dominator-cut";
    case WitnessKind::ControlCollapse:
      return "control-collapse";
    case WitnessKind::GuardCut:
      return "guard-cut";
    case WitnessKind::Budget:
      return "budget";
  }
  return "?";
}

bool crossCheckDefault() {
#ifdef NDEBUG
  constexpr bool kDefault = false;
#else
  constexpr bool kDefault = true;
#endif
  const char* text = std::getenv("RRSN_CERTIFY_MODE");
  if (text == nullptr || *text == '\0') return kDefault;
  const std::string v(text);
  if (v == "fast") return false;
  if (v == "checked") return true;
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true)) {
    std::fprintf(stderr,
                 "rrsn: RRSN_CERTIFY_MODE='%s' is not fast|checked; "
                 "using '%s'\n",
                 text, kDefault ? "checked" : "fast");
  }
  return kDefault;
}

// --------------------------------------------------------------- result

Witness CertificationResult::witnessAt(std::size_t faultIdx, std::size_t inst,
                                       bool isRead) const {
  const std::uint16_t c = cell(faultIdx, inst);
  const auto kind =
      static_cast<WitnessKind>((c >> (isRead ? 4 : 8)) & 0xFu);
  std::uint32_t subject = rsn::kNone;
  switch (kind) {
    case WitnessKind::SelfFault:
    case WitnessKind::DominatorCut:
    case WitnessKind::GuardCut:
      subject = universe[faultIdx].prim;
      break;
    case WitnessKind::Unreachable:
      subject = instrumentSegment[inst];
      break;
    case WitnessKind::ControlCollapse:
      subject = collapsedMux[faultIdx];
      break;
    default:
      break;
  }
  return {kind, subject};
}

Witness CertificationResult::readWitness(std::size_t faultIdx,
                                         std::size_t inst) const {
  return witnessAt(faultIdx, inst, /*isRead=*/true);
}

Witness CertificationResult::writeWitness(std::size_t faultIdx,
                                          std::size_t inst) const {
  return witnessAt(faultIdx, inst, /*isRead=*/false);
}

std::string CertificationResult::readRow(std::size_t faultIdx) const {
  std::string row(instruments, '?');
  for (std::size_t i = 0; i < instruments; ++i) row[i] = toChar(read(faultIdx, i));
  return row;
}

std::string CertificationResult::writeRow(std::size_t faultIdx) const {
  std::string row(instruments, '?');
  for (std::size_t i = 0; i < instruments; ++i)
    row[i] = toChar(write(faultIdx, i));
  return row;
}

CertifySummary CertificationResult::summary() const {
  CertifySummary s;
  s.instruments = instruments;
  s.faults = universe.size();
  s.reachableInstruments = reachable.count();
  s.fastRows = fastRowCount;
  s.fixpointRows = fixpointRowCount;
  s.crossCheckedRows = crossCheckedRowCount;
  for (std::size_t fi = 0; fi < universe.size(); ++fi) {
    for (std::size_t i = 0; i < instruments; ++i) {
      const std::uint16_t c = cell(fi, i);
      switch (static_cast<Verdict>(c & 3u)) {
        case Verdict::Proven:
          ++s.provenRead;
          break;
        case Verdict::Vulnerable:
          ++s.vulnerableRead;
          break;
        case Verdict::Unknown:
          ++s.unknownRead;
          break;
      }
      switch (static_cast<Verdict>((c >> 2) & 3u)) {
        case Verdict::Proven:
          ++s.provenWrite;
          break;
        case Verdict::Vulnerable:
          ++s.vulnerableWrite;
          break;
        case Verdict::Unknown:
          ++s.unknownWrite;
          break;
      }
      if (static_cast<WitnessKind>((c >> 4) & 0xFu) ==
          WitnessKind::ControlCollapse)
        ++s.controlCollapseCells;
      if (static_cast<WitnessKind>((c >> 8) & 0xFu) ==
          WitnessKind::ControlCollapse)
        ++s.controlCollapseCells;
    }
  }
  return s;
}

// --------------------------------------------------------- lane scratch

struct Certifier::LaneScratch {
  // The batch: lane k decides universe row rows[k], fault *faults[k].
  std::size_t lanes = 0;
  std::array<std::size_t, kLanes> rows{};
  std::array<const fault::Fault*, kLanes> faults{};
  std::array<std::uint32_t, kLanes> brokenPos{};  ///< break lanes only
  /// (position, lanes broken there), ascending by position.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> breaks;

  std::vector<std::uint64_t> col;       ///< position-indexed lane column
  std::vector<std::uint64_t> selT;      ///< transposed selectable sets
  std::vector<std::uint64_t> open;      ///< per guard: lanes it admits
  std::vector<std::uint64_t> exempt;    ///< per mux: lanes stuck on it
  // Per-instrument lane masks.
  std::vector<std::uint64_t> self;      ///< lanes whose break hosts it
  std::vector<std::uint64_t> inStrict, outStrict, cleanToOut, strict;
  std::vector<std::uint64_t> obsClean, setClean, obsDepth, setDepth;
  std::array<std::uint32_t, kLanes> collapsedMux{};
  std::size_t passes = 0;

  LaneScratch(std::size_t positions, std::size_t selWords,
              std::size_t guards, std::size_t muxes, std::size_t instruments)
      : col(positions), selT(selWords), open(guards), exempt(muxes),
        self(instruments), inStrict(instruments), outStrict(instruments),
        cleanToOut(instruments), strict(instruments),
        obsClean(instruments), setClean(instruments),
        obsDepth(instruments), setDepth(instruments) {}
};

// ----------------------------------------------------------- certifier

Certifier::Certifier(const rsn::Network& net)
    : Certifier(rsn::FlatNetwork::lower(net)) {}

Certifier::Certifier(std::shared_ptr<const rsn::FlatNetwork> flat)
    : flat_(std::move(flat)) {
  RRSN_CHECK(flat_ != nullptr, "certifier needs a flat view");
  buildBase();
}

template <bool Forward>
void Certifier::lanePass(LaneScratch& s, std::uint64_t rootSeed,
                         std::uint64_t breakSeed, std::uint64_t breakBlock,
                         bool avoidCtrlRegs) const {
  // Pull formulation of a BFS closure on a DAG: every predecessor (in
  // pass order) of a position is final before the position is read, so
  // one pass computes each lane's reach and overwrites the column in
  // place without clearing it.
  ++s.passes;
  std::uint64_t* col = s.col.data();
  const std::size_t positions = order_.size();
  const std::vector<std::uint32_t>& offsets = Forward ? inOffsets_ : outOffsets_;
  const std::vector<LaneEdge>& edges = Forward ? inEdges_ : outEdges_;
  // Open lanes of every guard under the current sets.
  std::uint64_t* open = s.open.data();
  open[0] = ~0ULL;
  for (std::size_t g = 1; g < guardOffsets_.size(); ++g) {
    std::uint64_t lanes = 0;
    for (std::uint32_t j = guardOffsets_[g - 1]; j < guardOffsets_[g]; ++j)
      lanes |= s.selT[guardBranches_[j]];
    open[g] = lanes;
  }
  const std::uint32_t root =
      topoIdx_[Forward ? flat_->scanIn() : flat_->scanOut()];
  // Broken positions are visited in pass order; `eventAt` is the next
  // one (`positions` once none is left).
  std::size_t ev = Forward ? 0 : s.breaks.size();
  const auto nextEvent = [&]() -> std::size_t {
    if (Forward) return ev < s.breaks.size() ? s.breaks[ev].first : positions;
    return ev > 0 ? s.breaks[ev - 1].first : positions;
  };
  std::size_t eventAt = nextEvent();
  std::uint64_t prev = 0;
  for (std::size_t step = 0; step < positions; ++step) {
    const std::size_t k = Forward ? step : positions - 1 - step;
    std::uint64_t acc = 0;
    if ((chain_[k] & (Forward ? kChainFwd : kChainBwd)) != 0) {
      acc = prev;  // carried in a register, not reloaded from col
    } else {
      for (std::uint32_t i = offsets[k]; i < offsets[k + 1]; ++i)
        acc |= col[edges[i].other] & open[edges[i].guard];
    }
    if (avoidCtrlRegs && ctrlRegAt_[k] != 0) acc = 0;
    if (k == eventAt) {
      const std::uint64_t at =
          Forward ? s.breaks[ev++].second : s.breaks[--ev].second;
      acc = (acc & ~(at & breakBlock)) | (at & breakSeed);
      eventAt = nextEvent();
    }
    if (k == root) acc |= rootSeed;
    col[k] = acc;
    prev = acc;
  }
}

std::uint64_t Certifier::laneFixpoint(LaneScratch& s, std::uint64_t lanes,
                                      std::size_t budget) const {
  // Shrink non-reset branches to those whose control register keeps a
  // strict scan-in path over the surviving branches.  The selectable
  // sets only ever shrink and branch 0 is never cleared, so every lane
  // terminates within (total selectable bits) iterations; `budget`
  // bounds each lane anyway and exhaustion surfaces as Unknown, never
  // as a wrong verdict.  A converged lane rides along unchanged: its
  // sets are a fixpoint, so later passes recompute the same reach.
  const rsn::FlatNetwork& net = *flat_;
  const auto ctrlMuxes = net.ctrlMuxes();
  const auto ctrlVertex = net.muxCtrlVertex();
  const auto arity = net.muxArity();
  const std::uint64_t* representableWords = net.representableWords().data();
  std::uint64_t pending = lanes;
  for (std::size_t iter = 0; pending != 0; ++iter) {
    if (iter >= budget) return pending;
    lanePass<true>(s, lanes, 0, lanes, false);
    std::uint64_t changed = 0;
    for (const std::uint32_t m : ctrlMuxes) {
      // A stuck mux is the fault, not a fixpoint target; lanes outside
      // this fixpoint keep their sets.
      const std::uint64_t keep = s.exempt[m] | ~lanes;
      const std::uint64_t reach = s.col[topoIdx_[ctrlVertex[m]]];
      std::uint64_t* words = s.selT.data() + branchBase_[m];
      for (std::uint32_t b = 1; b < arity[m]; ++b) {
        const bool representable = net.selectableBit(representableWords, m, b);
        const std::uint64_t next =
            words[b] & (representable ? reach | keep : keep);
        changed |= words[b] ^ next;
        words[b] = next;
      }
    }
    pending &= changed;
  }
  return 0;
}

void Certifier::buildBase() {
  const rsn::FlatNetwork& net = *flat_;
  const std::size_t vertices = net.vertexCount();
  const graph::VertexId scanIn = net.scanIn(), scanOut = net.scanOut();
  const auto fwdOffsets = net.fwdOffsets(), bwdOffsets = net.bwdOffsets();
  const auto fwdEdges = net.fwdEdges(), bwdEdges = net.bwdEdges();
  const auto arity = net.muxArity();
  const auto selOffset = net.selOffset();
  const auto instrumentVertex = net.instrumentVertex();

  // Topological order of the full data graph (Kahn with a LIFO ready
  // stack, lowest id first — deterministic).  Following the last
  // released successor keeps every scan chain on consecutive positions,
  // which the lane passes exploit.  Any topo order of the DAG orders
  // every subgraph, so one order serves the lane passes and both
  // dominator passes.
  std::vector<std::uint32_t> indeg(vertices);
  for (std::size_t v = 0; v < vertices; ++v)
    indeg[v] = bwdOffsets[v + 1] - bwdOffsets[v];
  order_.clear();
  order_.reserve(vertices);
  std::vector<graph::VertexId> ready;
  for (std::size_t v = vertices; v-- > 0;)
    if (indeg[v] == 0) ready.push_back(static_cast<graph::VertexId>(v));
  while (!ready.empty()) {
    const graph::VertexId v = ready.back();
    ready.pop_back();
    order_.push_back(v);
    for (std::uint32_t i = fwdOffsets[v + 1]; i-- > fwdOffsets[v];) {
      const graph::VertexId u = fwdEdges[i].other;
      if (--indeg[u] == 0) ready.push_back(u);
    }
  }
  RRSN_CHECK(order_.size() == vertices, "data graph must be acyclic");
  topoIdx_.assign(vertices, 0);
  rtopoIdx_.assign(vertices, 0);
  for (std::size_t k = 0; k < vertices; ++k) {
    topoIdx_[order_[k]] = static_cast<std::uint32_t>(k);
    rtopoIdx_[order_[k]] = static_cast<std::uint32_t>(vertices - 1 - k);
  }

  // Lane CSR in position space; every guarded edge owns one guard.
  const std::size_t muxes = arity.size();
  branchBase_.assign(muxes, 0);
  std::uint32_t nextWord = 0;
  for (std::size_t m = 0; m < muxes; ++m) {
    branchBase_[m] = nextWord;
    nextWord += arity[m];
  }
  selLaneWords_ = nextWord;
  guardOffsets_.assign(1, 0);
  guardBranches_.clear();
  const auto branchPool = net.branchPool();
  const auto laneEdge = [&](const rsn::FlatNetwork::Edge& e) {
    if (e.mux == rsn::kNone) return LaneEdge{topoIdx_[e.other], 0};
    for (std::uint32_t i = e.branchBegin; i < e.branchEnd; ++i)
      guardBranches_.push_back(branchBase_[e.mux] + branchPool[i]);
    guardOffsets_.push_back(static_cast<std::uint32_t>(guardBranches_.size()));
    return LaneEdge{topoIdx_[e.other],
                    static_cast<std::uint32_t>(guardOffsets_.size() - 1)};
  };
  inOffsets_.assign(vertices + 1, 0);
  outOffsets_.assign(vertices + 1, 0);
  inEdges_.clear();
  inEdges_.reserve(bwdEdges.size());
  outEdges_.clear();
  outEdges_.reserve(fwdEdges.size());
  ctrlRegAt_.assign(vertices, 0);
  for (std::size_t k = 0; k < vertices; ++k) {
    const graph::VertexId v = order_[k];
    for (std::uint32_t i = bwdOffsets[v]; i < bwdOffsets[v + 1]; ++i)
      inEdges_.push_back(laneEdge(bwdEdges[i]));
    for (std::uint32_t i = fwdOffsets[v]; i < fwdOffsets[v + 1]; ++i)
      outEdges_.push_back(laneEdge(fwdEdges[i]));
    inOffsets_[k + 1] = static_cast<std::uint32_t>(inEdges_.size());
    outOffsets_[k + 1] = static_cast<std::uint32_t>(outEdges_.size());
    ctrlRegAt_[k] = net.ctrlRegVertex()[v];
  }
  // A position whose only in-edge (out-edge) is an unguarded one from
  // (to) its neighbour position inherits that neighbour's column word.
  chain_.assign(vertices, 0);
  for (std::size_t k = 0; k < vertices; ++k) {
    const auto linked = [&](const std::vector<std::uint32_t>& offsets,
                            const std::vector<LaneEdge>& edges,
                            std::size_t neighbour) {
      return offsets[k + 1] - offsets[k] == 1 &&
             edges[offsets[k]].other == neighbour &&
             edges[offsets[k]].guard == 0;
    };
    if (k > 0 && linked(inOffsets_, inEdges_, k - 1)) chain_[k] |= kChainFwd;
    if (k + 1 < vertices && linked(outOffsets_, outEdges_, k + 1))
      chain_[k] |= kChainBwd;
  }

  // Fault-free fixpoint as a one-lane batch: final selectable sets +
  // strict reaches.
  LaneScratch s(vertices, selLaneWords_, guardOffsets_.size(), muxes, 0);
  std::fill(s.selT.begin(), s.selT.end(), ~0ULL);
  const std::uint64_t unconverged =
      laneFixpoint(s, 1, static_cast<std::size_t>(-1));
  RRSN_CHECK(unconverged == 0, "unbudgeted fixpoint must converge");
  inStrict0_ = DynamicBitset(vertices);
  for (std::size_t k = 0; k < vertices; ++k)
    if (s.col[k] & 1) inStrict0_.set(order_[k]);
  lanePass<false>(s, 1, 0, 0, false);
  outStrict0_ = DynamicBitset(vertices);
  for (std::size_t k = 0; k < vertices; ++k)
    if (s.col[k] & 1) outStrict0_.set(order_[k]);
  sel0_.assign(net.selWordCount(), 0);
  for (std::size_t m = 0; m < muxes; ++m)
    for (std::uint32_t b = 0; b < arity[m]; ++b)
      if (s.selT[branchBase_[m] + b] & 1)
        sel0_[selOffset[m] + (b >> 6)] |= 1ULL << (b & 63);

  accessible0_ = DynamicBitset(instrumentVertex.size());
  for (std::size_t i = 0; i < instrumentVertex.size(); ++i) {
    const graph::VertexId v = instrumentVertex[i];
    if (inStrict0_.test(v) && outStrict0_.test(v)) accessible0_.set(i);
  }

  // Immediate dominators over the *open* subgraph (edges admissible
  // under the final fault-free sets, vertices in the strict reach).
  // One topo-ordered pass suffices on a DAG: every predecessor is
  // final before its successor is visited.
  idom_.assign(vertices, graph::kNoVertex);
  idom_[scanIn] = scanIn;
  for (std::size_t k = 0; k < vertices; ++k) {
    const graph::VertexId v = order_[k];
    if (v == scanIn || !inStrict0_.test(v)) continue;
    graph::VertexId cand = graph::kNoVertex;
    for (std::uint32_t i = bwdOffsets[v]; i < bwdOffsets[v + 1]; ++i) {
      const rsn::FlatNetwork::Edge& e = bwdEdges[i];
      const graph::VertexId u = e.other;
      if (!inStrict0_.test(u) || idom_[u] == graph::kNoVertex) continue;
      if (!net.edgeOpen(e, sel0_.data())) continue;
      cand = cand == graph::kNoVertex ? u : intersect(cand, u, idom_, topoIdx_);
    }
    idom_[v] = cand;
  }

  // Immediate post-dominators: the same pass on the transposed open
  // subgraph, rooted at scan-out, in reverse topological order.
  ipdom_.assign(vertices, graph::kNoVertex);
  ipdom_[scanOut] = scanOut;
  for (std::size_t k = vertices; k-- > 0;) {
    const graph::VertexId v = order_[k];
    if (v == scanOut || !outStrict0_.test(v)) continue;
    graph::VertexId cand = graph::kNoVertex;
    for (std::uint32_t i = fwdOffsets[v]; i < fwdOffsets[v + 1]; ++i) {
      const rsn::FlatNetwork::Edge& e = fwdEdges[i];
      const graph::VertexId u = e.other;
      if (!outStrict0_.test(u) || ipdom_[u] == graph::kNoVertex) continue;
      if (!net.edgeOpen(e, sel0_.data())) continue;
      cand =
          cand == graph::kNoVertex ? u : intersect(cand, u, ipdom_, rtopoIdx_);
    }
    ipdom_[v] = cand;
  }

  domIntervals(idom_, scanIn, domTin_, domTout_);
  domIntervals(ipdom_, scanOut, pdomTin_, pdomTout_);

  // Control-critical set: every vertex that dominates some reachable
  // control register.  A break off this set provably leaves the control
  // fixpoint at the fault-free solution (the severed vertex cuts no
  // register's last scan-in path).  Chains share suffixes, so each walk
  // stops at the first already-marked vertex.
  ctrlCritical_ = DynamicBitset(vertices);
  for (const std::uint32_t m : net.ctrlMuxes()) {
    graph::VertexId v = net.muxCtrlVertex()[m];
    if (!inStrict0_.test(v)) continue;
    while (!ctrlCritical_.test(v)) {
      ctrlCritical_.set(v);
      if (v == scanIn) break;
      v = idom_[v];
    }
  }

  // Stuck-safety masks: branch b of mux m is safe iff pinning the mux
  // to {b} flips no guard decision taken under the fault-free final
  // sets — then the per-fault fixpoint provably converges to the same
  // solution and the whole row equals the fault-free row.
  stuckSafe_.assign(net.selWordCount(), 0);
  std::size_t maxWords = 0;
  for (std::size_t m = 0; m < muxes; ++m) {
    const std::uint32_t off = selOffset[m];
    const std::size_t branches = arity[m];
    const std::size_t words = (branches + 63) / 64;
    maxWords = std::max(maxWords, words);
    for (std::size_t w = 0; w < words; ++w) {
      const bool tail = w == words - 1 && branches % 64 != 0;
      stuckSafe_[off + w] = tail ? (1ULL << (branches % 64)) - 1 : ~0ULL;
    }
  }
  std::vector<std::uint64_t> poolWords(maxWords);
  for (const rsn::FlatNetwork::Edge& e : fwdEdges) {
    if (e.mux == rsn::kNone) continue;
    const std::uint32_t off = selOffset[e.mux];
    const std::size_t words =
        (static_cast<std::size_t>(arity[e.mux]) + 63) / 64;
    std::fill(poolWords.begin(),
              poolWords.begin() + static_cast<std::ptrdiff_t>(words), 0);
    for (std::uint32_t i = e.branchBegin; i < e.branchEnd; ++i) {
      const std::uint32_t b = branchPool[i];
      poolWords[b >> 6] |= 1ULL << (b & 63);
    }
    const bool open0 = net.edgeOpen(e, sel0_.data());
    for (std::size_t w = 0; w < words; ++w)
      stuckSafe_[off + w] &= open0 ? poolWords[w] : ~poolWords[w];
  }
}

bool Certifier::domAncestor(graph::VertexId a, graph::VertexId v) const {
  return domTin_[a] != 0 && domTin_[v] != 0 && domTin_[a] <= domTin_[v] &&
         domTout_[v] <= domTout_[a];
}

bool Certifier::pdomAncestor(graph::VertexId a, graph::VertexId v) const {
  return pdomTin_[a] != 0 && pdomTin_[v] != 0 && pdomTin_[a] <= pdomTin_[v] &&
         pdomTout_[v] <= pdomTout_[a];
}

bool Certifier::tryFastRow(const fault::Fault& f,
                           std::uint16_t* rowCells) const {
  const auto instrumentVertex = flat_->instrumentVertex();
  const std::size_t instruments = instrumentVertex.size();
  if (f.kind == fault::FaultKind::SegmentBreak) {
    const rsn::SegmentId seg = f.prim;
    const graph::VertexId v = flat_->segmentVertex()[seg];
    // A broken control register poisons its mux's address whenever the
    // region is walked (the clean-suffix carve-out), and a break that
    // dominates a reachable control register can shrink the fixpoint —
    // both need the lane tier.
    if (flat_->segmentControlsMux(seg)) return false;
    if (ctrlCritical_.test(v)) return false;
    for (std::size_t i = 0; i < instruments; ++i) {
      const graph::VertexId u = instrumentVertex[i];
      if (u == v || !accessible0_.test(i)) continue;
      if (domAncestor(v, u) || pdomAncestor(v, u)) return false;
    }
    // Sound now: the fixpoint stays at the fault-free solution and no
    // accessible instrument loses its strict path, so the oracle row
    // equals the fault-free row (breaks only ever shrink reaches).
    for (std::size_t i = 0; i < instruments; ++i) {
      const graph::VertexId u = instrumentVertex[i];
      if (u == v)
        rowCells[i] = packCell(Verdict::Vulnerable, WitnessKind::SelfFault,
                               Verdict::Vulnerable, WitnessKind::SelfFault);
      else if (accessible0_.test(i))
        rowCells[i] = packCell(Verdict::Proven, WitnessKind::NonCut,
                               Verdict::Proven, WitnessKind::NonCut);
      else
        rowCells[i] =
            packCell(Verdict::Vulnerable, WitnessKind::Unreachable,
                     Verdict::Vulnerable, WitnessKind::Unreachable);
    }
    return true;
  }

  // MuxStuck: safe iff the pinned branch leaves every guard decision of
  // this mux unchanged — the row equals the fault-free row.  (The
  // converse is *not* monotone: an unsafe stuck branch can also expand
  // accessibility, because the stuck mux is exempt from the fixpoint's
  // reset pinning; those rows go to the lane tier.)
  const std::uint32_t off = flat_->selOffset()[f.prim];
  const std::uint32_t b = f.stuckBranch;
  if (((stuckSafe_[off + (b >> 6)] >> (b & 63)) & 1) == 0) return false;
  for (std::size_t i = 0; i < instruments; ++i) {
    if (accessible0_.test(i))
      rowCells[i] = packCell(Verdict::Proven, WitnessKind::StuckBenign,
                             Verdict::Proven, WitnessKind::StuckBenign);
    else
      rowCells[i] = packCell(Verdict::Vulnerable, WitnessKind::Unreachable,
                             Verdict::Vulnerable, WitnessKind::Unreachable);
  }
  return true;
}

std::uint64_t Certifier::decideBatch(LaneScratch& s, std::size_t budget,
                                     CertificationResult& result) const {
  // The lane tier replays the syndrome oracle's exact access-mode
  // composition (see diag/batched.cpp for the physics derivation) for
  // every lane at once: strict, then — for breaks at non-control
  // segments — clean-suffix, then — for every break — depth-bounded,
  // OR-ing per-instrument lanes and recording the first mode that
  // proved each direction.  Lanes only ever meet in bitwise ops, so a
  // row never depends on its batch-mates.
  const rsn::FlatNetwork& net = *flat_;
  const auto instrumentVertex = net.instrumentVertex();
  const auto segmentVertex = net.segmentVertex();
  const auto ctrlMuxes = net.ctrlMuxes();
  const auto arity = net.muxArity();
  const std::size_t instruments = instrumentVertex.size();
  const std::uint64_t all =
      s.lanes == kLanes ? ~0ULL : (1ULL << s.lanes) - 1;
  const auto pos = [&](std::size_t i) { return topoIdx_[instrumentVertex[i]]; };

  // Base selectable sets (a stuck lane keeps only its stuck branch),
  // stuck exemptions, and the broken positions.
  std::fill(s.selT.begin(), s.selT.end(), ~0ULL);
  std::fill(s.exempt.begin(), s.exempt.end(), 0);
  std::fill(s.self.begin(), s.self.end(), 0);
  s.breaks.clear();
  std::uint64_t breakLanes = 0, suffixLanes = 0;
  for (std::size_t k = 0; k < s.lanes; ++k) {
    const fault::Fault& f = *s.faults[k];
    const std::uint64_t bit = 1ULL << k;
    if (f.kind == fault::FaultKind::SegmentBreak) {
      const graph::VertexId v = segmentVertex[f.prim];
      breakLanes |= bit;
      if (!net.segmentControlsMux(f.prim)) suffixLanes |= bit;
      s.brokenPos[k] = topoIdx_[v];
      s.breaks.emplace_back(topoIdx_[v], bit);
      for (std::size_t i = 0; i < instruments; ++i)
        if (instrumentVertex[i] == v) s.self[i] |= bit;
    } else {
      s.exempt[f.prim] |= bit;
      std::uint64_t* words = s.selT.data() + branchBase_[f.prim];
      for (std::uint32_t b = 0; b < arity[f.prim]; ++b)
        if (b != f.stuckBranch) words[b] &= ~bit;
    }
  }
  std::sort(s.breaks.begin(), s.breaks.end());
  std::size_t distinct = 0;
  for (const auto& [at, lanes] : s.breaks) {
    if (distinct > 0 && s.breaks[distinct - 1].first == at)
      s.breaks[distinct - 1].second |= lanes;
    else
      s.breaks[distinct++] = {at, lanes};
  }
  s.breaks.resize(distinct);
  // Lanes of `lanes` whose own broken position the last pass reached.
  const auto reachedBreak = [&](std::uint64_t lanes) {
    std::uint64_t hit = 0;
    for (; lanes != 0; lanes &= lanes - 1) {
      const int k = std::countr_zero(lanes);
      hit |= s.col[s.brokenPos[static_cast<std::size_t>(k)]] & (1ULL << k);
    }
    return hit;
  };

  // Strict mode under the control fixpoint.
  std::uint64_t unknown = laneFixpoint(s, all, budget);
  const std::uint64_t live = all & ~unknown;

  // Property (3) witness: the first control mux that lost selectable
  // branches relative to the fault-free solution.  (Recorded before the
  // depth-bounded stage shrinks the sets for its own reason.)  A stuck
  // mux's own pinning is the fault, not a collapse.
  s.collapsedMux.fill(rsn::kNone);
  std::uint64_t searching = live;
  for (const std::uint32_t m : ctrlMuxes) {
    if (searching == 0) break;
    const std::uint64_t* words = s.selT.data() + branchBase_[m];
    std::uint64_t lost = 0;
    for (std::uint32_t b = 0; b < arity[m]; ++b)
      if (net.selectableBit(sel0_.data(), m, b)) lost |= ~words[b];
    lost &= searching & ~s.exempt[m];
    searching &= ~lost;
    for (; lost != 0; lost &= lost - 1)
      s.collapsedMux[static_cast<std::size_t>(std::countr_zero(lost))] = m;
  }

  for (std::size_t i = 0; i < instruments; ++i) s.inStrict[i] = s.col[pos(i)];
  lanePass<false>(s, live, 0, live, false);
  for (std::size_t i = 0; i < instruments; ++i)
    s.strict[i] = s.inStrict[i] & s.col[pos(i)] & live & ~s.self[i];

  // Clean-suffix mode (breaks at non-control segments).  Mux-stuck rows
  // have no broken vertex: strict mode is their whole story.
  std::fill(s.obsClean.begin(), s.obsClean.end(), 0);
  std::fill(s.setClean.begin(), s.setClean.end(), 0);
  const std::uint64_t suffixLive = suffixLanes & live;
  if (suffixLive != 0) {
    lanePass<true>(s, suffixLive, 0, 0, false);  // tolerant inRead
    const std::uint64_t readPrefixOk = reachedBreak(suffixLive);
    lanePass<false>(s, suffixLive, 0, 0, true);  // cleanToOut
    const std::uint64_t writeSuffixOk = reachedBreak(suffixLive);
    for (std::size_t i = 0; i < instruments; ++i)
      s.cleanToOut[i] = s.col[pos(i)];
    if (writeSuffixOk != 0) {
      lanePass<false>(s, 0, writeSuffixOk, 0, false);  // bwd from the break
      for (std::size_t i = 0; i < instruments; ++i)
        s.setClean[i] =
            writeSuffixOk & s.inStrict[i] & s.col[pos(i)] & ~s.self[i];
    }
    if (readPrefixOk != 0) {
      lanePass<true>(s, 0, readPrefixOk, 0, true);  // clean from the break
      for (std::size_t i = 0; i < instruments; ++i)
        s.obsClean[i] =
            readPrefixOk & s.col[pos(i)] & s.cleanToOut[i] & ~s.self[i];
    }
  }

  // Depth-bounded mode (every break): keep only the demands configured
  // before the broken segment first joins the path, then re-run the
  // fixpoint on the shrunk sets.
  std::fill(s.obsDepth.begin(), s.obsDepth.end(), 0);
  std::fill(s.setDepth.begin(), s.setDepth.end(), 0);
  const std::uint64_t breakLive = breakLanes & live;
  if (breakLive != 0) {
    const auto demandDepth = net.demandDepth();
    const auto segDepth = net.segDepth();
    for (const std::uint32_t m : ctrlMuxes) {
      std::uint64_t clear = 0;
      for (std::uint64_t lanes = breakLive; lanes != 0; lanes &= lanes - 1) {
        const auto k = static_cast<std::size_t>(std::countr_zero(lanes));
        if (demandDepth[m] > segDepth[s.faults[k]->prim]) clear |= 1ULL << k;
      }
      std::uint64_t* words = s.selT.data() + branchBase_[m];
      for (std::uint32_t b = 1; b < arity[m] && clear != 0; ++b)
        words[b] &= ~clear;
    }
    const std::uint64_t exhausted = laneFixpoint(s, breakLive, budget);
    unknown |= exhausted;
    const std::uint64_t depthLive = breakLive & ~exhausted;
    if (depthLive != 0) {
      for (std::size_t i = 0; i < instruments; ++i)
        s.inStrict[i] = s.col[pos(i)];
      lanePass<false>(s, depthLive, 0, depthLive, false);
      for (std::size_t i = 0; i < instruments; ++i)
        s.outStrict[i] = s.col[pos(i)];
      lanePass<true>(s, depthLive, 0, 0, false);  // tolerant inRead
      for (std::size_t i = 0; i < instruments; ++i)
        s.obsDepth[i] = depthLive & s.col[pos(i)] & s.outStrict[i] & ~s.self[i];
      lanePass<false>(s, depthLive, 0, 0, false);  // tolerant outWrite
      for (std::size_t i = 0; i < instruments; ++i)
        s.setDepth[i] = depthLive & s.inStrict[i] & s.col[pos(i)] & ~s.self[i];
    }
  }

  for (std::size_t k = 0; k < s.lanes; ++k) {
    const std::uint64_t bit = 1ULL << k;
    const std::size_t fi = s.rows[k];
    std::uint16_t* row = result.cells.data() + fi * instruments;
    if ((unknown & bit) != 0) {
      std::fill(row, row + instruments, kUnknownCell);
      continue;
    }
    result.collapsedMux[fi] = s.collapsedMux[k];
    const fault::Fault& f = *s.faults[k];
    const graph::VertexId brokenV = f.kind == fault::FaultKind::SegmentBreak
                                        ? segmentVertex[f.prim]
                                        : graph::kNoVertex;
    for (std::size_t i = 0; i < instruments; ++i) {
      const graph::VertexId u = instrumentVertex[i];
      const auto vuln = [&]() -> WitnessKind {
        if (u == brokenV) return WitnessKind::SelfFault;
        if (!accessible0_.test(i)) return WitnessKind::Unreachable;
        if (brokenV != graph::kNoVertex &&
            (domAncestor(brokenV, u) || pdomAncestor(brokenV, u)))
          return WitnessKind::DominatorCut;
        if (s.collapsedMux[k] != rsn::kNone)
          return WitnessKind::ControlCollapse;
        return WitnessKind::GuardCut;
      };
      const auto decide = [&](std::uint64_t clean, std::uint64_t depth,
                              Verdict& v, WitnessKind& kind) {
        v = Verdict::Proven;
        if ((s.strict[i] & bit) != 0)
          kind = WitnessKind::PathStrict;
        else if ((clean & bit) != 0)
          kind = WitnessKind::PathCleanSuffix;
        else if ((depth & bit) != 0)
          kind = WitnessKind::PathDepthBounded;
        else {
          v = Verdict::Vulnerable;
          kind = vuln();
        }
      };
      Verdict rv, wv;
      WitnessKind rk, wk;
      decide(s.obsClean[i], s.obsDepth[i], rv, rk);
      decide(s.setClean[i], s.setDepth[i], wv, wk);
      row[i] = packCell(rv, rk, wv, wk);
    }
  }
  return unknown;
}

CertificationResult Certifier::run(const CertifyOptions& options) const {
  RRSN_OBS_SPAN("verify.certify");
  obs::count(kCertifyCalls);

  const rsn::FlatNetwork& flat = *flat_;
  const std::size_t segments = flat.segmentCount();
  const std::size_t muxes = flat.muxCount();
  const std::size_t instruments = flat.instrumentCount();
  if (!options.excludePrimitives.empty()) {
    RRSN_CHECK(options.excludePrimitives.size() == segments + muxes,
               "excludePrimitives must be sized segments + muxes");
  }
  if (options.crossCheck) {
    RRSN_CHECK(options.crossCheckSampleEvery > 0,
               "crossCheckSampleEvery must be positive");
  }
  const auto excluded = [&](std::size_t linear) {
    return !options.excludePrimitives.empty() &&
           options.excludePrimitives.test(linear);
  };

  CertificationResult result;
  result.instruments = instruments;
  result.reachable = accessible0_;
  result.instrumentSegment.assign(flat.instrumentSegment().begin(),
                                  flat.instrumentSegment().end());
  for (std::size_t s = 0; s < segments; ++s)
    if (!excluded(s))
      result.universe.push_back(
          fault::Fault::segmentBreak(static_cast<rsn::SegmentId>(s)));
  for (std::size_t m = 0; m < muxes; ++m) {
    if (excluded(segments + m)) continue;
    for (std::uint32_t b = 0; b < flat.muxArity()[m]; ++b)
      result.universe.push_back(
          fault::Fault::muxStuck(static_cast<rsn::MuxId>(m), b));
  }
  const std::size_t faults = result.universe.size();
  result.cells.assign(faults * instruments, 0);
  result.collapsedMux.assign(faults, rsn::kNone);
  obs::sample(kUniverseFaults, faults);

  std::unique_ptr<diag::BatchedSyndromeEngine> oracle;
  if (options.crossCheck)
    oracle = std::make_unique<diag::BatchedSyndromeEngine>(flat_);

  // Per-worker lane scratch, allocated by the worker's first batch.
  std::vector<std::unique_ptr<LaneScratch>> scratch(threadCount());

  std::atomic<std::size_t> fastRows{0}, laneRows{0}, checkedRows{0};
  std::atomic<std::size_t> laneBatches{0}, lanePasses{0}, unknownCells{0};
  std::mutex divergenceMu;
  std::vector<std::string> divergences;

  const auto crossCheckRow = [&](std::size_t fi, std::size_t worker) {
    const std::uint16_t* row = result.cells.data() + fi * instruments;
    bool hasVulnerable = false;
    for (std::size_t i = 0; i < instruments && !hasVulnerable; ++i)
      hasVulnerable = (row[i] & 3u) == 1u || ((row[i] >> 2) & 3u) == 1u;
    if (!hasVulnerable && fi % options.crossCheckSampleEvery != 0) return;
    checkedRows.fetch_add(1, std::memory_order_relaxed);
    const diag::Syndrome expect = oracle->row(&result.universe[fi], worker);
    for (std::size_t i = 0; i < instruments; ++i) {
      const bool provenRead = (row[i] & 3u) == 0u;
      const bool provenWrite = ((row[i] >> 2) & 3u) == 0u;
      const bool oracleRead = expect.passed.test(2 * i);
      const bool oracleWrite = expect.passed.test(2 * i + 1);
      if (provenRead == oracleRead && provenWrite == oracleWrite) continue;
      std::string msg =
          "fault #" + std::to_string(fi) + " instrument #" +
          std::to_string(i) + ": certifier " +
          std::string(1, toChar(static_cast<Verdict>(row[i] & 3u))) +
          std::string(1, toChar(static_cast<Verdict>((row[i] >> 2) & 3u))) +
          " vs oracle " + (oracleRead ? "A" : "L") + (oracleWrite ? "A" : "L");
      const std::lock_guard<std::mutex> lock(divergenceMu);
      divergences.push_back(std::move(msg));
    }
  };

  // One batch per fixed 64-row window of the universe: the fast tier
  // takes what it can, the rest fill the lanes.
  parallelForChunks(
      (faults + kLanes - 1) / kLanes,
      [&](std::size_t begin, std::size_t end, std::size_t worker) {
        std::unique_ptr<LaneScratch>& sp = scratch[worker];
        if (sp == nullptr)
          sp = std::make_unique<LaneScratch>(
              order_.size(), selLaneWords_, guardOffsets_.size(),
              muxes, instruments);
        LaneScratch& s = *sp;
        for (std::size_t batch = begin; batch < end; ++batch) {
          const std::size_t first = batch * kLanes;
          const std::size_t last = std::min(first + kLanes, faults);
          s.lanes = 0;
          for (std::size_t fi = first; fi < last; ++fi) {
            const fault::Fault& f = result.universe[fi];
            if (tryFastRow(f, result.cells.data() + fi * instruments)) continue;
            s.rows[s.lanes] = fi;
            s.faults[s.lanes] = &f;
            ++s.lanes;
          }
          fastRows.fetch_add(last - first - s.lanes, std::memory_order_relaxed);
          std::uint64_t unknown = 0;
          if (s.lanes != 0) {
            s.passes = 0;
            unknown = decideBatch(s, options.fixpointBudget, result);
            laneRows.fetch_add(s.lanes, std::memory_order_relaxed);
            laneBatches.fetch_add(1, std::memory_order_relaxed);
            lanePasses.fetch_add(s.passes, std::memory_order_relaxed);
            unknownCells.fetch_add(
                2 * instruments *
                    static_cast<std::size_t>(std::popcount(unknown)),
                std::memory_order_relaxed);
          }
          if (oracle == nullptr) continue;
          std::size_t lane = 0;  // next lane row of the window
          for (std::size_t fi = first; fi < last; ++fi) {
            bool unknownRow = false;  // carries no claim to replay
            if (lane < s.lanes && s.rows[lane] == fi)
              unknownRow = ((unknown >> lane++) & 1) != 0;
            if (!unknownRow) crossCheckRow(fi, worker);
          }
        }
      },
      /*grain=*/1);

  if (!divergences.empty()) {
    std::sort(divergences.begin(), divergences.end());
    std::string what = "certifier cross-check diverged from the syndrome "
                       "oracle on " +
                       std::to_string(divergences.size()) + " verdict(s):";
    const std::size_t shown = std::min<std::size_t>(divergences.size(), 8);
    for (std::size_t i = 0; i < shown; ++i) what += "\n  " + divergences[i];
    throw Error(what);
  }

  result.fastRowCount = fastRows.load();
  result.fixpointRowCount = laneRows.load();
  result.laneBatchCount = laneBatches.load();
  result.lanePassCount = lanePasses.load();
  result.crossCheckedRowCount = checkedRows.load();
  obs::count(kRowsFast, result.fastRowCount);
  obs::count(kRowsFixpoint, result.fixpointRowCount);
  obs::count(kLaneBatches, result.laneBatchCount);
  obs::count(kLanePasses, result.lanePassCount);
  obs::count(kRowsCrossChecked, result.crossCheckedRowCount);
  if (const std::size_t u = unknownCells.load()) obs::count(kCellsUnknown, u);
  return result;
}

CertificationResult Certifier::runExact(
    DynamicBitset excludePrimitives) const {
  CertifyOptions options;
  options.excludePrimitives = std::move(excludePrimitives);
  options.crossCheck = crossCheckDefault();
  // Every non-final fixpoint iteration clears at least one selectable
  // branch, so the total branch count + 1 cannot run out.
  const auto arity = flat_->muxArity();
  options.fixpointBudget =
      std::accumulate(arity.begin(), arity.end(), std::size_t{1});
  CertificationResult result = run(options);
  if (const std::size_t unknown = result.summary().unknownCells()) {
    obs::raiseIfError(Status::internal(
        "exact certification left " + std::to_string(unknown) +
        " Unknown cell(s) under an unexhaustible fixpoint budget"));
  }
  return result;
}

}  // namespace rrsn::verify
