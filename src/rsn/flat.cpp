#include "rsn/flat.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>

#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"

namespace rrsn::rsn {

namespace {

// ------------------------------------------------------------- layout
//
// [Header][SectionDesc x kSectionCount][sections, each 64-byte aligned]
//
// The header and the section table are fixed-size trivially copyable
// structs with explicit field order; every multi-byte value is stored in
// native (little-endian on all supported targets) order.  Section
// payloads follow in SectionId order.  The fingerprint covers the
// section ids, sizes and payload bytes — not the header — so it is
// stable under header-only concerns and catches any payload corruption.

struct Header {
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t sectionCount = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t byteSize = 0;
  std::uint64_t segments = 0;
  std::uint64_t muxes = 0;
  std::uint64_t instruments = 0;
  std::uint64_t vertices = 0;
  std::uint64_t dataEdges = 0;    ///< fwd CSR entries (== bwd entries)
  std::uint64_t branchPool = 0;
  std::uint64_t guardPool = 0;
  std::uint64_t selWords = 0;
  std::uint64_t ctrlMuxes = 0;
  std::uint64_t ctrlEdges = 0;
  std::uint64_t branchExits = 0;
  std::uint32_t scanIn = 0;
  std::uint32_t scanOut = 0;
};
static_assert(sizeof(Header) == 128, "serialized header layout changed");
static_assert(std::is_trivially_copyable_v<Header>);

struct SectionDesc {
  std::uint32_t id = 0;
  std::uint32_t elemSize = 0;
  std::uint64_t offset = 0;     ///< from the arena base; 64-byte aligned
  std::uint64_t byteCount = 0;  ///< elemSize * element count, unpadded
};
static_assert(sizeof(SectionDesc) == 24, "serialized section desc changed");
static_assert(std::is_trivially_copyable_v<SectionDesc>);

enum SectionId : std::uint32_t {
  kSegLength = 0,
  kSegInstrument,
  kSegFlags,
  kSegVertex,
  kSegDepth,
  kGuardOffsets,
  kGuardPool,
  kMuxControl,
  kMuxCtrlVertex,
  kMuxArity,
  kMuxVertex,
  kDemandDepth,
  kSelOffset,
  kMuxBranchOffsets,
  kMuxBranchExit,
  kCtrlMuxes,
  kRepresentableWords,
  kCtrlOffsets,
  kCtrlEdges,
  kInstSegment,
  kInstVertex,
  kInstObsWeight,
  kInstSetWeight,
  kFwdOffsets,
  kFwdEdges,
  kBwdOffsets,
  kBwdEdges,
  kBranchPool,
  kCtrlRegVertex,
  kMuxOfVertex,
  kSectionCount,
};

constexpr std::uint64_t kSectionAlign = 64;

std::uint64_t alignUp(std::uint64_t v) {
  return (v + kSectionAlign - 1) & ~(kSectionAlign - 1);
}

/// Payload of one section about to be packed.
struct Pending {
  std::uint32_t elemSize = 0;
  const void* data = nullptr;
  std::uint64_t byteCount = 0;
};

template <typename T>
Pending pend(const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  return {static_cast<std::uint32_t>(sizeof(T)), v.data(),
          static_cast<std::uint64_t>(v.size() * sizeof(T))};
}

/// Trailing-word mask that keeps bits [0, arity % 64) — all-ones when
/// the arity fills the word.
std::uint64_t tailMask(std::uint32_t arity, std::size_t word) {
  const std::size_t hi = (static_cast<std::size_t>(arity) + 63) / 64 - 1;
  if (word < hi || arity % 64 == 0) return ~0ULL;
  return (1ULL << (arity % 64)) - 1;
}

const Header& headerOf(const std::uint8_t* base) {
  return *reinterpret_cast<const Header*>(base);
}

/// Fingerprint of the section payloads: id, byte count and bytes of
/// every section in id order (so a boundary shift cannot cancel out).
std::uint64_t fingerprintSections(const std::uint8_t* base,
                                  const SectionDesc* table,
                                  std::uint32_t count) {
  std::uint64_t h = hash::kFnvOffset;
  for (std::uint32_t i = 0; i < count; ++i) {
    hash::fnvMix(h, std::uint64_t{table[i].id});
    hash::fnvMix(h, table[i].byteCount);
    const std::uint8_t* bytes = base + table[i].offset;
    for (std::uint64_t b = 0; b < table[i].byteCount; ++b) {
      h ^= bytes[b];
      h *= hash::kFnvPrime;
    }
  }
  return h;
}

}  // namespace

std::shared_ptr<const FlatNetwork> FlatNetwork::lower(
    const Network& net, const CriticalitySpec* spec) {
  static const obs::MetricId kFlattenCalls =
      obs::counter("flat.flatten_calls");
  obs::count(kFlattenCalls);
  RRSN_OBS_SPAN("flat.lower");

  const std::size_t segCount = net.segments().size();
  const std::size_t muxCount = net.muxes().size();
  const std::size_t instCount = net.instruments().size();

  // ------------------------------------------------- one structure walk
  // Vertex numbering (Sec. III, Fig. 2): SI = 0, segment s = 1 + s, then
  // one (mux, entry fan-out) pair per mux, SO last.  The walk emits the
  // data edges in wiring order and records every segment's guard set.
  const auto segVertex = [](std::size_t s) {
    return static_cast<graph::VertexId>(1 + s);
  };
  const auto muxVertexOf = [segCount](std::size_t m) {
    return static_cast<graph::VertexId>(1 + segCount + 2 * m);
  };
  const graph::VertexId scanIn = 0;
  const graph::VertexId scanOut = muxVertexOf(muxCount);
  const std::size_t vertices = std::size_t{scanOut} + 1;

  using GuardSet = std::vector<GuardRef>;
  std::vector<GuardSet> guardsOf(segCount);
  std::vector<std::pair<graph::VertexId, graph::VertexId>> dataEdges;
  GuardSet cur;
  // Wires the node entered from `in`; returns its exit vertex.
  const auto walk = [&](auto&& self, NodeId id,
                        graph::VertexId in) -> graph::VertexId {
    const auto& n = net.structure().node(id);
    switch (n.kind) {
      case NodeKind::Wire:
        return in;
      case NodeKind::Segment:
        guardsOf[n.prim] = cur;
        dataEdges.emplace_back(in, segVertex(n.prim));
        return segVertex(n.prim);
      case NodeKind::Serial:
        for (const NodeId c : n.children) in = self(self, c, in);
        return in;
      case NodeKind::MuxJoin: {
        const graph::VertexId mx = muxVertexOf(n.prim);
        const graph::VertexId fanout = mx + 1;
        const bool segCtrl = net.mux(n.prim).controlSegment != kNone;
        dataEdges.emplace_back(in, fanout);
        for (std::size_t b = 0; b < n.children.size(); ++b) {
          const bool guarded = segCtrl && b != 0;
          if (guarded)
            cur.push_back({n.prim, static_cast<std::uint32_t>(b)});
          dataEdges.emplace_back(self(self, n.children[b], fanout), mx);
          if (guarded) cur.pop_back();
        }
        return mx;
      }
    }
    throw Error("unreachable structure node kind");
  };
  dataEdges.emplace_back(walk(walk, net.structure().root(), scanIn), scanOut);

  // Forward and transposed rows, each a stable bucketing of the edge
  // list: a vertex's neighbours keep wiring order.
  std::vector<std::uint32_t> fwdOffsets(vertices + 1, 0);
  std::vector<std::uint32_t> bwdOffsets(vertices + 1, 0);
  for (const auto& [from, to] : dataEdges) {
    ++fwdOffsets[from + 1];
    ++bwdOffsets[to + 1];
  }
  for (std::size_t v = 0; v < vertices; ++v) {
    fwdOffsets[v + 1] += fwdOffsets[v];
    bwdOffsets[v + 1] += bwdOffsets[v];
  }
  std::vector<Edge> fwdEdges(dataEdges.size());
  std::vector<Edge> bwdEdges(dataEdges.size());
  {
    std::vector<std::uint32_t> fwdAt(fwdOffsets.begin(), fwdOffsets.end() - 1);
    std::vector<std::uint32_t> bwdAt(bwdOffsets.begin(), bwdOffsets.end() - 1);
    for (const auto& [from, to] : dataEdges) {
      fwdEdges[fwdAt[from]++].other = to;
      bwdEdges[bwdAt[to]++].other = from;
    }
  }

  // ------------------------------------------------- per-segment arrays
  std::vector<std::uint32_t> segLength(segCount, 0);
  std::vector<std::uint32_t> segInstrument(segCount, kNone);
  std::vector<std::uint8_t> segFlags(segCount, 0);
  std::vector<graph::VertexId> segmentVertex(segCount);
  for (std::size_t s = 0; s < segCount; ++s) {
    const Segment& seg = net.segments()[s];
    segLength[s] = seg.length;
    segInstrument[s] = seg.instrument;
    segmentVertex[s] = segVertex(s);
    if (seg.isSibRegister) segFlags[s] |= kSegFlagSib;
  }

  std::vector<std::uint32_t> instSegment(instCount, kNone);
  std::vector<graph::VertexId> instVertex(instCount, graph::kNoVertex);
  std::vector<std::uint64_t> instObs(instCount, 0);
  std::vector<std::uint64_t> instSet(instCount, 0);
  for (std::size_t i = 0; i < instCount; ++i) {
    instSegment[i] = net.instruments()[i].segment;
    instVertex[i] = segVertex(instSegment[i]);
    if (spec != nullptr) {
      const DamageWeights& w = spec->of(static_cast<InstrumentId>(i));
      instObs[i] = w.obs;
      instSet[i] = w.set;
    }
  }

  // ---------------------------------------------- per-mux control data
  // Only branch exits enter a mux vertex, in branch order, so a mux's
  // transposed row is its branch-exit list.
  std::vector<graph::VertexId> muxVertex(muxCount);
  std::vector<std::uint32_t> muxOfVertex(vertices, kNone);
  std::vector<std::uint32_t> muxBranchOffsets(muxCount + 1, 0);
  std::vector<graph::VertexId> muxBranchExit;
  muxBranchExit.reserve(dataEdges.size());
  for (std::size_t m = 0; m < muxCount; ++m) {
    const graph::VertexId mx = muxVertexOf(m);
    muxVertex[m] = mx;
    muxOfVertex[mx] = static_cast<std::uint32_t>(m);
    for (std::uint32_t e = bwdOffsets[mx]; e < bwdOffsets[mx + 1]; ++e)
      muxBranchExit.push_back(bwdEdges[e].other);
    muxBranchOffsets[m + 1] = static_cast<std::uint32_t>(muxBranchExit.size());
  }

  std::vector<std::uint32_t> muxControl(muxCount, kNone);
  std::vector<graph::VertexId> muxCtrlVertex(muxCount, graph::kNoVertex);
  std::vector<std::uint32_t> muxArity(muxCount, 0);
  std::vector<std::uint32_t> selOffset(muxCount, 0);
  std::vector<std::uint32_t> ctrlMuxes;
  std::vector<std::uint8_t> ctrlRegVertex(vertices, 0);
  std::size_t selWords = 0;
  for (std::size_t m = 0; m < muxCount; ++m) {
    const std::uint32_t arity = muxBranchOffsets[m + 1] - muxBranchOffsets[m];
    muxArity[m] = arity;
    selOffset[m] = static_cast<std::uint32_t>(selWords);
    selWords += (static_cast<std::size_t>(arity) + 63) / 64;
    const SegmentId ctrl = net.muxes()[m].controlSegment;
    muxControl[m] = ctrl;
    if (ctrl == kNone) continue;
    muxCtrlVertex[m] = segVertex(ctrl);
    ctrlRegVertex[segVertex(ctrl)] = 1;
    ctrlMuxes.push_back(static_cast<std::uint32_t>(m));
    segFlags[ctrl] |= kSegFlagControlsMux;
  }

  std::vector<std::uint64_t> representableWords(selWords, 0);
  for (std::size_t m = 0; m < muxCount; ++m) {
    const std::uint32_t arity = muxArity[m];
    const std::size_t words = (static_cast<std::size_t>(arity) + 63) / 64;
    const SegmentId ctrl = muxControl[m];
    if (ctrl == kNone || segLength[ctrl] >= 32) {
      for (std::size_t w = 0; w < words; ++w)
        representableWords[selOffset[m] + w] = tailMask(arity, w);
      continue;
    }
    const std::uint64_t len = segLength[ctrl];
    for (std::uint32_t b = 0; b < arity; ++b) {
      if (b != 0 && b >= (std::uint64_t{1} << len)) continue;
      representableWords[selOffset[m] + (b >> 6)] |= 1ULL << (b & 63);
    }
  }

  // Control-dependency CSR: segment s -> the muxes it addresses, in mux
  // order (one mux has one control segment, so rows never overlap).
  std::vector<std::uint32_t> ctrlOffsets(segCount + 1, 0);
  for (const std::uint32_t m : ctrlMuxes) ctrlOffsets[muxControl[m] + 1] += 1;
  for (std::size_t s = 0; s < segCount; ++s)
    ctrlOffsets[s + 1] += ctrlOffsets[s];
  std::vector<std::uint32_t> ctrlEdges(ctrlMuxes.size(), 0);
  {
    std::vector<std::uint32_t> cursor(ctrlOffsets.begin(),
                                      ctrlOffsets.end() - 1);
    for (const std::uint32_t m : ctrlMuxes)
      ctrlEdges[cursor[muxControl[m]]++] = m;
  }

  // --------------------------------------------------- guarded CSR
  // Branch span of the original edge exit -> mux(m): every branch of m
  // whose exit vertex is `exit` (parallel edges share the full span).
  std::vector<std::uint32_t> branchPool;
  const auto annotate = [&](Edge& e, std::uint32_t m, graph::VertexId exit) {
    e.mux = m;
    if (m == kNone) return;
    e.branchBegin = static_cast<std::uint32_t>(branchPool.size());
    for (std::uint32_t b = 0; b < muxArity[m]; ++b)
      if (muxBranchExit[muxBranchOffsets[m] + b] == exit)
        branchPool.push_back(b);
    e.branchEnd = static_cast<std::uint32_t>(branchPool.size());
  };
  for (graph::VertexId v = 0; v < vertices; ++v) {
    // Original edge v -> t: guarded iff t is a mux vertex.
    for (std::uint32_t i = fwdOffsets[v]; i < fwdOffsets[v + 1]; ++i)
      annotate(fwdEdges[i], muxOfVertex[fwdEdges[i].other], v);
    // Original edge p -> v: guarded iff v is a mux vertex.
    for (std::uint32_t i = bwdOffsets[v]; i < bwdOffsets[v + 1]; ++i)
      annotate(bwdEdges[i], muxOfVertex[v], bwdEdges[i].other);
  }

  // ------------------------------------------- configuration depths
  // Mutual recursion: a demand on mux m lands once its address register
  // is on the path (the register's own guards are set), so
  // demandDepth[m] = 1 + segDepth[control(m)], and segDepth[s] = max
  // demandDepth over guards(s).  Control registers are declared before
  // their mux, so real networks terminate; a (hypothetical) cyclic
  // dependency saturates instead of recursing forever.
  std::vector<std::uint32_t> demandDepth(muxCount, 0);
  std::vector<std::uint32_t> segDepth(segCount, 0);
  std::vector<char> segState(segCount, 0);  // 0 new, 1 visiting, 2 done
  const auto segDepthOf = [&](auto&& self, SegmentId s) -> std::uint32_t {
    if (segState[s] == 2) return segDepth[s];
    if (segState[s] == 1) return kUnrealizableDepth;
    segState[s] = 1;
    std::uint32_t depth = 0;
    for (const GuardRef& guard : guardsOf[s]) {
      depth = std::max(depth, std::min(kUnrealizableDepth,
                                       1 + self(self, muxControl[guard.mux])));
    }
    segState[s] = 2;
    segDepth[s] = depth;
    return depth;
  };
  for (SegmentId s = 0; s < segCount; ++s) segDepthOf(segDepthOf, s);
  for (const std::uint32_t m : ctrlMuxes)
    demandDepth[m] = std::min(kUnrealizableDepth,
                              1 + segDepthOf(segDepthOf, muxControl[m]));

  std::vector<std::uint32_t> guardOffsets(segCount + 1, 0);
  std::vector<GuardRef> guardPool;
  for (std::size_t s = 0; s < segCount; ++s) {
    std::sort(guardsOf[s].begin(), guardsOf[s].end(),
              [](const GuardRef& a, const GuardRef& b) {
                return a.mux != b.mux ? a.mux < b.mux : a.branch < b.branch;
              });
    guardOffsets[s] = static_cast<std::uint32_t>(guardPool.size());
    guardPool.insert(guardPool.end(), guardsOf[s].begin(), guardsOf[s].end());
  }
  guardOffsets[segCount] = static_cast<std::uint32_t>(guardPool.size());

  // ------------------------------------------------- pack the arena
  Pending pending[kSectionCount];
  pending[kSegLength] = pend(segLength);
  pending[kSegInstrument] = pend(segInstrument);
  pending[kSegFlags] = pend(segFlags);
  pending[kSegVertex] = pend(segmentVertex);
  pending[kSegDepth] = pend(segDepth);
  pending[kGuardOffsets] = pend(guardOffsets);
  pending[kGuardPool] = pend(guardPool);
  pending[kMuxControl] = pend(muxControl);
  pending[kMuxCtrlVertex] = pend(muxCtrlVertex);
  pending[kMuxArity] = pend(muxArity);
  pending[kMuxVertex] = pend(muxVertex);
  pending[kDemandDepth] = pend(demandDepth);
  pending[kSelOffset] = pend(selOffset);
  pending[kMuxBranchOffsets] = pend(muxBranchOffsets);
  pending[kMuxBranchExit] = pend(muxBranchExit);
  pending[kCtrlMuxes] = pend(ctrlMuxes);
  pending[kRepresentableWords] = pend(representableWords);
  pending[kCtrlOffsets] = pend(ctrlOffsets);
  pending[kCtrlEdges] = pend(ctrlEdges);
  pending[kInstSegment] = pend(instSegment);
  pending[kInstVertex] = pend(instVertex);
  pending[kInstObsWeight] = pend(instObs);
  pending[kInstSetWeight] = pend(instSet);
  pending[kFwdOffsets] = pend(fwdOffsets);
  pending[kFwdEdges] = pend(fwdEdges);
  pending[kBwdOffsets] = pend(bwdOffsets);
  pending[kBwdEdges] = pend(bwdEdges);
  pending[kBranchPool] = pend(branchPool);
  pending[kCtrlRegVertex] = pend(ctrlRegVertex);
  pending[kMuxOfVertex] = pend(muxOfVertex);

  SectionDesc table[kSectionCount];
  std::uint64_t at =
      alignUp(sizeof(Header) + kSectionCount * sizeof(SectionDesc));
  for (std::uint32_t i = 0; i < kSectionCount; ++i) {
    table[i].id = i;
    table[i].elemSize = pending[i].elemSize;
    table[i].offset = at;
    table[i].byteCount = pending[i].byteCount;
    at = alignUp(at + pending[i].byteCount);
  }

  auto view = std::shared_ptr<FlatNetwork>(new FlatNetwork());
  // Zero-initialized arena: alignment padding between sections is
  // canonical, so byte equality of two arenas is meaningful.
  view->arena_.assign(at, 0);
  std::uint8_t* base = view->arena_.data();
  std::memcpy(base + sizeof(Header), table, sizeof table);
  for (std::uint32_t i = 0; i < kSectionCount; ++i)
    if (pending[i].byteCount != 0)
      std::memcpy(base + table[i].offset, pending[i].data,
                  pending[i].byteCount);

  Header hdr;
  hdr.magic = kMagic;
  hdr.version = kFormatVersion;
  hdr.sectionCount = kSectionCount;
  hdr.fingerprint =
      fingerprintSections(view->arena_.data(), table, kSectionCount);
  hdr.byteSize = at;
  hdr.segments = segCount;
  hdr.muxes = muxCount;
  hdr.instruments = instCount;
  hdr.vertices = vertices;
  hdr.dataEdges = fwdEdges.size();
  hdr.branchPool = branchPool.size();
  hdr.guardPool = guardPool.size();
  hdr.selWords = selWords;
  hdr.ctrlMuxes = ctrlMuxes.size();
  hdr.ctrlEdges = ctrlEdges.size();
  hdr.branchExits = muxBranchExit.size();
  hdr.scanIn = scanIn;
  hdr.scanOut = scanOut;
  std::memcpy(base, &hdr, sizeof hdr);

  // The fingerprint was just computed from these bytes; re-hashing them
  // would double the cost of lowering.
  const Status attached = view->attach(/*verifyFingerprint=*/false);
  RRSN_CHECK(attached.ok(),
             "freshly lowered arena failed to attach: " + attached.toString());
  return view;
}

Status FlatNetwork::attach(bool verifyFingerprint) {
  if (!mapped_.empty()) {
    base_ = mapped_.data();
    size_ = mapped_.size();
  } else {
    base_ = arena_.data();
    size_ = arena_.size();
  }
  if (size_ < sizeof(Header))
    return Status::dataLoss("flat arena shorter than its header (" +
                            std::to_string(size_) + " bytes)");
  Header hdr;
  std::memcpy(&hdr, base_, sizeof hdr);
  if (hdr.magic != kMagic)
    return Status::invalidArgument(
        "not a FlatNetwork arena (bad magic number)");
  if (hdr.version != kFormatVersion)
    return Status::failedPrecondition(
        "FlatNetwork format version " + std::to_string(hdr.version) +
        " is not the supported version " + std::to_string(kFormatVersion));
  if (hdr.byteSize != size_)
    return Status::dataLoss("flat arena truncated: header claims " +
                            std::to_string(hdr.byteSize) + " bytes, got " +
                            std::to_string(size_));
  if (hdr.sectionCount != kSectionCount)
    return Status::dataLoss("flat arena section count " +
                            std::to_string(hdr.sectionCount) +
                            " does not match the format's " +
                            std::to_string(int{kSectionCount}));
  if (size_ < sizeof(Header) + kSectionCount * sizeof(SectionDesc))
    return Status::dataLoss("flat arena shorter than its section table");

  SectionDesc table[kSectionCount];
  std::memcpy(table, base_ + sizeof(Header), sizeof table);

  // Expected element size and count of every section, derived from the
  // header counts — a table that disagrees is corrupt, not merely a
  // different version (the version gate above already ran).
  const std::uint64_t s = hdr.segments, m = hdr.muxes, n = hdr.instruments;
  const std::uint64_t v = hdr.vertices, e = hdr.dataEdges;
  struct Expect {
    std::uint32_t elemSize;
    std::uint64_t count;
  };
  const Expect expect[kSectionCount] = {
      /*kSegLength=*/{4, s},
      /*kSegInstrument=*/{4, s},
      /*kSegFlags=*/{1, s},
      /*kSegVertex=*/{4, s},
      /*kSegDepth=*/{4, s},
      /*kGuardOffsets=*/{4, s + 1},
      /*kGuardPool=*/{sizeof(GuardRef), hdr.guardPool},
      /*kMuxControl=*/{4, m},
      /*kMuxCtrlVertex=*/{4, m},
      /*kMuxArity=*/{4, m},
      /*kMuxVertex=*/{4, m},
      /*kDemandDepth=*/{4, m},
      /*kSelOffset=*/{4, m},
      /*kMuxBranchOffsets=*/{4, m + 1},
      /*kMuxBranchExit=*/{4, hdr.branchExits},
      /*kCtrlMuxes=*/{4, hdr.ctrlMuxes},
      /*kRepresentableWords=*/{8, hdr.selWords},
      /*kCtrlOffsets=*/{4, s + 1},
      /*kCtrlEdges=*/{4, hdr.ctrlEdges},
      /*kInstSegment=*/{4, n},
      /*kInstVertex=*/{4, n},
      /*kInstObsWeight=*/{8, n},
      /*kInstSetWeight=*/{8, n},
      /*kFwdOffsets=*/{4, v + 1},
      /*kFwdEdges=*/{sizeof(Edge), e},
      /*kBwdOffsets=*/{4, v + 1},
      /*kBwdEdges=*/{sizeof(Edge), e},
      /*kBranchPool=*/{4, hdr.branchPool},
      /*kCtrlRegVertex=*/{1, v},
      /*kMuxOfVertex=*/{4, v},
  };
  for (std::uint32_t i = 0; i < kSectionCount; ++i) {
    const SectionDesc& d = table[i];
    if (d.id != i || d.elemSize != expect[i].elemSize ||
        d.byteCount != expect[i].count * expect[i].elemSize)
      return Status::dataLoss("flat arena section " + std::to_string(i) +
                              " does not match the expected layout");
    if (d.offset % kSectionAlign != 0 || d.offset > size_ ||
        d.byteCount > size_ - d.offset)
      return Status::dataLoss("flat arena section " + std::to_string(i) +
                              " lies outside the buffer");
  }
  if (verifyFingerprint &&
      fingerprintSections(base_, table, kSectionCount) != hdr.fingerprint)
    return Status::dataLoss(
        "flat arena payload does not match its fingerprint");

  const std::uint8_t* base = base_;
  const auto u32 = [&](SectionId id) {
    return Span<std::uint32_t>(
        reinterpret_cast<const std::uint32_t*>(base + table[id].offset),
        table[id].byteCount / 4);
  };
  const auto u64 = [&](SectionId id) {
    return Span<std::uint64_t>(
        reinterpret_cast<const std::uint64_t*>(base + table[id].offset),
        table[id].byteCount / 8);
  };
  const auto u8 = [&](SectionId id) {
    return Span<std::uint8_t>(base + table[id].offset, table[id].byteCount);
  };
  segLength_ = u32(kSegLength);
  segInstrument_ = u32(kSegInstrument);
  segFlags_ = u8(kSegFlags);
  segmentVertex_ = u32(kSegVertex);
  segDepth_ = u32(kSegDepth);
  guardOffsets_ = u32(kGuardOffsets);
  guardPool_ = Span<GuardRef>(
      reinterpret_cast<const GuardRef*>(base + table[kGuardPool].offset),
      table[kGuardPool].byteCount / sizeof(GuardRef));
  muxControl_ = u32(kMuxControl);
  muxCtrlVertex_ = u32(kMuxCtrlVertex);
  muxArity_ = u32(kMuxArity);
  muxVertex_ = u32(kMuxVertex);
  demandDepth_ = u32(kDemandDepth);
  selOffset_ = u32(kSelOffset);
  muxBranchOffsets_ = u32(kMuxBranchOffsets);
  muxBranchExit_ = u32(kMuxBranchExit);
  ctrlMuxes_ = u32(kCtrlMuxes);
  representableWords_ = u64(kRepresentableWords);
  ctrlOffsets_ = u32(kCtrlOffsets);
  ctrlEdges_ = u32(kCtrlEdges);
  instrumentSegment_ = u32(kInstSegment);
  instrumentVertex_ = u32(kInstVertex);
  instObsWeight_ = u64(kInstObsWeight);
  instSetWeight_ = u64(kInstSetWeight);
  fwdOffsets_ = u32(kFwdOffsets);
  fwdEdges_ = Span<Edge>(
      reinterpret_cast<const Edge*>(base + table[kFwdEdges].offset),
      table[kFwdEdges].byteCount / sizeof(Edge));
  bwdOffsets_ = u32(kBwdOffsets);
  bwdEdges_ = Span<Edge>(
      reinterpret_cast<const Edge*>(base + table[kBwdEdges].offset),
      table[kBwdEdges].byteCount / sizeof(Edge));
  branchPool_ = u32(kBranchPool);
  ctrlRegVertex_ = u8(kCtrlRegVertex);
  muxOfVertex_ = u32(kMuxOfVertex);
  return Status{};
}

Status FlatNetwork::deserialize(std::vector<std::uint8_t> buffer,
                                std::shared_ptr<const FlatNetwork>& out) {
  auto view = std::shared_ptr<FlatNetwork>(new FlatNetwork());
  view->arena_ = std::move(buffer);
  Status st = view->attach();
  if (!st.ok()) return st;
  out = std::move(view);
  return Status{};
}

Status FlatNetwork::mapFile(const std::string& path,
                            std::shared_ptr<const FlatNetwork>& out) {
  auto view = std::shared_ptr<FlatNetwork>(new FlatNetwork());
  Status st = io::MappedFile::map(path, view->mapped_);
  if (!st.ok()) return st;
  st = view->attach();
  if (!st.ok()) return st;
  out = std::move(view);
  return Status{};
}

Status FlatNetwork::writeTo(const std::string& path) const {
  return io::atomicWriteFile(
      path, std::string_view(reinterpret_cast<const char*>(base_), size_));
}

std::uint64_t FlatNetwork::fingerprint() const {
  return headerOf(base_).fingerprint;
}

bool FlatNetwork::operator==(const FlatNetwork& other) const {
  return size_ == other.size_ &&
         std::memcmp(base_, other.base_, size_) == 0;
}

std::size_t FlatNetwork::segmentCount() const {
  return static_cast<std::size_t>(headerOf(base_).segments);
}
std::size_t FlatNetwork::muxCount() const {
  return static_cast<std::size_t>(headerOf(base_).muxes);
}
std::size_t FlatNetwork::instrumentCount() const {
  return static_cast<std::size_t>(headerOf(base_).instruments);
}
std::size_t FlatNetwork::vertexCount() const {
  return static_cast<std::size_t>(headerOf(base_).vertices);
}
graph::VertexId FlatNetwork::scanIn() const { return headerOf(base_).scanIn; }
graph::VertexId FlatNetwork::scanOut() const {
  return headerOf(base_).scanOut;
}

std::string toDot(const Network& net) {
  const auto flat = FlatNetwork::lower(net);
  const auto quote = [](const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    out.push_back('"');
    return out;
  };
  const std::size_t vertices = flat->vertexCount();
  std::vector<std::string> nodes(vertices);
  nodes[flat->scanIn()] = "label=\"SI\",shape=ellipse";
  nodes[flat->scanOut()] = "label=\"SO\",shape=ellipse";
  for (std::size_t s = 0; s < net.segments().size(); ++s) {
    const Segment& seg = net.segments()[s];
    nodes[flat->segmentVertex()[s]] =
        "label=" + quote(seg.name) +
        (seg.instrument != kNone
             ? ",shape=box,style=filled,fillcolor=lightyellow"
             : ",shape=box");
  }
  for (std::size_t m = 0; m < net.muxes().size(); ++m) {
    const std::string& name = net.muxes()[m].name;
    nodes[flat->muxVertex()[m]] = "label=" + quote(name) + ",shape=trapezium";
    nodes[flat->fanoutVertex(m)] = "label=" + quote("fo_" + name) +
                                   ",shape=point";
  }
  std::string out = "digraph " + quote(net.name()) + " {\n  rankdir=LR;\n";
  for (std::size_t v = 0; v < vertices; ++v)
    out += "  n" + std::to_string(v) + " [" + nodes[v] + "];\n";
  const auto offsets = flat->fwdOffsets();
  for (std::size_t v = 0; v < vertices; ++v)
    for (std::uint32_t e = offsets[v]; e < offsets[v + 1]; ++e)
      out += "  n" + std::to_string(v) + " -> n" +
             std::to_string(flat->fwdEdges()[e].other) + ";\n";
  return out + "}\n";
}

}  // namespace rrsn::rsn
