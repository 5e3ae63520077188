// Arena-backed structure-of-arrays core of an RSN (`FlatNetwork`): the
// one scan-graph model of the repo (Sec. III, Fig. 2).
//
// The typed Network (primitives + Structure tree) is convenient to build
// and validate, but every graph consumer — the analysis kernels
// (criticality, certifier, campaign oracles, SPEA-2 fitness assembly),
// the retargeter's path search, the graph-walk oracle and lint — wants
// contiguous id-indexed arrays it can stream with no pointer chasing,
// and reads them straight from this class.
// lower() walks the Structure tree once and emits a single relocatable
// buffer — one bump-allocated arena holding every derived array:
//
//   * per-segment: scan length, instrument id, flags (SIB register /
//     controls-a-mux), graph vertex, configuration depth, guard set
//     (CSR over sorted (mux, branch) selections);
//   * per-mux: control segment + its vertex, arity, graph vertex,
//     demand depth, selectable-word offset, branch exit vertices (CSR);
//   * per-instrument: segment, vertex, damage weights (zero unless a
//     CriticalitySpec is given at lowering time);
//   * data graph: forward and transposed CSR adjacency whose edges carry
//     the mux guard annotation (edgeOpen() evaluates it against a
//     fault's selectable-branch words);
//   * control-dependency graph: CSR from each segment to the muxes it
//     addresses;
//   * per-vertex: control-register flag, owning mux.
//
// Vertex numbering is canonical: SI = 0, segment s = 1 + s, then one
// (mux, entry fan-out) pair per mux in id order, SO last.  Each vertex's
// CSR row lists its neighbours in wiring order (the order the structure
// walk connects them), which fixes path-enumeration order downstream.
//
// Layout: a fixed header (magic, format version, FNV-1a content
// fingerprint, entity counts), a section table, then the 64-byte-aligned
// sections.  Because the arena is one flat buffer with self-describing
// offsets, serialization is a plain byte copy and deserialization is
// zero-copy: the loader adopts the buffer, validates the header and
// fingerprint, and re-derives the section pointers.  Corrupt, truncated
// or foreign files are rejected with a typed Status — never an
// exception — so service caches and campaign checkpoints can probe
// candidate files cheaply.
//
// The lowering itself is single-threaded and fully deterministic, so the
// serialized bytes are identical at any RRSN_THREADS (tested).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/vertex.hpp"
#include "rsn/network.hpp"
#include "rsn/spec.hpp"
#include "support/io.hpp"
#include "support/status.hpp"

namespace rrsn::rsn {

/// Frozen flat view of one network.  Create with lower(); share by
/// shared_ptr (every consumer holds one, which keeps the arena alive).
/// Immutable, so one view is read concurrently by every worker thread.
class FlatNetwork {
 public:
  /// Read-only view into one arena section.
  template <typename T>
  class Span {
   public:
    Span() = default;
    Span(const T* data, std::size_t size) : data_(data), size_(size) {}

    const T& operator[](std::size_t i) const { return data_[i]; }
    const T* data() const { return data_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const T* begin() const { return data_; }
    const T* end() const { return data_ + size_; }

   private:
    const T* data_ = nullptr;
    std::size_t size_ = 0;
  };

  /// One adjacency entry of the guarded data-graph CSR.  `mux` is the
  /// guarding mux (kNone for a plain edge); the guard passes iff any
  /// branch in branchPool[branchBegin, branchEnd) is selectable.  The
  /// annotation describes the *original* edge, so a row entry means the
  /// same thing from the forward and the transposed side.
  struct Edge {
    graph::VertexId other = graph::kNoVertex;
    std::uint32_t mux = kNone;
    std::uint32_t branchBegin = 0;
    std::uint32_t branchEnd = 0;

    bool operator==(const Edge&) const = default;
  };

  /// One (mux, non-reset branch) selection of a segment's guard set.
  struct GuardRef {
    std::uint32_t mux = kNone;
    std::uint32_t branch = 0;

    bool operator==(const GuardRef&) const = default;
  };

  /// Saturation value for cyclic configuration dependencies.
  static constexpr std::uint32_t kUnrealizableDepth = 0x40000000u;

  /// On-disk format identity ("RRSNFLAT" little-endian) and version.
  /// Any layout change bumps kFormatVersion; old readers reject new
  /// files (and vice versa) with kFailedPrecondition.
  static constexpr std::uint64_t kMagic = 0x54414c464e535252ULL;
  static constexpr std::uint32_t kFormatVersion = 1;

  /// Lowers `net` into a fresh arena.  The optional spec fills the
  /// per-instrument damage-weight sections (zeros otherwise).  Counts
  /// one `flat.flatten_calls` observation per invocation — campaigns
  /// and services are expected to lower once and share the pointer.
  static std::shared_ptr<const FlatNetwork> lower(
      const Network& net, const CriticalitySpec* spec = nullptr);

  /// Adopts a serialized arena (zero-copy: the vector is moved into the
  /// view).  Truncated or corrupt buffers yield kDataLoss, foreign
  /// bytes kInvalidArgument, a format-version mismatch
  /// kFailedPrecondition; `out` is only written on success.  Never
  /// throws.
  static Status deserialize(std::vector<std::uint8_t> buffer,
                            std::shared_ptr<const FlatNetwork>& out);

  /// Adopts a serialized arena straight from disk via mmap (PROT_READ,
  /// zero copies — the service cache's fast path).  The mapping lives
  /// as long as the view.  The same validation as deserialize() runs
  /// against the mapped bytes; a missing/unreadable file yields
  /// kUnavailable, and `out` is only written on success.  Never throws.
  static Status mapFile(const std::string& path,
                        std::shared_ptr<const FlatNetwork>& out);

  /// Durably serializes the arena to `path` (atomic tmp+fsync+rename
  /// via io::atomicWriteFile); on failure `path` is left untouched.
  Status writeTo(const std::string& path) const;

  /// The whole arena — writing these bytes to disk *is* serialization.
  /// Valid for any backing (owned buffer or mmap).
  Span<std::uint8_t> bytes() const { return {base_, size_}; }

  /// The owned arena vector.  Empty for an mmap-backed view — callers
  /// that need the raw bytes regardless of backing use bytes().
  const std::vector<std::uint8_t>& buffer() const { return arena_; }

  /// FNV-1a fingerprint of the section payloads (also stored in the
  /// header and re-checked by deserialize()).
  std::uint64_t fingerprint() const;

  /// Two views are equal iff their arenas are byte-identical (the
  /// lowering is canonical, so equal networks + specs compare equal).
  /// Backing (owned vs mmap) does not participate.
  bool operator==(const FlatNetwork& other) const;

  // ------------------------------------------------------------ counts
  std::size_t segmentCount() const;
  std::size_t muxCount() const;
  std::size_t instrumentCount() const;
  std::size_t vertexCount() const;
  graph::VertexId scanIn() const;
  graph::VertexId scanOut() const;

  // ------------------------------------------------------ per segment
  Span<std::uint32_t> segLength() const { return segLength_; }
  /// InstrumentId per segment; kNone when the segment carries none.
  Span<std::uint32_t> segInstrument() const { return segInstrument_; }
  /// Bit 0: SIB configuration register; bit 1: controls some mux.
  Span<std::uint8_t> segFlags() const { return segFlags_; }
  Span<graph::VertexId> segmentVertex() const { return segmentVertex_; }
  Span<std::uint32_t> segDepth() const { return segDepth_; }
  /// Guard-set CSR: segment s owns guardPool[guardOffsets[s],
  /// guardOffsets[s + 1]) — sorted (mux, branch != 0) selections.
  Span<std::uint32_t> guardOffsets() const { return guardOffsets_; }
  Span<GuardRef> guardPool() const { return guardPool_; }

  static constexpr std::uint8_t kSegFlagSib = 1;
  static constexpr std::uint8_t kSegFlagControlsMux = 2;

  /// True iff some mux's address register is segment s.
  bool segmentControlsMux(SegmentId s) const {
    return (segFlags_[s] & kSegFlagControlsMux) != 0;
  }

  // ---------------------------------------------------------- per mux
  Span<std::uint32_t> muxControl() const { return muxControl_; }
  Span<graph::VertexId> muxCtrlVertex() const { return muxCtrlVertex_; }
  Span<std::uint32_t> muxArity() const { return muxArity_; }
  Span<graph::VertexId> muxVertex() const { return muxVertex_; }
  /// Entry fan-out of mux m (the vertex numbered right after the mux).
  graph::VertexId fanoutVertex(std::size_t m) const {
    return muxVertex_[m] + 1;
  }
  /// Configuration-round schedule: a non-reset demand on mux m is
  /// written in CSU round demandDepth[m] - 1, and segDepth[s] is the
  /// round at which segment s first joins the path (the max demandDepth
  /// over its guards).  TAP-steered muxes have depth 0; cyclic control
  /// dependencies saturate at kUnrealizableDepth.
  Span<std::uint32_t> demandDepth() const { return demandDepth_; }
  /// Selectable-set word layout: mux m owns the words [selOffset[m],
  /// selOffset[m] + (muxArity[m] + 63) / 64), bit b = branch b.  The
  /// per-fault sets live in caller-owned buffers of selWordCount()
  /// words.
  Span<std::uint32_t> selOffset() const { return selOffset_; }
  /// Branch-exit CSR: branch b of mux m exits at
  /// muxBranchExit[muxBranchOffsets[m] + b].
  Span<std::uint32_t> muxBranchOffsets() const { return muxBranchOffsets_; }
  Span<graph::VertexId> muxBranchExit() const { return muxBranchExit_; }
  /// Muxes whose address comes from a control segment.
  Span<std::uint32_t> ctrlMuxes() const { return ctrlMuxes_; }
  /// Per-mux address-representability masks in the selectable layout.
  Span<std::uint64_t> representableWords() const { return representableWords_; }
  std::size_t selWordCount() const { return representableWords_.size(); }

  /// Branch `branch` of mux `mux` in selectable-layout words `sel`.
  bool selectableBit(const std::uint64_t* sel, std::uint32_t mux,
                     std::uint32_t branch) const {
    return (sel[selOffset_[mux] + (branch >> 6)] >> (branch & 63)) & 1;
  }

  // -------------------------------------------------- control graph
  /// Control-dependency CSR: segment s addresses the muxes
  /// ctrlEdges[ctrlOffsets[s], ctrlOffsets[s + 1]).
  Span<std::uint32_t> ctrlOffsets() const { return ctrlOffsets_; }
  Span<std::uint32_t> ctrlEdges() const { return ctrlEdges_; }

  // --------------------------------------------------- per instrument
  Span<std::uint32_t> instrumentSegment() const { return instrumentSegment_; }
  Span<graph::VertexId> instrumentVertex() const { return instrumentVertex_; }
  Span<std::uint64_t> instrumentObsWeight() const { return instObsWeight_; }
  Span<std::uint64_t> instrumentSetWeight() const { return instSetWeight_; }

  // --------------------------------------------------- data graph CSR
  Span<std::uint32_t> fwdOffsets() const { return fwdOffsets_; }
  Span<Edge> fwdEdges() const { return fwdEdges_; }
  Span<std::uint32_t> bwdOffsets() const { return bwdOffsets_; }
  Span<Edge> bwdEdges() const { return bwdEdges_; }
  Span<std::uint32_t> branchPool() const { return branchPool_; }

  /// Guard admissibility of one edge under the selectable sets `sel`.
  bool edgeOpen(const Edge& e, const std::uint64_t* sel) const {
    if (e.mux == kNone) return true;
    for (std::uint32_t i = e.branchBegin; i < e.branchEnd; ++i)
      if (selectableBit(sel, e.mux, branchPool_[i])) return true;
    return false;
  }

  // -------------------------------------------------------- per vertex
  /// Nonzero iff the vertex holds some mux's address register.
  Span<std::uint8_t> ctrlRegVertex() const { return ctrlRegVertex_; }
  /// MuxId of a mux vertex; kNone otherwise.
  Span<std::uint32_t> muxOfVertex() const { return muxOfVertex_; }

 private:
  FlatNetwork() = default;

  /// Re-derives the cached section spans from [base_, base_ + size_)
  /// (after lowering, adopting a deserialized buffer, or mapping a
  /// file).  Returns a non-OK status when the section table does not
  /// describe a well-formed arena or, with `verifyFingerprint`, when
  /// the payload does not match the header's fingerprint.
  Status attach(bool verifyFingerprint = true);

  /// Arena backing: exactly one of arena_ (owned bytes) and mapped_
  /// (read-only file mapping) is non-empty; base_/size_ always name
  /// the live bytes and everything past construction reads only them.
  std::vector<std::uint8_t> arena_;
  io::MappedFile mapped_;
  const std::uint8_t* base_ = nullptr;
  std::size_t size_ = 0;

  Span<std::uint32_t> segLength_, segInstrument_, segDepth_, guardOffsets_;
  Span<std::uint8_t> segFlags_;
  Span<graph::VertexId> segmentVertex_;
  Span<GuardRef> guardPool_;
  Span<std::uint32_t> muxControl_, muxArity_, demandDepth_, selOffset_;
  Span<graph::VertexId> muxCtrlVertex_, muxVertex_, muxBranchExit_;
  Span<std::uint32_t> muxBranchOffsets_, ctrlMuxes_;
  Span<std::uint64_t> representableWords_;
  Span<std::uint32_t> ctrlOffsets_, ctrlEdges_;
  Span<std::uint32_t> instrumentSegment_;
  Span<graph::VertexId> instrumentVertex_;
  Span<std::uint64_t> instObsWeight_, instSetWeight_;
  Span<std::uint32_t> fwdOffsets_, bwdOffsets_, branchPool_;
  Span<Edge> fwdEdges_, bwdEdges_;
  Span<std::uint8_t> ctrlRegVertex_;
  Span<std::uint32_t> muxOfVertex_;
};

/// Graphviz DOT rendering of the scan graph with RSN-aware shapes
/// (segments: boxes, muxes: trapezoids, fan-outs: points, ports:
/// ellipses).
std::string toDot(const Network& net);

}  // namespace rrsn::rsn
