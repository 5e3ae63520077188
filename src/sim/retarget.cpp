#include "sim/retarget.hpp"

#include <algorithm>
#include <queue>

#include "obs/obs.hpp"

namespace rrsn::sim {

namespace {

/// One finished instrument access, for the observability layer: total
/// accesses, how many needed a fault-aware reroute, and the CSU-round
/// distribution per access.
void recordAccess(const RetargetResult& res) {
  static const obs::MetricId kAccesses = obs::counter("sim.accesses");
  static const obs::MetricId kReroutes = obs::counter("sim.reroutes");
  static const obs::MetricId kRounds = obs::histogram("sim.rounds_per_access");
  obs::count(kAccesses);
  if (res.rerouted) obs::count(kReroutes);
  obs::sample(kRounds, res.rounds);
}

/// Rejects faults naming a primitive or stuck branch the arena does not
/// have — an out-of-range stuck branch would otherwise index another
/// mux's branch exits.
void checkFaults(const rsn::FlatNetwork& flat,
                 const std::vector<fault::Fault>& faults) {
  for (const fault::Fault& f : faults) {
    if (f.kind == fault::FaultKind::SegmentBreak) {
      RRSN_CHECK(f.prim < flat.segmentCount(), "segment id out of range");
      continue;
    }
    RRSN_CHECK(f.prim < flat.muxCount(), "mux id out of range");
    RRSN_CHECK(f.stuckBranch < flat.muxArity()[f.prim],
               "stuck branch " + std::to_string(f.stuckBranch) +
                   " out of range for a mux of arity " +
                   std::to_string(flat.muxArity()[f.prim]));
  }
}

/// Exit vertex of branch b of mux m.
graph::VertexId branchExit(const rsn::FlatNetwork& flat, rsn::MuxId m,
                           std::uint32_t b) {
  return flat.muxBranchExit()[flat.muxBranchOffsets()[m] + b];
}

/// Edge admissibility under a set of simultaneous faults: stuck-mux
/// edges are always enforced; broken segments' vertices are impassable
/// unless `allowBreak`.  Shared by the BFS below and the bounded
/// enumeration.
struct FaultEdges {
  std::vector<graph::VertexId> broken;
  /// (mux vertex, only admissible predecessor) per stuck fault.
  std::vector<std::pair<graph::VertexId, graph::VertexId>> stuck;

  FaultEdges(const rsn::FlatNetwork& flat,
             const std::vector<fault::Fault>& faults, bool allowBreak) {
    for (const fault::Fault& f : faults) {
      if (f.kind == fault::FaultKind::SegmentBreak) {
        if (!allowBreak) broken.push_back(flat.segmentVertex()[f.prim]);
      } else {
        stuck.emplace_back(flat.muxVertex()[f.prim],
                           branchExit(flat, f.prim, f.stuckBranch));
      }
    }
  }

  bool blocksVertex(graph::VertexId v) const {
    for (graph::VertexId b : broken)
      if (v == b) return true;
    return false;
  }

  bool allows(graph::VertexId from, graph::VertexId to) const {
    if (blocksVertex(from) || blocksVertex(to)) return false;
    for (const auto& [mux, allowedExit] : stuck)
      if (to == mux && from != allowedExit) return false;
    return true;
  }
};

/// BFS with parent pointers between two vertices of the scan graph.
std::optional<std::vector<graph::VertexId>> findPath(
    const rsn::FlatNetwork& flat, const std::vector<fault::Fault>& faults,
    graph::VertexId from, graph::VertexId to, bool allowBreak) {
  const FaultEdges edges(flat, faults, allowBreak);
  if (edges.blocksVertex(from) || edges.blocksVertex(to)) return std::nullopt;

  const auto offsets = flat.fwdOffsets();
  const auto succ = flat.fwdEdges();
  std::vector<graph::VertexId> parent(flat.vertexCount(), graph::kNoVertex);
  std::vector<bool> seen(flat.vertexCount(), false);
  std::queue<graph::VertexId> work;
  seen[from] = true;
  work.push(from);
  while (!work.empty() && !seen[to]) {
    const graph::VertexId v = work.front();
    work.pop();
    for (std::uint32_t e = offsets[v]; e < offsets[v + 1]; ++e) {
      const graph::VertexId s = succ[e].other;
      if (!edges.allows(v, s)) continue;
      if (!seen[s]) {
        seen[s] = true;
        parent[s] = v;
        work.push(s);
      }
    }
  }
  if (!seen[to]) return std::nullopt;
  std::vector<graph::VertexId> path;
  for (graph::VertexId v = to; v != graph::kNoVertex; v = parent[v])
    path.push_back(v);
  std::reverse(path.begin(), path.end());
  return path;
}

/// Bounded enumeration of distinct simple paths from `from` to `to`
/// honoring the fault — the search space of the graceful-degradation
/// reroute.  The scan graph is a DAG; vertices that cannot reach `to`
/// under the fault are pruned up front, so every DFS descent yields a
/// path and the work is O(limit * pathLength * degree).  Paths come out
/// in deterministic successor order, shortest-ish first is NOT
/// guaranteed — callers verify each candidate end to end anyway.
std::vector<std::vector<graph::VertexId>> enumeratePaths(
    const rsn::FlatNetwork& flat, const std::vector<fault::Fault>& faults,
    graph::VertexId from, graph::VertexId to, bool allowBreak,
    std::size_t limit) {
  std::vector<std::vector<graph::VertexId>> out;
  if (limit == 0) return out;
  const FaultEdges edges(flat, faults, allowBreak);
  if (edges.blocksVertex(from) || edges.blocksVertex(to)) return out;

  // Reverse reachability: canReach[v] iff an admissible path v -> to
  // exists.  Walking the transposed rows checks allows(pred, v).
  const auto bwdOffsets = flat.bwdOffsets();
  const auto pred = flat.bwdEdges();
  std::vector<bool> canReach(flat.vertexCount(), false);
  {
    std::queue<graph::VertexId> work;
    canReach[to] = true;
    work.push(to);
    while (!work.empty()) {
      const graph::VertexId v = work.front();
      work.pop();
      for (std::uint32_t e = bwdOffsets[v]; e < bwdOffsets[v + 1]; ++e) {
        const graph::VertexId p = pred[e].other;
        if (!edges.allows(p, v) || canReach[p]) continue;
        canReach[p] = true;
        work.push(p);
      }
    }
  }
  if (!canReach[from]) return out;

  // Iterative DFS over admissible successors that can still reach `to`;
  // a frame's cursor walks its forward CSR row.
  const auto fwdOffsets = flat.fwdOffsets();
  const auto succ = flat.fwdEdges();
  struct Frame {
    graph::VertexId vertex;
    std::uint32_t next;
  };
  std::vector<Frame> stack{{from, fwdOffsets[from]}};
  std::vector<graph::VertexId> prefix{from};
  while (!stack.empty() && out.size() < limit) {
    const std::size_t idx = stack.size() - 1;  // index: push_back below
    const graph::VertexId v = stack[idx].vertex;  // invalidates references
    if (v == to) {
      out.push_back(prefix);
      stack.pop_back();
      prefix.pop_back();
      continue;
    }
    bool descended = false;
    while (stack[idx].next < fwdOffsets[v + 1]) {
      const graph::VertexId s = succ[stack[idx].next++].other;
      if (!edges.allows(v, s) || !canReach[s]) continue;
      stack.push_back({s, fwdOffsets[s]});
      prefix.push_back(s);
      descended = true;
      break;
    }
    if (!descended) {
      stack.pop_back();
      prefix.pop_back();
    }
  }
  return out;
}

/// Derives the mux selections that make the structural walk follow a
/// concrete graph path.  Parallel wire branches exit at the same
/// fan-out vertex, so a join edge can correspond to several branches;
/// a fault-aware caller passes `faults` so that a stuck mux is asked
/// for the branch it is actually stuck at whenever that branch matches
/// the walk (any other demand could never be realized).
Selections selectionsFromPath(
    const rsn::FlatNetwork& flat, const std::vector<graph::VertexId>& path,
    const std::vector<fault::Fault>& faults) {
  Selections sel;
  for (std::size_t k = 1; k < path.size(); ++k) {
    const rsn::MuxId m = flat.muxOfVertex()[path[k]];
    if (m == rsn::kNone) continue;
    const graph::VertexId pred = path[k - 1];
    bool stuckMatched = false;
    for (const fault::Fault& f : faults) {
      if (f.kind == fault::FaultKind::MuxStuck && f.prim == m &&
          branchExit(flat, m, f.stuckBranch) == pred) {
        sel[m] = f.stuckBranch;
        stuckMatched = true;
        break;
      }
    }
    if (stuckMatched) continue;
    for (std::uint32_t b = 0; b < flat.muxArity()[m]; ++b) {
      if (branchExit(flat, m, b) == pred) {
        sel[m] = b;
        break;
      }
    }
  }
  return sel;
}

bool onPath(const PathInfo& path, rsn::SegmentId seg) {
  return std::find(path.segments.begin(), path.segments.end(), seg) !=
         path.segments.end();
}

}  // namespace

// Marker value planted into / written to an instrument segment:
// 1,0,1,0,... is distinguishable from both the all-zero reset image and
// from X poisoning.
std::vector<Bit> accessMarker(std::uint32_t length) {
  std::vector<Bit> out(length);
  for (std::uint32_t k = 0; k < length; ++k)
    out[k] = (k % 2 == 0) ? Bit::One : Bit::Zero;
  return out;
}

bool replayPatterns(ScanSimulator& sim, const RetargetResult& recorded) {
  try {
    for (const auto& [mux, branch] : recorded.externalSelections)
      sim.setExternalAddress(mux, branch);
    for (const ScanPattern& pat : recorded.patterns) {
      const auto path = sim.activePath();
      if (!path || path->totalBits != pat.shiftIn.size()) return false;
      const auto out = sim.csu(pat.shiftIn);
      if (out != pat.shiftOut) return false;
    }
  } catch (const Error&) {
    return false;  // divergent topology: the recipe does not even apply
  }
  return true;
}

RetargetOptions RetargetOptions::resolvedFor(const rsn::Network& net) const {
  RetargetOptions out = *this;
  if (out.maxRounds == 0) out.maxRounds = net.stats().maxMuxNesting + 2;
  return out;
}

Retargeter::Retargeter(ScanSimulator& sim,
                       std::shared_ptr<const rsn::FlatNetwork> flat,
                       RetargetOptions options)
    : sim_(&sim),
      options_(options.resolvedFor(sim.network())),
      flat_(std::move(flat)) {
  const rsn::Network& net = sim.network();
  RRSN_CHECK(flat_ != nullptr &&
                 flat_->segmentCount() == net.segments().size() &&
                 flat_->muxCount() == net.muxes().size(),
             "retargeter arena was not lowered from the simulated network");
}

Retargeter::Retargeter(ScanSimulator& sim, RetargetOptions options)
    : Retargeter(sim, rsn::FlatNetwork::lower(sim.network()), options) {}

RetargetResult Retargeter::realizeSelections(const Selections& selections) {
  const rsn::Network& net = sim_->network();
  RetargetResult res;

  // TAP-controlled muxes are set directly; segment-controlled ones need
  // their control register written through the RSN.
  std::map<rsn::SegmentId, std::uint32_t> writes;
  for (const auto& [m, b] : selections) {
    const rsn::SegmentId ctrl = net.mux(m).controlSegment;
    if (ctrl == rsn::kNone) {
      sim_->setExternalAddress(m, b);
      res.externalSelections.emplace_back(m, b);
      continue;
    }
    const std::uint32_t len = net.segment(ctrl).length;
    if (len < 32 && b >= (1U << len)) {
      res.success = false;  // selection not representable in the register
      return res;
    }
    const auto [it, inserted] = writes.emplace(ctrl, b);
    if (!inserted && it->second != b) {
      res.success = false;  // conflicting demands on one control register
      return res;
    }
  }

  const auto done = [&]() {
    for (const auto& [m, b] : selections)
      if (sim_->muxSelection(m) != b) return false;
    return true;
  };

  for (std::size_t round = 0; round <= options_.maxRounds; ++round) {
    if (done()) {
      res.success = true;
      return res;
    }
    const auto path = sim_->activePath();
    if (!path) return res;  // an address became X — dead end

    // Desired image: control registers get their target value, all other
    // segments recirculate (X cells are refreshed as 0 — we drive the
    // scan-in, so we never have to feed X).
    std::vector<Bit> image;
    image.reserve(path->totalBits);
    for (rsn::SegmentId s : path->segments) {
      const std::uint32_t len = net.segment(s).length;
      const auto it = writes.find(s);
      if (it != writes.end()) {
        for (std::uint32_t k = 0; k < len; ++k) {
          const bool bit = k < 32 && ((it->second >> k) & 1U) != 0;
          image.push_back(bitOf(bit));
        }
      } else {
        for (Bit b : sim_->segmentUpdate(s))
          image.push_back(b == Bit::X ? Bit::Zero : b);
      }
    }
    const auto in = ScanSimulator::shiftInForImage(image);
    const auto out = sim_->csu(in);
    res.patterns.push_back({in, out});
    ++res.rounds;
  }
  res.success = done();
  return res;
}

namespace {

/// Joins a prefix (scan-in -> seg) and suffix (seg -> scan-out) into the
/// mux selections realizing the combined walk.
Selections joinSelections(
    const rsn::FlatNetwork& flat, const std::vector<graph::VertexId>& prefix,
    const std::vector<graph::VertexId>& suffix,
    const std::vector<fault::Fault>& faults) {
  std::vector<graph::VertexId> whole = prefix;
  whole.insert(whole.end(), suffix.begin() + 1, suffix.end());
  return selectionsFromPath(flat, whole, faults);
}

bool containsBreak(const std::vector<fault::Fault>& faults) {
  for (const fault::Fault& f : faults)
    if (f.kind == fault::FaultKind::SegmentBreak) return true;
  return false;
}

bool breaksSegment(const std::vector<fault::Fault>& faults,
                   rsn::SegmentId seg) {
  for (const fault::Fault& f : faults)
    if (f.kind == fault::FaultKind::SegmentBreak && f.prim == seg) return true;
  return false;
}

}  // namespace

/// The nominal recipe for accessing `seg`: the shortest fault-unaware
/// path, with selections derived fault-unaware too — exactly what a
/// controller without fault knowledge would apply.  nullopt if the
/// topology has no path through `seg`.  It depends on the topology only,
/// so each segment's recipe is searched once per engine.
const std::optional<Selections>& Retargeter::nominalSelections(
    rsn::SegmentId seg) {
  const auto [it, inserted] = nominal_.try_emplace(seg);
  if (!inserted) return it->second;
  const graph::VertexId segV = flat_->segmentVertex()[seg];
  const auto prefix = findPath(*flat_, {}, flat_->scanIn(), segV, false);
  const auto suffix = findPath(*flat_, {}, segV, flat_->scanOut(), false);
  if (prefix && suffix)
    it->second = joinSelections(*flat_, *prefix, *suffix, {});
  return it->second;
}

namespace {

/// Feeds the fault-aware reroute recipes for accessing `seg` to `tryRecipe`
/// in attempt order, until it returns true.  They come from the bounded
/// enumeration of fault-honoring prefix/suffix pairs;
/// `breakBeforeSegTolerable` selects the read flavor (broken segment
/// tolerable on the scan-in side) vs the write flavor (tolerable on the
/// scan-out side).  A recipe equal to the nominal one or to an earlier
/// reroute is skipped, and at most 1 + maxReroutes recipes exist counting
/// the nominal one.  Joins are built only as they are tried, so the
/// first reroute that works ends the search.
template <typename TryRecipe>
void forEachReroute(const rsn::FlatNetwork& flat,
                    const std::vector<fault::Fault>& faults,
                    rsn::SegmentId seg, bool breakBeforeSegTolerable,
                    std::size_t maxReroutes, const Selections* nominal,
                    TryRecipe&& tryRecipe) {
  std::vector<Selections> tried;
  if (nominal != nullptr) tried.push_back(*nominal);
  const graph::VertexId segV = flat.segmentVertex()[seg];

  // The second strategy additionally tolerates broken segments on the
  // side where the payload never crosses them (scan-in side for reads,
  // scan-out side for writes).
  for (const bool tolerateBreak : {false, true}) {
    if (tolerateBreak && !containsBreak(faults)) break;
    const bool allowPrefixBreak = tolerateBreak && breakBeforeSegTolerable;
    const bool allowSuffixBreak = tolerateBreak && !breakBeforeSegTolerable;
    const auto prefixes = enumeratePaths(flat, faults, flat.scanIn(), segV,
                                         allowPrefixBreak, maxReroutes);
    const auto suffixes = enumeratePaths(flat, faults, segV, flat.scanOut(),
                                         allowSuffixBreak, maxReroutes);
    for (const auto& prefix : prefixes) {
      for (const auto& suffix : suffixes) {
        if (tried.size() > maxReroutes) return;
        Selections sel = joinSelections(flat, prefix, suffix, faults);
        if (std::find(tried.begin(), tried.end(), sel) != tried.end())
          continue;
        if (tryRecipe(sel)) return;
        tried.push_back(std::move(sel));
      }
    }
  }
}

}  // namespace

template <typename Finish>
RetargetResult Retargeter::access(rsn::SegmentId seg,
                                  bool breakBeforeSegTolerable,
                                  Finish&& finish) {
  static const obs::MetricId kSearches = obs::counter("sim.reroute_searches");
  const std::vector<fault::Fault> faults = sim_->injectedFaults();
  checkFaults(*flat_, faults);

  RetargetResult best;
  if (breaksSegment(faults, seg)) {
    recordAccess(best);
    return best;  // the instrument's own segment is dead
  }

  // Realizes one recipe and lets `finish` apply and check the payload
  // round.  A failed attempt can leave X in address registers (a shift
  // across a broken segment poisons everything downstream, including SIB
  // registers that sit behind their content), with no scan-accessible
  // recovery.  So every recipe after the first starts from power-on with
  // only the physical defects persisting, which also makes the recorded
  // patterns replayable from power-on.
  bool first = true;
  const auto tryRecipe = [&](const Selections& selections, bool rerouted) {
    if (!first) {
      sim_->reset();
      sim_->injectFaults(faults);
    }
    first = false;
    RetargetResult attempt = realizeSelections(selections);
    if (!attempt.success) return false;
    const auto path = sim_->activePath();
    if (!path || !onPath(*path, seg) || !finish(*path, attempt)) return false;
    attempt.success = true;
    attempt.rerouted = rerouted;
    best = std::move(attempt);
    return true;
  };

  // The nominal recipe first; the reroute enumeration runs only when it
  // fails (most accesses under a single defect never need it).
  const std::optional<Selections>& nominal = nominalSelections(seg);
  const bool done = nominal && tryRecipe(*nominal, false);
  if (!done && !faults.empty() && options_.maxReroutes != 0) {
    obs::count(kSearches);
    forEachReroute(*flat_, faults, seg, breakBeforeSegTolerable,
                   options_.maxReroutes, nominal ? &*nominal : nullptr,
                   [&](const Selections& sel) { return tryRecipe(sel, true); });
  }
  recordAccess(best);
  return best;
}

RetargetResult Retargeter::readInstrument(rsn::InstrumentId i) {
  RRSN_OBS_SPAN("sim.read");
  const rsn::Network& net = sim_->network();
  const rsn::SegmentId seg = net.instrument(i).segment;
  // For reads the scan-out side must be clean; a broken segment on the
  // scan-in side only shifts garbage in behind the marker.
  return access(seg, /*breakBeforeSegTolerable=*/true,
                [&](const PathInfo& path, RetargetResult& attempt) {
    const auto marker = accessMarker(net.segment(seg).length);
    sim_->setInstrumentValue(i, marker);
    const std::vector<Bit> in(path.totalBits, Bit::Zero);
    const auto out = sim_->csu(in);
    attempt.patterns.push_back({in, out});
    ++attempt.rounds;

    const auto offset = ScanSimulator::offsetOf(net, path, seg);
    if (!offset) return false;
    for (std::uint32_t k = 0; k < marker.size(); ++k) {
      const std::size_t pos = path.totalBits - 1 - (*offset + k);
      if (out[pos] != marker[k]) return false;
    }
    return true;
  });
}

RetargetResult Retargeter::writeInstrument(rsn::InstrumentId i,
                                           const std::vector<Bit>& value) {
  RRSN_OBS_SPAN("sim.write");
  const rsn::Network& net = sim_->network();
  const rsn::SegmentId seg = net.instrument(i).segment;
  RRSN_CHECK(value.size() == net.segment(seg).length,
             "write value length mismatch");
  // For writes the scan-in side must be clean; the scan-out side may
  // contain broken segments (the value never travels through them).
  return access(seg, /*breakBeforeSegTolerable=*/false,
                [&](const PathInfo& path, RetargetResult& attempt) {
    if (!ScanSimulator::offsetOf(net, path, seg)) return false;

    // Image: keep every segment's configuration, place `value` at seg.
    std::vector<Bit> image;
    image.reserve(path.totalBits);
    for (rsn::SegmentId s : path.segments) {
      if (s == seg) {
        image.insert(image.end(), value.begin(), value.end());
      } else {
        for (Bit b : sim_->segmentUpdate(s))
          image.push_back(b == Bit::X ? Bit::Zero : b);
      }
    }
    const auto in = ScanSimulator::shiftInForImage(image);
    const auto out = sim_->csu(in);
    attempt.patterns.push_back({in, out});
    ++attempt.rounds;
    return sim_->segmentUpdate(seg) == value;
  });
}

AccessReport probeAccessSet(const rsn::Network& net,
                            std::shared_ptr<const rsn::FlatNetwork> flat,
                            const std::vector<fault::Fault>& faults) {
  AccessReport report;
  const std::size_t n = net.instruments().size();
  report.observable = DynamicBitset(n);
  report.settable = DynamicBitset(n);
  ScanSimulator sim(net);
  Retargeter rt(sim, std::move(flat));
  // Every access starts from power-on with only the defects present;
  // reset() restores exactly the state of a freshly built simulator.
  const auto powerOn = [&]() {
    sim.reset();
    sim.injectFaults(faults);
  };
  for (rsn::InstrumentId i = 0; i < n; ++i) {
    powerOn();
    if (rt.readInstrument(i).success) report.observable.set(i);
    powerOn();
    const auto marker =
        accessMarker(net.segment(net.instrument(i).segment).length);
    if (rt.writeInstrument(i, marker).success) report.settable.set(i);
  }
  return report;
}

AccessReport strictAccessibility(const rsn::Network& net,
                                 const fault::Fault* f) {
  return probeAccessSet(net, rsn::FlatNetwork::lower(net),
                        f != nullptr ? std::vector<fault::Fault>{*f}
                                     : std::vector<fault::Fault>{});
}

}  // namespace rrsn::sim
