#include "sim/simulator.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace rrsn::sim {

char toChar(Bit b) {
  switch (b) {
    case Bit::Zero: return '0';
    case Bit::One: return '1';
    case Bit::X: return 'x';
  }
  return '?';
}

std::vector<Bit> bitsFromString(const std::string& s) {
  std::vector<Bit> out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '0': out.push_back(Bit::Zero); break;
      case '1': out.push_back(Bit::One); break;
      case 'x':
      case 'X': out.push_back(Bit::X); break;
      default:
        throw ParseError(std::string("invalid scan bit '") + c + "'");
    }
  }
  return out;
}

std::string toString(const std::vector<Bit>& bits) {
  std::string out;
  out.reserve(bits.size());
  for (Bit b : bits) out.push_back(toChar(b));
  return out;
}

ScanSimulator::ScanSimulator(const rsn::Network& net)
    : net_(&net),
      muxArity_(net.muxes().size(), 0),
      cellOffset_(net.segments().size() + 1, 0),
      instrumentValue_(net.segments().size()),
      isTouched_(net.segments().size(), 0),
      externalAddress_(net.muxes().size(), 0) {
  for (rsn::SegmentId s = 0; s < net.segments().size(); ++s)
    cellOffset_[s + 1] = cellOffset_[s] + net.segment(s).length;
  shift_.assign(cellOffset_.back(), Bit::Zero);
  update_.assign(cellOffset_.back(), Bit::Zero);
  const rsn::Structure& st = net.structure();
  st.preOrder([&](rsn::NodeId id) {
    const auto& n = st.node(id);
    if (n.kind == rsn::NodeKind::MuxJoin)
      muxArity_[n.prim] = static_cast<std::uint32_t>(n.children.size());
  });
}

void ScanSimulator::checkFault(const fault::Fault& f) const {
  if (f.kind == fault::FaultKind::SegmentBreak) {
    RRSN_CHECK(f.prim < net_->segments().size(), "segment id out of range");
    return;
  }
  RRSN_CHECK(f.prim < muxArity_.size(), "mux id out of range");
  RRSN_CHECK(f.stuckBranch < muxArity_[f.prim],
             "stuck branch " + std::to_string(f.stuckBranch) +
                 " out of range for mux '" + net_->mux(f.prim).name +
                 "' of arity " + std::to_string(muxArity_[f.prim]));
}

void ScanSimulator::injectFault(const fault::Fault& f) {
  checkFault(f);
  faults_.assign(1, f);
}

void ScanSimulator::injectFaults(std::vector<fault::Fault> faults) {
  for (const fault::Fault& f : faults) checkFault(f);
  faults_ = std::move(faults);
}

void ScanSimulator::reset() {
  // Every retargeted access starts with a reset, so it refills only the
  // registers written since the last one, in place: segments outside
  // touched_ still hold their power-up state.
  for (const rsn::SegmentId s : touched_) {
    std::fill(shiftCells(s), shiftCells(s) + cellCount(s), Bit::Zero);
    std::fill(updateCells(s), updateCells(s) + cellCount(s), Bit::Zero);
    instrumentValue_[s].clear();
    isTouched_[s] = 0;
  }
  touched_.clear();
  std::fill(externalAddress_.begin(), externalAddress_.end(), 0U);
  faults_.clear();
  upset_.reset();
  roundsSinceArm_ = 0;
}

void ScanSimulator::resetConfiguration() {
  std::fill(update_.begin(), update_.end(), Bit::Zero);
  std::fill(externalAddress_.begin(), externalAddress_.end(), 0U);
}

void ScanSimulator::armTransientUpset(const TransientUpset& upset) {
  RRSN_CHECK(upset.segment < net_->segments().size(),
             "transient upset segment id out of range");
  upset_ = upset;
  roundsSinceArm_ = 0;
}

void ScanSimulator::setExternalAddress(rsn::MuxId m, std::uint32_t branch) {
  RRSN_CHECK(m < externalAddress_.size(), "mux id out of range");
  RRSN_CHECK(net_->mux(m).controlSegment == rsn::kNone,
             "mux '" + net_->mux(m).name +
                 "' is controlled by a segment, not externally");
  externalAddress_[m] = branch;
}

void ScanSimulator::setInstrumentValue(rsn::InstrumentId i,
                                       std::vector<Bit> value) {
  const rsn::SegmentId seg = net_->instrument(i).segment;
  RRSN_CHECK(value.size() == net_->segment(seg).length,
             "instrument value length mismatch");
  touch(seg);
  instrumentValue_[seg] = std::move(value);
}

std::vector<Bit> ScanSimulator::instrumentUpdate(rsn::InstrumentId i) const {
  return segmentUpdate(net_->instrument(i).segment);
}

std::vector<Bit> ScanSimulator::segmentUpdate(rsn::SegmentId s) const {
  RRSN_CHECK(s < net_->segments().size(), "segment id out of range");
  return {updateCells(s), updateCells(s) + cellCount(s)};
}

std::vector<Bit> ScanSimulator::segmentShift(rsn::SegmentId s) const {
  RRSN_CHECK(s < net_->segments().size(), "segment id out of range");
  return {shiftCells(s), shiftCells(s) + cellCount(s)};
}

std::uint32_t ScanSimulator::resolveSelection(rsn::MuxId m) const {
  // A stuck mux ignores its address entirely.
  for (const fault::Fault& f : faults_)
    if (f.kind == fault::FaultKind::MuxStuck && f.prim == m)
      return f.stuckBranch;

  const rsn::SegmentId ctrl = net_->mux(m).controlSegment;
  if (ctrl == rsn::kNone) return externalAddress_[m];

  // Interpret the control segment's update register as an unsigned
  // little-endian integer (cell 0 = LSB).  X anywhere makes it invalid;
  // a value that does not fit 32 bits saturates to an out-of-range
  // selection instead of wrapping onto a real branch.
  std::uint32_t value = 0;
  bool wide = false;
  const Bit* bits = updateCells(ctrl);
  for (std::size_t i = 0; i < cellCount(ctrl); ++i) {
    if (bits[i] == Bit::X) return kInvalidSelection;
    if (bits[i] != Bit::One) continue;
    if (i < 32) {
      value |= 1U << i;
    } else {
      wide = true;
    }
  }
  return wide ? kOutOfRangeSelection : value;
}

std::uint32_t ScanSimulator::muxSelection(rsn::MuxId m) const {
  RRSN_CHECK(m < net_->muxes().size(), "mux id out of range");
  return resolveSelection(m);
}

bool ScanSimulator::walkPath(rsn::NodeId nodeId, PathInfo& path) const {
  const auto& n = net_->structure().node(nodeId);
  switch (n.kind) {
    case rsn::NodeKind::Wire:
      return true;
    case rsn::NodeKind::Segment:
      path.segments.push_back(n.prim);
      path.totalBits += net_->segment(n.prim).length;
      return true;
    case rsn::NodeKind::Serial:
      for (rsn::NodeId c : n.children)
        if (!walkPath(c, path)) return false;
      return true;
    case rsn::NodeKind::MuxJoin: {
      const std::uint32_t sel = resolveSelection(n.prim);
      if (sel == kInvalidSelection || sel >= n.children.size()) return false;
      return walkPath(n.children[sel], path);
    }
  }
  throw Error("unreachable structure node kind");
}

std::optional<PathInfo> ScanSimulator::activePath() const {
  PathInfo path;
  if (!walkPath(net_->structure().root(), path)) return std::nullopt;
  return path;
}

std::vector<Bit> ScanSimulator::csu(const std::vector<Bit>& in) {
  static const obs::MetricId kCsuRounds = obs::counter("sim.csu_rounds");
  obs::count(kCsuRounds);
  const auto path = activePath();
  if (!path)
    throw ValidationError(
        "no valid scan path: a mux address is X or out of range");
  RRSN_CHECK(in.size() == path->totalBits,
             "shift-in stream length does not match the active path (" +
                 std::to_string(in.size()) + " vs " +
                 std::to_string(path->totalBits) + " bits)");

  // Capture: instrument segments capture the instrument value, plain
  // segments recirculate their update value.  The path is one
  // concatenated register, scan-in side at index 0.
  std::vector<Bit> reg;
  reg.reserve(path->totalBits);
  std::vector<std::pair<std::size_t, std::size_t>> brokenRanges;
  for (rsn::SegmentId s : path->segments) {
    if (isBroken(s))
      brokenRanges.emplace_back(reg.size(), reg.size() + cellCount(s));
    const std::vector<Bit>& value = instrumentValue_[s];
    if (value.empty()) {
      reg.insert(reg.end(), updateCells(s), updateCells(s) + cellCount(s));
    } else {
      reg.insert(reg.end(), value.begin(), value.end());
    }
  }

  std::vector<Bit> out = shiftThrough(reg, brokenRanges, in);

  // Scatter the register back and update.
  const Bit* next = reg.data();
  for (rsn::SegmentId s : path->segments) {
    touch(s);
    std::copy(next, next + cellCount(s), shiftCells(s));
    std::copy(next, next + cellCount(s), updateCells(s));
    next += cellCount(s);
  }

  // A pending transient upset fires once the configured CSU round has
  // completed: the target segment's stored state — shift *and* update
  // register, on or off the active path — is corrupted to X.  The upset
  // is consumed; subsequent rounds operate on clean silicon again.
  if (upset_ && roundsSinceArm_ == upset_->round) {
    const rsn::SegmentId s = upset_->segment;
    touch(s);
    std::fill(shiftCells(s), shiftCells(s) + cellCount(s), Bit::X);
    std::fill(updateCells(s), updateCells(s) + cellCount(s), Bit::X);
    upset_.reset();
  }
  ++roundsSinceArm_;
  return out;
}

std::vector<Bit> ScanSimulator::shiftThrough(
    std::vector<Bit>& reg,
    const std::vector<std::pair<std::size_t, std::size_t>>& brokenRanges,
    const std::vector<Bit>& in) {
  RRSN_CHECK(in.size() == reg.size(),
             "shift-in stream length does not match the register");
  // Clock t emits index B-1, moves every cell one index up, loads in[t]
  // at index 0 and re-poisons the broken cells.  So the captured cell at
  // index p leaves at clock B-1-p after visiting indices p..B-1: it
  // leaves as X iff p <= the highest broken index.  in[t] ends at index
  // B-1-t after visiting indices 0..B-1-t: it is X iff some broken index
  // is <= B-1-t.  Only the two extreme broken indices matter; an empty
  // range has no index and poisons nothing.
  const std::size_t bitsTotal = reg.size();
  std::size_t lowBroken = bitsTotal;  // lowest broken index, B if none
  std::size_t highBroken = 0;         // one past the highest, 0 if none
  for (const auto& [first, last] : brokenRanges) {
    if (first >= last) continue;
    lowBroken = std::min(lowBroken, first);
    highBroken = std::max(highBroken, last);
  }
  std::vector<Bit> out(bitsTotal);
  for (std::size_t p = 0; p < bitsTotal; ++p) {
    out[bitsTotal - 1 - p] = p < highBroken ? Bit::X : reg[p];
    reg[p] = p >= lowBroken ? Bit::X : in[bitsTotal - 1 - p];
  }
  return out;
}

void ScanSimulator::touch(rsn::SegmentId s) {
  if (isTouched_[s] != 0) return;
  isTouched_[s] = 1;
  touched_.push_back(s);
}

bool ScanSimulator::isBroken(rsn::SegmentId s) const {
  for (const fault::Fault& f : faults_)
    if (f.kind == fault::FaultKind::SegmentBreak && f.prim == s) return true;
  return false;
}

std::vector<Bit> ScanSimulator::shiftInForImage(const std::vector<Bit>& image) {
  // The bit fed at clock t ends at register index (B-1-t), so the stream
  // is the image reversed.
  return {image.rbegin(), image.rend()};
}

std::optional<std::size_t> ScanSimulator::offsetOf(const rsn::Network& net,
                                                   const PathInfo& path,
                                                   rsn::SegmentId seg) {
  std::size_t offset = 0;
  for (rsn::SegmentId s : path.segments) {
    if (s == seg) return offset;
    offset += net.segment(s).length;
  }
  return std::nullopt;
}

}  // namespace rrsn::sim
