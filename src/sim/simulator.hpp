// Cycle-level RSN scan simulator.
//
// Models the capture–shift–update (CSU) access protocol of IEEE Std 1687:
// every scan segment has a shift register and a shadow update register;
// multiplexer addresses are driven by the update value of their control
// segment (or set externally for TAP-controlled muxes).  The simulator
// supports permanent-fault injection with three-valued logic: a broken
// segment poisons every bit shifted through it with X; a stuck
// multiplexer ignores its address.  Any number of simultaneous
// permanent faults can be injected (the multi-fault campaigns probe
// defect pairs), and a one-shot *transient upset* can be armed: after a
// chosen CSU round completes, one segment's registers are corrupted to
// X for that single event — the segment behaves normally afterwards,
// but the corruption persists in its state until overwritten.
//
// The simulator is the ground truth the structural analysis is tested
// against, and powers the paper's two application scenarios in
// examples/ (post-silicon data extraction, runtime instrument access).
#pragma once

#include <optional>
#include <vector>

#include "fault/fault.hpp"
#include "rsn/network.hpp"

namespace rrsn::sim {

/// Three-valued scan bit.
enum class Bit : std::uint8_t { Zero = 0, One = 1, X = 2 };

inline Bit bitOf(bool b) { return b ? Bit::One : Bit::Zero; }
char toChar(Bit b);
std::vector<Bit> bitsFromString(const std::string& s);  // '0','1','x'
std::string toString(const std::vector<Bit>& bits);

inline constexpr std::uint32_t kInvalidSelection =
    static_cast<std::uint32_t>(-1);
/// Selection of a mux whose address register holds a value that does not
/// fit 32 bits: never a valid branch.
inline constexpr std::uint32_t kOutOfRangeSelection = kInvalidSelection - 1;

/// The active scan path under the current configuration.
struct PathInfo {
  std::vector<rsn::SegmentId> segments;  ///< scan-in -> scan-out order
  std::size_t totalBits = 0;
};

/// One-shot soft error: after CSU round `round` (counted from arming,
/// round 0 = the first CSU) completes, every cell of `segment`'s shift
/// and update registers is corrupted to X.  The upset then disappears —
/// only its footprint in the register state remains.
struct TransientUpset {
  rsn::SegmentId segment = rsn::kNone;
  std::uint32_t round = 0;

  bool operator==(const TransientUpset&) const = default;
};

class ScanSimulator {
 public:
  explicit ScanSimulator(const rsn::Network& net);

  const rsn::Network& network() const { return *net_; }

  /// Returns to the power-up state: all registers zero, no fault, no
  /// pending upset, all external addresses zero.
  void reset();

  /// Restores the power-up *configuration* only: update registers and
  /// external mux addresses return to their reset values, while the
  /// shift registers keep whatever (possibly X-corrupted) content they
  /// hold.  This is the 1687-style reconfiguration sequence a
  /// controller applies to recover from a transient upset — the next
  /// accesses rewrite the data path, they do not need a power cycle.
  /// Injected permanent faults and a still-pending upset are untouched.
  void resetConfiguration();

  /// Injects a single permanent fault (replacing all previous ones).
  /// Every inject call throws Error for a fault naming a primitive the
  /// network does not have or a stuck branch >= the mux's arity.
  void injectFault(const fault::Fault& f);
  /// Injects a set of simultaneous permanent faults (replacing all
  /// previous ones).  Two stuck faults on the same mux are contradictory
  /// hardware; the first one in the list wins deterministically.
  void injectFaults(std::vector<fault::Fault> faults);
  const std::vector<fault::Fault>& injectedFaults() const { return faults_; }

  /// Arms a one-shot transient upset (replacing any pending one) and
  /// restarts the CSU round counter it is measured against.
  void armTransientUpset(const TransientUpset& upset);
  /// True while an armed upset has not fired yet.
  bool transientPending() const { return upset_.has_value(); }

  /// Address of a TAP-controlled mux (controlSegment == kNone).
  void setExternalAddress(rsn::MuxId m, std::uint32_t branch);

  /// Value the attached instrument presents at the next capture.
  /// Must match the segment length.
  void setInstrumentValue(rsn::InstrumentId i, std::vector<Bit> value);

  /// Update-register content of the instrument's segment — what the
  /// instrument receives from the RSN.
  std::vector<Bit> instrumentUpdate(rsn::InstrumentId i) const;

  /// Update-register content of any segment.
  std::vector<Bit> segmentUpdate(rsn::SegmentId s) const;
  /// Shift-register content of any segment.
  std::vector<Bit> segmentShift(rsn::SegmentId s) const;

  /// Resolved selection of a mux under the current configuration and
  /// fault: branch index, kInvalidSelection if the address is X, or
  /// kOutOfRangeSelection if it has a set bit at 32 or above.
  std::uint32_t muxSelection(rsn::MuxId m) const;

  /// Active scan path; nullopt if some on-path mux address is X.
  std::optional<PathInfo> activePath() const;

  /// One capture–shift–update access on the active path.  `in` must have
  /// exactly path.totalBits entries; the returned vector contains the
  /// bits that left through scan-out (captured image, scan-out-nearest
  /// cell first).  Throws ValidationError if there is no valid path.
  std::vector<Bit> csu(const std::vector<Bit>& in);

  /// The shift phase of one CSU access, in closed form: O(B) instead of
  /// B clocks over a B-bit register.  `reg` is the path's captured
  /// register, scan-in side at index 0; the cells of every
  /// [first, last) range in `brokenRanges` read as X from the capture on
  /// and are re-poisoned after every clock.  Shifts in in.size() ==
  /// reg.size() bits; returns the bits that left through scan-out
  /// (first clock first) and leaves the shifted-in content in `reg`.
  static std::vector<Bit> shiftThrough(
      std::vector<Bit>& reg,
      const std::vector<std::pair<std::size_t, std::size_t>>& brokenRanges,
      const std::vector<Bit>& in);

  /// Shift-in image builder: the input stream that loads `image` (one
  /// entry per path bit, scan-in-nearest first) into the path registers.
  static std::vector<Bit> shiftInForImage(const std::vector<Bit>& image);

  /// Position of a segment's cells in the concatenated path image;
  /// nullopt if the segment is not on the given path.
  static std::optional<std::size_t> offsetOf(const rsn::Network& net,
                                             const PathInfo& path,
                                             rsn::SegmentId seg);

 private:
  void checkFault(const fault::Fault& f) const;
  std::uint32_t resolveSelection(rsn::MuxId m) const;
  bool walkPath(rsn::NodeId node, PathInfo& path) const;
  bool isBroken(rsn::SegmentId s) const;
  /// Records that segment s may no longer hold its power-up state.
  void touch(rsn::SegmentId s);
  std::size_t cellCount(rsn::SegmentId s) const {
    return cellOffset_[s + 1] - cellOffset_[s];
  }
  Bit* shiftCells(rsn::SegmentId s) { return shift_.data() + cellOffset_[s]; }
  const Bit* shiftCells(rsn::SegmentId s) const {
    return shift_.data() + cellOffset_[s];
  }
  Bit* updateCells(rsn::SegmentId s) { return update_.data() + cellOffset_[s]; }
  const Bit* updateCells(rsn::SegmentId s) const {
    return update_.data() + cellOffset_[s];
  }

  const rsn::Network* net_;
  std::vector<std::uint32_t> muxArity_;  ///< branch count per mux
  /// Every segment's shift and update cells in two flat arrays; segment
  /// s owns cells [cellOffset_[s], cellOffset_[s + 1]).
  std::vector<std::size_t> cellOffset_;
  std::vector<Bit> shift_, update_;
  /// Per segment: the value its instrument presents at capture; empty
  /// captures the update register instead.
  std::vector<std::vector<Bit>> instrumentValue_;
  /// Segments written since the last reset(), and a flag per segment.
  std::vector<rsn::SegmentId> touched_;
  std::vector<std::uint8_t> isTouched_;
  std::vector<std::uint32_t> externalAddress_;
  std::vector<fault::Fault> faults_;
  std::optional<TransientUpset> upset_;
  std::uint64_t roundsSinceArm_ = 0;
};

}  // namespace rrsn::sim
