// Fault-effect computation (Sec. IV-B): which instruments lose
// observability and/or settability under a given single fault.
//
// Two independent implementations are provided on purpose:
//  * lossUnderFaultTree  — follows the paper's decomposition-tree
//    argument (observability / settability trees): a segment break is
//    isolated inside the branch of its closest parental multiplexer where
//    it splits the branch into an unobservable upstream part and an
//    unsettable downstream part; a stuck mux disconnects all non-selected
//    branches entirely.
//  * lossUnderFaultGraph — a brute-force oracle on the flat arena's scan
//    graph (plain BFS over its CSR, no guards or control fixpoint):
//    instrument i stays observable iff a path from its segment to the
//    scan-out avoids the defect, and settable iff a path from the scan-in
//    to its segment does.
// The test suite checks the two agree on every fault of every network.
#pragma once

#include "fault/fault.hpp"
#include "rsn/flat.hpp"
#include "sp/decomposition.hpp"
#include "support/bitset.hpp"

namespace rrsn::fault {

/// Per-instrument accessibility loss under one fault.
struct AccessibilityLoss {
  DynamicBitset unobservable;  ///< bit i: instrument i lost observability
  DynamicBitset unsettable;    ///< bit i: instrument i lost settability
};

/// Decomposition-tree implementation (fast path of the paper).
AccessibilityLoss lossUnderFaultTree(const sp::DecompositionTree& tree,
                                     const Fault& f);

/// Flat-graph oracle over the arena lowered from the faulted network.
AccessibilityLoss lossUnderFaultGraph(const rsn::FlatNetwork& flat,
                                      const Fault& f);

/// Weighted damage of one fault under a specification (Eq. 1 restricted
/// to this fault): sum of do_i over unobservable + ds_i over unsettable.
std::uint64_t damageOfLoss(const rsn::CriticalitySpec& spec,
                           const AccessibilityLoss& loss);

/// Fast aggregate damage of one fault straight from the annotated tree,
/// without materializing instrument sets: O(tree depth) for a segment
/// break, O(#branches) for a stuck mux.  The tree must be annotate()d.
std::uint64_t damageUnderFaultTree(const sp::DecompositionTree& tree,
                                   const Fault& f);

}  // namespace rrsn::fault
