#include "rsn/structure.hpp"

namespace rrsn::rsn {

NodeId Structure::makeWire() {
  nodes_.push_back(Node{NodeKind::Wire, kNone, {}});
  return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId Structure::makeSegment(SegmentId segment) {
  nodes_.push_back(Node{NodeKind::Segment, segment, {}});
  return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId Structure::makeSerial(std::vector<NodeId> parts) {
  RRSN_CHECK(!parts.empty(), "a serial composition needs at least one part");
  for (NodeId p : parts)
    RRSN_CHECK(p < nodes_.size(), "serial part references unknown node");
  nodes_.push_back(Node{NodeKind::Serial, kNone, std::move(parts)});
  return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId Structure::makeMuxJoin(MuxId mux, std::vector<NodeId> branches) {
  RRSN_CHECK(branches.size() >= 2,
             "a scan multiplexer needs at least two branches");
  for (NodeId b : branches)
    RRSN_CHECK(b < nodes_.size(), "mux branch references unknown node");
  nodes_.push_back(Node{NodeKind::MuxJoin, mux, std::move(branches)});
  return static_cast<NodeId>(nodes_.size() - 1);
}

void Structure::setRoot(NodeId id) {
  RRSN_CHECK(id < nodes_.size(), "root references unknown node");
  root_ = id;
}

}  // namespace rrsn::rsn
