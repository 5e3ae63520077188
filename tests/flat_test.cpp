// FlatNetwork: the one scan-graph model every graph consumer shares.
// Covers the lowering against fields recomputed from the Network and
// its Structure tree, golden arena pins, the simulator's active path as
// an independent check of the data graph and its guards,
// serialization round-trips (byte-determinism at any thread count),
// typed-Status rejection of corrupt/foreign buffers, the campaign's
// flatten-once contract and engine equivalence on a reloaded arena.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "benchgen/registry.hpp"
#include "campaign/campaign.hpp"
#include "diag/batched.hpp"
#include "diag/diagnosis.hpp"
#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "rsn/example_networks.hpp"
#include "rsn/flat.hpp"
#include "sim/simulator.hpp"
#include "support/parallel.hpp"
#include "test_util.hpp"

namespace rrsn::rsn {
namespace {

std::shared_ptr<const FlatNetwork> reload(const FlatNetwork& flat) {
  std::shared_ptr<const FlatNetwork> out;
  const Status st = FlatNetwork::deserialize(flat.buffer(), out);
  EXPECT_TRUE(st.ok()) << st.toString();
  return out;
}

std::uint64_t counterValue(const obs::Snapshot& snap, const std::string& name) {
  for (const auto& [id, v] : snap.counters)
    if (snap.names[id] == name) return v;
  return 0;
}

/// Exit vertex of structure node `id` entered from `entry`, recomputed
/// from the tree and the canonical numbering (segment s = 1 + s, mux m =
/// 1 + S + 2m) rather than read from the arena.
graph::VertexId exitOf(const Network& net, NodeId id, graph::VertexId entry) {
  const auto& n = net.structure().node(id);
  switch (n.kind) {
    case NodeKind::Wire:
      return entry;
    case NodeKind::Segment:
      return static_cast<graph::VertexId>(1 + n.prim);
    case NodeKind::Serial:
      for (const NodeId c : n.children) entry = exitOf(net, c, entry);
      return entry;
    case NodeKind::MuxJoin:
      return static_cast<graph::VertexId>(1 + net.segments().size() +
                                          2 * n.prim);
  }
  return graph::kNoVertex;
}

TEST(FlatNetwork, LowerMatchesNetwork) {
  Rng rng(3);
  for (int round = 0; round < 8; ++round) {
    const Network net = test::randomNetwork(rng);
    const auto flat = FlatNetwork::lower(net);
    const std::size_t S = net.segments().size();
    const std::size_t M = net.muxes().size();

    ASSERT_EQ(flat->segmentCount(), S);
    ASSERT_EQ(flat->muxCount(), M);
    ASSERT_EQ(flat->instrumentCount(), net.instruments().size());
    ASSERT_EQ(flat->vertexCount(), 2 + S + 2 * M);
    EXPECT_EQ(flat->scanIn(), 0u);
    EXPECT_EQ(flat->scanOut(), 1 + S + 2 * M);

    for (SegmentId s = 0; s < S; ++s) {
      EXPECT_EQ(flat->segLength()[s], net.segment(s).length);
      EXPECT_EQ(flat->segInstrument()[s], net.segment(s).instrument);
      EXPECT_EQ((flat->segFlags()[s] & FlatNetwork::kSegFlagSib) != 0,
                net.segment(s).isSibRegister);
      EXPECT_EQ(flat->segmentVertex()[s], 1 + s);
    }
    for (MuxId m = 0; m < M; ++m) {
      EXPECT_EQ(flat->muxControl()[m], net.mux(m).controlSegment);
      EXPECT_EQ(flat->muxVertex()[m], 1 + S + 2 * m);
      EXPECT_EQ(flat->fanoutVertex(m), 2 + S + 2 * m);
      EXPECT_EQ(flat->muxOfVertex()[flat->muxVertex()[m]], m);
      if (flat->muxControl()[m] != kNone) {
        EXPECT_EQ(flat->muxCtrlVertex()[m],
                  flat->segmentVertex()[flat->muxControl()[m]]);
      }
    }
    // Branch CSR row m reproduces the structure's branch exits.
    net.structure().preOrder([&](NodeId id) {
      const auto& n = net.structure().node(id);
      if (n.kind != NodeKind::MuxJoin) return;
      const auto begin = flat->muxBranchOffsets()[n.prim];
      ASSERT_EQ(flat->muxArity()[n.prim], n.children.size());
      ASSERT_EQ(flat->muxBranchOffsets()[n.prim + 1] - begin,
                n.children.size());
      for (std::size_t b = 0; b < n.children.size(); ++b)
        EXPECT_EQ(flat->muxBranchExit()[begin + b],
                  exitOf(net, n.children[b], flat->fanoutVertex(n.prim)))
            << net.mux(n.prim).name << " branch " << b;
    });
    for (InstrumentId i = 0; i < net.instruments().size(); ++i) {
      EXPECT_EQ(flat->instrumentSegment()[i], net.instrument(i).segment);
      EXPECT_EQ(flat->instrumentVertex()[i],
                flat->segmentVertex()[net.instrument(i).segment]);
    }

    // The transposed CSR holds exactly the forward edges, reversed.
    std::vector<std::pair<graph::VertexId, graph::VertexId>> fwd, bwd;
    for (graph::VertexId v = 0; v < flat->vertexCount(); ++v) {
      for (auto e = flat->fwdOffsets()[v]; e < flat->fwdOffsets()[v + 1]; ++e)
        fwd.emplace_back(v, flat->fwdEdges()[e].other);
      for (auto e = flat->bwdOffsets()[v]; e < flat->bwdOffsets()[v + 1]; ++e)
        bwd.emplace_back(flat->bwdEdges()[e].other, v);
    }
    std::sort(fwd.begin(), fwd.end());
    std::sort(bwd.begin(), bwd.end());
    EXPECT_EQ(fwd, bwd);
  }
}

// Arena bytes are part of the serve cache keys and FlatStore files: the
// lowering must keep producing these exact arenas.
TEST(FlatNetwork, GoldenArenaPins) {
  struct Pin {
    const char* name;
    std::uint64_t fingerprint;
    std::size_t bytes;
  };
  const Pin pins[] = {
      {"fig1", 17753927832213621355ULL, 3520},
      {"tiny", 2581435527918527374ULL, 2752},
      {"TreeFlat", 5246585657605120766ULL, 8320},
      {"q12710", 7920148873956764241ULL, 10560},
      {"p34392", 17389228136846130908ULL, 50560},
      {"t512505", 6895901728010784113ULL, 57664},
      {"MBIST_1_5_20", 7373017715228303819ULL, 135744},
      {"MBIST_2_20_20", 12083868799036039895ULL, 1063232},
  };
  for (const Pin& pin : pins) {
    const std::string name = pin.name;
    const Network net = name == "fig1"   ? makeFig1Network()
                        : name == "tiny" ? makeTinyNetwork()
                                         : benchgen::buildBenchmark(name);
    const auto flat = FlatNetwork::lower(net);
    EXPECT_EQ(flat->fingerprint(), pin.fingerprint) << name;
    EXPECT_EQ(flat->buffer().size(), pin.bytes) << name;
  }
}

// A mux's bypass wires all exit at its fan-out vertex, so each of the
// parallel fan-out -> mux edges carries the span of every wire branch,
// and every other branch has a one-branch span of its own exit.
TEST(FlatNetwork, ParallelWireBranchesShareOneSpan) {
  const Network net = test::wideMuxNetwork(2000);
  const auto flat = FlatNetwork::lower(net);
  const MuxId m = net.findMux("wide");
  const graph::VertexId fanout = flat->fanoutVertex(m);
  const graph::VertexId mx = flat->muxVertex()[m];
  const auto exits = flat->muxBranchExit();
  const std::uint32_t begin = flat->muxBranchOffsets()[m];
  std::vector<std::uint32_t> wires;
  for (std::uint32_t b = 0; b < flat->muxArity()[m]; ++b)
    if (exits[begin + b] == fanout) wires.push_back(b);
  ASSERT_EQ(wires.size(), 286u);  // branches 3, 10, ..., 1998

  const auto pool = flat->branchPool();
  const auto spanOf = [&](const FlatNetwork::Edge& e) {
    return std::vector<std::uint32_t>(pool.begin() + e.branchBegin,
                                      pool.begin() + e.branchEnd);
  };
  std::size_t parallel = 0;
  for (auto e = flat->fwdOffsets()[fanout]; e < flat->fwdOffsets()[fanout + 1];
       ++e) {
    const auto& edge = flat->fwdEdges()[e];
    if (edge.other != mx) continue;
    ++parallel;
    EXPECT_EQ(edge.mux, m);
    EXPECT_EQ(spanOf(edge), wires);
  }
  EXPECT_EQ(parallel, wires.size());
  std::size_t rows = 0;
  for (auto e = flat->bwdOffsets()[mx]; e < flat->bwdOffsets()[mx + 1]; ++e) {
    const auto& edge = flat->bwdEdges()[e];
    ++rows;
    if (edge.other == fanout) {
      EXPECT_EQ(spanOf(edge), wires);
      continue;
    }
    const auto span = spanOf(edge);
    ASSERT_EQ(span.size(), 1u);
    EXPECT_EQ(exits[begin + span[0]], edge.other);
  }
  EXPECT_EQ(rows, flat->muxArity()[m]);
}

// Independent check of the data graph and its guards: the simulator
// walks the Structure tree, never the arena.  Every mux is pinned to a
// random branch (a stuck fault ignores the address), and the active path
// must then be an SI -> SO walk of the forward CSR through exactly its
// segments, entering each mux over an edge whose guard admits the
// selected branch.
TEST(FlatNetwork, ActivePathFollowsOpenForwardEdges) {
  Rng rng(41);
  for (int round = 0; round < 12; ++round) {
    const Network net = test::randomNetwork(rng);
    const auto flat = FlatNetwork::lower(net);
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<std::uint32_t> sel(net.muxes().size());
      std::vector<fault::Fault> pins;
      for (MuxId m = 0; m < net.muxes().size(); ++m) {
        sel[m] = static_cast<std::uint32_t>(
            rng.range(0, std::int64_t{flat->muxArity()[m]} - 1));
        pins.push_back(fault::Fault::muxStuck(m, sel[m]));
      }
      sim::ScanSimulator sim(net);
      sim.injectFaults(pins);
      const auto path = sim.activePath();
      ASSERT_TRUE(path.has_value());

      const auto open = [&](const FlatNetwork::Edge& e) {
        if (e.mux == kNone) return true;
        for (auto k = e.branchBegin; k < e.branchEnd; ++k)
          if (flat->branchPool()[k] == sel[e.mux]) return true;
        return false;
      };
      // Anchors: SI, the path's segments in order, SO.  Consecutive
      // anchors must connect through open edges and non-segment
      // vertices (fan-outs and muxes) only.
      std::vector<graph::VertexId> anchors{flat->scanIn()};
      for (const SegmentId s : path->segments)
        anchors.push_back(flat->segmentVertex()[s]);
      anchors.push_back(flat->scanOut());
      const auto isSegment = [&](graph::VertexId v) {
        return v >= 1 && v <= net.segments().size();
      };
      for (std::size_t k = 0; k + 1 < anchors.size(); ++k) {
        std::vector<char> seen(flat->vertexCount(), 0);
        std::vector<graph::VertexId> stack{anchors[k]};
        bool reached = false;
        while (!stack.empty() && !reached) {
          const graph::VertexId v = stack.back();
          stack.pop_back();
          for (auto e = flat->fwdOffsets()[v]; e < flat->fwdOffsets()[v + 1];
               ++e) {
            const FlatNetwork::Edge& edge = flat->fwdEdges()[e];
            if (!open(edge)) continue;
            if (edge.other == anchors[k + 1]) {
              reached = true;
              break;
            }
            if (isSegment(edge.other) || seen[edge.other] != 0) continue;
            seen[edge.other] = 1;
            stack.push_back(edge.other);
          }
        }
        EXPECT_TRUE(reached) << "round " << round << " trial " << trial
                             << ": no open edge walk from vertex "
                             << anchors[k] << " to " << anchors[k + 1];
      }
    }
  }
}

TEST(FlatNetwork, WeightsFollowSpec) {
  Rng rng(11);
  const Network net = test::randomNetwork(rng);
  const CriticalitySpec spec = test::randomSpecFor(net, rng);
  const auto flat = FlatNetwork::lower(net, &spec);
  for (InstrumentId i = 0; i < net.instruments().size(); ++i) {
    EXPECT_EQ(flat->instrumentObsWeight()[i], spec.of(i).obs);
    EXPECT_EQ(flat->instrumentSetWeight()[i], spec.of(i).set);
  }
  // Without a spec the weight lanes are zero-filled, not garbage.
  const auto bare = FlatNetwork::lower(net);
  for (InstrumentId i = 0; i < net.instruments().size(); ++i)
    EXPECT_EQ(bare->instrumentObsWeight()[i], 0u);
}

TEST(FlatNetwork, RoundTripAndByteDeterminism) {
  const Network net = makeFig1Network();
  const auto flat = FlatNetwork::lower(net);

  const auto loaded = reload(*flat);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->fingerprint(), flat->fingerprint());
  EXPECT_TRUE(*loaded == *flat);
  EXPECT_EQ(loaded->segmentCount(), flat->segmentCount());
  EXPECT_EQ(loaded->buffer(), flat->buffer());

  // The arena is a pure function of the network: byte-identical at any
  // pool width (the runtime determinism contract extends to lowering).
  const std::size_t before = threadCount();
  for (const std::size_t t : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    setThreadCount(t);
    const auto again = FlatNetwork::lower(net);
    EXPECT_EQ(again->buffer(), flat->buffer()) << "threads=" << t;
  }
  setThreadCount(before);
}

TEST(FlatNetwork, RejectsCorruptBuffersWithTypedStatus) {
  const Network net = makeFig1Network();
  const auto flat = FlatNetwork::lower(net);
  const std::vector<std::uint8_t>& good = flat->buffer();

  const auto rejects = [](std::vector<std::uint8_t> buf) -> Status {
    std::shared_ptr<const FlatNetwork> out;
    Status st{};
    EXPECT_NO_THROW(st = FlatNetwork::deserialize(std::move(buf), out));
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(out, nullptr);
    return st;
  };

  (void)rejects({});                                   // empty
  (void)rejects(std::vector<std::uint8_t>(16, 0xab));  // way too short
  EXPECT_EQ(rejects({good.begin(),
                     good.begin() + static_cast<std::ptrdiff_t>(
                                        good.size() / 2)})
                .code(),
            StatusCode::kDataLoss);

  {  // foreign magic
    std::vector<std::uint8_t> bad = good;
    bad[0] ^= 0xff;
    const Status st = rejects(std::move(bad));
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.toString();
    EXPECT_NE(st.message().find("magic"), std::string::npos)
        << st.toString();
  }
  {  // version bump (format field is the u32 at byte 8)
    std::vector<std::uint8_t> bad = good;
    std::uint32_t version = 0;
    std::memcpy(&version, bad.data() + 8, sizeof version);
    version += 1;
    std::memcpy(bad.data() + 8, &version, sizeof version);
    const Status st = rejects(std::move(bad));
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.toString();
    EXPECT_NE(st.message().find("version"), std::string::npos)
        << st.toString();
  }
  {  // payload bit flip -> fingerprint mismatch.  Flip inside the first
     // section payload (the 64-byte-aligned slot after header + table);
     // the zero padding after the last section is outside the
     // fingerprint, so the arena's final byte would not do.
    std::vector<std::uint8_t> bad = good;
    bad[896] ^= 0x01;
    const Status st = rejects(std::move(bad));
    EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.toString();
  }
  {  // trailing garbage -> size mismatch
    std::vector<std::uint8_t> bad = good;
    bad.push_back(0);
    (void)rejects(std::move(bad));
  }

  // And the pristine buffer still loads after all that.
  EXPECT_NE(reload(*flat), nullptr);
}

TEST(FlatNetwork, CampaignFlattensOncePerEngine) {
  const Network net = makeFig1Network();
  obs::enable();
  const obs::Snapshot before = obs::snapshot();
  campaign::CampaignEngine engine(net);
  (void)engine.run();
  (void)engine.run();
  const obs::Snapshot after = obs::snapshot();
  obs::disable();
  EXPECT_EQ(counterValue(after, "flat.flatten_calls") -
                counterValue(before, "flat.flatten_calls"),
            1u)
      << "the campaign must lower once at construction and share the "
         "arena across runs";
}

TEST(FlatNetwork, DeserializedEngineMatchesDirectLowering) {
  Rng rng(29);
  const Network net = test::randomNetwork(rng);
  const auto flat = FlatNetwork::lower(net);
  const auto loaded = reload(*flat);
  ASSERT_NE(loaded, nullptr);

  const diag::BatchedSyndromeEngine direct(flat);
  const diag::BatchedSyndromeEngine reloaded(loaded);
  const fault::FaultUniverse universe(net);
  for (const fault::Fault& f : universe.faults())
    EXPECT_EQ(direct.row(&f, 0), reloaded.row(&f, 0))
        << fault::describe(net, f);
}

}  // namespace
}  // namespace rrsn::rsn
