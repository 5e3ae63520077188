// Cross-cutting property tests: structural invariants of the
// decomposition tree that the fast criticality walk relies on, lint
// cleanliness of the generators, arena round trips, and the certifier
// against its oracle on randomized and benchmark networks.
#include <gtest/gtest.h>

#include <algorithm>

#include "benchgen/generators.hpp"
#include "benchgen/registry.hpp"
#include "campaign/campaign.hpp"
#include "diag/batched.hpp"
#include "lint/lint.hpp"
#include "rsn/flat.hpp"
#include "rsn/spec.hpp"
#include "sim/simulator.hpp"
#include "sp/decomposition.hpp"
#include "support/parallel.hpp"
#include "test_util.hpp"
#include "verify/certifier.hpp"

namespace rrsn {
namespace {

// ------------------------------------------------- decomposition shape

class TreeInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreeInvariants, ParentChildPointersConsistent) {
  Rng rng(GetParam() * 77 + 13);
  const rsn::Network net = test::randomNetwork(rng);
  const auto tree = sp::DecompositionTree::build(net);

  std::size_t rootCount = 0;
  for (sp::TreeId id = 0; id < tree.nodeCount(); ++id) {
    const auto& n = tree.node(id);
    if (n.parent == sp::kNoTree) {
      ++rootCount;
      EXPECT_EQ(id, tree.root());
    } else {
      const auto& p = tree.node(n.parent);
      EXPECT_TRUE(p.left == id || p.right == id);
    }
    if (n.kind == sp::TreeKind::Series || n.kind == sp::TreeKind::Parallel) {
      ASSERT_NE(n.left, sp::kNoTree);
      ASSERT_NE(n.right, sp::kNoTree);
      EXPECT_EQ(tree.node(n.left).parent, id);
      EXPECT_EQ(tree.node(n.right).parent, id);
    } else {
      EXPECT_EQ(n.left, sp::kNoTree);
      EXPECT_EQ(n.right, sp::kNoTree);
    }
  }
  EXPECT_EQ(rootCount, 1u);
}

TEST_P(TreeInvariants, AnnotationSumsAreExact) {
  Rng rng(GetParam() * 77 + 13);
  const rsn::Network net = test::randomNetwork(rng);
  const auto spec = test::randomSpecFor(net, rng);
  auto tree = sp::DecompositionTree::build(net);
  tree.annotate(spec);
  // Root carries the totals; every internal node equals its children.
  const auto& root = tree.node(tree.root());
  EXPECT_EQ(root.sumObs, spec.totalObs());
  EXPECT_EQ(root.sumSet, spec.totalSet());
  EXPECT_EQ(root.instruments, net.instruments().size());
  for (sp::TreeId id = 0; id < tree.nodeCount(); ++id) {
    const auto& n = tree.node(id);
    if (n.kind != sp::TreeKind::Series && n.kind != sp::TreeKind::Parallel)
      continue;
    EXPECT_EQ(n.sumObs, tree.node(n.left).sumObs + tree.node(n.right).sumObs);
    EXPECT_EQ(n.sumSet, tree.node(n.left).sumSet + tree.node(n.right).sumSet);
  }
}

TEST_P(TreeInvariants, ParallelGroupsCarryTheirMux) {
  Rng rng(GetParam() * 77 + 13);
  const rsn::Network net = test::randomNetwork(rng);
  const auto tree = sp::DecompositionTree::build(net);
  // Every mux has a topmost P vertex; every P vertex between the branch
  // roots and the topmost P carries the same mux id.
  for (rsn::MuxId m = 0; m < net.muxes().size(); ++m) {
    const sp::TreeId top = tree.parallelOfMux(m);
    ASSERT_NE(top, sp::kNoTree);
    EXPECT_EQ(tree.node(top).kind, sp::TreeKind::Parallel);
    EXPECT_EQ(tree.node(top).prim, m);
    for (sp::TreeId branch : tree.branchesOfMux(m)) {
      // Walking up from a branch root hits only P vertices of mux m
      // until the topmost is passed.
      sp::TreeId cur = tree.node(branch).parent;
      while (cur != sp::kNoTree) {
        const auto& n = tree.node(cur);
        ASSERT_EQ(n.kind, sp::TreeKind::Parallel);
        ASSERT_EQ(n.prim, m);
        if (cur == top) break;
        cur = n.parent;
      }
    }
  }
}

TEST_P(TreeInvariants, ScanOrderMatchesSimulatorFullPath) {
  // The tree's in-order leaf sequence must be consistent with every
  // realizable scan path: the simulator's reset-time active path is a
  // subsequence of it.
  Rng rng(GetParam() * 77 + 13);
  const rsn::Network net = test::randomNetwork(rng);
  const auto tree = sp::DecompositionTree::build(net);
  const auto order = tree.scanOrder();
  std::vector<std::size_t> pos(net.segments().size());
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;

  sim::ScanSimulator simulator(net);
  const auto path = simulator.activePath();
  ASSERT_TRUE(path.has_value());
  for (std::size_t i = 1; i < path->segments.size(); ++i)
    EXPECT_LT(pos[path->segments[i - 1]], pos[path->segments[i]]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeInvariants,
                         ::testing::Range<std::uint64_t>(1, 13));

// ------------------------------------------------------- lint property

class LintCleanGenerators : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LintCleanGenerators, RandomNetworkAndSpecLintWithoutErrors) {
  // Whatever the experiment generators emit (random networks with the
  // paper's 70%/70%/10%/10% spec scheme) must pass the fail-fast gate:
  // a generator that trips error-severity rules would abort every
  // criticality sweep and campaign built on it.  Warnings and notes are
  // expected (e.g. TAP-steered muxes carry no control register).
  Rng rng(GetParam() * 1031 + 7);
  const rsn::Network net = test::randomNetwork(rng);
  const rsn::CriticalitySpec spec = test::randomSpecFor(net, rng);
  lint::LintOptions opts;
  opts.spec = &spec;
  const lint::LintResult result = lint::runLint(net, opts);
  EXPECT_EQ(result.errors, 0u) << lint::textReport(result, net.name());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LintCleanGenerators,
                         ::testing::Range<std::uint64_t>(1, 13));

class FlatRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

// lower -> serialize -> reload must reproduce the exact arena for any
// network the random generator can produce, and lowering twice (with
// and without a spec) must be byte-deterministic.
TEST_P(FlatRoundTrip, LowerSerializeReloadCompare) {
  Rng rng(GetParam() * 71 + 5);
  const rsn::Network net = test::randomNetwork(rng);
  const rsn::CriticalitySpec spec = test::randomSpecFor(net, rng);
  const auto flat = rsn::FlatNetwork::lower(net, &spec);
  const auto again = rsn::FlatNetwork::lower(net, &spec);
  ASSERT_TRUE(*flat == *again) << "lowering is not deterministic";

  std::shared_ptr<const rsn::FlatNetwork> loaded;
  const Status st = rsn::FlatNetwork::deserialize(flat->buffer(), loaded);
  ASSERT_TRUE(st.ok()) << st.toString();
  ASSERT_TRUE(*loaded == *flat);
  EXPECT_EQ(loaded->fingerprint(), flat->fingerprint());
  EXPECT_EQ(loaded->segmentCount(), net.segments().size());
  EXPECT_EQ(loaded->muxCount(), net.muxes().size());
  for (rsn::SegmentId s = 0; s < net.segments().size(); ++s)
    ASSERT_EQ(loaded->segLength()[s], net.segment(s).length);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatRoundTrip,
                         ::testing::Range<std::uint64_t>(1, 13));

/// Certifier verdicts vs the campaign accessibility oracle on the
/// faults in `sample` (stride over the universe; 1 = exhaustive), at
/// every thread count in {1, 2, 4}.  The verdict rows must also be
/// byte-identical across thread counts.
void expectCertifierMatchesOracle(const rsn::Network& net,
                                  std::size_t stride) {
  const std::size_t saved = threadCount();
  std::vector<std::string> rowsPerThreadCount;
  verify::CertificationResult result;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    setThreadCount(threads);
    verify::CertifyOptions options;
    options.crossCheck = false;  // this test is the independent check
    result = verify::Certifier(net).run(options);
    std::string rows;
    for (std::size_t fi = 0; fi < result.universe.size(); ++fi) {
      rows += result.readRow(fi);
      rows += result.writeRow(fi);
    }
    rowsPerThreadCount.push_back(std::move(rows));
  }
  setThreadCount(saved);
  ASSERT_EQ(rowsPerThreadCount.size(), 3u);
  EXPECT_EQ(rowsPerThreadCount[0], rowsPerThreadCount[1]);
  EXPECT_EQ(rowsPerThreadCount[0], rowsPerThreadCount[2]);

  ASSERT_EQ(result.summary().unknownCells(), 0u);
  const diag::BatchedSyndromeEngine oracle(net);
  for (std::size_t fi = 0; fi < result.universe.size(); fi += stride) {
    const fault::Fault& f = result.universe[fi];
    const campaign::Expectation expect = campaign::expectedAccessibility(
        oracle, result.instruments, f, /*worker=*/0);
    for (std::size_t i = 0; i < result.instruments; ++i) {
      ASSERT_EQ(result.read(fi, i) == verify::Verdict::Proven,
                expect.observable.test(i))
          << net.name() << ": " << fault::describe(net, f) << " read @" << i;
      ASSERT_EQ(result.write(fi, i) == verify::Verdict::Proven,
                expect.settable.test(i))
          << net.name() << ": " << fault::describe(net, f) << " write @" << i;
    }
  }
}

TEST(CertifierOracleSweep, TableOneBenchmarksExhaustive) {
  for (const char* name : {"TreeFlat", "TreeUnbalanced", "q12710"}) {
    expectCertifierMatchesOracle(benchgen::buildBenchmark(name),
                                 /*stride=*/1);
  }
}

TEST(CertifierOracleSweep, MbistClassExhaustive) {
  expectCertifierMatchesOracle(benchgen::buildBenchmark("MBIST_1_5_5"),
                               /*stride=*/1);
}

TEST(CertifierOracleSweep, HugeShapeSampled) {
  // The HUGE_* generator shape at a test-sized scale: a 16-ary SIB tree
  // with long control chains.  Sampled fault subset (every 17th row)
  // keeps the oracle replay affordable.
  const rsn::Network net = benchgen::makeHuge("huge2k", 2048, 128, 16);
  expectCertifierMatchesOracle(net, /*stride=*/17);
}

class CertifierRandomSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CertifierRandomSweep, RandomNetworkExhaustive) {
  Rng rng(GetParam() * 131 + 7);
  expectCertifierMatchesOracle(test::randomNetwork(rng), /*stride=*/1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CertifierRandomSweep,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace rrsn
