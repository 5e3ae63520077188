// The parallel runtime's two promises: (1) the primitives behave like
// their serial counterparts including exception propagation, and (2)
// every public analysis result is byte-identical whatever RRSN_THREADS
// is — damage vectors, fault dictionaries and fixed-seed EA archives.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>

#include "benchgen/registry.hpp"
#include "campaign/campaign.hpp"
#include "crit/analyzer.hpp"
#include "diag/diagnosis.hpp"
#include "harden/hardening.hpp"
#include "moo/spea2.hpp"
#include "obs/obs.hpp"
#include "rsn/example_networks.hpp"
#include "rsn/spec.hpp"
#include "support/parallel.hpp"

namespace rrsn {
namespace {

/// Runs fn with the pool fixed at `n` workers, then restores 1 worker so
/// tests stay order-independent.
template <typename Fn>
auto withThreads(std::size_t n, Fn&& fn) {
  setThreadCount(n);
  auto result = fn();
  setThreadCount(1);
  return result;
}

// ------------------------------------------------------------ primitives

TEST(Parallel, ThreadCountFollowsSetThreadCount) {
  setThreadCount(3);
  EXPECT_EQ(threadCount(), 3u);
  setThreadCount(1);
  EXPECT_EQ(threadCount(), 1u);
}

TEST(Parallel, ForCoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    setThreadCount(threads);
    const std::size_t n = 10'000;
    std::vector<std::atomic<int>> hits(n);
    parallelFor(n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
  }
  setThreadCount(1);
}

TEST(Parallel, ExceptionsPropagateToCaller) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    setThreadCount(threads);
    EXPECT_THROW(
        parallelFor(4'096,
                    [](std::size_t i) {
                      if (i == 2'000) throw Error("boom");
                    }),
        Error);
  }
  setThreadCount(1);
}

TEST(Parallel, NestedRegionsRunInline) {
  const auto total = withThreads(4, [] {
    std::atomic<std::uint64_t> sum{0};
    parallelFor(64, [&](std::size_t) {
      parallelFor(64, [&](std::size_t j) {
        sum.fetch_add(j, std::memory_order_relaxed);
      });
    });
    return sum.load();
  });
  EXPECT_EQ(total, 64u * (64u * 63u / 2u));
}

// ---------------------------------------------------------- cancellation

TEST(Cancellation, CancelIsLatching) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.cancelled());  // stays cancelled
}

TEST(Cancellation, DeadlineTripsTheToken) {
  CancellationToken token;
  token.setDeadlineFromNow(std::chrono::hours(1));
  EXPECT_FALSE(token.cancelled());
  token.setDeadlineFromNow(std::chrono::nanoseconds(0));
  EXPECT_TRUE(token.cancelled());
  // The deadline latches: clearing it afterwards cannot un-cancel.
  token.clearDeadline();
  EXPECT_TRUE(token.cancelled());
}

TEST(Cancellation, ClearDeadlineBeforeExpiryKeepsTokenLive) {
  CancellationToken token;
  token.setDeadlineFromNow(std::chrono::hours(1));
  token.clearDeadline();
  EXPECT_FALSE(token.cancelled());
}

TEST(Cancellation, NullTokenRunsEveryIndex) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    setThreadCount(threads);
    const std::size_t n = 4'096;
    std::vector<std::atomic<int>> hits(n);
    parallelForCancellable(n, nullptr, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
  }
  setThreadCount(1);
}

TEST(Cancellation, UntrippedTokenRunsEveryIndex) {
  const std::size_t n = 4'096;
  std::vector<std::atomic<int>> hits(n);
  CancellationToken token;
  withThreads(4, [&] {
    parallelForCancellable(n, &token, [&](std::size_t i) { ++hits[i]; });
    return 0;
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(Cancellation, PreCancelledTokenRunsNothing) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    setThreadCount(threads);
    CancellationToken token;
    token.cancel();
    std::atomic<std::size_t> ran{0};
    parallelForCancellable(4'096, &token, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 0u);
  }
  setThreadCount(1);
}

TEST(Cancellation, MidRunCancelSkipsWorkButNeverDuplicates) {
  // Cancel once a prefix of the work has run.  The contract is weak on
  // purpose (running chunks finish, unstarted chunks are skipped), so
  // assert exactly what callers may rely on: every index runs at most
  // once, and at least the triggering index ran.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    setThreadCount(threads);
    const std::size_t n = 50'000;
    std::vector<std::atomic<int>> hits(n);
    CancellationToken token;
    std::atomic<std::size_t> ran{0};
    parallelForCancellable(n, &token, [&](std::size_t i) {
      ++hits[i];
      if (ran.fetch_add(1) == 64) token.cancel();
    });
    EXPECT_TRUE(token.cancelled());
    EXPECT_GE(ran.load(), 65u);
    EXPECT_LT(ran.load(), n);  // the tail never started
    for (std::size_t i = 0; i < n; ++i) ASSERT_LE(hits[i].load(), 1);
  }
  setThreadCount(1);
}

// ----------------------------------------------------------- determinism
//
// The hard requirement of the runtime: public results must not depend on
// the thread count.  Each case computes the same artifact at 1 and 4
// workers and compares for exact equality.

TEST(ParallelDeterminism, CriticalityDamagesMatchAcrossThreadCounts) {
  const rsn::Network net = benchgen::buildBenchmark("MBIST_1_5_5");
  Rng rng(7);
  const rsn::CriticalitySpec spec = rsn::randomSpec(net, {}, rng);
  const auto run = [&] {
    return crit::CriticalityAnalyzer(net, spec).run().damages();
  };
  const auto serial = withThreads(1, run);
  const auto pooled = withThreads(4, run);
  EXPECT_EQ(serial, pooled);

  const auto oracle = [&] {
    return crit::bruteForceAnalysis(net, spec).damages();
  };
  EXPECT_EQ(withThreads(1, oracle), withThreads(4, oracle));
}

TEST(ParallelDeterminism, FaultDictionarySyndromesMatchAcrossThreadCounts) {
  const rsn::Network net = rsn::makeFig1Network();
  const auto serial = withThreads(1, [&] { return diag::FaultDictionary::build(net); });
  const auto pooled = withThreads(4, [&] { return diag::FaultDictionary::build(net); });
  ASSERT_EQ(serial.faults().size(), pooled.faults().size());
  EXPECT_EQ(serial.faultFreeSyndrome(), pooled.faultFreeSyndrome());
  for (std::size_t k = 0; k < serial.faults().size(); ++k) {
    ASSERT_EQ(serial.faults()[k], pooled.faults()[k]);
    ASSERT_EQ(serial.syndromeOf(k), pooled.syndromeOf(k)) << "fault " << k;
  }
}

TEST(ParallelDeterminism, Spea2ArchiveMatchesAcrossThreadCounts) {
  const rsn::Network net = benchgen::buildBenchmark("MBIST_1_5_5");
  Rng rng(11);
  const rsn::CriticalitySpec spec = rsn::randomSpec(net, {}, rng);
  const auto analysis = crit::CriticalityAnalyzer(net, spec).run();
  const auto problem = harden::HardeningProblem::assemble(net, analysis);
  moo::EvolutionOptions options;
  options.populationSize = 40;
  options.generations = 25;
  options.seed = 2022;
  const auto run = [&] { return moo::runSpea2(problem.linear, options); };
  const auto serial = withThreads(1, run);
  const auto pooled = withThreads(4, run);
  ASSERT_EQ(serial.archive.members().size(), pooled.archive.members().size());
  for (std::size_t i = 0; i < serial.archive.members().size(); ++i)
    ASSERT_TRUE(serial.archive.members()[i] == pooled.archive.members()[i])
        << "archive member " << i;
  EXPECT_EQ(serial.stats.evaluations, pooled.stats.evaluations);
}

TEST(ParallelDeterminism, Spea2KnnCandidatesMatchAcrossThreadCounts) {
  // The density walk's visit count is a deterministic work counter: a
  // function of the populations only, never of the pool width.
  const rsn::Network net = benchgen::buildBenchmark("MBIST_1_5_5");
  Rng rng(11);
  const rsn::CriticalitySpec spec = rsn::randomSpec(net, {}, rng);
  const auto analysis = crit::CriticalityAnalyzer(net, spec).run();
  const auto problem = harden::HardeningProblem::assemble(net, analysis);
  moo::EvolutionOptions options;
  options.populationSize = 40;
  options.generations = 25;
  options.seed = 2022;
  const auto candidates = [](const obs::Snapshot& snap) {
    std::uint64_t n = 0;
    for (const auto& [id, v] : snap.counters)
      if (snap.names[id] == "moo.spea2.knn_candidates") n += v;
    return n;
  };
  const auto run = [&] {
    obs::enable();
    const std::uint64_t before = candidates(obs::snapshot());
    (void)moo::runSpea2(problem.linear, options);
    const std::uint64_t after = candidates(obs::snapshot());
    obs::disable();
    return after - before;
  };
  const std::uint64_t serial = withThreads(1, run);
  EXPECT_GT(serial, 0u);
  EXPECT_EQ(withThreads(2, run), serial);
  EXPECT_EQ(withThreads(4, run), serial);
}

TEST(ParallelDeterminism, CampaignRerouteSearchesMatchAcrossThreadCounts) {
  // sim.reroute_searches counts the accesses whose nominal recipe failed
  // and which ran the reroute enumeration: a function of the sampled
  // scenarios only, never of the pool width or of how the instrument
  // blocks land on workers.  t512505's stuck(core_35=0) reroutes almost
  // every access and spreads over nine blocks.
  const rsn::Network net = benchgen::buildBenchmark("t512505");
  campaign::CampaignConfig config;
  config.sample = 6;
  config.seed = 2022;
  const char* const kCounters[] = {"sim.reroute_searches", "sim.reroutes",
                                   "sim.accesses", "sim.csu_rounds",
                                   "campaign.probes"};
  const auto run = [&] {
    const auto read = [&](const obs::Snapshot& snap) {
      std::vector<std::uint64_t> values;
      for (const char* name : kCounters) {
        std::uint64_t n = 0;
        for (const auto& [id, v] : snap.counters)
          if (snap.names[id] == name) n += v;
        values.push_back(n);
      }
      return values;
    };
    obs::enable();
    const std::vector<std::uint64_t> before = read(obs::snapshot());
    (void)campaign::CampaignEngine(net, config).run();
    std::vector<std::uint64_t> work = read(obs::snapshot());
    obs::disable();
    for (std::size_t k = 0; k < work.size(); ++k) work[k] -= before[k];
    return work;
  };
  const std::vector<std::uint64_t> serial = withThreads(1, run);
  EXPECT_GT(serial[0], 0u);
  EXPECT_EQ(withThreads(2, run), serial);
  EXPECT_EQ(withThreads(4, run), serial);
}

}  // namespace
}  // namespace rrsn
