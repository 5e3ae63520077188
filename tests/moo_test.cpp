#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "benchgen/registry.hpp"
#include "crit/analyzer.hpp"
#include "harden/hardening.hpp"
#include "moo/baselines.hpp"
#include "moo/nsga2.hpp"
#include "moo/spea2.hpp"
#include "rsn/spec.hpp"
#include "support/hash.hpp"

namespace rrsn::moo {
namespace {

/// Small random-but-fixed knapsack instance.
LinearBiProblem smallProblem(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  LinearBiProblem p;
  for (std::size_t i = 0; i < n; ++i) {
    p.cost.push_back(static_cast<std::uint64_t>(rng.range(1, 9)));
    p.gain.push_back(static_cast<std::uint64_t>(rng.range(0, 50)));
  }
  return p;
}

// ------------------------------------------------------------ dominance

TEST(Dominance, Basics) {
  EXPECT_TRUE(dominates({1, 1}, {2, 2}));
  EXPECT_TRUE(dominates({1, 2}, {2, 2}));
  EXPECT_TRUE(dominates({2, 1}, {2, 2}));
  EXPECT_FALSE(dominates({2, 2}, {2, 2}));  // equal: no strict improvement
  EXPECT_FALSE(dominates({1, 3}, {2, 2}));  // trade-off
  EXPECT_FALSE(dominates({3, 1}, {2, 2}));
}

// --------------------------------------------------------------- genome

TEST(Genome, ConstructionNormalizes) {
  const Genome g(10, {7, 3, 3, 9});
  EXPECT_EQ(g.indices(), (std::vector<std::uint32_t>{3, 7, 9}));
  EXPECT_TRUE(g.test(3));
  EXPECT_FALSE(g.test(4));
  EXPECT_THROW(Genome(5, {5}), Error);
}

TEST(Genome, FlipTogglesMembership) {
  Genome g(10);
  g.flip(4);
  EXPECT_TRUE(g.test(4));
  g.flip(4);
  EXPECT_FALSE(g.test(4));
  EXPECT_TRUE(std::is_sorted(g.indices().begin(), g.indices().end()));
}

TEST(Genome, CrossoverSplitsAtPoint) {
  const Genome a(10, {0, 1, 2, 3, 4});
  const Genome b(10, {5, 6, 7, 8, 9});
  const Genome c = Genome::crossover(a, b, 5);
  EXPECT_EQ(c.indices(), (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  const Genome d = Genome::crossover(a, b, 0);
  EXPECT_EQ(d, b);
  const Genome e = Genome::crossover(a, b, 10);
  EXPECT_EQ(e, a);
}

TEST(Genome, CrossoverMatchesBitwiseDefinition) {
  Rng rng(3);
  for (int round = 0; round < 50; ++round) {
    const Genome a = Genome::random(64, 0.3, rng);
    const Genome b = Genome::random(64, 0.3, rng);
    const auto point = static_cast<std::size_t>(rng.below(65));
    const Genome c = Genome::crossover(a, b, point);
    for (std::uint32_t i = 0; i < 64; ++i) {
      const bool want = i < point ? a.test(i) : b.test(i);
      ASSERT_EQ(c.test(i), want) << "point=" << point << " i=" << i;
    }
  }
}

TEST(Genome, MutationKeepsInvariants) {
  Rng rng(5);
  Genome g = Genome::random(200, 0.2, rng);
  for (int round = 0; round < 30; ++round) {
    g.mutatePerBit(0.05, rng);
    const auto& ones = g.indices();
    ASSERT_TRUE(std::is_sorted(ones.begin(), ones.end()));
    ASSERT_TRUE(std::adjacent_find(ones.begin(), ones.end()) == ones.end());
    if (!ones.empty()) {
      ASSERT_LT(ones.back(), 200u);
    }
  }
}

TEST(Genome, MutationFlipRate) {
  Rng rng(11);
  const std::size_t bits = 10000;
  Genome g(bits);
  g.mutatePerBit(0.01, rng);
  // ~100 expected flips from the all-zero genome.
  EXPECT_GT(g.ones(), 50u);
  EXPECT_LT(g.ones(), 170u);
}

TEST(Genome, RandomDensity) {
  Rng rng(13);
  const Genome g = Genome::random(10000, 0.1, rng);
  EXPECT_GT(g.ones(), 800u);
  EXPECT_LT(g.ones(), 1200u);
}

TEST(Genome, EvaluateMatchesBruteForce) {
  Rng rng(17);
  const LinearBiProblem p = smallProblem(64, 2);
  const std::uint64_t total = p.damageTotal();
  for (int round = 0; round < 40; ++round) {
    const Genome g = Genome::random(64, rng.uniform(), rng);
    const Objectives obj = evaluate(p, g, total);
    std::uint64_t cost = 0, damage = 0;
    for (std::uint32_t i = 0; i < 64; ++i) {
      if (g.test(i)) cost += p.cost[i];
      else damage += p.gain[i];
    }
    ASSERT_EQ(obj.cost, cost);
    ASSERT_EQ(obj.damage, damage);
  }
}

// --------------------------------------------------------------- pareto

TEST(ParetoArchive, KeepsOnlyNondominated) {
  ParetoArchive arch;
  Individual a;
  a.obj = {10, 10};
  EXPECT_TRUE(arch.add(a));
  Individual worse;
  worse.obj = {11, 11};
  EXPECT_FALSE(arch.add(worse));
  Individual better;
  better.obj = {5, 5};
  EXPECT_TRUE(arch.add(better));
  EXPECT_EQ(arch.size(), 1u);  // {10,10} evicted
  Individual tradeoff;
  tradeoff.obj = {8, 6};
  EXPECT_FALSE(arch.add(tradeoff));  // dominated by {5,5}
  Individual other;
  other.obj = {2, 20};
  EXPECT_TRUE(arch.add(other));
  EXPECT_EQ(arch.size(), 2u);
  // Sorted by cost.
  EXPECT_EQ(arch.members()[0].obj.cost, 2u);
}

TEST(ParetoArchive, DuplicateObjectivesRejected) {
  ParetoArchive arch;
  Individual a;
  a.obj = {3, 3};
  EXPECT_TRUE(arch.add(a));
  EXPECT_FALSE(arch.add(a));
}

TEST(ParetoArchive, BoundedQueries) {
  ParetoArchive arch;
  for (std::uint64_t c = 1; c <= 5; ++c) {
    Individual ind;
    ind.obj = {c * 10, 100 - c * 15};
    arch.add(ind);
  }
  const auto cheap = arch.minCostWithDamageAtMost(55);
  ASSERT_TRUE(cheap.has_value());
  EXPECT_EQ(cheap->obj.cost, 30u);  // damage 55
  const auto best = arch.minDamageWithCostAtMost(35);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->obj.damage, 55u);
  EXPECT_FALSE(arch.minCostWithDamageAtMost(0).has_value());
  EXPECT_FALSE(arch.minDamageWithCostAtMost(5).has_value());
}

TEST(Front, NondominatedFrontCleans) {
  const auto front = nondominatedFront(
      {{3, 3}, {1, 5}, {5, 1}, {3, 3}, {2, 6}, {6, 6}});
  ASSERT_EQ(front.size(), 3u);
  EXPECT_EQ(front[0], (Objectives{1, 5}));
  EXPECT_EQ(front[1], (Objectives{3, 3}));
  EXPECT_EQ(front[2], (Objectives{5, 1}));
}

TEST(Metrics, Hypervolume2DKnownValue) {
  // Two points vs ref (10, 10): (2,6) spans 8*4=32; (5,3) adds 5*3=15.
  const double hv = hypervolume2D({{2, 6}, {5, 3}}, {10, 10});
  EXPECT_DOUBLE_EQ(hv, 47.0);
  EXPECT_DOUBLE_EQ(hypervolume2D({{10, 10}}, {10, 10}), 0.0);
  EXPECT_DOUBLE_EQ(hypervolume2D({}, {10, 10}), 0.0);
}

TEST(Metrics, AdditiveEpsilon) {
  const std::vector<Objectives> exact{{0, 10}, {5, 5}, {10, 0}};
  EXPECT_DOUBLE_EQ(additiveEpsilon(exact, exact), 0.0);
  const std::vector<Objectives> shifted{{2, 12}, {7, 7}, {12, 2}};
  EXPECT_DOUBLE_EQ(additiveEpsilon(shifted, exact), 2.0);
  EXPECT_DOUBLE_EQ(additiveEpsilon(exact, shifted), 0.0);
}

// ------------------------------------------------------------ baselines

TEST(Baselines, GreedyFrontContainsEndpoints) {
  const LinearBiProblem p = smallProblem(32, 5);
  const RunResult res = greedyFront(p);
  ASSERT_FALSE(res.archive.empty());
  // Contains the empty solution...
  EXPECT_EQ(res.archive.members().front().obj.cost, 0u);
  EXPECT_EQ(res.archive.members().front().obj.damage, p.damageTotal());
  // ...and a solution with zero damage (everything useful hardened).
  EXPECT_EQ(res.archive.members().back().obj.damage, 0u);
}

TEST(Baselines, ExactFrontIsNondominatedAndAnchored) {
  const LinearBiProblem p = smallProblem(24, 7);
  const auto front = exactParetoFront(p);
  ASSERT_GE(front.size(), 2u);
  EXPECT_EQ(front.front().cost, 0u);
  EXPECT_EQ(front.front().damage, p.damageTotal());
  EXPECT_EQ(front.back().damage, 0u);
  for (std::size_t i = 0; i + 1 < front.size(); ++i) {
    EXPECT_LT(front[i].cost, front[i + 1].cost);
    EXPECT_GT(front[i].damage, front[i + 1].damage);
  }
}

TEST(Baselines, ExactFrontRejectsHugeInstances) {
  LinearBiProblem p;
  p.cost.assign(1000, 1000000);
  p.gain.assign(1000, 1);
  EXPECT_THROW(exactParetoFront(p), Error);
}

TEST(Baselines, GreedyNeverDominatesExact) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const LinearBiProblem p = smallProblem(20, seed);
    const auto exact = exactParetoFront(p);
    const RunResult greedy = greedyFront(p);
    for (const Individual& g : greedy.archive.members()) {
      for (const Objectives& e : exact) {
        ASSERT_FALSE(dominates(g.obj, e))
            << "greedy dominated the exact front (seed " << seed << ")";
      }
    }
  }
}

TEST(Baselines, RandomSearchProducesValidArchive) {
  const LinearBiProblem p = smallProblem(64, 9);
  const RunResult res = randomSearch(p, 500, 1);
  EXPECT_EQ(res.stats.evaluations, 500u);
  ASSERT_FALSE(res.archive.empty());
  // Archive is mutually nondominated.
  const auto& m = res.archive.members();
  for (std::size_t i = 0; i < m.size(); ++i) {
    for (std::size_t j = 0; j < m.size(); ++j) {
      if (i != j) {
        ASSERT_FALSE(dominates(m[i].obj, m[j].obj));
      }
    }
  }
}

// --------------------------------------------------------------- SPEA-2

EvolutionOptions smallOptions(std::uint64_t seed) {
  EvolutionOptions opt;
  opt.populationSize = 40;
  opt.generations = 60;
  opt.seed = seed;
  return opt;
}

TEST(Spea2, ConvergesNearExactFront) {
  const LinearBiProblem p = smallProblem(24, 11);
  const auto exact = exactParetoFront(p);
  const RunResult res = runSpea2(p, smallOptions(1));
  ASSERT_FALSE(res.archive.empty());
  // The EA can never dominate the exact front...
  for (const Individual& ind : res.archive.members())
    for (const Objectives& e : exact) ASSERT_FALSE(dominates(ind.obj, e));
  // ...and should come close (small additive epsilon relative to scale).
  const double eps = additiveEpsilon(res.archive.front(), exact);
  EXPECT_LE(eps, 0.10 * static_cast<double>(p.damageTotal()));
}

TEST(Spea2, SurvivesPopulationOfOne) {
  // Regression: at generation 0 a population of 1 with an empty archive
  // makes the combined population a single member, so the k-NN pass had
  // no neighbor distances and `min(k, dist.size()) - 1` wrapped to
  // SIZE_MAX.  A lone member now gets maximum density instead.
  const LinearBiProblem p = smallProblem(8, 3);
  EvolutionOptions opt;
  opt.populationSize = 1;
  opt.generations = 4;
  opt.seed = 5;
  const RunResult res = runSpea2(p, opt);
  ASSERT_FALSE(res.archive.empty());
  for (const Individual& ind : res.archive.members())
    EXPECT_LE(ind.obj.cost, p.costTotal());
}

TEST(Spea2, DeterministicForSeed) {
  const LinearBiProblem p = smallProblem(24, 11);
  const auto a = runSpea2(p, smallOptions(7));
  const auto b = runSpea2(p, smallOptions(7));
  EXPECT_EQ(a.archive.front(), b.archive.front());
  const auto c = runSpea2(p, smallOptions(8));
  // Different seed: extremely unlikely to produce the identical front.
  EXPECT_NE(a.archive.front(), c.archive.front());
}

TEST(Spea2, ArchiveIsNondominatedAndAnchoredAtZeroCost) {
  const LinearBiProblem p = smallProblem(32, 13);
  const RunResult res = runSpea2(p, smallOptions(2));
  const auto& m = res.archive.members();
  for (std::size_t i = 0; i < m.size(); ++i) {
    for (std::size_t j = 0; j < m.size(); ++j) {
      if (i != j) {
        ASSERT_FALSE(dominates(m[i].obj, m[j].obj));
      }
    }
  }
  // Individual 0 of the initial population is the empty genome, so the
  // (0, damageTotal) endpoint must survive in the archive.
  EXPECT_EQ(m.front().obj.cost, 0u);
}

TEST(Spea2, ProgressCallbackInvoked) {
  const LinearBiProblem p = smallProblem(16, 15);
  EvolutionOptions opt = smallOptions(3);
  opt.generations = 5;
  std::size_t calls = 0;
  runSpea2(p, opt, [&](std::size_t gen, const std::vector<Individual>&) {
    EXPECT_EQ(gen, calls);
    ++calls;
  });
  EXPECT_EQ(calls, 5u);
}

TEST(Spea2, StatsCountEvaluations) {
  const LinearBiProblem p = smallProblem(16, 15);
  EvolutionOptions opt = smallOptions(3);
  opt.generations = 10;
  const RunResult res = runSpea2(p, opt);
  EXPECT_EQ(res.stats.generations, 10u);
  EXPECT_EQ(res.stats.evaluations, 40u + 10u * 40u);
}

// ------------------------------------------------- SPEA-2 fitness kernel

/// The all-pairs SPEA-2 fitness (TR-103): strength and raw fitness by
/// pairwise dominance, density from nth_element over every distance in
/// normalized objective space.  The O(m log m) production kernel must
/// reproduce it bit for bit.
std::vector<double> allPairsFitness(const std::vector<Objectives>& objs) {
  const std::size_t m = objs.size();
  std::vector<std::uint32_t> strength(m, 0);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < m; ++j)
      if (i != j && dominates(objs[i], objs[j])) ++strength[i];
  std::vector<double> raw(m, 0.0);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < m; ++j)
      if (i != j && dominates(objs[j], objs[i])) raw[i] += strength[j];

  std::uint64_t minC = UINT64_MAX, maxC = 0, minD = UINT64_MAX, maxD = 0;
  for (const Objectives& o : objs) {
    minC = std::min(minC, o.cost);
    maxC = std::max(maxC, o.cost);
    minD = std::min(minD, o.damage);
    maxD = std::max(maxD, o.damage);
  }
  const double spanC = maxC > minC ? static_cast<double>(maxC - minC) : 1.0;
  const double spanD = maxD > minD ? static_cast<double>(maxD - minD) : 1.0;
  std::vector<std::pair<double, double>> pts;
  for (const Objectives& o : objs)
    pts.emplace_back(static_cast<double>(o.cost - minC) / spanC,
                     static_cast<double>(o.damage - minD) / spanD);
  const auto k = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::sqrt(static_cast<double>(m))));
  std::vector<double> fitness(m);
  std::vector<double> dist;
  for (std::size_t i = 0; i < m; ++i) {
    dist.clear();
    for (std::size_t j = 0; j < m; ++j) {
      if (j == i) continue;
      const double dx = pts[i].first - pts[j].first;
      const double dy = pts[i].second - pts[j].second;
      dist.push_back(dx * dx + dy * dy);
    }
    double sigma = 0.0;
    if (!dist.empty()) {
      const std::size_t kk = std::min(k, dist.size()) - 1;
      std::nth_element(dist.begin(),
                       dist.begin() + static_cast<std::ptrdiff_t>(kk),
                       dist.end());
      sigma = std::sqrt(dist[kk]);
    }
    fitness[i] = raw[i] + 1.0 / (sigma + 2.0);
  }
  return fitness;
}

void expectFitnessMatchesOracle(const std::vector<Objectives>& objs,
                                const std::string& what) {
  const std::vector<double> want = allPairsFitness(objs);
  const std::vector<double> got = detail::spea2Fitness(objs);
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(double)), 0)
        << what << " m=" << objs.size() << " i=" << i << " got=" << got[i]
        << " want=" << want[i];
  }
}

/// m points with cost in [0, costRange) and damage in [0, damageRange),
/// each scaled by `scale` (so the normalization divides by a non-power
/// of two).
std::vector<Objectives> randomObjectives(Rng& rng, std::size_t m,
                                         std::uint64_t costRange,
                                         std::uint64_t damageRange,
                                         std::uint64_t scale = 1) {
  std::vector<Objectives> objs;
  for (std::size_t i = 0; i < m; ++i)
    objs.push_back({rng.below(costRange) * scale,
                    rng.below(damageRange) * scale});
  return objs;
}

TEST(Spea2Fitness, EmptyPopulation) {
  EXPECT_TRUE(detail::spea2Fitness({}).empty());
}

TEST(Spea2Fitness, TinyPopulationsAndKClampedByM) {
  // m = 1 has no neighbor (k = 1 > m - 1 = 0); m = 2, 3 have k = m - 1
  // or fewer neighbors in every order and tie pattern.
  expectFitnessMatchesOracle({{5, 7}}, "single");
  expectFitnessMatchesOracle({{1, 2}, {2, 1}}, "trade-off pair");
  expectFitnessMatchesOracle({{1, 1}, {2, 2}}, "dominated pair");
  expectFitnessMatchesOracle({{3, 3}, {3, 3}}, "equal pair");
  expectFitnessMatchesOracle({{1, 5}, {1, 2}}, "same-cost pair");
  expectFitnessMatchesOracle({{4, 2}, {1, 2}}, "same-damage pair");
  expectFitnessMatchesOracle({{1, 1}, {1, 1}, {2, 0}}, "triple with twins");
  expectFitnessMatchesOracle({{0, 9}, {9, 0}, {4, 4}}, "triple front");
  expectFitnessMatchesOracle({{2, 2}, {1, 3}, {2, 2}}, "triple mixed");
  Rng rng(15);
  for (std::size_t m = 1; m <= 12; ++m)
    for (int round = 0; round < 40; ++round)
      expectFitnessMatchesOracle(randomObjectives(rng, m, 3, 3), "tiny");
}

TEST(Spea2Fitness, AllPointsEqual) {
  for (const std::size_t m : {1u, 2u, 5u, 16u, 17u, 100u})
    expectFitnessMatchesOracle(std::vector<Objectives>(m, {42, 7}),
                               "all equal");
}

TEST(Spea2Fitness, SingleCostOrSingleDamage) {
  Rng rng(16);
  for (const std::size_t m : {2u, 9u, 50u, 301u}) {
    std::vector<Objectives> sameCost = randomObjectives(rng, m, 1, 40);
    expectFitnessMatchesOracle(sameCost, "same cost");
    std::vector<Objectives> sameDamage = randomObjectives(rng, m, 40, 1);
    expectFitnessMatchesOracle(sameDamage, "same damage");
  }
}

TEST(Spea2Fitness, HeavyDuplicatesAndTies) {
  Rng rng(17);
  for (const std::size_t m : {4u, 25u, 64u, 200u, 450u, 700u}) {
    expectFitnessMatchesOracle(randomObjectives(rng, m, 2, 2), "2x2 grid");
    expectFitnessMatchesOracle(randomObjectives(rng, m, 4, 30), "4 costs");
    expectFitnessMatchesOracle(randomObjectives(rng, m, 30, 4), "4 damages");
    expectFitnessMatchesOracle(randomObjectives(rng, m, 12, 12, 7919),
                               "scaled grid");
  }
}

TEST(Spea2Fitness, RandomPopulationsUpTo700) {
  Rng rng(18);
  for (const std::size_t m : {100u, 300u, 599u, 600u, 700u}) {
    expectFitnessMatchesOracle(randomObjectives(rng, m, 1u << 20, 1u << 20),
                               "sparse");
    expectFitnessMatchesOracle(
        randomObjectives(rng, m, 1000, 1000, 1'000'003), "wide");
    // A front-shaped set: damage falls as cost rises, plus dominated
    // copies shifted up, as in a converged P+A.
    std::vector<Objectives> front;
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint64_t c = rng.below(5000);
      const std::uint64_t d = 5000 - c + (i % 3 == 0 ? rng.below(50) : 0);
      front.push_back({c, d});
    }
    expectFitnessMatchesOracle(front, "front");
  }
}

/// Archive digest of a fixed-seed SPEA-2 run on a Table-I design, set up
/// as the benchmark's harden flow does it: random 70/70/10/10 spec,
/// greedy-prefix seed genomes (a quarter of the population), 40
/// generations.
std::uint64_t goldenFrontDigest(const std::string& name,
                                std::size_t population) {
  const rsn::Network net = benchgen::buildBenchmark(name);
  Rng rng(2022);
  const rsn::CriticalitySpec spec = rsn::randomSpec(net, {}, rng);
  const auto analysis = crit::CriticalityAnalyzer(net, spec).run();
  const auto problem = harden::HardeningProblem::assemble(net, analysis);
  EvolutionOptions opt;
  opt.populationSize = population;
  opt.generations = 40;
  opt.seed = 15;
  const RunResult greedy = greedyFront(problem.linear, population / 4);
  const auto& members = greedy.archive.members();
  const std::size_t want =
      std::min<std::size_t>(members.size(), population / 4);
  for (std::size_t k = 0; k < want; ++k) {
    const std::size_t idx =
        k * (members.size() - 1) / std::max<std::size_t>(1, want - 1);
    opt.seedGenomes.push_back(members[idx].genome);
  }
  const RunResult run = runSpea2(problem.linear, opt);
  std::uint64_t h = hash::kFnvOffset;
  hash::fnvMix(h, static_cast<std::uint64_t>(run.archive.size()));
  for (const Individual& ind : run.archive.members()) {
    hash::fnvMix(h, ind.obj.cost);
    hash::fnvMix(h, ind.obj.damage);
    for (const std::uint32_t bit : ind.genome.indices()) hash::fnvMix(h, bit);
    hash::fnvMix(h, ~std::uint64_t{0});
  }
  return h;
}

TEST(Spea2, GoldenFrontPins) {
  // Digests recorded with the all-pairs fitness kernel; any change to
  // fitness bits, selection or variation order shows up here.
  EXPECT_EQ(goldenFrontDigest("q12710", 100), 0x0260ab9192fec696ULL);
  EXPECT_EQ(goldenFrontDigest("p93791", 300), 0x855d03a9785a3da5ULL);
}

// --------------------------------------------------------------- NSGA-II

TEST(Nsga2, ConvergesNearExactFront) {
  const LinearBiProblem p = smallProblem(24, 19);
  const auto exact = exactParetoFront(p);
  const RunResult res = runNsga2(p, smallOptions(1));
  ASSERT_FALSE(res.archive.empty());
  for (const Individual& ind : res.archive.members())
    for (const Objectives& e : exact) ASSERT_FALSE(dominates(ind.obj, e));
  const double eps = additiveEpsilon(res.archive.front(), exact);
  EXPECT_LE(eps, 0.10 * static_cast<double>(p.damageTotal()));
}

TEST(Nsga2, DeterministicForSeed) {
  const LinearBiProblem p = smallProblem(20, 23);
  const auto a = runNsga2(p, smallOptions(5));
  const auto b = runNsga2(p, smallOptions(5));
  EXPECT_EQ(a.archive.front(), b.archive.front());
}

TEST(EvolutionaryBoth, BeatRandomSearchOnHypervolume) {
  const LinearBiProblem p = smallProblem(64, 29);
  const Objectives ref{p.costTotal() + 1, p.damageTotal() + 1};
  const EvolutionOptions opt = smallOptions(1);
  const double hvSpea = hypervolume2D(runSpea2(p, opt).archive.front(), ref);
  const double hvNsga = hypervolume2D(runNsga2(p, opt).archive.front(), ref);
  const double hvRand =
      hypervolume2D(randomSearch(p, 40 * 61, 1).archive.front(), ref);
  EXPECT_GT(hvSpea, hvRand);
  EXPECT_GT(hvNsga, hvRand);
}

TEST(Baselines, GreedyMinCostMatchesFrontKnee) {
  const LinearBiProblem p = smallProblem(40, 31);
  const std::uint64_t bound = p.damageTotal() / 10;
  const auto direct = greedyMinCost(p, bound);
  ASSERT_TRUE(direct.has_value());
  EXPECT_LE(direct->obj.damage, bound);
  const auto viaFront =
      greedyFront(p).archive.minCostWithDamageAtMost(bound);
  ASSERT_TRUE(viaFront.has_value());
  EXPECT_EQ(direct->obj.cost, viaFront->obj.cost);
  EXPECT_EQ(direct->obj.damage, viaFront->obj.damage);
}

TEST(Baselines, GreedyMinCostUnreachableBound) {
  LinearBiProblem p;
  p.cost = {1, 1};
  p.gain = {10, 0};  // index 1 contributes nothing
  // damage can go to 0 by hardening index 0 -> bound 0 reachable;
  EXPECT_TRUE(greedyMinCost(p, 0).has_value());
  // but a problem where some gain is locked behind gain==0 break:
  LinearBiProblem q;
  q.cost = {1};
  q.gain = {0};
  EXPECT_FALSE(greedyMinCost(q, 0).has_value() && q.damageTotal() > 0);
}

TEST(Baselines, GreedyFrontThinningKeepsEndpoints) {
  Rng rng(3);
  LinearBiProblem p;
  for (int i = 0; i < 3000; ++i) {
    p.cost.push_back(static_cast<std::uint64_t>(rng.range(1, 5)));
    p.gain.push_back(static_cast<std::uint64_t>(rng.range(1, 50)));
  }
  const RunResult res = greedyFront(p, 64);
  EXPECT_LE(res.archive.size(), 70u);  // thinned
  EXPECT_EQ(res.archive.members().front().obj.cost, 0u);
  EXPECT_EQ(res.archive.members().back().obj.damage, 0u);
}

TEST(Spea2, SeedGenomesEnterThePopulation) {
  const LinearBiProblem p = smallProblem(24, 37);
  // A seed that is already optimal for one bound: the greedy knee.
  const auto knee = greedyMinCost(p, p.damageTotal() / 10);
  ASSERT_TRUE(knee.has_value());
  EvolutionOptions opt = smallOptions(9);
  opt.generations = 1;  // no time to discover anything: must come from seed
  opt.seedGenomes.push_back(knee->genome);
  const RunResult res = runSpea2(p, opt);
  const auto found =
      res.archive.minCostWithDamageAtMost(p.damageTotal() / 10);
  ASSERT_TRUE(found.has_value());
  EXPECT_LE(found->obj.cost, knee->obj.cost);
}

TEST(Spea2, SeedGenomeLengthChecked) {
  const LinearBiProblem p = smallProblem(24, 37);
  EvolutionOptions opt = smallOptions(9);
  opt.seedGenomes.push_back(Genome(7));  // wrong length
  EXPECT_THROW(runSpea2(p, opt), Error);
}

TEST(InitialPopulation, ContainsBothAnchors) {
  const LinearBiProblem p = smallProblem(32, 41);
  EvolutionOptions opt = smallOptions(2);
  opt.generations = 0;
  const RunResult res = runSpea2(p, opt);
  // Archive of generation 0 contains the all-zero and all-one endpoints.
  bool zero = false, full = false;
  for (const Individual& ind : res.archive.members()) {
    zero |= ind.obj.cost == 0 && ind.obj.damage == p.damageTotal();
    full |= ind.obj.damage == 0;
  }
  EXPECT_TRUE(zero);
  EXPECT_TRUE(full);
}

// Property sweep over seeds: SPEA-2 stays consistent with the exact DP.
class Spea2VsExact : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Spea2VsExact, NeverDominatesExactFront) {
  const LinearBiProblem p = smallProblem(18, GetParam());
  const auto exact = exactParetoFront(p);
  const RunResult res = runSpea2(p, smallOptions(GetParam()));
  for (const Individual& ind : res.archive.members())
    for (const Objectives& e : exact)
      ASSERT_FALSE(dominates(ind.obj, e)) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, Spea2VsExact,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace rrsn::moo
