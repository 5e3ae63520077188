// SPEA-2 — Strength Pareto Evolutionary Algorithm 2.
//
// Faithful C++ implementation of Zitzler, Laumanns, Thiele, TR-103 (2001),
// the algorithm the paper runs through the Opt4J framework (Sec. V/VI):
//   * strength S(i)     = number of individuals i dominates in P+A;
//   * raw fitness R(i)  = sum of strengths of i's dominators;
//   * density D(i)      = 1 / (sigma_k + 2), sigma_k the distance to the
//     k-th nearest neighbor in normalized objective space, k = sqrt(|P+A|);
//   * fitness F = R + D (minimized);
//   * environmental selection keeps all nondominated individuals, fills
//     with the best dominated ones, or truncates by iterated removal of
//     the individual with the smallest nearest-neighbor distance;
//   * mating: binary tournament on F over the archive, one-point
//     crossover, independent bit mutation.
#pragma once

#include "moo/ea_common.hpp"

namespace rrsn::moo {

/// Summary of one optimizer run.
struct RunStats {
  std::size_t generations = 0;
  std::size_t evaluations = 0;
};

/// Result: the final archive as a clean Pareto archive + run statistics.
struct RunResult {
  ParetoArchive archive;
  RunStats stats;
};

namespace detail {

/// SPEA-2 fitness F = R + D of every member of the combined population
/// P+A, given by its objective vectors; O(m log m) in m = objs.size().
/// Deterministic and independent of the thread count.
std::vector<double> spea2Fitness(const std::vector<Objectives>& objs);

}  // namespace detail

/// Runs SPEA-2 on a linear bi-objective problem.
RunResult runSpea2(const LinearBiProblem& problem,
                   const EvolutionOptions& options,
                   const ProgressFn& progress = {});

}  // namespace rrsn::moo
