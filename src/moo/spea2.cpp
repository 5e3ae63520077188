// SPEA-2 (see spea2.hpp for the algorithm).
//
// The fitness kernel exploits that the problem has exactly two
// objectives.  The combined population P+A is packed into (cost, damage,
// index) records sorted by (cost, damage, index); every fitness term is
// then a sweep over that order, O(m log m) in m = |P+A|:
//
//   * strength S(i) = #{j : c_j >= c_i, d_j >= d_i} minus the number of
//     points equal to i: a descending sweep over cost groups that
//     inserts a whole group into a Fenwick tree over damage ranks
//     before querying it, so equal costs count as weakly worse;
//   * raw R(i) = sum of S over {c_j <= c_i, d_j <= d_i} minus (equal
//     points) x S(i): an ascending sweep with a Fenwick tree of strength
//     sums.  The sums are exact integers, so the double equals the
//     all-pairs sum bit for bit;
//   * density: sigma_k^2 is the k-th smallest squared distance to the
//     other points in normalized objective space.  Each point walks
//     outward over the cost-sorted x/y arrays, keeping the min(k, m-1)
//     smallest distances seen and their maximum `top`, and stops a side
//     once its next dx^2 is no smaller than top.  fl(dx^2 + dy^2) >=
//     dx^2 and x is monotone in cost, so no skipped point could lower
//     top: the k-th value is the all-pairs one.
//
// The all-pairs definition lives in tests/moo_test.cpp as the oracle the
// kernel is compared against bitwise.

#include "moo/spea2.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/obs.hpp"

namespace rrsn::moo {

namespace {

/// Normalized objective-space coordinates of the combined population.
std::vector<std::pair<double, double>> normalizedPoints(
    const std::vector<Objectives>& objs) {
  std::uint64_t minC = std::numeric_limits<std::uint64_t>::max(), maxC = 0;
  std::uint64_t minD = std::numeric_limits<std::uint64_t>::max(), maxD = 0;
  for (const Objectives& o : objs) {
    minC = std::min(minC, o.cost);
    maxC = std::max(maxC, o.cost);
    minD = std::min(minD, o.damage);
    maxD = std::max(maxD, o.damage);
  }
  const double spanC = maxC > minC ? static_cast<double>(maxC - minC) : 1.0;
  const double spanD = maxD > minD ? static_cast<double>(maxD - minD) : 1.0;
  std::vector<std::pair<double, double>> pts;
  pts.reserve(objs.size());
  for (const Objectives& o : objs) {
    pts.emplace_back(static_cast<double>(o.cost - minC) / spanC,
                     static_cast<double>(o.damage - minD) / spanD);
  }
  return pts;
}

double sqDist(const std::pair<double, double>& a,
              const std::pair<double, double>& b) {
  const double dx = a.first - b.first;
  const double dy = a.second - b.second;
  return dx * dx + dy * dy;
}

/// Fenwick tree over damage ranks 1..n: point add, prefix sum.
class Fenwick {
 public:
  explicit Fenwick(std::size_t n) : tree_(n + 1, 0) {}

  void add(std::size_t rank, std::uint64_t value) {
    for (; rank < tree_.size(); rank += rank & (~rank + 1))
      tree_[rank] += value;
  }

  /// Sum over ranks 1..rank.
  std::uint64_t prefix(std::size_t rank) const {
    std::uint64_t sum = 0;
    for (; rank > 0; rank &= rank - 1) sum += tree_[rank];
    return sum;
  }

 private:
  std::vector<std::uint64_t> tree_;
};

/// The k-th smallest squared distance from point p to the other points
/// of the cost-sorted coordinate arrays, k = best.size() in [1, m - 1];
/// `best` is scratch and `visited` counts the distances computed.  The
/// k points nearest to p by position seed `best`, an unsorted set whose
/// maximum `top` is tracked with its slot: a branch-free rescan of k
/// values measured faster than a binary heap at these k.
double kthNearestSqDist(const std::vector<double>& xs,
                        const std::vector<double>& ys, std::size_t p,
                        std::vector<double>& best, std::uint64_t& visited) {
  const std::size_t m = xs.size();
  const std::size_t k = best.size();
  const double px = xs[p];
  const double py = ys[p];
  const std::size_t lo = std::min(p - std::min(p, k / 2), m - k - 1);
  const std::size_t hi = lo + k + 1;
  std::size_t n = 0;
  for (std::size_t q = lo; q < hi; ++q) {
    if (q == p) continue;
    const double dx = px - xs[q];
    const double dy = py - ys[q];
    best[n++] = dx * dx + dy * dy;
  }
  visited += k;
  std::size_t arg = 0;
  double top = 0.0;
  const auto rescan = [&] {
    arg = 0;
    top = best[0];
    for (std::size_t i = 1; i < k; ++i) {
      const bool above = best[i] > top;
      arg = above ? i : arg;
      top = above ? best[i] : top;
    }
  };
  rescan();
  const auto offer = [&](std::size_t q) {
    const double dx = px - xs[q];
    if (dx * dx >= top) return false;
    ++visited;
    const double dy = py - ys[q];
    const double d = dx * dx + dy * dy;
    if (d < top) {
      best[arg] = d;
      rescan();
    }
    return true;
  };
  std::size_t q = lo;
  while (q > 0 && offer(q - 1)) --q;
  q = hi;
  while (q < m && offer(q)) ++q;
  return top;
}

}  // namespace

namespace detail {

std::vector<double> spea2Fitness(const std::vector<Objectives>& objs) {
  static const obs::MetricId kKnnCandidates =
      obs::counter("moo.spea2.knn_candidates");
  const std::size_t m = objs.size();
  std::vector<double> fitness(m, 0.0);
  if (m == 0) return fitness;

  struct Record {
    std::uint64_t cost;
    std::uint64_t damage;
    std::size_t index;
  };
  std::vector<Record> rec(m);
  for (std::size_t i = 0; i < m; ++i)
    rec[i] = {objs[i].cost, objs[i].damage, i};
  std::sort(rec.begin(), rec.end(), [](const Record& a, const Record& b) {
    if (a.cost != b.cost) return a.cost < b.cost;
    if (a.damage != b.damage) return a.damage < b.damage;
    return a.index < b.index;
  });

  // Dense 1-based damage ranks, from one sort of (damage, position).
  std::vector<std::pair<std::uint64_t, std::size_t>> byDamage(m);
  for (std::size_t p = 0; p < m; ++p) byDamage[p] = {rec[p].damage, p};
  std::sort(byDamage.begin(), byDamage.end());
  std::vector<std::size_t> rank(m);
  std::size_t ranks = 0;
  for (std::size_t r = 0; r < m; ++r) {
    if (r == 0 || byDamage[r].first != byDamage[r - 1].first) ++ranks;
    rank[byDamage[r].second] = ranks;
  }
  // Multiplicity of each record's objective vector; equal vectors are
  // adjacent in the sorted order.
  std::vector<std::uint64_t> mult(m);
  for (std::size_t lo = 0; lo < m;) {
    std::size_t hi = lo + 1;
    while (hi < m && rec[hi].cost == rec[lo].cost &&
           rec[hi].damage == rec[lo].damage)
      ++hi;
    std::fill(mult.begin() + static_cast<std::ptrdiff_t>(lo),
              mult.begin() + static_cast<std::ptrdiff_t>(hi), hi - lo);
    lo = hi;
  }

  // Strength: cost groups from highest to lowest; a group is inserted
  // whole before any member queries, so equal costs count.
  std::vector<std::uint64_t> strength(m);
  Fenwick counts(ranks);
  for (std::size_t hi = m; hi > 0;) {
    std::size_t lo = hi - 1;
    while (lo > 0 && rec[lo - 1].cost == rec[lo].cost) --lo;
    for (std::size_t p = lo; p < hi; ++p) counts.add(rank[p], 1);
    for (std::size_t p = lo; p < hi; ++p)
      strength[p] = (m - lo) - counts.prefix(rank[p] - 1) - mult[p];
    hi = lo;
  }

  // Raw fitness: cost groups from lowest to highest over strength sums.
  std::vector<std::uint64_t> raw(m);
  Fenwick sums(ranks);
  for (std::size_t lo = 0; lo < m;) {
    std::size_t hi = lo + 1;
    while (hi < m && rec[hi].cost == rec[lo].cost) ++hi;
    for (std::size_t p = lo; p < hi; ++p) sums.add(rank[p], strength[p]);
    for (std::size_t p = lo; p < hi; ++p)
      raw[p] = sums.prefix(rank[p]) - mult[p] * strength[p];
    lo = hi;
  }

  // Density from the k-th nearest neighbor, over the normalized points
  // in sorted order.
  const auto pts = normalizedPoints(objs);
  std::vector<double> xs(m), ys(m);
  for (std::size_t p = 0; p < m; ++p) {
    xs[p] = pts[rec[p].index].first;
    ys[p] = pts[rec[p].index].second;
  }
  const auto k = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::sqrt(static_cast<double>(m))));
  // A combined population of one member has no neighbor: its k-NN
  // distance is zero (maximum density).
  const std::size_t kk = std::min(k, m - 1);
  std::vector<double> best(kk);
  std::uint64_t candidates = 0;
  for (std::size_t p = 0; p < m; ++p) {
    const double sigma =
        kk == 0 ? 0.0
                : std::sqrt(kthNearestSqDist(xs, ys, p, best, candidates));
    fitness[rec[p].index] =
        static_cast<double>(raw[p]) + 1.0 / (sigma + 2.0);
  }
  obs::count(kKnnCandidates, candidates);
  return fitness;
}

}  // namespace detail

namespace {

/// Environmental selection: indices of `all` forming the next archive.
std::vector<std::size_t> environmentalSelection(
    const std::vector<Objectives>& objs, const std::vector<double>& fitness,
    std::size_t archiveSize) {
  std::vector<std::size_t> nondominated;
  std::vector<std::size_t> dominated;
  for (std::size_t i = 0; i < objs.size(); ++i) {
    (fitness[i] < 1.0 ? nondominated : dominated).push_back(i);
  }
  if (nondominated.size() <= archiveSize) {
    // Fill with the best dominated individuals.
    std::sort(dominated.begin(), dominated.end(),
              [&](std::size_t a, std::size_t b) {
                return fitness[a] < fitness[b];
              });
    for (std::size_t i : dominated) {
      if (nondominated.size() >= archiveSize) break;
      nondominated.push_back(i);
    }
    return nondominated;
  }

  // Truncation: iteratively remove the individual with the smallest
  // nearest-neighbor distance (TR-103 uses a full lexicographic distance
  // signature; the nearest-neighbor criterion with incremental updates
  // is the standard fast variant and preserves boundary points).
  const auto pts = normalizedPoints(objs);
  std::vector<bool> active(objs.size(), false);
  for (std::size_t i : nondominated) active[i] = true;

  std::vector<double> nnDist(objs.size(),
                             std::numeric_limits<double>::infinity());
  std::vector<std::size_t> nnOf(objs.size(), SIZE_MAX);
  const auto recomputeNn = [&](std::size_t i) {
    nnDist[i] = std::numeric_limits<double>::infinity();
    nnOf[i] = SIZE_MAX;
    for (std::size_t j : nondominated) {
      if (j == i || !active[j]) continue;
      const double d = sqDist(pts[i], pts[j]);
      if (d < nnDist[i]) {
        nnDist[i] = d;
        nnOf[i] = j;
      }
    }
  };
  for (std::size_t i : nondominated) recomputeNn(i);

  std::size_t remaining = nondominated.size();
  while (remaining > archiveSize) {
    std::size_t victim = SIZE_MAX;
    for (std::size_t i : nondominated) {
      if (!active[i]) continue;
      if (victim == SIZE_MAX || nnDist[i] < nnDist[victim]) victim = i;
    }
    active[victim] = false;
    --remaining;
    for (std::size_t i : nondominated) {
      if (active[i] && nnOf[i] == victim) recomputeNn(i);
    }
  }
  std::vector<std::size_t> result;
  for (std::size_t i : nondominated)
    if (active[i]) result.push_back(i);
  return result;
}

}  // namespace

RunResult runSpea2(const LinearBiProblem& problem,
                   const EvolutionOptions& options,
                   const ProgressFn& progress) {
  problem.checkConsistent();
  Rng rng(options.seed);
  const std::uint64_t damageTotal = problem.damageTotal();
  const std::size_t archiveSize =
      options.archiveSize == 0 ? options.populationSize : options.archiveSize;

  RunResult result;
  std::vector<Individual> population =
      detail::initialPopulation(problem, damageTotal, options, rng);
  result.stats.evaluations += population.size();
  std::vector<Individual> archive;

  for (std::size_t gen = 0; gen < options.generations; ++gen) {
    RRSN_OBS_SPAN("moo.spea2.generation");
    // Fitness assignment over P + A.
    std::vector<Individual> all;
    all.reserve(population.size() + archive.size());
    for (Individual& ind : population) all.push_back(std::move(ind));
    for (Individual& ind : archive) all.push_back(std::move(ind));
    std::vector<Objectives> objs;
    objs.reserve(all.size());
    for (const Individual& ind : all) objs.push_back(ind.obj);
    std::vector<double> fitness;
    {
      RRSN_OBS_SPAN("moo.spea2.fitness");
      fitness = detail::spea2Fitness(objs);
    }

    // Environmental selection -> next archive.
    std::vector<Individual> nextArchive;
    std::vector<double> archiveFitness;
    {
      RRSN_OBS_SPAN("moo.spea2.archive");
      const auto keep = environmentalSelection(objs, fitness, archiveSize);
      nextArchive.reserve(keep.size());
      for (std::size_t i : keep) {
        nextArchive.push_back(std::move(all[i]));
        archiveFitness.push_back(fitness[i]);
      }
    }

    if (progress) progress(gen, nextArchive);

    // Mating selection (binary tournament on fitness) + variation.  All
    // randomness is drawn serially into plans; the offspring then
    // materialize on the pool (makeOffspringBatch).
    const auto tournament = [&]() -> std::size_t {
      const std::size_t a =
          static_cast<std::size_t>(rng.below(nextArchive.size()));
      const std::size_t b =
          static_cast<std::size_t>(rng.below(nextArchive.size()));
      return archiveFitness[a] <= archiveFitness[b] ? a : b;
    };
    std::vector<Individual> offspring = detail::makeOffspringBatch(
        problem, damageTotal, nextArchive, options.populationSize, options,
        tournament, rng);
    result.stats.evaluations += offspring.size();
    population = std::move(offspring);
    archive = std::move(nextArchive);
    ++result.stats.generations;
  }

  for (Individual& ind : archive) result.archive.add(std::move(ind));
  for (Individual& ind : population) result.archive.add(std::move(ind));
  return result;
}

}  // namespace rrsn::moo
