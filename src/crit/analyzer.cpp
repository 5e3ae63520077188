#include "crit/analyzer.hpp"

#include <algorithm>
#include <numeric>

#include "fault/fault.hpp"
#include "lint/lint.hpp"
#include "obs/obs.hpp"
#include "rsn/flat.hpp"
#include "support/parallel.hpp"

namespace rrsn::crit {

using fault::Fault;
using fault::FaultUniverse;

namespace {

std::uint64_t combine(MuxDamagePolicy policy,
                      const std::vector<std::uint64_t>& perBranch) {
  RRSN_CHECK(!perBranch.empty(), "mux without stuck-at faults");
  switch (policy) {
    case MuxDamagePolicy::WorstCase:
      return *std::max_element(perBranch.begin(), perBranch.end());
    case MuxDamagePolicy::Sum:
      return std::accumulate(perBranch.begin(), perBranch.end(),
                             std::uint64_t{0});
    case MuxDamagePolicy::Mean:
      return std::accumulate(perBranch.begin(), perBranch.end(),
                             std::uint64_t{0}) /
             perBranch.size();
  }
  throw Error("unreachable mux damage policy");
}

}  // namespace

CriticalityResult::CriticalityResult(const rsn::Network& net,
                                     std::vector<std::uint64_t> d)
    : net_(&net), damages_(std::move(d)) {
  RRSN_CHECK(damages_.size() == net.primitiveCount(),
             "damage vector does not match the primitive count");
  for (std::uint64_t v : damages_) total_ += v;
}

std::vector<std::size_t> CriticalityResult::ranking() const {
  std::vector<std::size_t> order(damages_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return damages_[a] > damages_[b];
                   });
  return order;
}

TextTable CriticalityResult::report(std::size_t topK) const {
  TextTable table({"rank", "primitive", "kind", "damage d_j", "share"});
  table.setAlign(1, TextTable::Align::Left);
  table.setAlign(2, TextTable::Align::Left);
  const auto order = ranking();
  const std::size_t k = std::min(topK, order.size());
  for (std::size_t r = 0; r < k; ++r) {
    const std::size_t id = order[r];
    const rsn::PrimitiveRef ref = net_->refOf(id);
    const double share =
        total_ == 0 ? 0.0
                    : 100.0 * static_cast<double>(damages_[id]) /
                          static_cast<double>(total_);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f%%", share);
    table.addRow({std::to_string(r + 1), net_->primitiveName(ref),
                  ref.kind == rsn::PrimitiveRef::Kind::Segment ? "segment"
                                                               : "mux",
                  withThousands(damages_[id]), buf});
  }
  return table;
}

std::uint64_t CriticalityAnalyzer::Kernel::segmentBreakDamage(
    std::uint32_t s) const {
  std::uint64_t damage = 0;
  std::uint32_t cur = leafOfSegment[s];
  if (segHasInstrument[s] != 0) damage += sumObs[cur] + sumSet[cur];
  std::uint32_t p = parent[cur];
  while (p != sp::kNoTree && kind[p] != kParallel) {
    if (kind[p] == kSeries)
      damage += right[p] == cur ? sumObs[left[p]]    // upstream: unobservable
                                : sumSet[right[p]];  // downstream: unsettable
    cur = p;
    p = parent[p];
  }
  return damage;
}

std::uint64_t CriticalityAnalyzer::Kernel::muxStuckDamage(
    std::uint32_t m, std::uint32_t stuck) const {
  const std::uint32_t begin = branchOffsets[m], end = branchOffsets[m + 1];
  std::uint64_t damage = 0;
  for (std::uint32_t b = begin; b < end; ++b) {
    if (b - begin == stuck) continue;
    const std::uint32_t root = branchRoots[b];
    damage += sumObs[root] + sumSet[root];
  }
  return damage;
}

CriticalityAnalyzer::CriticalityAnalyzer(const rsn::Network& net,
                                         const rsn::CriticalitySpec& spec,
                                         AnalysisOptions options)
    : net_(&net),
      spec_(&spec),
      options_(options),
      tree_(sp::DecompositionTree::build(net)) {
  if (options_.lint) lint::enforceClean(net, "criticality analysis");
  tree_.annotate(spec);

  // Flatten the annotated tree into the SoA kernel image once; run()
  // touches only these contiguous arrays.
  const std::size_t nodes = tree_.nodeCount();
  kernel_.parent.resize(nodes);
  kernel_.left.resize(nodes);
  kernel_.right.resize(nodes);
  kernel_.kind.resize(nodes);
  kernel_.sumObs.resize(nodes);
  kernel_.sumSet.resize(nodes);
  for (sp::TreeId id = 0; id < nodes; ++id) {
    const sp::TreeNode& n = tree_.node(id);
    kernel_.parent[id] = n.parent;
    kernel_.left[id] = n.left;
    kernel_.right[id] = n.right;
    kernel_.kind[id] = n.kind == sp::TreeKind::Series     ? Kernel::kSeries
                       : n.kind == sp::TreeKind::Parallel ? Kernel::kParallel
                                                          : 0;
    kernel_.sumObs[id] = n.sumObs;
    kernel_.sumSet[id] = n.sumSet;
  }
  const std::size_t segments = net.segments().size();
  kernel_.leafOfSegment.resize(segments);
  kernel_.segHasInstrument.resize(segments);
  for (std::size_t s = 0; s < segments; ++s) {
    const auto seg = static_cast<rsn::SegmentId>(s);
    kernel_.leafOfSegment[s] = tree_.leafOfSegment(seg);
    kernel_.segHasInstrument[s] =
        net.segment(seg).instrument != rsn::kNone ? 1 : 0;
  }
  const std::size_t muxes = net.muxes().size();
  kernel_.branchOffsets.assign(muxes + 1, 0);
  for (std::size_t m = 0; m < muxes; ++m) {
    const auto& branches = tree_.branchesOfMux(static_cast<rsn::MuxId>(m));
    kernel_.branchOffsets[m + 1] =
        kernel_.branchOffsets[m] + static_cast<std::uint32_t>(branches.size());
    kernel_.branchRoots.insert(kernel_.branchRoots.end(), branches.begin(),
                               branches.end());
  }
}

CriticalityResult CriticalityAnalyzer::run() const {
  RRSN_OBS_SPAN("crit.run");
  static const obs::MetricId kFaults = obs::counter("crit.faults_evaluated");
  std::vector<std::uint64_t> d(net_->primitiveCount(), 0);
  // Every fault is evaluated against the immutable annotated tree and
  // writes only its own primitive's slot, so the sweep fans out over the
  // fault universe with thread-count-independent results.  A single
  // fault costs well under a microsecond (O(tree depth)), so both loops
  // pass an explicit grain: networks below a few thousand primitives run
  // serially — BENCH_scalability.json showed the pooled sweep *slower*
  // than serial (0.48–1.07x) on every medium design because per-task
  // dispatch overhead dominated the sub-millisecond total.
  // Segments: one break fault each; O(tree depth) per segment.
  {
    RRSN_OBS_SPAN("crit.segments");
    parallelFor(
        net_->segments().size(),
        [&](std::size_t s) {
          const std::uint64_t damage =
              kernel_.segmentBreakDamage(static_cast<std::uint32_t>(s));
#ifndef NDEBUG
          RRSN_CHECK(damage ==
                         fault::damageUnderFaultTree(
                             tree_, Fault::segmentBreak(
                                        static_cast<rsn::SegmentId>(s))),
                     "SoA kernel diverges from the tree walk on segment " +
                         net_->segment(static_cast<rsn::SegmentId>(s)).name);
#endif
          d[net_->linearId({rsn::PrimitiveRef::Kind::Segment,
                            static_cast<rsn::SegmentId>(s)})] = damage;
        },
        /*grain=*/2048);
    obs::count(kFaults, net_->segments().size());
  }
  // Muxes: k stuck-at faults combined by policy; O(#branches) per mux.
  {
    RRSN_OBS_SPAN("crit.muxes");
    parallelFor(
        net_->muxes().size(),
        [&](std::size_t mi) {
          const auto m = static_cast<rsn::MuxId>(mi);
          const std::uint32_t arity =
              kernel_.branchOffsets[mi + 1] - kernel_.branchOffsets[mi];
          std::vector<std::uint64_t> perBranch;
          perBranch.reserve(arity);
          for (std::uint32_t b = 0; b < arity; ++b) {
            perBranch.push_back(kernel_.muxStuckDamage(m, b));
#ifndef NDEBUG
            RRSN_CHECK(perBranch.back() ==
                           fault::damageUnderFaultTree(tree_,
                                                       Fault::muxStuck(m, b)),
                       "SoA kernel diverges from the tree walk on mux " +
                           net_->mux(m).name);
#endif
          }
          d[net_->linearId({rsn::PrimitiveRef::Kind::Mux, m})] =
              combine(options_.muxPolicy, perBranch);
          obs::count(kFaults, arity);
        },
        /*grain=*/256);
  }
  return CriticalityResult(*net_, std::move(d));
}

CriticalityResult bruteForceAnalysis(const rsn::Network& net,
                                     const rsn::CriticalitySpec& spec,
                                     AnalysisOptions options) {
  const auto flat = rsn::FlatNetwork::lower(net);
  const FaultUniverse universe(net);
  std::vector<std::uint64_t> d(net.primitiveCount(), 0);
  // The oracle is embarrassingly parallel per primitive: each iteration
  // only reads the shared network/arena and owns slot d[linear].
  parallelFor(net.primitiveCount(), [&](std::size_t linear) {
    const rsn::PrimitiveRef ref = net.refOf(linear);
    std::vector<std::uint64_t> perFault;
    for (const Fault& f : universe.faultsAt(ref)) {
      perFault.push_back(
          fault::damageOfLoss(spec, fault::lossUnderFaultGraph(*flat, f)));
    }
    // -fanalyzer suppression: a Segment ref always yields exactly one
    // fault (its break), so perFault is non-empty here, and .at(0)
    // throws rather than dereferencing on the empty path anyway.  The
    // analyzer cannot see through FaultUniverse::faultsAt and reports
    // a NULL dereference of the empty vector's data pointer.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wanalyzer-null-dereference"
#endif
    d[linear] = ref.kind == rsn::PrimitiveRef::Kind::Segment
                    ? perFault.at(0)
                    : combine(options.muxPolicy, perFault);
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
  });
  return CriticalityResult(net, std::move(d));
}

}  // namespace rrsn::crit
