// The model-level passes of rrsn_lint: every rule that inspects a
// validated Network, its flat arena, or its decomposition tree.
//
// All passes are single-threaded and deterministic: they iterate the
// dense primitive/structure ids in ascending order, so two runs over the
// same model produce byte-identical finding lists regardless of
// RRSN_THREADS or platform.
#include <algorithm>
#include <cctype>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "lint/lint.hpp"
#include "obs/obs.hpp"
#include "rsn/flat.hpp"
#include "sp/decomposition.hpp"

namespace rrsn::lint {
namespace {

constexpr std::size_t kNoPos = std::numeric_limits<std::size_t>::max();

std::string toLower(const std::string& s) {
  std::string out = s;
  for (char& c : out)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

/// Shared state of one lint run over a validated network.
class Runner {
 public:
  Runner(const rsn::Network& net, const rsn::FlatNetwork& flat,
         const LintOptions& opts, LintResult& out)
      : net_(net), flat_(flat), opts_(opts), out_(out) {}

  void run() {
    // Error-severity passes (also the fail-fast configuration).
    checkCtrlWidth();
    checkCtrlCycles();
    checkReachability();
    if (opts_.hardenedNames != nullptr) checkPlan();
    if (opts_.errorsOnly) return;

    // Warning / note passes.
    checkStructureShape();
    checkConfusableNames();
    checkControlWiring();
    checkTreeReadiness();
    if (opts_.spec != nullptr) checkSpec();
  }

 private:
  void emit(const char* ruleId, const std::string& subject,
            std::string message) {
    const RuleInfo* info = findRule(ruleId);
    RRSN_CHECK(info != nullptr,
               std::string("unregistered lint rule ") + ruleId);
    Finding f;
    f.ruleId = ruleId;
    f.severity = info->severity;
    f.message = std::move(message);
    f.fixit = info->fixit;
    f.subject = subject;
    if (opts_.sources != nullptr) f.line = opts_.sources->line(subject);
    out_.add(std::move(f));
  }

  /// True if branch `b` of mux `m` can be addressed at all: its value
  /// fits the control register.  TAP-steered muxes are fully addressable.
  bool addressable(rsn::MuxId m, std::size_t b) const {
    const rsn::SegmentId ctrl = net_.mux(m).controlSegment;
    if (ctrl == rsn::kNone) return true;
    const std::uint32_t len = net_.segment(ctrl).length;
    return len >= 32 || b < (std::size_t{1} << len);
  }

  // ---- struct.ctrl-width -----------------------------------------------
  void checkCtrlWidth() {
    for (rsn::MuxId m = 0; m < net_.muxes().size(); ++m) {
      const rsn::Mux& mux = net_.mux(m);
      if (mux.controlSegment == rsn::kNone) continue;
      const std::size_t arity = flat_.muxArity()[m];
      const std::uint32_t len = net_.segment(mux.controlSegment).length;
      if (len >= 32 || arity <= (std::size_t{1} << len)) continue;
      emit("struct.ctrl-width", mux.name,
           "mux '" + mux.name + "' has " + std::to_string(arity) +
               " branches but control register '" +
               net_.segment(mux.controlSegment).name + "' holds only " +
               std::to_string(len) + " bit(s) (" +
               std::to_string(std::size_t{1} << len) +
               " addresses); branches " +
               std::to_string(std::size_t{1} << len) + ".." +
               std::to_string(arity - 1) + " are unselectable");
    }
  }

  // ---- struct.ctrl-cycle -----------------------------------------------
  //
  // Mux m *depends on* mux p when m's control register sits in a
  // non-reset branch (address >= 1) of p: writing the register first
  // requires configuring p away from reset, which requires writing p's
  // own control register.  A dependency cycle therefore deadlocks from
  // the reset configuration — no CSU sequence can ever configure any mux
  // on the cycle.  (The parser cannot produce such cycles — control
  // references resolve at declaration time and Network::validate rejects
  // a control inside its own mux's branches — but NetworkBuilder can.)
  void checkCtrlCycles() {
    const std::size_t M = net_.muxes().size();
    if (M == 0) return;

    // Which segments control some mux, and the (mux, branch) contexts
    // enclosing each such segment, from one structure walk.
    std::vector<char> isCtrl(net_.segments().size(), 0);
    for (rsn::MuxId m = 0; m < M; ++m)
      if (net_.mux(m).controlSegment != rsn::kNone)
        isCtrl[net_.mux(m).controlSegment] = 1;

    struct Enclosure {
      rsn::MuxId mux;
      std::size_t branch;
    };
    std::vector<std::vector<Enclosure>> enclosuresOf(net_.segments().size());
    struct Frame {
      rsn::NodeId id;
      std::size_t next = 0;
    };
    const rsn::Structure& st = net_.structure();
    std::vector<Frame> walk{{st.root()}};
    std::vector<Enclosure> ctx;
    while (!walk.empty()) {
      Frame& fr = walk.back();
      const auto& n = st.node(fr.id);
      const bool isMux = n.kind == rsn::NodeKind::MuxJoin;
      if (isMux && fr.next > 0) ctx.pop_back();  // finished branch next-1
      if (fr.next == 0 && n.kind == rsn::NodeKind::Segment &&
          isCtrl[n.prim] != 0)
        enclosuresOf[n.prim] = ctx;
      if (fr.next >= n.children.size()) {
        walk.pop_back();
        continue;
      }
      if (isMux) ctx.push_back({static_cast<rsn::MuxId>(n.prim), fr.next});
      walk.push_back({n.children[fr.next++]});
    }

    std::vector<std::vector<rsn::MuxId>> deps(M);
    for (rsn::MuxId m = 0; m < M; ++m) {
      const rsn::SegmentId ctrl = net_.mux(m).controlSegment;
      if (ctrl == rsn::kNone) continue;
      for (const Enclosure& e : enclosuresOf[ctrl])
        if (e.branch >= 1) deps[m].push_back(e.mux);
    }

    // Iterative DFS; a back edge to a grey mux closes a deadlock cycle.
    enum : char { White, Grey, Black };
    std::vector<char> color(M, White);
    std::vector<char> reported(M, 0);
    struct DfsFrame {
      rsn::MuxId mux;
      std::size_t next = 0;
    };
    for (rsn::MuxId start = 0; start < M; ++start) {
      if (color[start] != White) continue;
      std::vector<DfsFrame> stack{{start}};
      color[start] = Grey;
      while (!stack.empty()) {
        DfsFrame& fr = stack.back();
        if (fr.next >= deps[fr.mux].size()) {
          color[fr.mux] = Black;
          stack.pop_back();
          continue;
        }
        const rsn::MuxId to = deps[fr.mux][fr.next++];
        if (color[to] == White) {
          color[to] = Grey;
          stack.push_back({to});
        } else if (color[to] == Grey && reported[to] == 0) {
          // Extract the cycle from the DFS stack: to .. top.
          std::size_t at = stack.size();
          while (at > 0 && stack[at - 1].mux != to) --at;
          std::string path = "'" + net_.mux(to).name + "'";
          for (std::size_t i = at; i < stack.size(); ++i) {
            reported[stack[i].mux] = 1;
            if (stack[i].mux != to)
              path += " -> '" + net_.mux(stack[i].mux).name + "'";
          }
          path += " -> '" + net_.mux(to).name + "'";
          emit("struct.ctrl-cycle", net_.mux(to).name,
               "control deadlock " + path +
                   ": each control register sits in a non-reset branch of "
                   "the next mux, so no CSU sequence starting from reset "
                   "can configure any of them");
        }
      }
    }
  }

  // ---- struct.unreachable ----------------------------------------------
  //
  // Growing control-steerability fixpoint from the reset configuration,
  // over the arena's guard sets.  Every mux can pass its reset branch, so
  // a segment lies on some active path iff each (mux, branch != 0) guard
  // on its way to the scan ports is steerable: the branch is addressable
  // and the mux's control register is itself reachable (TAP-steered muxes
  // carry no guards).  Reachability only grows, so sweeping until a sweep
  // adds nothing yields the least fixpoint; segments still unreachable
  // are provably never on an active path.
  void checkReachability() {
    const std::size_t segments = flat_.segmentCount();
    const auto offsets = flat_.guardOffsets();
    const auto guards = flat_.guardPool();
    std::vector<char> reached(segments, 0);
    for (bool grew = true; grew;) {
      grew = false;
      for (std::size_t s = 0; s < segments; ++s) {
        if (reached[s] != 0) continue;
        bool open = true;
        for (std::uint32_t g = offsets[s]; open && g < offsets[s + 1]; ++g) {
          const rsn::FlatNetwork::GuardRef& guard = guards[g];
          open = addressable(guard.mux, guard.branch) &&
                 reached[flat_.muxControl()[guard.mux]] != 0;
        }
        if (!open) continue;
        reached[s] = 1;
        grew = true;
      }
    }

    for (rsn::SegmentId s = 0; s < segments; ++s) {
      if (reached[s] != 0) continue;
      emit("struct.unreachable", net_.segment(s).name,
           "segment '" + net_.segment(s).name +
               "' is never on an active scan path: no configuration "
               "reachable from reset steers every mux between it and the "
               "scan ports");
    }
  }

  // ---- plan.unknown-primitive ------------------------------------------
  void checkPlan() {
    for (const std::string& name : *opts_.hardenedNames) {
      if (net_.findSegment(name) != rsn::kNone ||
          net_.findMux(name) != rsn::kNone)
        continue;
      emit("plan.unknown-primitive", name,
           "hardened-set entry '" + name +
               "' names no segment or mux of network '" + net_.name() + "'");
    }
  }

  // ---- struct.dead-sib / struct.duplicate-branch / sem.orphan-wire -----
  void checkStructureShape() {
    const rsn::Structure& st = net_.structure();

    // Pre-order node sequence; its reverse visits children before
    // parents, giving the per-node instrument counts bottom-up.
    std::vector<rsn::NodeId> order;
    order.reserve(st.nodeCount());
    st.preOrder([&](rsn::NodeId id) { order.push_back(id); });
    std::vector<std::uint32_t> instCount(st.nodeCount(), 0);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const auto& n = st.node(*it);
      std::uint32_t count = 0;
      if (n.kind == rsn::NodeKind::Segment &&
          net_.segment(n.prim).instrument != rsn::kNone)
        count = 1;
      for (const rsn::NodeId c : n.children) count += instCount[c];
      instCount[*it] = count;
    }

    if (st.node(st.root()).kind == rsn::NodeKind::Wire)
      emit("sem.orphan-wire", net_.name(),
           "network '" + net_.name() + "' is an empty bypass (its whole "
           "body is one wire)");

    for (const rsn::NodeId id : order) {
      const auto& n = st.node(id);
      if (n.kind == rsn::NodeKind::Serial) {
        std::size_t wires = 0;
        for (const rsn::NodeId c : n.children)
          if (st.node(c).kind == rsn::NodeKind::Wire) ++wires;
        if (wires > 0)
          emit("sem.orphan-wire", {},
               "serial chain contains " + std::to_string(wires) +
                   " bare wire(s) carrying no scan content");
        continue;
      }
      if (n.kind != rsn::NodeKind::MuxJoin) continue;
      const rsn::Mux& mux = net_.mux(n.prim);

      std::size_t wireBranches = 0;
      for (const rsn::NodeId c : n.children)
        if (st.node(c).kind == rsn::NodeKind::Wire) ++wireBranches;
      if (wireBranches >= 2)
        emit("struct.duplicate-branch", mux.name,
             "mux '" + mux.name + "' has " + std::to_string(wireBranches) +
                 " bypass (wire) branches; they select identical paths");

      // A SIB is the mux + 1-bit register sugar; its content branches are
      // everything but the bypass.  A SIB gating zero instruments only
      // adds chain length and a fault site.
      if (mux.controlSegment != rsn::kNone &&
          net_.segment(mux.controlSegment).isSibRegister &&
          instCount[id] == 0) {
        const std::string& sibName = net_.segment(mux.controlSegment).name;
        emit("struct.dead-sib", sibName,
             "SIB '" + sibName + "' gates no instruments; its content is "
             "dead scan volume");
      }
    }
  }

  // ---- struct.confusable-names -----------------------------------------
  void checkConfusableNames() {
    std::unordered_map<std::string, std::string> byLower;
    const auto visit = [&](const std::string& name) {
      const auto [it, inserted] = byLower.emplace(toLower(name), name);
      if (!inserted && it->second != name)
        emit("struct.confusable-names", name,
             "name '" + name + "' differs from '" + it->second +
                 "' only by letter case");
    };
    for (const rsn::Segment& s : net_.segments()) visit(s.name);
    for (const rsn::Mux& m : net_.muxes()) visit(m.name);
    for (const rsn::Instrument& i : net_.instruments()) visit(i.name);
  }

  // ---- sem.unconstrained-mux / sem.shared-ctrl --------------------------
  void checkControlWiring() {
    std::vector<std::vector<rsn::MuxId>> users(net_.segments().size());
    for (rsn::MuxId m = 0; m < net_.muxes().size(); ++m) {
      const rsn::SegmentId ctrl = net_.mux(m).controlSegment;
      if (ctrl == rsn::kNone) {
        emit("sem.unconstrained-mux", net_.mux(m).name,
             "mux '" + net_.mux(m).name +
                 "' has no control register (steered from outside the "
                 "network, e.g. TAP instruction decode)");
        continue;
      }
      users[ctrl].push_back(m);
    }
    for (rsn::SegmentId s = 0; s < users.size(); ++s) {
      if (users[s].size() < 2) continue;
      emit("sem.shared-ctrl", net_.segment(s).name,
           "control register '" + net_.segment(s).name + "' steers " +
               std::to_string(users[s].size()) +
               " muxes; they can only reconfigure together");
    }
  }

  // ---- ready.depth / sem.ctrl-downstream --------------------------------
  void checkTreeReadiness() {
    const sp::DecompositionTree tree = sp::DecompositionTree::build(net_);

    const std::size_t leaves = net_.segments().size();
    std::size_t log2Ceil = 0;
    while ((std::size_t{1} << log2Ceil) < leaves + 2) ++log2Ceil;
    const std::size_t threshold = std::max<std::size_t>(64, 4 * log2Ceil);
    if (tree.depth() > threshold)
      emit("ready.depth", {},
           "decomposition tree depth " + std::to_string(tree.depth()) +
               " exceeds " + std::to_string(threshold) +
               " (~4*log2 of the segment count); per-segment criticality "
               "walks degrade from O(log n) toward O(n)");

    // Scan position of each segment, then per-structure-node position
    // ranges bottom-up — a control register whose position lies strictly
    // behind its mux's whole region needs an extra CSU cycle.
    const std::vector<rsn::SegmentId> scanOrder = tree.scanOrder();
    std::vector<std::size_t> posOf(net_.segments().size(), kNoPos);
    for (std::size_t i = 0; i < scanOrder.size(); ++i) posOf[scanOrder[i]] = i;

    const rsn::Structure& st = net_.structure();
    std::vector<rsn::NodeId> order;
    order.reserve(st.nodeCount());
    st.preOrder([&](rsn::NodeId id) { order.push_back(id); });
    std::vector<std::size_t> maxPos(st.nodeCount(), kNoPos);
    std::vector<rsn::NodeId> nodeOfMux(net_.muxes().size(), rsn::kNone);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const auto& n = st.node(*it);
      std::size_t pos = kNoPos;
      if (n.kind == rsn::NodeKind::Segment) pos = posOf[n.prim];
      if (n.kind == rsn::NodeKind::MuxJoin) nodeOfMux[n.prim] = *it;
      for (const rsn::NodeId c : n.children) {
        if (maxPos[c] == kNoPos) continue;
        if (pos == kNoPos || maxPos[c] > pos) pos = maxPos[c];
      }
      maxPos[*it] = pos;
    }

    for (rsn::MuxId m = 0; m < net_.muxes().size(); ++m) {
      const rsn::SegmentId ctrl = net_.mux(m).controlSegment;
      if (ctrl == rsn::kNone || net_.segment(ctrl).isSibRegister) continue;
      const rsn::NodeId node = nodeOfMux[m];
      if (node == rsn::kNone || maxPos[node] == kNoPos) continue;
      if (posOf[ctrl] == kNoPos || posOf[ctrl] <= maxPos[node]) continue;
      emit("sem.ctrl-downstream", net_.mux(m).name,
           "control register '" + net_.segment(ctrl).name +
               "' lies behind mux '" + net_.mux(m).name +
               "' in scan order; reconfiguring the mux costs an extra CSU "
               "cycle after writing the register");
    }
  }

  // ---- spec.zero-weight / spec.dominance --------------------------------
  void checkSpec() {
    const rsn::CriticalitySpec& spec = *opts_.spec;
    if (spec.size() != net_.instruments().size()) {
      emit("spec.invalid", {},
           "criticality spec covers " + std::to_string(spec.size()) +
               " instruments but network '" + net_.name() + "' has " +
               std::to_string(net_.instruments().size()));
      return;
    }
    std::uint64_t sumUncObs = 0;
    std::uint64_t sumUncSet = 0;
    for (rsn::InstrumentId i = 0; i < spec.size(); ++i) {
      const rsn::DamageWeights& w = spec.of(i);
      if (!w.criticalObs) sumUncObs += w.obs;
      if (!w.criticalSet) sumUncSet += w.set;
    }
    for (rsn::InstrumentId i = 0; i < spec.size(); ++i) {
      const rsn::DamageWeights& w = spec.of(i);
      const std::string& name = net_.instrument(i).name;
      if (w.obs == 0 && w.set == 0)
        emit("spec.zero-weight", name,
             "instrument '" + name + "' has zero damage weights "
             "(do=ds=0); it cannot influence hardening decisions");
      if (w.criticalObs && w.obs < sumUncObs)
        emit("spec.dominance", name,
             "critical observability weight " + std::to_string(w.obs) +
                 " of instrument '" + name +
                 "' does not dominate the uncritical total " +
                 std::to_string(sumUncObs) +
                 "; low-damage solutions may still lose it");
      if (w.criticalSet && w.set < sumUncSet)
        emit("spec.dominance", name,
             "critical settability weight " + std::to_string(w.set) +
                 " of instrument '" + name +
                 "' does not dominate the uncritical total " +
                 std::to_string(sumUncSet) +
                 "; low-damage solutions may still lose it");
    }
  }

  const rsn::Network& net_;
  const rsn::FlatNetwork& flat_;
  const LintOptions& opts_;
  LintResult& out_;
};

}  // namespace

LintResult runLint(const rsn::Network& net, const LintOptions& options) {
  return runLint(net, *rsn::FlatNetwork::lower(net), options);
}

LintResult runLint(const rsn::Network& net, const rsn::FlatNetwork& flat,
                   const LintOptions& options) {
  RRSN_OBS_SPAN("lint.run");
  LintResult result;
  Runner(net, flat, options, result).run();
  result.sort();
  static const obs::MetricId kFindings = obs::counter("lint.findings");
  static const obs::MetricId kErrors = obs::counter("lint.errors");
  if (!result.findings.empty())
    obs::count(kFindings, result.findings.size());
  if (result.errors != 0) obs::count(kErrors, result.errors);
  return result;
}

}  // namespace rrsn::lint
