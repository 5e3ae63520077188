// The front of every batch job (netlist text -> parse with validation ->
// lint -> lower, each call inside a benchmark span), the sheet of
// per-layer metrics every workload reports, and access to the program's
// own obs counters for traced runs.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "lint/lint.hpp"
#include "rsn/flat.hpp"
#include "rsn/network.hpp"
#include "rsn/spec.hpp"

namespace perfbench {

/// One generated input: a registry design's netlist text and a spec
/// drawn from the workload seed mixed with the design name.
struct DesignInput {
  std::string name;
  std::string netlist;
  rrsn::rsn::CriticalitySpec spec{0};
};

DesignInput makeInput(const std::string& name, std::uint64_t seed);

/// Outputs of the front stages.
struct Front {
  rrsn::rsn::Network net;
  rrsn::lint::LintResult lint;
  std::shared_ptr<const rrsn::rsn::FlatNetwork> flat;
};

/// parse -> lint -> lower in spans "rsn.parse", "lint.run", "rsn.lower".
/// `spec` is linted with the network when given.
Front runFront(Tracer& tracer, std::uint64_t job, const std::string& netlist,
               const rrsn::rsn::CriticalitySpec* spec);

/// The per-layer metrics, named with their units by the `per_layer`
/// list of BENCHMARK.json (the only catalogue).  Every listed metric is
/// emitted; a layer the workload never calls reads 0.
class LayerSheet {
 public:
  explicit LayerSheet(const std::string& specPath);

  /// Sets a listed metric; a name BENCHMARK.json does not list is a
  /// programming error and throws.
  void set(const std::string& name, double value);
  double get(const std::string& name) const;

  void emit(Report& report) const;

 private:
  std::vector<std::pair<std::string, std::string>> order_;  ///< name, unit
  std::map<std::string, double> values_;
};

/// Program-side observations of a traced pass (obs enabled).
struct ObsView {
  std::map<std::string, std::uint64_t> counters;

  /// A counter's value, 0 when the program never counted it.
  double counter(const std::string& name) const;
};

/// Enables and clears the program's obs recorder.
void obsStart();
/// Reads the program's counters.  Call while no parallel region is
/// active.
ObsView obsCollect();

/// Fills the span-derived entries every batch workload shares from one
/// traced pass: self time per layer span (ms), CPU utilisation of the
/// parallel layers, minimum job coverage and the trace overhead.
void fillTraceMetrics(LayerSheet& sheet, const std::vector<SpanRecord>& spans,
                      double untracedWallMs, double tracedWallMs);

/// Failed over attempted operations of the run so far.
double failRatio(const Report& report);

/// Sets fail_ratio, rejects the run when benchmark spans cover less
/// than 95 % of some job's wall time, and emits the sheet.
void finishTrace(LayerSheet& sheet, Report& report);

}  // namespace perfbench
