#include "layers.hpp"

#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "benchgen/registry.hpp"
#include "obs/obs.hpp"
#include "rsn/netlist_io.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace perfbench {

DesignInput makeInput(const std::string& name, std::uint64_t seed) {
  DesignInput in;
  in.name = name;
  const rrsn::rsn::Network net = rrsn::benchgen::buildBenchmark(name);
  in.netlist = rrsn::rsn::netlistToString(net);
  // The spec is drawn against the parsed text, so instrument ids match
  // what every job sees after its own parse.
  const rrsn::rsn::Network reparsed = rrsn::rsn::parseNetlistString(in.netlist);
  rrsn::Rng rng(seed ^ std::hash<std::string>{}(name));
  in.spec = rrsn::rsn::randomSpec(reparsed, {}, rng);
  return in;
}

Front runFront(Tracer& tracer, std::uint64_t job, const std::string& netlist,
               const rrsn::rsn::CriticalitySpec* spec) {
  Front f{[&] {
    Tracer::Span s(tracer, "rsn.parse", job);
    return rrsn::rsn::parseNetlistString(netlist);
  }(), {}, nullptr};
  {
    Tracer::Span s(tracer, "lint.run", job);
    rrsn::lint::LintOptions lo;
    lo.spec = spec;
    f.lint = rrsn::lint::runLint(f.net, lo);
  }
  {
    Tracer::Span s(tracer, "rsn.lower", job);
    f.flat = rrsn::rsn::FlatNetwork::lower(f.net);
  }
  return f;
}

// ---------------------------------------------------------------- sheet

LayerSheet::LayerSheet(const std::string& specPath) {
  std::ifstream file(specPath);
  if (!file) throw std::runtime_error("cannot read " + specPath);
  std::stringstream text;
  text << file.rdbuf();
  const rrsn::json::Value spec = rrsn::json::parse(text.str());
  for (const rrsn::json::Value& m : spec.at("per_layer").asArray()) {
    order_.emplace_back(m.at("name").asString(), m.at("unit").asString());
    values_[order_.back().first] = 0.0;
  }
}

void LayerSheet::set(const std::string& name, double value) {
  auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::logic_error("layer metric not in BENCHMARK.json: " + name);
  }
  it->second = value;
}

double LayerSheet::get(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::logic_error("layer metric not in BENCHMARK.json: " + name);
  }
  return it->second;
}

void LayerSheet::emit(Report& report) const {
  for (const auto& [name, unit] : order_) {
    report.metric(name, values_.at(name), unit);
  }
}

// ------------------------------------------------------------------ obs

void obsStart() {
  rrsn::obs::enable();
  rrsn::obs::reset();
}

ObsView obsCollect() {
  ObsView v;
  const rrsn::obs::Snapshot snap = rrsn::obs::snapshot();
  for (const auto& [id, n] : snap.counters) v.counters[snap.names[id]] = n;
  return v;
}

double ObsView::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : static_cast<double>(it->second);
}

void fillTraceMetrics(LayerSheet& sheet, const std::vector<SpanRecord>& spans,
                      double untracedWallMs, double tracedWallMs) {
  const auto self = selfTimeMs(spans);
  for (const char* layer :
       {"rsn.parse", "rsn.lower", "lint.run", "crit.build", "crit.run",
        "harden.assemble", "harden.extract", "moo.greedy", "moo.spea2",
        "verify.base", "verify.run", "diag.build"}) {
    if (auto it = self.find(layer); it != self.end()) {
      sheet.set(std::string(layer) + "_ms", it->second);
    }
  }
  const auto totals = spanTotals(spans);
  const double threads = static_cast<double>(rrsn::threadCount());
  for (const auto& [span, metric] :
       std::vector<std::pair<const char*, const char*>>{
           {"moo.spea2", "moo.cpu_util"},
           {"verify.run", "verify.cpu_util"},
           {"diag.build", "diag.cpu_util"},
           {"campaign.run", "campaign.cpu_util"}}) {
    if (auto it = totals.find(span); it != totals.end() && it->second.ms > 0) {
      sheet.set(metric, it->second.cpuMs / (it->second.ms * threads));
    }
  }
  sheet.set("trace.coverage_min", minJobCoverage(spans, "job"));
  sheet.set("trace.wall_s", tracedWallMs / 1e3);
  if (untracedWallMs > 0) {
    sheet.set("trace.overhead_pct",
              100.0 * (tracedWallMs - untracedWallMs) / untracedWallMs);
  }
}

double failRatio(const Report& report) {
  return report.attempted() == 0
             ? 0.0
             : static_cast<double>(report.failed()) /
                   static_cast<double>(report.attempted());
}

void finishTrace(LayerSheet& sheet, Report& report) {
  constexpr double kMinCoverage = 0.95;
  sheet.set("fail_ratio", failRatio(report));
  const double coverage = sheet.get("trace.coverage_min");
  if (coverage < kMinCoverage) {
    report.fail("benchmark spans cover only " + std::to_string(coverage) +
                " of a job's wall time");
  }
  sheet.emit(report);
}

}  // namespace perfbench
