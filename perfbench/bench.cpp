#include "bench.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <thread>

#include <sys/resource.h>

#include "support/parallel.hpp"

namespace perfbench {
namespace {

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

/// Open benchmark spans of the calling thread, innermost last.
thread_local std::vector<std::uint64_t> tlsOpen;

std::string jsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

double nowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

double cpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double peakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives exec and would
  // report the launching process's peak when that one was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double best(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::uint64_t fnv(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ------------------------------------------------------------- tracing

Tracer::Span::Span(Tracer& t, const char* name, std::uint64_t job)
    : tracer_(t) {
  rec_.name = name;
  rec_.job = job;
  if (tracer_.enabled_) {
    {
      std::lock_guard<std::mutex> lock(tracer_.mu_);
      rec_.id = ++tracer_.nextId_;
    }
    rec_.parent = tlsOpen.empty() ? 0 : tlsOpen.back();
    tlsOpen.push_back(rec_.id);
    cpuStart_ = cpuMs();
  }
  rec_.startMs = nowMs();
}

void Tracer::Span::close() {
  if (!open_) return;
  open_ = false;
  rec_.endMs = nowMs();
  if (!tracer_.enabled_) return;
  rec_.cpuMs = cpuMs() - cpuStart_;
  if (!tlsOpen.empty() && tlsOpen.back() == rec_.id) tlsOpen.pop_back();
  std::lock_guard<std::mutex> lock(tracer_.mu_);
  tracer_.records_.push_back(rec_);
}

double Tracer::Span::ms() const {
  return (open_ ? nowMs() : rec_.endMs) - rec_.startMs;
}

namespace {

/// Length of the union of [start, end) intervals.
double unionLength(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0, curS = 0, curE = -1;
  bool have = false;
  for (const auto& [s, e] : iv) {
    if (!have || s > curE) {
      if (have) total += curE - curS;
      curS = s;
      curE = e;
      have = true;
    } else {
      curE = std::max(curE, e);
    }
  }
  if (have) total += curE - curS;
  return total;
}

std::map<std::uint64_t, std::vector<std::pair<double, double>>> childIntervals(
    const std::vector<SpanRecord>& recs) {
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> out;
  for (const SpanRecord& r : recs) {
    if (r.parent != 0) out[r.parent].emplace_back(r.startMs, r.endMs);
  }
  return out;
}

}  // namespace

std::map<std::string, double> selfTimeMs(const std::vector<SpanRecord>& recs) {
  const auto children = childIntervals(recs);
  std::map<std::string, double> out;
  for (const SpanRecord& r : recs) {
    double covered = 0;
    if (auto it = children.find(r.id); it != children.end()) {
      covered = unionLength(it->second);
    }
    out[r.name] += (r.endMs - r.startMs) - covered;
  }
  return out;
}

std::map<std::string, SpanTotals> spanTotals(
    const std::vector<SpanRecord>& recs) {
  std::map<std::string, SpanTotals> out;
  for (const SpanRecord& r : recs) {
    SpanTotals& t = out[r.name];
    t.ms += r.endMs - r.startMs;
    t.cpuMs += r.cpuMs;
  }
  return out;
}

double minJobCoverage(const std::vector<SpanRecord>& recs,
                      const std::string& jobSpan) {
  // Spans opened on another thread have no parent there, but they carry
  // the job id, so coverage is taken over the job id.
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> byJob;
  for (const SpanRecord& r : recs) {
    if (r.name != jobSpan) byJob[r.job].emplace_back(r.startMs, r.endMs);
  }
  double worst = 1.0;
  for (const SpanRecord& r : recs) {
    if (r.name != jobSpan) continue;
    const double len = r.endMs - r.startMs;
    if (len <= 0) continue;
    std::vector<std::pair<double, double>> inside;
    for (auto [s, e] : byJob[r.job]) {
      s = std::max(s, r.startMs);
      e = std::min(e, r.endMs);
      if (s < e) inside.emplace_back(s, e);
    }
    worst = std::min(worst, unionLength(std::move(inside)) / len);
  }
  return worst;
}

// ------------------------------------------------------------- results

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not a finite number");
    value = 0;
  }
  if (metrics_.find(name) == metrics_.end()) order_.push_back(name);
  metrics_[name] = Metric{value, unit};
}

void Report::fail(const std::string& why) {
  correct_ = false;
  std::cerr << "CHECK FAILED: " << why << "\n";
}

void Report::print(const Options& opt) const {
  for (const std::string& name : order_) {
    const Metric& m = metrics_.at(name);
    std::printf("  %-36s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  const char* threadsEnv = std::getenv("RRSN_THREADS");
  const std::string buildType = PERFBENCH_BUILD_TYPE;
  std::cout << "{\"provenance\":{\"source\":" << jsonString(opt.source)
            << ",\"nproc\":" << std::thread::hardware_concurrency()
            << ",\"build_type\":" << jsonString(buildType)
            << ",\"build_flag\":"
            << jsonString(buildType == "Release" ? "ok" : "NOT-RELEASE")
            << ",\"threads\":" << rrsn::threadCount()
            << ",\"rrsn_threads_env\":"
            << jsonString(threadsEnv != nullptr ? threadsEnv : "")
            << ",\"workload\":" << jsonString(opt.workload)
            << ",\"seed\":" << opt.seed << ",\"trace\":" << opt.trace
            << "}}\n";
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : order_) {
    const Metric& m = metrics_.at(name);
    if (!first) out += ", ";
    first = false;
    out += jsonString(name) + ": {\"value\": " + jsonNumber(m.value) +
           ", \"unit\": " + jsonString(m.unit) + "}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace perfbench
