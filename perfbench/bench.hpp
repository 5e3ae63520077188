// Shared infrastructure of the repository benchmark: command-line
// options, the benchmark's own span tracer (spans sit around calls into
// the library layers, never inside them), run-level accounting of
// attempted/failed operations, metric output and the provenance stamp.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string source = "unknown";  ///< git sha or source digest
  /// BENCHMARK.json: the one catalogue of per-layer metric names/units.
  std::string spec = "BENCHMARK.json";
};

/// Milliseconds on the steady clock since process start.
double nowMs();

/// Process CPU time (user + system) in milliseconds.
double cpuMs();

/// Peak resident set size of this process in MiB.
double peakRssMb();

double median(std::vector<double> v);

/// Smallest value (0 for none).  Batch timings report the best pass:
/// other load on a shared machine only ever adds time, and it comes in
/// phases that a median over one run's passes does not filter out.
double best(const std::vector<double>& v);

/// Nearest-rank percentile, p in [0, 1].
double percentile(std::vector<double> v, double p);

/// FNV-1a over raw bytes, chained from `h`.
std::uint64_t fnv(const void* data, std::size_t n,
                  std::uint64_t h = 0xcbf29ce484222325ULL);

// ------------------------------------------------------------- tracing

struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: root
  std::uint64_t job = 0;     ///< shared by the spans of one job
                             ///< (also across threads)
  double startMs = 0, endMs = 0;
  double cpuMs = 0;          ///< process CPU time spent inside the span
};

/// Records spans when enabled; always measures.  Thread-safe: each
/// thread keeps its own open-span stack, records go to one locked list.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span.  ms() is valid while open or after close().
  class Span {
   public:
    Span(Tracer& t, const char* name, std::uint64_t job);
    ~Span() { close(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    void close();
    double ms() const;

   private:
    Tracer& tracer_;
    SpanRecord rec_;
    double cpuStart_ = 0;
    bool open_ = true;
  };

  std::uint64_t newJob() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++jobs_;
  }

  std::vector<SpanRecord> records() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_;
  }

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> records_;
  std::uint64_t nextId_ = 0;
  std::uint64_t jobs_ = 0;
};

/// Self time per span name: each span's duration minus the part of it
/// its child spans cover.
std::map<std::string, double> selfTimeMs(const std::vector<SpanRecord>& recs);

/// Sum of durations and of CPU time per span name.
struct SpanTotals {
  double ms = 0;
  double cpuMs = 0;
};
std::map<std::string, SpanTotals> spanTotals(
    const std::vector<SpanRecord>& recs);

/// For every span named `jobSpan`: the share of its interval covered by
/// the other spans of the same job id.  Returns the minimum over jobs
/// (1 if none).
double minJobCoverage(const std::vector<SpanRecord>& recs,
                      const std::string& jobSpan);

// ------------------------------------------------------------- results

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);

  /// One attempted operation; `ok == false` counts it as failed.
  void attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Marks the run incorrect and logs why (stderr).
  void fail(const std::string& why);

  bool correct() const { return correct_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// Human-readable table on stdout, then the provenance line, then the
  /// result line (the last line of stdout).
  void print(const Options& opt) const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> order_;
  std::uint64_t attempted_ = 0, failed_ = 0;
  bool correct_ = true;
};

/// Workload entry points.
void runHardenFlow(const Options& opt, Report& report);
void runValidateLadder(const Options& opt, Report& report);

}  // namespace perfbench
