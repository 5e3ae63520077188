// The serve job of validate-ladder: an in-process serve::Server driven
// over the wire protocol, closed loop, by one event-loop thread with
// nproc - 1 connections (one request in flight each).
//
// Hot set and mix: bench_serve's corpus (TreeFlat, TreeBalanced, q12710,
// MBIST_2_5_5) and its warm-phase mix (analyze 2, lint 1, diagnose 1,
// campaign 1 in six), with certify in harden's slot so SPEA-2 does no
// work on this workload.  Every hot request is first sent once (its cold
// miss), then repeated from the weighted deck.  One request in eight (a
// benchmark choice: no recorded traffic exists) carries a never-seen
// netlist, a benchgen variant from a fixed size ladder, made per pass.
// The cache byte budget is the hot set's measured artifact bytes, so
// cold inserts evict while hot requests hit.
//
// Output checks: every response is ok; every analyze response's
// flat_fingerprint equals an in-process lowering of the same text; every
// response is byte-equal to the first response to the same request; the
// hot responses of every pass equal the first pass's.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct ServeOut {
  double ms = 0;  ///< set-up plus requests
  std::map<std::string, std::vector<double>> latencyByMethod;
  std::uint64_t hits = 0, misses = 0, evictions = 0;
  double bytesIn = 0, bytesOut = 0;
  std::size_t failed = 0;  ///< failed checks
  std::string why;         ///< the first failed check
};

class ServeJob {
 public:
  /// Generates the hot requests from `seed` and measures the hot set's
  /// artifact bytes (the cache budget).
  explicit ServeJob(std::uint64_t seed);
  ~ServeJob();
  ServeJob(const ServeJob&) = delete;
  ServeJob& operator=(const ServeJob&) = delete;

  /// One pass on a fresh server: a "job" span over "serve.setup" (Server
  /// until every connection answered a ping) and "serve.requests"; the
  /// pass's cold requests are made before it and the checks after it.
  ServeOut run(Tracer& tracer, std::uint64_t job);

  /// Server construction until every connection answered a ping.
  double setupMs() const;

 private:
  struct Inputs;
  std::unique_ptr<Inputs> in_;
  std::uint64_t seed_;
  std::size_t pass_ = 0;
};

}  // namespace perfbench
