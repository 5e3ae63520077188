#include "support/parallel.hpp"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "support/error.hpp"

namespace rrsn {

namespace {

/// RRSN_THREADS through the strict parser, or hardware_concurrency.
/// Warns on stderr once when the value was rejected or clamped — a
/// silently mis-parsed RRSN_THREADS turns every "parallel" run serial
/// (or worse), so the correction must be visible.
std::size_t threadsFromEnvironment() {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t fallback = hw == 0 ? 1 : static_cast<std::size_t>(hw);
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only getenv at pool
  // construction; nothing in the process calls setenv.
  const char* text = std::getenv("RRSN_THREADS");
  const detail::EnvParse p =
      detail::parseEnvCount(text, fallback, 1, detail::kMaxThreads);
  static bool warned = false;
  if (((p.usedFallback && text != nullptr && *text != '\0') || p.clamped) &&
      !warned) {
    warned = true;
    std::fprintf(stderr,
                 "rrsn: warning: RRSN_THREADS=\"%s\" is %s; using %zu\n", text,
                 p.clamped ? "out of range" : "not a positive integer",
                 p.value);
  }
  return p.value;
}

/// One parallel region in flight.  Chunks are claimed from an atomic
/// counter; the region is finished when every claimed chunk has run.
struct Job {
  std::function<void(std::size_t, std::size_t)> body;
  std::size_t chunks = 0;
  std::uint64_t seq = 0;
  const CancellationToken* cancel = nullptr;
  std::atomic<std::size_t> nextChunk{0};
  std::atomic<std::size_t> doneChunks{0};
  std::mutex errorMutex;
  std::exception_ptr error;
};

/// The process-wide pool.  The calling thread always participates as
/// lane 0; the pool owns threadCount()-1 helper threads (none at all
/// when the count is 1, so single-threaded runs never spawn anything).
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  std::size_t threads() {
    std::lock_guard<std::mutex> lock(mutex_);
    ensureConfiguredLocked();
    return target_;
  }

  void resize(std::size_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    RRSN_CHECK(job_ == nullptr, "setThreadCount inside a parallel region");
    stopWorkersLocked(lock);
    target_ = n == 0 ? threadsFromEnvironment() : n;
    configured_ = true;
  }

  void run(std::size_t chunks,
           const std::function<void(std::size_t, std::size_t)>& body,
           const CancellationToken* cancel) {
    if (chunks == 0) return;
    thread_local bool insideRegion = false;
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ensureConfiguredLocked();
      // Nested regions (or a 1-thread pool) run inline on the caller.
      if (insideRegion || target_ <= 1 || job_ != nullptr) {
        lock.unlock();
        for (std::size_t c = 0; c < chunks; ++c) {
          if (cancel != nullptr && cancel->cancelled()) return;
          body(c, 0);
        }
        return;
      }
      ensureWorkersLocked();
      job = std::make_shared<Job>();
      job->body = body;
      job->chunks = chunks;
      job->cancel = cancel;
      job->seq = ++jobSeq_;
      job_ = job;
      workCv_.notify_all();
    }
    insideRegion = true;
    workOn(*job, /*lane=*/0);
    insideRegion = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      doneCv_.wait(lock, [&] {
        return job->doneChunks.load(std::memory_order_acquire) >= job->chunks;
      });
      if (job_ == job) job_ = nullptr;
    }
    if (job->error) std::rethrow_exception(job->error);
  }

 private:
  Pool() = default;
  ~Pool() {
    std::unique_lock<std::mutex> lock(mutex_);
    stopWorkersLocked(lock);
  }

  void ensureConfiguredLocked() {
    if (!configured_) {
      target_ = threadsFromEnvironment();
      configured_ = true;
    }
  }

  void ensureWorkersLocked() {
    while (workers_.size() + 1 < target_) {
      const std::size_t lane = workers_.size() + 1;
      workers_.emplace_back([this, lane] { workerLoop(lane); });
    }
  }

  void stopWorkersLocked(std::unique_lock<std::mutex>& lock) {
    if (workers_.empty()) return;
    stop_ = true;
    workCv_.notify_all();
    std::vector<std::thread> workers = std::move(workers_);
    workers_.clear();
    lock.unlock();
    for (std::thread& t : workers) t.join();
    lock.lock();
    stop_ = false;
  }

  void workerLoop(std::size_t lane) {
    std::uint64_t lastSeq = 0;
    while (true) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        workCv_.wait(lock, [&] {
          return stop_ || (job_ != nullptr && job_->seq != lastSeq);
        });
        if (stop_) return;
        job = job_;
        lastSeq = job->seq;
      }
      workOn(*job, lane);
    }
  }

  void workOn(Job& job, std::size_t lane) {
    while (true) {
      const std::size_t c =
          job.nextChunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= job.chunks) return;
      try {
        // A cancelled job still drains its chunk counter (the waiter in
        // run() blocks on doneChunks == chunks) — the bodies are just no
        // longer invoked.
        if (job.cancel == nullptr || !job.cancel->cancelled()) job.body(c, lane);
      } catch (...) {
        std::lock_guard<std::mutex> lock(job.errorMutex);
        if (!job.error) job.error = std::current_exception();
      }
      if (job.doneChunks.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          job.chunks) {
        // Take the pool mutex before notifying so the waiter cannot miss
        // the wake-up between its predicate check and the wait.
        std::lock_guard<std::mutex> lock(mutex_);
        doneCv_.notify_all();
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable workCv_;
  std::condition_variable doneCv_;
  std::vector<std::thread> workers_;
  std::shared_ptr<Job> job_;
  std::uint64_t jobSeq_ = 0;
  std::size_t target_ = 1;
  bool configured_ = false;
  bool stop_ = false;
};

}  // namespace

std::size_t threadCount() { return Pool::instance().threads(); }

void setThreadCount(std::size_t n) { Pool::instance().resize(n); }

namespace detail {

EnvParse parseEnvCount(const char* text, std::size_t fallback, std::size_t lo,
                       std::size_t hi) {
  EnvParse out;
  out.value = fallback;
  if (text == nullptr || *text == '\0') {
    out.usedFallback = true;
    return out;
  }
  if (std::isspace(static_cast<unsigned char>(*text)) != 0) {
    // strtoll would silently skip leading whitespace; the contract is a
    // bare decimal integer, nothing else.
    out.usedFallback = true;
    return out;
  }
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0') {
    // Garbage or trailing characters ("abc", "4x", "1.5"): fall back.
    out.usedFallback = true;
    return out;
  }
  if (errno == ERANGE) {
    // Overflowed long long: clamp to the matching bound.
    out.clamped = true;
    out.value = v > 0 ? hi : lo;
    return out;
  }
  if (v <= 0) {
    // 0 and negative counts are nonsense, not "minimum": fall back so a
    // stray RRSN_THREADS=0 keeps the hardware default.
    out.usedFallback = true;
    return out;
  }
  const auto u = static_cast<unsigned long long>(v);
  if (u < lo) {
    out.clamped = true;
    out.value = lo;
  } else if (u > hi) {
    out.clamped = true;
    out.value = hi;
  } else {
    out.value = static_cast<std::size_t>(u);
  }
  return out;
}

void runChunks(std::size_t chunks,
               const std::function<void(std::size_t, std::size_t)>& body,
               const CancellationToken* cancel) {
  Pool::instance().run(chunks, body, cancel);
}

std::size_t chunkGrid(std::size_t n, std::size_t grain) {
  // A function of n and the grain only (determinism: reduce partials
  // must not depend on the pool size).  Inputs below twice the grain
  // stay serial — the grain is the work threshold under which per-task
  // dispatch overhead beats any parallel win; large inputs get enough
  // chunks for load balancing on any realistic machine.
  constexpr std::size_t kMaxChunks = 256;  // caps scheduling overhead
  if (grain == 0) grain = kDefaultGrain;
  if (n < 2 * grain) return 1;
  return std::min(kMaxChunks, n / grain);
}

}  // namespace detail

}  // namespace rrsn
