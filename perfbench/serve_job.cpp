#include "serve_job.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <tuple>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "benchgen/generators.hpp"
#include "benchgen/registry.hpp"
#include "rsn/flat.hpp"
#include "rsn/netlist_io.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using namespace rrsn;

/// The hot corpus and the method mix are bench_serve's: its corpus of
/// Table-I designs and its warm-phase mix (analyze twice in six, then
/// lint, diagnose, campaign with 8 faults, harden), with certify in
/// harden's slot so SPEA-2 does no work on this workload.
const std::vector<std::string> kHotDesigns = {"TreeFlat", "TreeBalanced",
                                              "q12710", "MBIST_2_5_5"};
const std::vector<std::string> kMethods = {"analyze", "lint", "certify",
                                           "diagnose", "campaign"};
const std::vector<std::size_t> kHotWeights = {2, 1, 1, 1, 1};
/// Repeated hot requests per pass (the volume of a pass, not a traffic
/// share).
constexpr std::size_t kHotRequests = 480;
/// One request in kColdEvery carries a never-seen netlist.  No recorded
/// rrsn_serve traffic exists to take this share from; it is the
/// benchmark's choice.
constexpr std::size_t kColdEvery = 8;
/// Faults per campaign request, as in bench_serve.
constexpr std::uint64_t kCampaignSample = 8;

/// One distinct request, pre-serialized.  The frame id is the key index,
/// so equal requests must get byte-equal responses.
struct Key {
  std::string method;
  std::string frame;
  std::uint64_t fingerprint = 0;  ///< in-process lowering, analyze only
};

Key makeKey(std::uint64_t id, const std::string& method,
            const std::string& netlist, std::uint64_t seed) {
  json::Object params;
  params["netlist"] = json::Value(netlist);
  if (method == "analyze") {
    params["seed"] = json::Value(seed);
  } else if (method == "campaign") {
    params["sample"] = json::Value(kCampaignSample);
  }
  json::Object req;
  req["id"] = json::Value(id);
  req["method"] = json::Value(method);
  req["params"] = json::Value(std::move(params));
  Key k;
  k.method = method;
  k.frame = json::serialize(json::Value(std::move(req)));
  if (method == "analyze") {
    k.fingerprint =
        rsn::FlatNetwork::lower(rsn::parseNetlistString(netlist))->fingerprint();
  }
  return k;
}

/// Cold variant `index`: style and size walk a fixed ladder, so every
/// pass sees the same spread of cold work; the name makes the text
/// never-seen.
std::string coldNetlist(const std::string& name, std::size_t index) {
  const std::size_t m = 6 + (index / 3) % 4;
  switch (index % 3) {
    case 0:
      return rsn::netlistToString(benchgen::makeSoc(name, 2 * m + 2, m));
    case 1:
      return rsn::netlistToString(
          benchgen::makeTreeFlatSib(name, 2 * m + 4, m));
    default:
      return rsn::netlistToString(benchgen::makeMbist(name, 7 * m + 4, m, 1));
  }
}

/// One protocol connection: a socketpair whose far end is pumped by
/// Server::serveStream.
class Connection {
 public:
  explicit Connection(serve::Server& server) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      throw std::runtime_error(std::string("socketpair: ") +
                               std::strerror(errno));
    }
    fd_ = sv[0];
    pump_ = std::thread([&server, fd = sv[1]] {
      (void)server.serveStream(fd, fd);
      ::close(fd);
    });
  }
  ~Connection() {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    pump_.join();
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::thread pump_;
};

/// One connection per core but one, which the generator keeps.
std::size_t connectionCount() {
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  return std::max<std::size_t>(1, cores - 1);
}

/// The server plus its connections, each of which answered a ping.
struct Rig {
  std::unique_ptr<serve::Server> server;
  std::vector<std::unique_ptr<Connection>> conns;

  explicit Rig(std::size_t cacheBudget) {
    serve::ServerOptions so;
    so.cacheBudgetBytes = cacheBudget;
    server = std::make_unique<serve::Server>(so);
    for (std::size_t c = 0; c < connectionCount(); ++c) {
      conns.push_back(std::make_unique<Connection>(*server));
    }
    const std::string ping = R"({"id":0,"method":"ping","params":{}})";
    for (const auto& conn : conns) {
      std::string payload;
      bool eof = false;
      if (!serve::writeFrame(conn->fd(), ping).ok() ||
          !serve::readFrame(conn->fd(), payload, eof).ok() || eof ||
          payload.find("\"pong\":true") == std::string::npos) {
        throw std::runtime_error("ping failed during set-up");
      }
    }
  }
};

struct Request {
  std::size_t key = 0;
  double sentMs = 0, doneMs = 0;
  std::uint64_t responseHash = 0;
  std::size_t responseBytes = 0;
  std::string payload;  ///< kept for the first response per key only
};

/// Closed loop from one event-loop thread: each connection gets the
/// next request as soon as its previous one is answered.
void runRequests(Rig& rig, const std::vector<Key>& keys,
                 std::vector<Request>& reqs) {
  const std::size_t nconn = rig.conns.size();
  std::vector<pollfd> fds(nconn);
  std::vector<std::size_t> busy(nconn, reqs.size());  ///< request in flight
  std::vector<char> captured(keys.size(), 0);
  std::size_t next = 0, answered = 0;
  const auto send = [&](std::size_t c) {
    Request& r = reqs[next];
    r.sentMs = nowMs();
    if (!serve::writeFrame(fds[c].fd, keys[r.key].frame).ok()) {
      throw std::runtime_error("request write failed");
    }
    busy[c] = next++;
  };
  for (std::size_t c = 0; c < nconn; ++c) {
    fds[c] = {rig.conns[c]->fd(), POLLIN, 0};
    if (next < reqs.size()) send(c);
  }
  while (answered < reqs.size()) {
    if (::poll(fds.data(), fds.size(), -1) < 0 && errno != EINTR) {
      throw std::runtime_error("poll failed");
    }
    for (std::size_t c = 0; c < nconn; ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      std::string payload;
      bool eof = false;
      if (busy[c] == reqs.size() ||
          !serve::readFrame(fds[c].fd, payload, eof).ok() || eof) {
        throw std::runtime_error("a connection broke");
      }
      Request& r = reqs[busy[c]];
      r.doneMs = nowMs();
      r.responseHash = fnv(payload.data(), payload.size());
      r.responseBytes = payload.size() + 4;
      if (!captured[r.key]) {
        captured[r.key] = 1;
        r.payload = std::move(payload);
      }
      ++answered;
      busy[c] = reqs.size();
      if (next < reqs.size()) send(c);
    }
  }
}

}  // namespace

struct ServeJob::Inputs {
  std::vector<Key> hot;
  std::vector<std::size_t> hotDeck;  ///< hot keys, repeated by weight
  std::uint64_t requestSeed = 0;
  std::size_t cacheBudget = 0;
  std::vector<std::uint64_t> firstHotHash;  ///< first pass, per hot key
};

ServeJob::ServeJob(std::uint64_t seed)
    : in_(std::make_unique<Inputs>()), seed_(seed) {
  // Request params travel as JSON integers (int64): keep the seed small.
  in_->requestSeed = (seed * 0x9e3779b97f4a7c15ULL + 5) >> 34;
  for (const std::string& name : kHotDesigns) {
    const std::string text =
        rsn::netlistToString(benchgen::buildBenchmark(name));
    for (std::size_t m = 0; m < kMethods.size(); ++m) {
      in_->hotDeck.insert(in_->hotDeck.end(), kHotWeights[m],
                          in_->hot.size());
      in_->hot.push_back(
          makeKey(in_->hot.size(), kMethods[m], text, in_->requestSeed));
    }
  }
  // The cache budget is the hot set's artifact bytes, measured on an
  // unbounded server: it holds the hot set but not the hot set plus the
  // cold variants, so cold inserts evict.
  Rig rig(0);
  std::vector<Request> once(in_->hot.size());
  for (std::size_t k = 0; k < once.size(); ++k) once[k].key = k;
  runRequests(rig, in_->hot, once);
  in_->cacheBudget = static_cast<std::size_t>(
      rig.server->statsJson().at("cache").at("bytes").asInt());
}

ServeJob::~ServeJob() = default;

double ServeJob::setupMs() const {
  const double t0 = nowMs();
  const Rig rig(in_->cacheBudget);
  return nowMs() - t0;
}

ServeOut ServeJob::run(Tracer& tracer, std::uint64_t job) {
  Inputs& in = *in_;
  // The keys of this pass: the hot ones, then this pass's never-seen
  // variants, a pure function of (seed, pass, index).
  std::vector<Key> keys = in.hot;
  const std::size_t coldCount = kHotRequests / kColdEvery;
  for (std::size_t i = 0; i < coldCount; ++i) {
    const std::string name = "cold_" + std::to_string(seed_) + "_" +
                             std::to_string(pass_) + "_" + std::to_string(i);
    keys.push_back(makeKey(keys.size(), kMethods[i % kMethods.size()],
                           coldNetlist(name, pass_ * coldCount + i),
                           in.requestSeed));
  }
  // The request list: every hot key once (its cold miss), then seeded
  // shuffles of the weighted deck, with the next never-seen netlist
  // before every kColdEvery-th of them.
  Rng rng(seed_ * 0x9e3779b97f4a7c15ULL + 3 + pass_);
  std::vector<Request> reqs;
  const auto add = [&reqs](std::size_t key) {
    reqs.emplace_back();
    reqs.back().key = key;
  };
  for (std::size_t k = 0; k < in.hot.size(); ++k) add(k);
  std::vector<std::size_t> deck = in.hotDeck;
  std::size_t deckPos = deck.size();
  for (std::size_t i = 0; i < kHotRequests; ++i) {
    if (i % kColdEvery == 0) add(in.hot.size() + i / kColdEvery);
    if (deckPos == deck.size()) {
      std::shuffle(deck.begin(), deck.end(), rng);
      deckPos = 0;
    }
    add(deck[deckPos++]);
  }

  ServeOut out;
  Tracer::Span jobSpan(tracer, "job", job);
  std::unique_ptr<Rig> rig;
  {
    Tracer::Span s(tracer, "serve.setup", job);
    rig = std::make_unique<Rig>(in.cacheBudget);
  }
  {
    Tracer::Span s(tracer, "serve.requests", job);
    runRequests(*rig, keys, reqs);
  }
  jobSpan.close();
  out.ms = jobSpan.ms();
  const json::Value st = rig->server->statsJson().at("cache");
  out.hits = static_cast<std::uint64_t>(st.at("hits").asInt());
  out.misses = static_cast<std::uint64_t>(st.at("misses").asInt());
  out.evictions = static_cast<std::uint64_t>(st.at("evictions").asInt());
  rig.reset();  // joins every connection thread

  // ---- output checks
  const auto fail = [&out](std::string why) {
    if (out.why.empty()) out.why = std::move(why);
    ++out.failed;
  };
  std::vector<std::uint64_t> firstHash(keys.size(), 0);
  std::vector<char> bad(keys.size(), 0);
  for (Request& r : reqs) {
    if (r.payload.empty()) continue;
    const Key& key = keys[r.key];
    const json::Value resp = json::parse(r.payload);
    if (!resp.at("ok").asBool()) {
      bad[r.key] = 1;
      fail(key.method + " request failed: " + r.payload.substr(0, 300));
    } else if (key.method == "analyze" &&
               static_cast<std::uint64_t>(resp.at("result")
                                              .at("flat_fingerprint")
                                              .asInt()) != key.fingerprint) {
      bad[r.key] = 1;
      fail("flat_fingerprint differs from an in-process lowering");
    }
    firstHash[r.key] = r.responseHash;
    r.payload = std::string();
  }
  for (const Request& r : reqs) {
    const std::string& method = keys[r.key].method;
    out.latencyByMethod[method].push_back(r.doneMs - r.sentMs);
    out.bytesIn += static_cast<double>(keys[r.key].frame.size() + 4);
    out.bytesOut += static_cast<double>(r.responseBytes);
    if (bad[r.key] == 0 && r.responseHash != firstHash[r.key]) {
      bad[r.key] = 1;
      fail(method + ": response differs from the first one to the request");
    }
  }
  if (pass_ == 0) {
    in.firstHotHash.assign(firstHash.begin(),
                           firstHash.begin() +
                               static_cast<std::ptrdiff_t>(in.hot.size()));
  } else if (!std::equal(in.firstHotHash.begin(), in.firstHotHash.end(),
                         firstHash.begin())) {
    fail("hot responses differ from the first pass's");
  }
  ++pass_;
  return out;
}

}  // namespace perfbench
