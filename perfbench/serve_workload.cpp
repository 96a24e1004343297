/// \file serve_workload.cpp
/// The server phase of each workload: an in-process qadd_serve over loopback
/// TCP, driven open loop.  Requests are due on a fixed schedule (evenly spaced at the
/// phase's rate) and each is timed from its due time, so a stall delays
/// every request behind it; the generator reports how late it sent.  The
/// request mix is generated from the seed; the server only sees the frames.
///
/// Threads: one generator thread multiplexes one connection with ppoll(),
/// sleeping until the next request is due or a reply arrives, and the server
/// gets nproc - 2 workers, so workers + generator + the server's connection
/// thread stay within nproc.
#include "workloads.hpp"

#include "core/algebraic_system.hpp"
#include "core/numeric_system.hpp"
#include "io/snapshot.hpp"
#include "qc/simulator.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <ctime>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>

namespace perfbench {
namespace {

using namespace qadd;

/// ε jobs are drawn at random from the workload's many distinct circuits, so
/// a repeat on a session is on average hundreds of its jobs back, past
/// several collections, and each job really computes (a few ms).  The
/// sessions run at the server's default GC watermark: with Grover jobs each
/// collects about every 80 of its jobs, for ~35 ms, and the requests queued
/// behind collections are about 4% of all requests.  p99 therefore lies
/// inside that GC-driven tail rather than at its edge, where it would jump
/// between the tail and the body from run to run.
constexpr double kServeEpsilon = 1e-10;
/// ε circuits run once per session during warm-up.
constexpr std::size_t kWarmUpCircuits = 4;
constexpr double kHitShare = 0.60;  ///< exact runs answered from the result cache
constexpr double kMissShare = 0.25; ///< uncached ε runs; the rest are state round trips
/// Capacity ladder: fixed rungs jobs.nominalRps * kLadderStep^k, k = 0, 1,
/// ...; rung 0 is the nominal phase.  The search probes the jobs' first rung
/// (about 60% of capacity) and walks up while rungs pass, or down until one
/// passes.  Each probe lasts kStepSeconds, long enough to hold ~10 of the
/// ε sessions' collections, which make the tail: at 1.5 s a rung's p99
/// moved by 2-5x from one probe to the next.
constexpr double kLadderStep = 1.1;
constexpr int kLadderRungs = 40;
constexpr double kStepSeconds = 3.0;
/// Latency limit on a rung's p99, in ms: well above the requests queued
/// behind one collection (up to ~110 ms measured), so a rung fails on a
/// growing queue, not on one collection.
constexpr double kLimitMs = 250.0;
/// A phase that is still waiting for answers this long after its last due
/// time is abandoned: its unanswered requests fail.
constexpr auto kPhaseGrace = std::chrono::seconds(30);
constexpr int kSetupRepeats = 3;
/// The open-loop burst at the nominal rate that ends set-up.
constexpr double kWarmUpSeconds = 0.6;
constexpr double kInf = std::numeric_limits<double>::infinity();

enum class Kind { Hit, Miss, State };

const char* kindName(Kind kind) {
  switch (kind) {
  case Kind::Hit:
    return "serve::request.hit";
  case Kind::Miss:
    return "serve::request.miss";
  case Kind::State:
    return "serve::request.state";
  }
  return "";
}

/// One generated request: its class and the frame body without the id.
struct Planned {
  Kind kind = Kind::Hit;
  const std::string* body = nullptr; ///< `{"op":...` without the closing brace
  std::string loadSession;           ///< State: where the snapshot is loaded back
};

struct Outcome {
  Kind kind = Kind::Hit;
  double latencyMs = kInf; ///< due time → final response; +inf when failed
  double execMs = -1.0;    ///< the response's `seconds` for uncached runs
  double lateMs = 0.0;     ///< send time − due time
  bool ok = false;
  bool cached = false;
  int code = 0;
};

/// Non-blocking client socket carrying pipelined frames.
class Connection {
public:
  explicit Connection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      throw std::runtime_error("socket() failed");
    }
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&address), sizeof address) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect() to the server failed");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool wantsWrite() const { return sent_ < out_.size(); }
  std::string& out() { return out_; }

  void flush() {
    while (sent_ < out_.size()) {
      const ssize_t n = ::send(fd_, out_.data() + sent_, out_.size() - sent_, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          return;
        }
        throw std::runtime_error("send() to the server failed");
      }
      sent_ += static_cast<std::size_t>(n);
    }
    out_.clear();
    sent_ = 0;
  }

  /// Read what is available and hand each complete line to `onLine`.
  template <class OnLine> void readLines(OnLine&& onLine) {
    char buffer[1 << 16];
    while (true) {
      const ssize_t n = ::recv(fd_, buffer, sizeof buffer, 0);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      }
      if (n <= 0) {
        throw std::runtime_error("server closed the connection");
      }
      in_.append(buffer, static_cast<std::size_t>(n));
    }
    std::size_t start = 0;
    for (std::size_t nl = in_.find('\n'); nl != std::string::npos; nl = in_.find('\n', start)) {
      onLine(std::string_view(in_).substr(start, nl - start));
      start = nl + 1;
    }
    in_.erase(0, start);
  }

private:
  int fd_ = -1;
  std::string out_;
  std::size_t sent_ = 0;
  std::string in_;
};

struct Phase {
  std::vector<Outcome> outcomes;
  std::size_t backlogAtLastSend = 0; ///< requests still unanswered when the last one was sent
  bool abandoned = false; ///< answers were still missing kPhaseGrace after the last due time
};

/// The mix, its frames and the offline answers it is checked against.
struct Mix {
  const std::vector<qc::Circuit>& exact;
  const std::vector<qc::Circuit>& numeric;
  std::vector<std::string> hitBodies;  ///< per (alg session, exact circuit)
  std::vector<std::string> missBodies; ///< per (num session, numeric circuit)
  std::vector<std::string> stateBodies; ///< per alg session
  std::set<std::size_t> servedMisses;   ///< indices into `numeric` that were planned
  std::mt19937_64 rng;

  Mix(const ServeJobs& jobs, std::uint64_t seed)
      : exact(jobs.exact), numeric(jobs.numeric), rng(seed) {
    for (const std::string session : {"alg0", "alg1"}) {
      for (const qc::Circuit& circuit : exact) {
        hitBodies.push_back(runBody(session, circuit));
      }
      stateBodies.push_back("{\"op\":\"state\",\"session\":\"" + session + "\"");
    }
    for (const std::string session : {"num0", "num1"}) {
      for (const qc::Circuit& circuit : numeric) {
        missBodies.push_back(runBody(session, circuit));
      }
    }
  }

  static std::string runBody(const std::string& session, const qc::Circuit& circuit) {
    return "{\"op\":\"run\",\"session\":\"" + session + "\",\"circuit\":\"" +
           serve::json::escape(circuit.toText()) + "\"";
  }

  /// `count` requests drawn from the seeded mix.
  std::vector<Planned> plan(std::size_t count) {
    std::uniform_real_distribution<double> share(0.0, 1.0);
    std::vector<Planned> requests(count);
    for (Planned& request : requests) {
      const double u = share(rng);
      if (u < kHitShare) {
        request.kind = Kind::Hit;
        request.body = &hitBodies[rng() % hitBodies.size()];
      } else if (u < kHitShare + kMissShare) {
        request.kind = Kind::Miss;
        const std::size_t k = rng() % missBodies.size();
        request.body = &missBodies[k];
        servedMisses.insert(k % numeric.size());
      } else {
        request.kind = Kind::State;
        const std::size_t from = rng() % stateBodies.size();
        request.body = &stateBodies[from];
        request.loadSession = from == 0 ? "alg1" : "alg0";
      }
    }
    return requests;
  }
};

/// Send `requests` open loop at `rps` and wait for every answer.  State
/// requests are followed, on their reply, by a loadstate of the returned
/// snapshot; their latency runs to the loadstate reply.  Every snapshot a
/// state request returns is collected in `snapshots` for checking.  Sending
/// stops early once `maxBacklog` requests are unanswered (an overloaded
/// ladder probe has failed by then); the outcomes cover the requests sent.
/// An abandoned phase leaves replies in flight on `connection`, which must
/// then not be used again.
Phase runPhase(Connection& connection, const std::vector<Planned>& requests, double rps,
               SpanLog& spans, std::map<std::string, std::size_t>& snapshots,
               std::size_t maxBacklog = std::numeric_limits<std::size_t>::max()) {
  Phase phase;
  std::size_t toSend = requests.size();
  phase.outcomes.resize(requests.size());
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  const auto due = [&](std::size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) / rps));
  };
  const auto lastDue = due(requests.size() - 1);
  const auto deadline = lastDue + kPhaseGrace;
  std::size_t next = 0;
  std::size_t outstanding = 0;
  std::string& out = connection.out();

  const auto finish = [&](std::size_t i, Clock::time_point now) {
    Outcome& outcome = phase.outcomes[i];
    outcome.latencyMs =
        outcome.ok ? std::chrono::duration<double, std::milli>(now - due(i)).count() : kInf;
    --outstanding;
    spans.add(kindName(outcome.kind), "serve", due(i), now, "r" + std::to_string(i));
  };

  while (next < toSend || outstanding > 0) {
    auto now = Clock::now();
    if (now > deadline) {
      phase.abandoned = true; // unanswered requests keep ok = false
      break;
    }
    if (next < toSend && outstanding >= maxBacklog) {
      toSend = next;
      phase.backlogAtLastSend = outstanding;
    }
    while (next < toSend && due(next) <= now) {
      const Planned& request = requests[next];
      phase.outcomes[next].kind = request.kind;
      phase.outcomes[next].lateMs = std::chrono::duration<double, std::milli>(now - due(next)).count();
      out += *request.body;
      out += ",\"id\":\"r";
      out += std::to_string(next);
      out += "\"}\n";
      ++outstanding;
      ++next;
      if (next == toSend) {
        phase.backlogAtLastSend = outstanding;
      }
    }
    connection.flush();
    // Sleep until the next request is due or a reply arrives.  A late wake-up
    // shows as latency, which is measured from the due time, and as lateness.
    timespec timeout{0, 10'000'000}; // while only answers are awaited
    if (next < toSend) {
      const auto wait = std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::max(Clock::duration::zero(), due(next) - Clock::now()));
      timeout = {static_cast<std::time_t>(wait.count() / 1'000'000'000),
                 static_cast<long>(wait.count() % 1'000'000'000)};
    }
    pollfd descriptor{connection.fd(),
                      static_cast<short>(POLLIN | (connection.wantsWrite() ? POLLOUT : 0)), 0};
    if (::ppoll(&descriptor, 1, &timeout, nullptr) <= 0 || (descriptor.revents & POLLIN) == 0) {
      continue;
    }
    now = Clock::now();
    connection.readLines([&](std::string_view line) {
      const serve::json::Value reply = serve::json::parse(line);
      const std::string id = reply.getString("id");
      if (id.size() < 2 || reply.find("event") != nullptr) {
        return;
      }
      const std::size_t i = std::stoul(id.substr(1));
      if (i >= next) {
        return; // not a request of this phase
      }
      Outcome& outcome = phase.outcomes[i];
      outcome.ok = reply.getBool("ok");
      if (!outcome.ok) {
        const serve::json::Value* error = reply.find("error");
        outcome.code = error != nullptr ? static_cast<int>(error->getNumber("code")) : 0;
        finish(i, now);
        return;
      }
      if (id[0] == 'l') { // loadstate leg of a state round trip
        finish(i, now);
        return;
      }
      if (outcome.kind == Kind::State) {
        const std::string snapshot = reply.getString("snapshot_b64");
        ++snapshots[snapshot];
        out += "{\"op\":\"loadstate\",\"session\":\"" + requests[i].loadSession +
               "\",\"qdds_b64\":\"" + snapshot + "\",\"id\":\"l" + std::to_string(i) + "\"}\n";
        connection.flush();
        return;
      }
      outcome.cached = reply.getBool("cached");
      if (!outcome.cached) {
        outcome.execMs = reply.getNumber("seconds") * 1e3;
      }
      finish(i, now);
    });
  }
  phase.outcomes.resize(toSend);
  return phase;
}

serve::json::Value request(std::initializer_list<std::pair<const char*, serve::json::Value>> fields) {
  serve::json::Value value = serve::json::Value::object();
  for (const auto& [key, field] : fields) {
    value.set(key, field);
  }
  return value;
}

void expectOk(const serve::json::Value& reply, const std::string& what) {
  if (!reply.getBool("ok")) {
    throw std::runtime_error(what + " failed: " + serve::json::dump(reply));
  }
}

void openSession(serve::Client& client, const std::string& name, const std::string& system,
                 qc::Qubit qubits) {
  expectOk(client.call(request({{"op", "open"},
                                {"session", name},
                                {"system", system},
                                {"eps", system == "alg" ? 0.0 : kServeEpsilon},
                                {"qubits", static_cast<std::size_t>(qubits)}})),
           "open " + name);
}

serve::json::Value runJob(serve::Client& client, const std::string& session,
                          const qc::Circuit& circuit, bool snapshot) {
  return client.call(request({{"op", "run"},
                              {"session", session},
                              {"circuit", circuit.toText()},
                              {"snapshot", snapshot}}));
}

/// A started server with its sessions open and caches warm.
struct Harness {
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<Connection> connection;

  /// runPhase on the harness's connection; an abandoned phase gets the
  /// next one a fresh connection, so its late replies are never read.
  Phase run(const std::vector<Planned>& requests, double rps, SpanLog& spans,
            std::map<std::string, std::size_t>& snapshots,
            std::size_t maxBacklog = std::numeric_limits<std::size_t>::max()) {
    Phase phase = runPhase(*connection, requests, rps, spans, snapshots, maxBacklog);
    if (phase.abandoned) {
      connection = std::make_unique<Connection>(server->port());
    }
    return phase;
  }
};

Harness setUp(Mix& mix, double nominalRps, std::size_t workers, SpanLog& spans) {
  Harness harness;
  serve::ServerConfig config;
  config.port = 0;
  config.workers = workers;
  // Overload must show as latency on the capacity ladder, not as refusals:
  // the queue cap sits far above any step's backlog.
  config.maxQueueDepth = 1 << 14;
  {
    const Scoped span(spans, "serve::Server::start", "serve");
    harness.server = std::make_unique<serve::Server>(config);
    harness.server->start();
  }
  serve::Client client;
  client.connect("127.0.0.1", harness.server->port(), 60.0);
  {
    const Scoped span(spans, "serve::Client::call open", "serve");
    const qc::Qubit exactQubits = mix.exact.front().qubits();
    const qc::Qubit numericQubits = mix.numeric.front().qubits();
    openSession(client, "alg0", "alg", exactQubits);
    openSession(client, "alg1", "alg", exactQubits);
    openSession(client, "num0", "num", numericQubits);
    openSession(client, "num1", "num", numericQubits);
  }
  {
    // Warm-up: fill the result cache and the sessions' tables.
    const Scoped span(spans, "serve::Client::call warm-up", "serve");
    for (const std::string session : {"alg0", "alg1"}) {
      for (const qc::Circuit& circuit : mix.exact) {
        expectOk(runJob(client, session, circuit, false), "warm-up run");
      }
    }
    for (const std::string session : {"num0", "num1"}) {
      for (std::size_t k = 0; k < std::min(kWarmUpCircuits, mix.numeric.size()); ++k) {
        expectOk(runJob(client, session, mix.numeric[k], false), "warm-up run");
      }
    }
  }
  harness.connection = std::make_unique<Connection>(harness.server->port());
  // A short open-loop burst at the nominal rate, so the first measured
  // phase does not pay for cold connection and allocator state.
  const Scoped span(spans, "serve warm-up burst", "serve");
  std::map<std::string, std::size_t> ignored;
  const Phase burst = harness.run(mix.plan(static_cast<std::size_t>(nominalRps * kWarmUpSeconds)),
                                    nominalRps, spans, ignored);
  for (const Outcome& outcome : burst.outcomes) {
    if (!outcome.ok) {
      throw std::runtime_error("warm-up request failed (code " + std::to_string(outcome.code) +
                               ")");
    }
  }
  return harness;
}

std::vector<double> latencies(const Phase& phase, std::optional<Kind> kind = std::nullopt) {
  std::vector<double> out;
  for (const Outcome& o : phase.outcomes) {
    if (!kind || o.kind == *kind) {
      out.push_back(o.latencyMs);
    }
  }
  return out;
}

/// p99 meets the limit, nothing failed, and the backlog at the last send is
/// less than one limit's worth of arrivals.
bool stepPasses(const Phase& phase, double rps) {
  const bool allOk = std::all_of(phase.outcomes.begin(), phase.outcomes.end(),
                                 [](const Outcome& o) { return o.ok; });
  return allOk && percentile(latencies(phase), 0.99) <= kLimitMs &&
         static_cast<double>(phase.backlogAtLastSend) < rps * kLimitMs / 1e3;
}

template <class System>
std::vector<std::uint8_t> offlineSnapshot(const qc::Circuit& circuit,
                                          typename System::Config config) {
  qc::Simulator<System> simulator(circuit, config);
  simulator.run();
  return io::saveVector(simulator.package(), simulator.state());
}

} // namespace

double runServePhase(const Args& args, double seconds, const ServeJobs& jobs, Report& report,
                     SpanLog& spans) {
  const std::size_t nproc = std::max(1U, std::thread::hardware_concurrency());
  const std::size_t workers = nproc > 3 ? nproc - 2 : 1;
  Mix mix(jobs, args.seed);

  std::vector<double> setup;
  Harness harness;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto start = Clock::now();
    harness = {}; // stop the previous repetition's server first
    harness = setUp(mix, jobs.nominalRps, workers, spans);
    setup.push_back(secondsSince(start));
  }
  report.note("server workers " + std::to_string(workers) + ", 1 generator thread, 1 connection");

  // Untraced: the nominal rate for `seconds`, then the capacity ladder.
  // Traced: the nominal rate for `seconds` with per-request spans.
  std::map<std::string, std::size_t> snapshots;
  const int span = spans.begin("serve.nominal", "serve");
  const Phase nominal =
      harness.run(mix.plan(static_cast<std::size_t>(jobs.nominalRps * seconds)), jobs.nominalRps, spans,
                  snapshots);
  spans.end(span);
  std::vector<Phase> phases;
  if (!args.trace) {
    // The highest passing rung of the fixed ladder.
    const auto rung = [&](int k) { return jobs.nominalRps * std::pow(kLadderStep, k); };
    std::string ladder = " " + std::to_string(static_cast<int>(jobs.nominalRps)) + ":" +
                         std::to_string(percentile(latencies(nominal), 0.99));
    const auto probe = [&](int k) {
      if (k == 0) {
        return stepPasses(nominal, jobs.nominalRps);
      }
      const double rps = rung(k);
      phases.push_back(harness.run(mix.plan(static_cast<std::size_t>(rps * kStepSeconds)), rps,
                                   spans, snapshots,
                                   static_cast<std::size_t>(2 * rps * kLimitMs / 1e3)));
      ladder += " " + std::to_string(static_cast<int>(rps)) + ":" +
                std::to_string(percentile(latencies(phases.back()), 0.99));
      return stepPasses(phases.back(), rps);
    };
    int highest = jobs.firstRung;
    if (probe(highest)) {
      while (highest + 1 < kLadderRungs && probe(highest + 1)) {
        ++highest;
      }
    } else {
      do {
        --highest;
      } while (highest >= 0 && !probe(highest));
    }
    report.note("ladder rps:p99_ms" + ladder);
    report.metric("serve_max_rps", highest < 0 ? 0.0 : rung(highest), "1/s", phases.size());
  }
  phases.push_back(nominal);

  // Every request must have been answered.
  std::uint64_t rejected = 0;
  std::uint64_t failedRequests = 0;
  for (const Phase& phase : phases) {
    for (std::size_t i = 0; i < phase.outcomes.size(); ++i) {
      const Outcome& o = phase.outcomes[i];
      rejected += o.code == 429 ? 1 : 0;
      failedRequests += o.ok ? 0 : 1;
      report.check(o.ok, "request r" + std::to_string(i) + " failed (code " +
                             std::to_string(o.code) + ")");
    }
  }

  // Checks: every distinct job, run in a fresh session, is byte-identical to
  // an offline qc::Simulator run; every snapshot a state request returned is
  // one of the exact jobs' final states.
  serve::Client client;
  client.connect("127.0.0.1", harness.server->port(), 60.0);
  std::set<std::string> exactStates;
  dd::NumericSystem::Config numeric;
  numeric.epsilon = kServeEpsilon;
  std::vector<const qc::Circuit*> distinct;
  for (const qc::Circuit& circuit : mix.exact) {
    distinct.push_back(&circuit);
  }
  for (const std::size_t k : mix.servedMisses) {
    distinct.push_back(&mix.numeric[k]);
  }
  for (std::size_t k = 0; k < distinct.size(); ++k) {
    const bool exact = k < mix.exact.size();
    const qc::Circuit& circuit = *distinct[k];
    const std::string session = "verify" + std::to_string(k);
    openSession(client, session, exact ? "alg" : "num", circuit.qubits());
    const auto offline = exact ? offlineSnapshot<dd::AlgebraicSystem>(circuit, {})
                               : offlineSnapshot<dd::NumericSystem>(circuit, numeric);
    const serve::json::Value reply = runJob(client, session, circuit, true);
    report.check(reply.getBool("ok") &&
                     serve::decodeBase64(reply.getString("snapshot_b64")) == offline,
                 "served " + std::string(exact ? "exact" : "eps") + " job " + std::to_string(k) +
                     " differs from the offline simulator");
    if (exact) {
      exactStates.insert(serve::encodeBase64(offline));
    }
    expectOk(client.call(request({{"op", "close"}, {"session", session}})), "close " + session);
  }
  for (const auto& [snapshot, count] : snapshots) {
    report.check(exactStates.count(snapshot) == 1,
                 "a state request returned a snapshot that is no exact job's final state");
  }
  harness = {};

  if (!args.trace) {
    return median(setup);
  }

  // Per-layer: the serve breakdown of the traced nominal phase.
  std::vector<double> exec;
  std::vector<double> wait;
  std::vector<double> late;
  std::size_t hits = 0;
  std::size_t cachedHits = 0;
  for (const Outcome& o : nominal.outcomes) {
    late.push_back(o.lateMs);
    if (o.execMs >= 0.0) {
      exec.push_back(o.execMs);
      wait.push_back(o.latencyMs - o.execMs);
    }
    if (o.kind == Kind::Hit) {
      ++hits;
      cachedHits += o.cached ? 1 : 0;
    }
  }
  report.metric("serve.exec_ms_p50", percentile(exec, 0.50), "ms", exec.size());
  report.metric("serve.exec_ms_p99", percentile(exec, 0.99), "ms", exec.size());
  report.metric("serve.wait_ms_p50", percentile(wait, 0.50), "ms", wait.size());
  report.metric("serve.wait_ms_p99", percentile(wait, 0.99), "ms", wait.size());
  const auto classP99 = [&](const char* name, Kind kind) {
    const std::vector<double> v = latencies(nominal, kind);
    report.metric(name, percentile(v, 0.99), "ms", v.size());
  };
  const std::vector<double> all = latencies(nominal);
  report.metric("serve.p50_ms", percentile(all, 0.50), "ms", all.size());
  report.metric("serve.p99_ms", percentile(all, 0.99), "ms", all.size());
  classP99("serve.hit_p99_ms", Kind::Hit);
  classP99("serve.miss_p99_ms", Kind::Miss);
  classP99("serve.state_p99_ms", Kind::State);
  report.metric("serve.cache_hit_ratio",
                hits == 0 ? 0.0 : static_cast<double>(cachedHits) / static_cast<double>(hits),
                "ratio", hits);
  report.metric("serve.rejected", static_cast<double>(rejected), "count", 1);
  report.metric("serve.failed", static_cast<double>(failedRequests), "count", 1);
  report.metric("serve.late_ms_p99", percentile(late, 0.99), "ms", late.size());
  return median(setup);
}

} // namespace perfbench
