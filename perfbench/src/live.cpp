#include "live.h"

#include <dirent.h>
#include <sched.h>
#include <unistd.h>

#include <deque>
#include <fstream>
#include <memory>
#include <optional>
#include <queue>
#include <thread>
#include <unordered_map>

#include "classad/match.h"
#include "lease/heartbeat.h"
#include "lease/lease_table.h"
#include "matchmaker/claiming.h"
#include "service/matchmakerd.h"
#include "service/reactor.h"
#include "service/socket.h"
#include "sim/rng.h"
#include "wire/codec.h"

namespace perfbench {

double peakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

int threadCount() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return 0;
}

namespace {

constexpr const char* kCaAddress = "ca://bench";
/// Generator lateness (p99, ms) above which a run is invalid.
constexpr double kLateBoundMs = 10.0;
/// Seconds a ClaimRequest may go unanswered (customer_agentd's default).
constexpr double kClaimTimeout = 10.0;
constexpr std::size_t kCaptureAds = 4000;
constexpr std::size_t kCaptureFrames = 2000;
constexpr std::size_t kCaptureClaims = 1000;
/// Span ring of the traced run (daemon and benchmark): large enough that
/// no span of a run is overwritten (obs.spans_dropped must stay 0).
constexpr std::size_t kTraceCapacity = 1u << 18;
/// Period of the intake barrier on each agent link.
constexpr double kBarrierInterval = 0.05;

/// Open TCP sockets of this process (both ends of every in-process
/// connection, plus listeners).
int procSockets() {
  int n = 0;
  if (DIR* dir = ::opendir("/proc/self/fd")) {
    while (const dirent* e = ::readdir(dir)) {
      char target[128];
      const std::string path = std::string("/proc/self/fd/") + e->d_name;
      const ssize_t len = ::readlink(path.c_str(), target, sizeof(target) - 1);
      if (len > 0 && std::string_view(target, len).rfind("socket:", 0) == 0) ++n;
    }
    ::closedir(dir);
  }
  return n;
}

/// Gives the daemon's service thread and the generator a vCPU each (the
/// last two this process may use): a thread created by start() inherits
/// the creating thread's mask, so the caller pins itself to one CPU,
/// starts the daemon, then moves to the other. Run-to-run spread is then
/// not set by where the scheduler happens to place the two threads.
class CpuPair {
 public:
  CpuPair() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && second_ < 0; --cpu) {
      if (!CPU_ISSET(cpu, &allowed)) continue;
      if (first_ < 0) {
        first_ = cpu;
      } else {
        second_ = cpu;
      }
    }
  }
  void daemonSide() const { pin(first_); }
  void generatorSide() const { pin(second_); }

 private:
  void pin(int cpu) const {
    if (first_ < 0 || second_ < 0) return;  // one CPU: nothing to separate
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    ::sched_setaffinity(0, sizeof(set), &set);
  }
  int first_ = -1;
  int second_ = -1;
};

wire::Frame asFrame(const std::string& bytes) {
  return {static_cast<std::uint8_t>(bytes[5]), bytes.substr(wire::kHeaderSize)};
}

enum class JobState { kPending, kClaiming, kRunning, kDone };

struct Job {
  std::uint64_t id = 0;
  classad::ClassAdPtr ad;
  std::string key;
  double due = 0.0;
  double sentAt = 0.0;
  double notifiedAt = 0.0;
  double claimSentAt = 0.0;
  double claimedAt = 0.0;  ///< first accepted ClaimResponse; 0 = never
  JobState state = JobState::kPending;
  bool measured = false;
  matchmaking::Ticket ticket = 0;
  obs::TraceContext trace;
  std::string machine;
  classad::ClassAdPtr matchedRequest, matchedResource;
  std::optional<lease::HeartbeatMonitor> monitor;
  std::uint64_t claimGen = 0;
};

struct Machine {
  const MachineSpec* spec = nullptr;
  matchmaking::Ticket ticket = 0;
  double loadAvg = 0.0;
  double keyboardIdle = 0.0;
  bool claimed = false;
  std::uint64_t jobId = 0;
  std::string user;
  std::string customer;
  double claimStart = 0.0;
  std::uint64_t claimGen = 0;
  classad::ClassAdPtr current;
};

/// One agent->matchmaker connection with its intake barriers.
struct Link {
  std::string name;
  service::Connection* conn = nullptr;
  std::uint64_t adsSent = 0;
  std::uint64_t absorbed = 0;
  std::deque<std::uint64_t> barriers;  ///< adsSent when each was queued
  std::uint64_t lastBarrier = 0;       ///< adsSent at the newest barrier
  std::vector<std::pair<double, std::uint64_t>> absorbedAt;
};

enum class Ev {
  kMachineAd, kStormWindow, kJobReAds, kBarrier, kBeat, kComplete, kLeaseReap
};

struct Event {
  double at;
  Ev kind;
  std::uint64_t a;
  std::uint64_t b;
  bool operator>(const Event& o) const { return at > o.at; }
};

/// Daemon and generator counters at one instant; a window is the
/// difference of two.
struct Snap {
  double t = 0.0;
  std::uint64_t framesIn = 0, evaluated = 0, pruned = 0;
  HistSnap reactor, cycle, adscan, fairshare, rank, notify, solve;
  double genReactor = 0.0, genOutside = 0.0;
};

class Session {
 public:
  Session(const LiveOptions& o)
      : o_(o),
        spec_(*o.spec),
        machineSpecs_(makeMachines(spec_, o.seed)),
        jobRng_(o.seed * 7919 + 17),
        arrivalRng_(o.seed * 104729 + 3),
        driftRng_(o.seed * 15485863 + 5),
        ticketRng_(o.seed * 32452843 + 11),
        benchTracer_(obs::Tracer::Options{kTraceCapacity, o.tracing, "bench",
                                          o.seed + 1}) {
    machines_.resize(machineSpecs_.size());
    for (std::size_t i = 0; i < machines_.size(); ++i) {
      machines_[i].spec = &machineSpecs_[i];
      machines_[i].loadAvg = machineSpecs_[i].loadAvg;
      machines_[i].keyboardIdle = machineSpecs_[i].keyboardIdle;
    }
    ca_.name = "ca->mm";
    ra_.name = "ra->mm";
  }

  ~Session() {
    reactor_.reset();  // closes the generator's sockets
    if (daemon_) daemon_->stop();
  }

  bool setup(std::string* error) {
    service::MatchmakerDaemon::Config cfg;
    cfg.host = "127.0.0.1";
    cfg.port = 0;
    cfg.negotiationInterval = spec_.negotiationInterval;
    cfg.adLifetime = 60.0;
    cfg.matchmaker.negotiationPolicy = spec_.policy;
    cfg.tracing = o_.tracing;
    if (o_.tracing) cfg.traceCapacity = kTraceCapacity;
    daemon_ = std::make_unique<service::MatchmakerDaemon>(cfg);

    // Chosen once, from the process's mask before any thread was pinned.
    static const CpuPair cpus;
    const double start = now();
    cpus.daemonSide();
    const bool started = daemon_->start(error);
    cpus.generatorSide();
    if (!started) return false;
    reactor_ = std::make_unique<service::Reactor>();
    if (!reactor_->listen("127.0.0.1", 0, error)) return false;
    reactor_->instrument(&genRegistry_);
    raContact_ = service::makeTcpAddress("127.0.0.1", reactor_->port());
    reactor_->onFrame = [this](service::Connection& c, const wire::Frame& f) {
      onFrame(c, f);
    };
    reactor_->onAccept = [this](service::Connection& c) {
      if (claimIn_ == nullptr) {
        claimIn_ = &c;
      } else {
        problem("unexpected extra connection to the emulated RA");
      }
    };
    reactor_->onClose = [this](service::Connection& c) {
      if (&c == ca_.conn || &c == ra_.conn || &c == claimIn_ ||
          &c == claimOut_) {
        if (!closing_) problem("a benchmark connection closed mid-run");
        if (&c == ca_.conn) ca_.conn = nullptr;
        if (&c == ra_.conn) ra_.conn = nullptr;
        if (&c == claimIn_) claimIn_ = nullptr;
        if (&c == claimOut_) claimOut_ = nullptr;
      }
    };
    ca_.conn = dial(daemon_->port(), "collector", kCaAddress, "ca->mm");
    ra_.conn = dial(daemon_->port(), "collector", raContact_, "ra->mm");
    claimOut_ = dial(reactor_->port(), raContact_, kCaAddress, "ca->ra");
    if (!ca_.conn || !ra_.conn || !claimOut_) {
      *error = "dial failed";
      return false;
    }
    refreshStatusAds(start);
    for (std::size_t i = 0; i < machines_.size(); ++i) {
      mintTicket(machines_[i], i);
      advertiseMachine(i, start);
    }
    sendBarrier(ra_);
    const double deadline = start + 20.0;
    while (!(ra_.barriers.empty() && claimIn_ != nullptr &&
             daemon_->negotiationCycles() >= 1)) {
      if (now() > deadline || !problems_.empty()) {
        *error = "initial pool not absorbed";
        return false;
      }
      reactor_->pollOnce(2);
    }
    setupSeconds_ = now() - start;
    return true;
  }

  double setupSeconds() const { return setupSeconds_; }

  void live(LiveResult& out);

 private:
  service::Connection* dial(std::uint16_t port, const std::string& peer,
                            const std::string& self, const std::string& link) {
    service::Connection* c = reactor_->dial("127.0.0.1", port, nullptr);
    if (c == nullptr) return nullptr;
    c->peerAddress = peer;
    c->queue(wire::encodeHello(
        {wire::kProtocolVersion, wire::kProtocolVersion, self}));
    count(link, "Hello");
    return c;
  }

  void problem(const std::string& what) {
    if (problems_.size() < 20) problems_.push_back(what);
  }

  void count(const std::string& link, const std::string& kind) {
    frames_[link + " " + kind] += 1.0;
  }

  template <class F>
  auto timed(const char* span, F&& fn) {
    obs::ActiveSpan s = obs::startTrace(&benchTracer_, span);
    return fn();
  }

  void mintTicket(Machine& m, std::size_t idx) {
    if (m.ticket != 0) ticketToMachine_.erase(m.ticket);
    do {
      m.ticket = ticketRng_.next();
    } while (m.ticket == 0 || ticketToMachine_.count(m.ticket));
    ticketToMachine_[m.ticket] = idx;
  }

  /// DaemonStatus self-ads ride every advertising pass, as the real
  /// agents send them; the registry part is re-rendered once a second.
  void refreshStatusAds(double t) {
    if (t < statusRenderedAt_ + 1.0) return;
    statusRenderedAt_ = t;
    classad::ClassAd ra;
    ra.set("MyType", "DaemonStatus");
    ra.set("Type", "DaemonStatus");
    ra.set("DaemonType", "ResourceAgent");
    ra.set("Address", raContact_);
    ra.set("LeasesGranted", static_cast<double>(leases_.granted()));
    ra.set("LeasesRenewed", static_cast<double>(leases_.renewed()));
    ra.set("LeasesExpired", static_cast<double>(leases_.expired()));
    genRegistry_.renderInto(ra);
    raStatus_ = std::move(ra);
    classad::ClassAd ca;
    ca.set("MyType", "DaemonStatus");
    ca.set("Type", "DaemonStatus");
    ca.set("DaemonType", "CustomerAgent");
    ca.set("Name", "bench");
    ca.set("Address", kCaAddress);
    genRegistry_.renderInto(ca);
    caStatus_ = classad::makeShared(std::move(ca));
  }

  void sendAd(Link& link, const std::string& from,
              matchmaking::Advertisement adv, const char* kind,
              bool capture) {
    std::string bytes = timed("wire.encode.advertisement", [&] {
      return wire::encodeEnvelope({from, "collector", std::move(adv)});
    });
    if (capture && measuring_ &&
        replay_.adFrames.size() < kCaptureFrames) {
      replay_.adFrames.push_back(asFrame(bytes));
    }
    adBytes_ += bytes.size();
    link.conn->queue(bytes);
    ++link.adsSent;
    count(link.name, kind);
  }

  void sendBarrier(Link& link) {
    wire::PoolQuery q;
    q.scope = "barrier";  // matches no store: answering costs ~nothing
    link.conn->queue(wire::encodePoolQuery(q));
    link.barriers.push_back(link.adsSent);
    link.lastBarrier = link.adsSent;
  }

  void advertiseMachine(std::size_t idx, double t) {
    Machine& m = machines_[idx];
    if (spec_.pool == PoolShape::kSelective) {
      m.loadAvg = std::clamp(m.loadAvg + driftRng_.uniform(-0.02, 0.02), 0.0,
                             0.25);
      m.keyboardIdle += driftRng_.uniform(1.0, 10.0);
    }
    classad::ClassAd ad = m.spec->attrs;
    ad.set("ContactAddress", raContact_);
    ad.set("LoadAvg", m.loadAvg);
    ad.set("KeyboardIdle", static_cast<std::int64_t>(m.keyboardIdle));
    if (m.claimed) {
      ad.set("State", "Claimed");
      ad.set("Activity", "Busy");
      ad.set("RemoteUser", m.user);
      // Without CurrentRank the engine treats a claimed machine as free
      // and would re-match it; the resource Rank is constant 0, so no
      // request outranks the current customer.
      ad.set("CurrentRank", 0.0);
    } else {
      ad.set("State", "Unclaimed");
      ad.set("Activity", "Idle");
    }
    ad.set("AuthorizationTicket", matchmaking::ticketToString(m.ticket));
    m.current = classad::makeShared(std::move(ad));
    if (measuring_ && replay_.machineAds.size() < kCaptureAds) {
      replay_.machineAds.push_back(m.current);
    }
    const std::string key = raContact_ + "#" + m.spec->name;
    const std::uint64_t seq = ++raSeq_;
    sendAd(ra_, raContact_, {m.current, seq, false, key},
           "Advertisement/Machine", true);
    refreshStatusAds(t);
    classad::ClassAd status = raStatus_;
    status.set("Name", m.spec->name);
    status.set("Claimed", m.claimed ? 1.0 : 0.0);
    sendAd(ra_, raContact_, {classad::makeShared(std::move(status)), seq, false, key},
           "Advertisement/DaemonStatus", false);
  }

  void advertiseJob(Job& job) {
    sendAd(ca_, kCaAddress, {job.ad, ++caSeq_, true, job.key},
           "Advertisement/Job", true);
  }

  void submitJob(double due) {
    Job job;
    job.id = jobs_.size() + 1;
    classad::ClassAd ad = makeJobAd(spec_, jobRng_, job.id);
    ad.set("ContactAddress", kCaAddress);
    job.ad = classad::makeShared(std::move(ad));
    job.key = std::string(kCaAddress) + "#" + std::to_string(job.id);
    job.due = due;
    job.measured = measuring_;
    jobs_.push_back(std::move(job));
    Job& j = jobs_.back();
    if (measuring_ && replay_.jobAds.size() < kCaptureAds) {
      replay_.jobAds.push_back(j.ad);
    }
    advertiseJob(j);
    j.sentAt = now();
    lateMs_.add(1e3 * (j.sentAt - due));
    ++pending_;
  }

  void schedule(double at, Ev kind, std::uint64_t a = 0, std::uint64_t b = 0) {
    events_.push({at, kind, a, b});
  }

  std::optional<htcsim::Envelope> decode(const wire::Frame& frame,
                                         const char* span) {
    std::string error;
    auto env = timed(span, [&] { return wire::decodeEnvelope(frame, &error); });
    if (!env) problem("undecodable frame: " + error);
    return env;
  }

  void onFrame(service::Connection& conn, const wire::Frame& frame);
  void onBarrier(Link& link, const wire::Frame& frame);
  void caOnMatch(const matchmaking::MatchNotification& match,
                 const wire::Frame& frame);
  void raOnClaim(const matchmaking::ClaimRequest& req);
  void raOnBeat(const matchmaking::Heartbeat& hb);
  void caOnResponse(const matchmaking::ClaimResponse& resp);
  void caOnBeatAck(const matchmaking::Heartbeat& hb);
  void caOnRelease(const matchmaking::ClaimRelease& rel);
  void caOnLeaseExpired(const matchmaking::LeaseExpired& le);
  void finishClaim(std::size_t idx, bool completed);
  void handle(const Event& e);
  Snap snap(double t) const;
  void pollCycles();

  LiveOptions o_;
  const WorkloadSpec& spec_;
  std::vector<MachineSpec> machineSpecs_;
  std::vector<Machine> machines_;
  htcsim::Rng jobRng_, arrivalRng_, driftRng_, ticketRng_;
  mutable obs::Registry genRegistry_;
  obs::Tracer benchTracer_;
  std::unique_ptr<service::MatchmakerDaemon> daemon_;
  std::unique_ptr<service::Reactor> reactor_;
  std::string raContact_;
  Link ca_, ra_;
  service::Connection* claimOut_ = nullptr;  ///< CA end of the claim link
  service::Connection* claimIn_ = nullptr;   ///< RA end (accepted)
  bool closing_ = false;
  bool measuring_ = false;
  bool draining_ = false;  ///< window over: only claims and barriers go out
  double setupSeconds_ = 0.0;

  std::vector<Job> jobs_;  ///< index = JobId - 1
  std::size_t pending_ = 0;
  std::deque<std::uint64_t> claimFifo_;  ///< jobs awaiting a ClaimResponse
  std::unordered_map<matchmaking::Ticket, std::size_t> ticketToMachine_;
  std::unordered_map<std::string, std::uint64_t> heldBy_;  ///< CA's view
  std::unordered_map<std::uint64_t, classad::ClassAdPtr> verifiedAd_;
  lease::LeaseTable leases_;
  lease::MonitorConfig monitorConfig_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
  std::uint64_t raSeq_ = 0, caSeq_ = 0;
  std::size_t stormCursor_ = 0;
  double statusRenderedAt_ = -1e9;
  classad::ClassAd raStatus_;
  classad::ClassAdPtr caStatus_;

  FrameMix frames_;
  std::vector<std::string> problems_;
  std::uint64_t adBytes_ = 0;
  std::uint64_t claimsRejected_ = 0, claimTimeouts_ = 0, leaseExpiries_ = 0,
                staleNotifications_ = 0, raNotifications_ = 0;
  Samples lateMs_, roundtripUs_;
  ReplayInputs replay_;

  // Per-cycle durations polled from the daemon's cycle histogram.
  std::uint64_t lastCycleCount_ = 0;
  double lastCycleSum_ = 0.0;
  Samples cycleMs_;
  Samples requestsPerCycle_, matchesPerCycle_;
};

void Session::onFrame(service::Connection& conn, const wire::Frame& frame) {
  const auto type = static_cast<wire::MsgType>(frame.type);
  if (type == wire::MsgType::kHello) return;
  if (&conn == ca_.conn || &conn == ra_.conn) {
    Link& link = &conn == ca_.conn ? ca_ : ra_;
    if (type == wire::MsgType::kQueryResponse) {
      onBarrier(link, frame);
      return;
    }
    if (type != wire::MsgType::kMatchNotification) {
      problem("unexpected frame from the matchmaker");
      return;
    }
    const auto env = decode(frame, "wire.decode.match_notification");
    if (!env) return;
    const auto* match = std::get_if<matchmaking::MatchNotification>(&env->payload);
    if (match == nullptr) return;
    if (&conn == ca_.conn) {
      caOnMatch(*match, frame);
    } else {
      // The RA's copy is informational, as in resource_agentd: the claim
      // is verified on its own merits when it arrives.
      ++raNotifications_;
    }
    return;
  }
  const auto env = decode(frame, "wire.decode.claim");
  if (!env) return;
  if (&conn == claimIn_) {
    if (const auto* req = std::get_if<matchmaking::ClaimRequest>(&env->payload)) {
      raOnClaim(*req);
    } else if (const auto* hb =
                   std::get_if<matchmaking::Heartbeat>(&env->payload)) {
      raOnBeat(*hb);
    }
    return;
  }
  if (const auto* resp = std::get_if<matchmaking::ClaimResponse>(&env->payload)) {
    caOnResponse(*resp);
  } else if (const auto* hb = std::get_if<matchmaking::Heartbeat>(&env->payload)) {
    caOnBeatAck(*hb);
  } else if (const auto* rel =
                 std::get_if<matchmaking::ClaimRelease>(&env->payload)) {
    caOnRelease(*rel);
  } else if (const auto* le =
                 std::get_if<matchmaking::LeaseExpired>(&env->payload)) {
    caOnLeaseExpired(*le);
  }
}

void Session::onBarrier(Link& link, const wire::Frame& frame) {
  std::string error;
  const auto resp = wire::decodePoolQueryResponse(frame, &error);
  if (!resp || !resp->ok || link.barriers.empty()) {
    problem("bad barrier response");
    return;
  }
  link.absorbed = link.barriers.front();
  link.barriers.pop_front();
  link.absorbedAt.emplace_back(now(), link.absorbed);
}

void Session::caOnMatch(const matchmaking::MatchNotification& match,
                        const wire::Frame& frame) {
  const double t = now();
  if (measuring_ && replay_.notificationFrames.size() < kCaptureFrames) {
    replay_.notificationFrames.push_back(frame);
  }
  if (!match.myAd || !match.peerAd) {
    problem("notification without ads");
    return;
  }
  const auto id = match.myAd->getInteger("JobId").value_or(0);
  if (id <= 0 || static_cast<std::size_t>(id) > jobs_.size()) {
    problem("notification for an unknown job");
    return;
  }
  Job& job = jobs_[static_cast<std::size_t>(id) - 1];
  if (job.state != JobState::kPending) {
    ++staleNotifications_;
    return;
  }
  job.notifiedAt = t;
  job.trace = match.trace;
  job.ticket = match.ticket;
  job.machine = match.peerAd->getString("Name").value_or("");
  job.matchedRequest = match.myAd;
  job.matchedResource = match.peerAd;
  matchmaking::ClaimRequest claim;
  claim.requestAd = job.ad;
  claim.ticket = match.ticket;
  claim.customerContact = kCaAddress;
  claim.trace = match.trace;
  if (replay_.claims.size() < kCaptureClaims) {
    replay_.claims.push_back({nullptr, 0, claim});
  }
  claimOut_->queue(timed("wire.encode.claim", [&] {
    return wire::encodeEnvelope({kCaAddress, match.peerContact, claim});
  }));
  count("ca->ra", "ClaimRequest");
  job.state = JobState::kClaiming;
  job.claimSentAt = now();
  claimFifo_.push_back(job.id);
  --pending_;
}

void Session::raOnClaim(const matchmaking::ClaimRequest& req) {
  const double t = now();
  matchmaking::ClaimResponse verdict;
  const auto it = ticketToMachine_.find(req.ticket);
  std::size_t idx = 0;
  if (it == ticketToMachine_.end()) {
    verdict = {false, "no outstanding ticket (resource not offered)", 0.0, {}};
  } else {
    idx = it->second;
    if (machines_[idx].claimed) {
      verdict = {false, "already claimed", 0.0, {}};
    } else {
      const Machine& m = machines_[idx];
      verdict = timed("claim.verify", [&] {
        return matchmaking::evaluateClaim(*m.current, m.ticket, req);
      });
      for (ReplayInputs::Claim& c : replay_.claims) {
        if (c.machineAd == nullptr && c.request.ticket == req.ticket) {
          c.machineAd = m.current;
          c.ticket = m.ticket;
          break;
        }
      }
    }
  }
  verdict.trace = req.trace;
  if (verdict.accepted) verdict.leaseDuration = spec_.leaseSeconds;
  claimIn_->queue(timed("wire.encode.claim", [&] {
    return wire::encodeEnvelope({raContact_, req.customerContact, verdict});
  }));
  count("ra->ca", verdict.accepted ? "ClaimResponse/accepted"
                                    : "ClaimResponse/rejected");
  if (!verdict.accepted) return;
  Machine& m = machines_[idx];
  m.claimed = true;
  m.jobId = static_cast<std::uint64_t>(req.requestAd->getInteger("JobId").value_or(0));
  m.user = req.requestAd->getString("Owner").value_or("");
  m.customer = req.customerContact;
  m.claimStart = t;
  ++m.claimGen;
  verifiedAd_[m.jobId] = m.current;
  timed("lease.grant", [&] {
    return &leases_.grant(m.ticket, m.jobId, req.customerContact, t,
                          spec_.leaseSeconds);
  });
  schedule(t + spec_.serviceSeconds, Ev::kComplete, idx, m.claimGen);
  advertiseMachine(idx, t);  // re-advertise as Claimed, CurrentRank set
}

void Session::raOnBeat(const matchmaking::Heartbeat& hb) {
  if (hb.ack) return;
  const double t = now();
  const auto it = ticketToMachine_.find(hb.ticket);
  const bool live = it != ticketToMachine_.end() &&
                    machines_[it->second].claimed &&
                    timed("lease.renew", [&] { return leases_.renew(hb.ticket, t); });
  if (live) {
    matchmaking::Heartbeat ack = hb;
    ack.ack = true;
    claimIn_->queue(wire::encodeEnvelope({raContact_, kCaAddress, ack}));
    count("ra->ca", "Heartbeat");
  } else {
    claimIn_->queue(wire::encodeEnvelope(
        {raContact_, kCaAddress,
         matchmaking::LeaseExpired{hb.ticket, hb.jobId,
                                   "no active lease for ticket", hb.trace}}));
    count("ra->ca", "LeaseExpired");
  }
}

void Session::caOnResponse(const matchmaking::ClaimResponse& resp) {
  const double t = now();
  if (claimFifo_.empty()) {
    problem("ClaimResponse without a claim in flight");
    return;
  }
  Job& job = jobs_[claimFifo_.front() - 1];
  claimFifo_.pop_front();
  if (job.state != JobState::kClaiming) return;  // timed out meanwhile
  roundtripUs_.add(1e6 * (t - job.claimSentAt));
  if (!resp.accepted) {
    ++claimsRejected_;
    job.state = JobState::kPending;  // rematched after its next re-ad
    ++pending_;
    return;
  }
  job.state = JobState::kRunning;
  if (job.claimedAt == 0.0) job.claimedAt = t;
  if (const auto held = heldBy_.find(job.machine); held != heldBy_.end()) {
    problem("machine " + job.machine + " holds two live claims");
  }
  heldBy_[job.machine] = job.id;
  // Placed: retract the request ad, as customer_agentd does.
  ca_.conn->queue(wire::encodeEnvelope(
      {kCaAddress, "collector", htcsim::AdInvalidate{job.key, true}}));
  count("ca->mm", "AdInvalidate");
  if (resp.leaseDuration > 0.0) {
    job.monitor.emplace(monitorConfig_, resp.leaseDuration, t);
    ++job.claimGen;
    schedule(job.monitor->nextDue(), Ev::kBeat, job.id, job.claimGen);
  }
}

void Session::caOnBeatAck(const matchmaking::Heartbeat& hb) {
  if (!hb.ack || hb.jobId == 0 || hb.jobId > jobs_.size()) return;
  Job& job = jobs_[hb.jobId - 1];
  if (job.monitor && job.ticket == hb.ticket) job.monitor->ack(hb.sequence, now());
}

void Session::caOnRelease(const matchmaking::ClaimRelease& rel) {
  if (rel.jobId == 0 || rel.jobId > jobs_.size()) return;
  Job& job = jobs_[rel.jobId - 1];
  job.monitor.reset();
  heldBy_.erase(job.machine);
  job.state = rel.completed ? JobState::kDone : JobState::kPending;
  if (!rel.completed) ++pending_;
}

void Session::caOnLeaseExpired(const matchmaking::LeaseExpired& le) {
  if (le.jobId == 0 || le.jobId > jobs_.size()) return;
  Job& job = jobs_[le.jobId - 1];
  if (job.state != JobState::kRunning || job.ticket != le.ticket) return;
  ++leaseExpiries_;
  job.monitor.reset();
  heldBy_.erase(job.machine);
  job.state = JobState::kPending;
  ++pending_;
}

void Session::finishClaim(std::size_t idx, bool completed) {
  Machine& m = machines_[idx];
  const double t = now();
  const double used = t - m.claimStart;
  leases_.release(m.ticket);
  if (completed) {
    matchmaking::ClaimRelease rel;
    rel.ticket = m.ticket;
    rel.reason = "completed";
    rel.jobId = m.jobId;
    rel.cpuSecondsUsed = used;
    rel.completed = true;
    claimIn_->queue(wire::encodeEnvelope({raContact_, m.customer, rel}));
    count("ra->ca", "ClaimRelease");
  }
  ra_.conn->queue(wire::encodeEnvelope(
      {raContact_, "collector", htcsim::UsageReport{m.user, used}}));
  count("ra->mm", "UsageReport");
  m.claimed = false;
  mintTicket(m, idx);
  advertiseMachine(idx, t);  // fresh ticket, Unclaimed
}

void Session::handle(const Event& e) {
  const double t = now();
  switch (e.kind) {
    case Ev::kMachineAd:
      if (draining_) break;
      advertiseMachine(e.a, t);
      schedule(e.at + spec_.adIntervalSeconds, Ev::kMachineAd, e.a);
      break;
    case Ev::kStormWindow:
      // Paced storm: one window per period; a window whose predecessors
      // are not yet acknowledged is skipped, so intake reads below the
      // offered rate only when the daemon cannot keep up.
      if (draining_) break;
      if (ra_.barriers.size() < spec_.stormInFlight) {
        for (std::size_t k = 0; k < spec_.stormWindow; ++k) {
          advertiseMachine(stormCursor_++ % machines_.size(), t);
        }
        sendBarrier(ra_);
      }
      schedule(e.at + double(spec_.stormWindow) / spec_.stormRate,
               Ev::kStormWindow);
      break;
    case Ev::kJobReAds: {
      // customer_agentd's advertising pass: every idle job, then one
      // DaemonStatus self-ad for the agent.
      if (draining_) break;
      for (Job& job : jobs_) {
        if (job.state == JobState::kPending) advertiseJob(job);
      }
      refreshStatusAds(t);
      sendAd(ca_, kCaAddress, {caStatus_, ++caSeq_, false, kCaAddress},
             "Advertisement/DaemonStatus", false);
      schedule(e.at + spec_.adIntervalSeconds, Ev::kJobReAds);
      break;
    }
    case Ev::kBarrier:
      if (draining_) break;
      sendBarrier(ca_);
      if (!spec_.storm) sendBarrier(ra_);
      schedule(e.at + kBarrierInterval, Ev::kBarrier);
      break;
    case Ev::kBeat: {
      Job& job = jobs_[e.a - 1];
      if (job.claimGen != e.b || !job.monitor || job.state != JobState::kRunning) {
        break;
      }
      const auto action = job.monitor->onDue(t, driftRng_.uniform());
      if (action.declareDead) {
        ++leaseExpiries_;
        job.monitor.reset();
        heldBy_.erase(job.machine);
        job.state = JobState::kPending;
        ++pending_;
        break;
      }
      if (action.sendBeat) {
        claimOut_->queue(wire::encodeEnvelope(
            {kCaAddress, raContact_,
             matchmaking::Heartbeat{job.ticket, job.id, action.sequence,
                                    false, job.trace}}));
        count("ca->ra", "Heartbeat");
      }
      schedule(job.monitor->nextDue(), Ev::kBeat, job.id, job.claimGen);
      break;
    }
    case Ev::kComplete:
      if (machines_[e.a].claimed && machines_[e.a].claimGen == e.b) {
        finishClaim(e.a, /*completed=*/true);
      }
      break;
    case Ev::kLeaseReap:
      for (const lease::Lease& dead : leases_.reapExpired(t)) {
        const auto it = ticketToMachine_.find(dead.ticket);
        if (it == ticketToMachine_.end() || !machines_[it->second].claimed) {
          continue;
        }
        ++leaseExpiries_;
        finishClaim(it->second, /*completed=*/false);
      }
      for (Job& job : jobs_) {
        if (job.state == JobState::kClaiming &&
            t - job.claimSentAt >= kClaimTimeout) {
          ++claimTimeouts_;
          job.state = JobState::kPending;
          ++pending_;
        }
      }
      schedule(e.at + 0.1, Ev::kLeaseReap);
      break;
  }
}

Snap Session::snap(double t) const {
  obs::Registry& reg = daemon_->registry();
  Snap s;
  s.t = t;
  s.framesIn = reg.counter("FramesIn")->value();
  s.evaluated = reg.counter("MatchCandidatesEvaluated")->value();
  s.pruned = reg.counter("MatchCandidatesPruned")->value();
  s.reactor = HistSnap::of(reg.histogram("ReactorLoopSeconds"));
  s.cycle = HistSnap::of(reg.histogram("NegotiationCycleSeconds"));
  s.adscan = HistSnap::of(reg.histogram("PhaseAdScanSeconds"));
  s.fairshare = HistSnap::of(reg.histogram("PhaseFairShareSeconds"));
  s.rank = HistSnap::of(reg.histogram("PhaseRankSeconds"));
  s.notify = HistSnap::of(reg.histogram("PhaseNotifySeconds"));
  s.solve = HistSnap::of(reg.histogram("PolicyCycleSolveSeconds"));
  s.genReactor = genRegistry_.histogram("ReactorLoopSeconds")->sum();
  return s;
}

/// Exact per-cycle durations without tracing: the generator polls the
/// daemon's cycle histogram far more often than cycles run, so each new
/// observation is one cycle's wall time.
void Session::pollCycles() {
  obs::Registry& reg = daemon_->registry();
  obs::Histogram* h = reg.histogram("NegotiationCycleSeconds");
  const std::uint64_t c = h->count();
  const double sum = h->sum();
  if (c == lastCycleCount_ || sum == lastCycleSum_) return;
  if (measuring_) {
    const double each = (sum - lastCycleSum_) / double(c - lastCycleCount_);
    for (std::uint64_t i = lastCycleCount_; i < c; ++i) cycleMs_.add(1e3 * each);
    if (c == lastCycleCount_ + 1) {
      const double matches = reg.gauge("MatchesLastCycle")->value();
      matchesPerCycle_.add(matches);
      requestsPerCycle_.add(matches + reg.gauge("UnmatchedLastCycle")->value());
    }
  }
  lastCycleCount_ = c;
  lastCycleSum_ = sum;
}

void Session::live(LiveResult& out) {
  const bool calibration = o_.calibrationJobs > 0;
  const double t0 = now();
  const double warmup =
      calibration ? 0.0 : std::max(1.0, 4.0 * spec_.negotiationInterval);
  const double measStart = t0 + warmup;
  const double measEnd = measStart + (calibration ? 0.0 : o_.seconds);
  const double drainFor = 2.0 * spec_.negotiationInterval + 2.0;
  double drainDeadline = calibration ? t0 + 30.0 : measEnd + drainFor;
  // Open loop at a fixed rate: evenly spaced arrivals, each jittered by
  // up to 40% of the gap (seeded), so every cycle sees the same load.
  std::uint64_t arrivals = 0;
  const auto arrivalAt = [&](std::uint64_t k) {
    const double gap = 1.0 / spec_.jobRate;
    return t0 + gap * (double(k) + 1.0 + arrivalRng_.uniform(-0.4, 0.4));
  };
  double nextArrival = spec_.jobRate > 0.0 ? arrivalAt(arrivals) : 1e300;
  const std::size_t n = machines_.size();
  if (spec_.storm) {
    schedule(t0, Ev::kStormWindow);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      schedule(t0 + spec_.adIntervalSeconds * double(i + 1) / double(n),
               Ev::kMachineAd, i);
    }
  }
  schedule(t0 + spec_.adIntervalSeconds, Ev::kJobReAds);
  schedule(t0 + kBarrierInterval, Ev::kBarrier);
  schedule(t0 + 0.1, Ev::kLeaseReap);
  lastCycleCount_ = daemon_->registry().histogram("NegotiationCycleSeconds")->count();
  lastCycleSum_ = daemon_->registry().histogram("NegotiationCycleSeconds")->sum();
  // customer_agentd's first advertising pass ends with its self-ad.
  refreshStatusAds(t0);
  sendAd(ca_, kCaAddress, {caStatus_, ++caSeq_, false, kCaAddress},
         "Advertisement/DaemonStatus", false);
  if (calibration) {
    measuring_ = true;
    for (std::size_t i = 0; i < o_.calibrationJobs; ++i) submitJob(t0);
  }

  Snap first, last;
  bool started = calibration, ended = false, captured = false;
  if (calibration) first = snap(t0);
  double outside = 0.0;
  Samples pendingEarly, pendingLate;
  double nextBacklogSample = measStart;
  int maxThreads = 0, maxSockets = 0;
  bool resourcesSampled = false;

  for (;;) {
    const double loopStart = now();
    double t = loopStart;
    if (!started && t >= measStart) {
      started = measuring_ = true;
      first = snap(t);
      first.genOutside = outside;
    }
    if (!calibration && !ended && t >= measEnd) {
      ended = draining_ = true;
      measuring_ = false;
      last = snap(t);
      last.genOutside = outside;
    }
    if (draining_) {
      // Every ad sent while draining (claim-driven re-ads) gets a
      // barrier behind it, so the run ends with all intake proven.
      for (Link* link : {&ca_, &ra_}) {
        if (link->adsSent > link->lastBarrier) sendBarrier(*link);
      }
    }
    if (started && !resourcesSampled && t >= measStart + 0.5 * o_.seconds) {
      resourcesSampled = true;
      maxThreads = threadCount();
      maxSockets = procSockets();
    }
    if (!calibration && started && !captured && t >= measStart + 0.5 * o_.seconds) {
      // One cycle's worth of inputs for the policy replay.
      captured = true;
      for (const Job& job : jobs_) {
        if (job.state == JobState::kPending) replay_.cycleRequests.push_back(job.ad);
      }
      for (const Machine& m : machines_) replay_.cycleResources.push_back(m.current);
    }
    const bool submitting = calibration ? false : !ended;
    if (ended || calibration) {
      bool settled =
          calibration || (ca_.barriers.empty() && ra_.barriers.empty());
      for (const Job& job : jobs_) {
        if (calibration ? job.state != JobState::kDone
                        : (job.state == JobState::kPending ||
                           job.state == JobState::kClaiming)) {
          settled = false;
          break;
        }
      }
      if (settled || t > drainDeadline || !problems_.empty()) break;
    }
    while (submitting && nextArrival <= t) {
      submitJob(nextArrival);
      nextArrival = arrivalAt(++arrivals);
    }
    while (!events_.empty() && events_.top().at <= t) {
      const Event e = events_.top();
      events_.pop();
      handle(e);
    }
    pollCycles();
    if (started && !ended && t >= nextBacklogSample) {
      nextBacklogSample += 0.1;
      const double frac = (t - measStart) / o_.seconds;
      if (frac < 1.0 / 3.0) pendingEarly.add(double(pending_));
      if (frac > 2.0 / 3.0) pendingLate.add(double(pending_));
    }
    double wake = std::min(nextArrival, t + 0.005);
    if (!events_.empty()) wake = std::min(wake, events_.top().at);
    const int timeoutMs =
        std::max(0, static_cast<int>((wake - now()) * 1000.0));
    outside += now() - loopStart;
    reactor_->pollOnce(timeoutMs);
  }

  // ---- accounting and output checks ------------------------------------
  const double tEnd = now();
  if (calibration) {
    last = snap(tEnd);
    last.genOutside = outside;
  }
  for (const std::string& p : problems_) out.problems.push_back(p);
  std::size_t placed = 0, waiting = 0, unplaced = 0;
  Samples latencyMs;
  const double window = calibration ? tEnd - t0 : o_.seconds;
  std::size_t placedInWindow = 0;
  for (const Job& job : jobs_) {
    const bool isPlaced = job.claimedAt > 0.0;
    if (isPlaced) {
      ++placed;
      if (calibration || (job.claimedAt >= measStart && job.claimedAt < measEnd)) {
        ++placedInWindow;
      }
    } else if (job.state == JobState::kPending || job.state == JobState::kClaiming) {
      ++waiting;
    }
    if (!isPlaced) ++unplaced;
    if (job.measured) {
      latencyMs.add(1e3 * ((isPlaced ? job.claimedAt : drainDeadline) - job.due));
    }
    if (isPlaced) {
      // Re-check every placed pair from the raw ads with the public
      // match function: as the matchmaker matched them, and against the
      // machine's ad as the RA verified the claim.
      if (!job.matchedRequest || !job.matchedResource ||
          !classad::symmetricMatch(*job.matchedRequest, *job.matchedResource)) {
        out.problems.push_back("job " + std::to_string(job.id) +
                               " was matched to a machine it does not match");
      }
      const auto v = verifiedAd_.find(job.id);
      if (v == verifiedAd_.end() || !classad::symmetricMatch(*job.ad, *v->second)) {
        out.problems.push_back("job " + std::to_string(job.id) +
                               " holds a claim its ads no longer satisfy");
      }
    }
  }
  if (placed + waiting != jobs_.size()) {
    out.problems.push_back("submitted jobs are unaccounted for");
  }
  const std::uint64_t adsSent = ca_.adsSent + ra_.adsSent;
  const std::uint64_t notAbsorbed =
      (ca_.adsSent - ca_.absorbed) + (ra_.adsSent - ra_.absorbed);
  const Snap w0 = first;
  const Snap w1 = last;
  const std::uint64_t daemonRejected = daemon_->rejectedFrames() +
      daemon_->registry().counter("DecodeErrors")->value();
  out.attempted = jobs_.size() + adsSent;
  out.failed = claimsRejected_ + claimTimeouts_ + leaseExpiries_ + unplaced +
               daemonRejected + notAbsorbed;
  out.placedJobs = placed;
  if (daemon_->storedResources() != n) {
    out.problems.push_back("daemon stores " +
                           std::to_string(daemon_->storedResources()) + " of " +
                           std::to_string(n) + " machines");
  }

  // ---- validity ---------------------------------------------------------
  const double nproc = double(std::thread::hardware_concurrency());
  // Both ends of every connection live in this process; two listeners.
  const double connections = std::ceil(double(maxSockets - 2) / 2.0);
  if (!calibration) {
    if (lateMs_.quantile(0.99) > kLateBoundMs) {
      out.invalid.push_back("generator p99 lateness above bound");
    }
    if (maxThreads > nproc || connections > nproc) {
      out.invalid.push_back("more threads or connections than nproc");
    }
    const double growth = pendingLate.mean() - pendingEarly.mean();
    if (growth > std::max(5.0, spec_.jobRate * spec_.negotiationInterval)) {
      out.invalid.push_back("job backlog grew across the window");
    }
    if (cycleMs_.quantile(0.99) > 1e3 * spec_.negotiationInterval) {
      out.notes.push_back("p99 cycle exceeds the negotiation interval");
    }
  }

  // ---- metrics ----------------------------------------------------------
  Report& r = out.report;
  r.set("submit_to_claim_p50_ms", latencyMs.median(), "ms", latencyMs.size());
  r.set("submit_to_claim_p99_ms", latencyMs.quantile(0.99), "ms", latencyMs.size());
  r.set("jobs_placed_per_s", double(placedInWindow) / window, "1/s", placedInWindow);
  // Barrier-proven intake, per link: the ads covered by barrier answers
  // inside the window over the time between the first and last of them.
  {
    double rate = 0.0;
    std::uint64_t proven = 0;
    const double end = calibration ? tEnd : measEnd;
    for (const Link* link : {&ca_, &ra_}) {
      const std::pair<double, std::uint64_t>* lo = nullptr;
      const std::pair<double, std::uint64_t>* hi = nullptr;
      for (const auto& mark : link->absorbedAt) {
        if (mark.first < measStart || mark.first >= end) continue;
        if (lo == nullptr) lo = &mark;
        hi = &mark;
      }
      if (lo != nullptr && hi->first > lo->first) {
        rate += double(hi->second - lo->second) / (hi->first - lo->first);
        proven += hi->second - lo->second;
      }
    }
    r.set("intake_ads_per_s", rate, "1/s", proven);
  }
  r.set("ops_ok_frac",
        out.attempted ? 1.0 - double(out.failed) / double(out.attempted) : 0.0,
        "frac", out.attempted);
  r.set("peak_rss_mb", peakRssMb(), "MiB");

  const double wsec = w1.t - w0.t;
  const HistSnap reactor = w1.reactor.minus(w0.reactor);
  const HistSnap cycle = w1.cycle.minus(w0.cycle);
  r.set("wire.bytes_per_ad", adsSent ? double(adBytes_) / double(adsSent) : 0.0,
        "bytes", adsSent);
  r.set("wire.roundtrip_us.claim", roundtripUs_.median(), "us", roundtripUs_.size());
  r.set("service.mm_reactor_busy_frac", reactor.sum / wsec, "frac", reactor.count);
  r.set("service.mm_reactor_pass_us.mean", 1e6 * reactor.mean(), "us", reactor.count);
  r.set("service.frames_in_per_s", double(w1.framesIn - w0.framesIn) / wsec, "1/s",
        w1.framesIn - w0.framesIn);
  r.set("service.rejected_frames", double(daemon_->rejectedFrames()), "count");
  r.set("service.decode_errors",
        double(daemon_->registry().counter("DecodeErrors")->value()), "count");
  const double evaluated = double(w1.evaluated - w0.evaluated);
  const double pruned = double(w1.pruned - w0.pruned);
  r.set("engine.index_rebuilds",
        daemon_->registry().gauge("MatchIndexRebuilds")->value(), "count");
  r.set("engine.evals_per_cycle", cycle.count ? evaluated / double(cycle.count) : 0.0,
        "count", cycle.count);
  r.set("engine.prune_ratio",
        evaluated + pruned > 0.0 ? pruned / (evaluated + pruned) : 0.0, "frac",
        cycle.count);
  r.set("negotiate.cycle_ms.mean", cycleMs_.mean(), "ms", cycleMs_.size());
  r.set("negotiate.cycle_ms.p99", cycleMs_.quantile(0.99), "ms", cycleMs_.size());
  const auto phase = [&](const char* name, const HistSnap& a, const HistSnap& b) {
    const HistSnap d = b.minus(a);
    r.set(name, 1e3 * d.mean(), "ms", d.count);
  };
  phase("negotiate.scan_ms.mean", w0.rank, w1.rank);
  phase("negotiate.fairshare_ms.mean", w0.fairshare, w1.fairshare);
  phase("negotiate.adscan_ms.mean", w0.adscan, w1.adscan);
  phase("negotiate.notify_ms.mean", w0.notify, w1.notify);
  r.set("negotiate.busy_frac", cycle.sum / wsec, "frac", cycle.count);
  r.set("negotiate.requests_per_cycle", requestsPerCycle_.mean(), "count",
        requestsPerCycle_.size());
  r.set("negotiate.matches_per_cycle", matchesPerCycle_.mean(), "count",
        matchesPerCycle_.size());
  r.set("negotiate.cycles", double(cycle.count), "count");
  const HistSnap solve = w1.solve.minus(w0.solve);
  r.set("policy.solve_ms.mean", 1e3 * solve.mean(), "ms", solve.count);
  r.set("policy.pairs_per_cycle", matchesPerCycle_.mean(), "count",
        matchesPerCycle_.size());
  r.set("claim.rejected", double(claimsRejected_), "count");
  r.set("claim.timeouts", double(claimTimeouts_), "count");
  r.set("lease.grants", double(leases_.granted()), "count");
  r.set("lease.renewals", double(leases_.renewed()), "count");
  r.set("lease.expiries", double(leaseExpiries_), "count");
  r.set("gen.late_ms.p99", lateMs_.quantile(0.99), "ms", lateMs_.size());
  r.set("gen.busy_frac",
        ((w1.genReactor - w0.genReactor) + (w1.genOutside - w0.genOutside)) / wsec,
        "frac");
  r.set("gen.threads", double(maxThreads), "count");
  r.set("gen.connections", connections, "count");
  r.set("gen.stale_notifications", double(staleNotifications_), "count");
  r.set("gen.ra_notifications", double(raNotifications_), "count");
  // Self-time shares of the daemon's service thread: frame handling
  // (reactor pass: decode + lint + upsert) vs negotiation cycles.
  const double daemonBusy = reactor.sum + cycle.sum;
  r.set("daemon.intake_share", daemonBusy > 0 ? reactor.sum / daemonBusy : 0.0, "frac");
  r.set("daemon.negotiate_share", daemonBusy > 0 ? cycle.sum / daemonBusy : 0.0, "frac");
  r.set("negotiate.policy_share",
        cycle.sum > 0 ? (w1.rank.sum - w0.rank.sum) / cycle.sum : 0.0, "frac");

  // ---- traced run: stage split and the benchmark's own spans ------------
  if (o_.tracing) {
    const std::vector<obs::SpanRecord> spans = daemon_->tracer().snapshot();
    std::unordered_map<std::string, const obs::SpanRecord*> intakeByTrace,
        cycleByTrace;
    std::unordered_map<obs::SpanId, const obs::SpanRecord*> notifyBySpan;
    Samples cycleSpanMs, scanSpanMs;
    for (const obs::SpanRecord& s : spans) {
      if (s.name == "ad.intake") intakeByTrace[obs::traceIdToHex(s.trace)] = &s;
      if (s.name == "match.notify") notifyBySpan[s.span] = &s;
      if (s.name == "negotiate.cycle") {
        cycleByTrace[obs::traceIdToHex(s.trace)] = &s;
        if (s.startSeconds >= measStart && s.startSeconds < measEnd) {
          cycleSpanMs.add(1e3 * s.durationSeconds);
        }
      }
      if (s.name == "phase.scan" && s.startSeconds >= measStart &&
          s.startSeconds < measEnd) {
        scanSpanMs.add(1e3 * s.durationSeconds);
      }
    }
    Samples toIntake, waitCycle, inCycle, notify, claim;
    std::size_t joined = 0, candidates = 0, mismatched = 0;
    for (const Job& job : jobs_) {
      if (!job.measured || job.claimedAt == 0.0 || !job.trace.valid()) continue;
      ++candidates;
      const auto in = intakeByTrace.find(obs::traceIdToHex(job.trace.trace));
      const auto nt = notifyBySpan.find(job.trace.span);
      if (in == intakeByTrace.end() || nt == notifyBySpan.end()) continue;
      std::string cycleHex;
      for (const auto& [k, v] : nt->second->tags) {
        if (k == "cycle") cycleHex = v;
      }
      const auto cy = cycleByTrace.find(cycleHex);
      if (cy == cycleByTrace.end()) continue;
      ++joined;
      const double s1 = in->second->startSeconds - job.due;
      const double s2 = cy->second->startSeconds - in->second->startSeconds;
      const double s3 = nt->second->startSeconds - cy->second->startSeconds;
      const double s4 = job.notifiedAt - nt->second->startSeconds;
      const double s5 = job.claimedAt - job.notifiedAt;
      // Stages must be ordered and telescope to the measured latency.
      constexpr double kTol = 1e-4;  // 0.1 ms
      if (std::abs(s1 + s2 + s3 + s4 + s5 - (job.claimedAt - job.due)) > kTol ||
          std::min({s1, s2, s3, s4, s5}) < -kTol) {
        ++mismatched;
      }
      toIntake.add(1e3 * s1);
      waitCycle.add(1e3 * s2);
      inCycle.add(1e3 * s3);
      notify.add(1e3 * s4);
      claim.add(1e3 * s5);
    }
    if (mismatched > 0) {
      out.problems.push_back(std::to_string(mismatched) +
                             " jobs' stages do not sum to their latency");
    }
    r.set("stage.to_intake_ms.p50", toIntake.median(), "ms", toIntake.size());
    r.set("stage.wait_cycle_ms.p50", waitCycle.median(), "ms", waitCycle.size());
    r.set("stage.in_cycle_ms.p50", inCycle.median(), "ms", inCycle.size());
    r.set("stage.notify_ms.p50", notify.median(), "ms", notify.size());
    r.set("stage.claim_ms.p50", claim.median(), "ms", claim.size());
    r.set("stage.joined_frac", candidates ? double(joined) / double(candidates) : 0.0,
          "frac", candidates);
    if (!cycleSpanMs.empty()) {
      r.set("negotiate.cycle_ms.mean", cycleSpanMs.mean(), "ms", cycleSpanMs.size());
      r.set("negotiate.cycle_ms.p99", cycleSpanMs.quantile(0.99), "ms",
            cycleSpanMs.size());
    }
    r.set("policy.solve_ms.p99", scanSpanMs.quantile(0.99), "ms", scanSpanMs.size());
    std::map<std::string, Samples> bench;
    for (const obs::SpanRecord& s : benchTracer_.snapshot()) {
      if (s.startSeconds >= measStart && s.startSeconds < measEnd) {
        bench[s.name].add(1e6 * s.durationSeconds);
      }
    }
    r.set("wire.encode_us.advertisement", bench["wire.encode.advertisement"].mean(),
          "us", bench["wire.encode.advertisement"].size());
    r.set("wire.decode_us.match_notification",
          bench["wire.decode.match_notification"].mean(), "us",
          bench["wire.decode.match_notification"].size());
    r.set("claim.verify_us", bench["claim.verify"].mean(), "us",
          bench["claim.verify"].size());
    r.set("obs.spans_dropped",
          double(daemon_->tracer().dropped() + benchTracer_.dropped()), "count");
  } else {
    r.set("policy.solve_ms.p99", solve.quantile(0.99) * 1e3, "ms", solve.count);
  }
  out.frames = frames_;
  out.replay = std::move(replay_);
  closing_ = true;
}

}  // namespace

LiveResult runLive(const LiveOptions& options, bool setupOnly) {
  LiveResult out;
  Session session(options);
  std::string error;
  if (!session.setup(&error)) {
    out.problems.push_back("setup failed: " + error);
    return out;
  }
  out.setupSeconds = session.setupSeconds();
  if (!setupOnly) session.live(out);
  return out;
}

}  // namespace perfbench
