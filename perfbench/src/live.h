// live.h - The live phase: the unmodified MatchmakerDaemon on 127.0.0.1,
// driven over real loopback sockets by one generator thread that emulates
// the whole resource-agent and customer-agent population.
//
// Three connections: CA->matchmaker, RA->matchmaker, and one CA->RA claim
// connection whose RA end the generator's own reactor accepts. Frames are
// the ones customer_agentd / resource_agentd send (Hello, Advertisement
// plus DaemonStatus self-ads, AdInvalidate on accept, UsageReport on
// release, ClaimRequest/Response, Heartbeat under a lease, ClaimRelease).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "classad/classad.h"
#include "common.h"
#include "matchmaker/protocol.h"
#include "obs/trace.h"
#include "wire/frame.h"
#include "workload.h"

namespace perfbench {

struct LiveOptions {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured window
  bool tracing = false;   ///< daemon tracing + the benchmark's own spans
  /// Calibration: submit `calibrationJobs` at once to a `machines`-sized
  /// pool and run until every one has completed (no measured window).
  std::size_t calibrationJobs = 0;
};

/// Frames the emulated (or real) agents sent, keyed "<link> <kind>", e.g.
/// "ca->mm Advertisement/Job" or "ra->ca ClaimResponse".
using FrameMix = std::map<std::string, double>;

/// Inputs captured during the live phase for the single-threaded replay.
struct ReplayInputs {
  std::vector<wire::Frame> adFrames;            ///< machine + job ads
  std::vector<wire::Frame> notificationFrames;  ///< as received by the CA
  std::vector<classad::ClassAdPtr> machineAds;  ///< re-ad stream, in order
  std::vector<classad::ClassAdPtr> jobAds;
  /// One negotiation cycle's inputs: the jobs pending at mid-window and
  /// every machine's ad as of that moment.
  std::vector<classad::ClassAdPtr> cycleRequests;
  std::vector<classad::ClassAdPtr> cycleResources;
  struct Claim {
    classad::ClassAdPtr machineAd;
    matchmaking::Ticket ticket = 0;
    matchmaking::ClaimRequest request;
  };
  std::vector<Claim> claims;
};

struct LiveResult {
  /// Output-check failures (the run is incorrect) and validity
  /// violations (the run measured something other than intended).
  std::vector<std::string> problems;
  std::vector<std::string> invalid;
  std::vector<std::string> notes;  ///< worth a look, not disqualifying
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t placedJobs = 0;
  Report report;  ///< every metric this phase measured
  FrameMix frames;
  ReplayInputs replay;
  double setupSeconds = 0.0;
};

/// Starts a daemon, absorbs the initial pool, and (unless setupOnly)
/// drives the live phase. Blocks; every thread and socket it created is
/// gone when it returns.
LiveResult runLive(const LiveOptions& options, bool setupOnly);

/// Peak resident set of this process so far (VmHWM), MiB.
double peakRssMb();

/// Threads of this process right now.
int threadCount();

}  // namespace perfbench
