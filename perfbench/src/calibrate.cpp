// calibrate.cpp - Checks the emulated agents' traffic against the real
// daemons. One ResourceAgentDaemon and one CustomerAgentDaemon run a few
// jobs against a MatchmakerDaemon (four threads with this one); a send
// tap on each agent counts every frame it queues by link and kind. The
// same scenario then runs through the emulation, and the two frame mixes,
// per placed job, must agree.
#include "calibrate.h"

#include <cmath>
#include <mutex>
#include <thread>

#include "service/customer_agentd.h"
#include "service/matchmakerd.h"
#include "service/resource_agentd.h"
#include "wire/codec.h"

namespace perfbench {
namespace {

constexpr std::size_t kJobs = 3;
constexpr double kAdInterval = 0.25;
constexpr double kService = 0.3;
constexpr double kLease = 0.3;
constexpr double kNegotiationInterval = 0.05;

/// The frame's registry name, refined to "Advertisement/<Type>" and
/// "ClaimResponse/accepted|rejected".
std::string kindOf(std::string_view bytes) {
  if (bytes.size() < wire::kHeaderSize) return "short";
  const auto type = static_cast<std::uint8_t>(bytes[5]);
  std::string kind(wire::frameTagName(type));
  if (!wire::isEnvelopeTag(type)) return kind;
  std::string error;
  const auto env = wire::decodeEnvelope(
      {type, std::string(bytes.substr(wire::kHeaderSize))}, &error);
  if (!env) return kind;
  if (const auto* adv = std::get_if<matchmaking::Advertisement>(&env->payload);
      adv != nullptr && adv->ad != nullptr) {
    kind.append("/").append(adv->ad->getString("Type").value_or("?"));
  } else if (const auto* r =
                 std::get_if<matchmaking::ClaimResponse>(&env->payload)) {
    kind.append(r->accepted ? "/accepted" : "/rejected");
  }
  return kind;
}

/// Frames whose counts depend on connection handling rather than on
/// protocol behaviour: the real CA dials one claim connection (and sends
/// one Hello) per claim, the emulation keeps one; barriers are the
/// benchmark's own Query frames.
bool compared(const std::string& key) {
  return key.find(" Hello") == std::string::npos &&
         key.find(" Query") == std::string::npos;
}

/// Kinds that only races produce, so either side may lack them: rejected
/// claims (resource_agentd re-advertises Claimed without CurrentRank, so
/// the real pool re-matches busy machines; the emulation sets it) and
/// LeaseExpired (a heartbeat crossing the claim's completion).
bool racy(const std::string& key) {
  return key.find("/rejected") != std::string::npos ||
         key.find("LeaseExpired") != std::string::npos;
}

/// Frames per placed job, with ClaimRequests that were turned down
/// removed, so the mix compares the protocol and not the race rate.
FrameMix perJob(const FrameMix& counts, std::size_t placed) {
  FrameMix out;
  for (const auto& [key, n] : counts) {
    if (compared(key)) out[key] = n / double(placed);
  }
  if (const auto it = out.find("ra->ca ClaimResponse/rejected"); it != out.end()) {
    out["ca->ra ClaimRequest"] -= it->second;
  }
  return out;
}

}  // namespace

CalibrationResult calibrate(std::uint64_t seed) {
  CalibrationResult out;
  std::mutex mu;
  FrameMix real;
  const auto tap = [&](const char* toMm, const char* toPeer) {
    return [&mu, &real, toMm, toPeer](const service::Connection& conn,
                                       std::string_view bytes) {
      const std::string link = conn.peerAddress == "collector" ? toMm : toPeer;
      const std::string kind = kindOf(bytes);
      std::lock_guard<std::mutex> lock(mu);
      real[link + " " + kind] += 1.0;
      return true;
    };
  };

  service::MatchmakerDaemon::Config mc;
  mc.negotiationInterval = kNegotiationInterval;
  mc.tracing = false;
  service::MatchmakerDaemon mm(mc);
  std::string error;
  if (!mm.start(&error)) {
    out.problems.push_back("calibration matchmaker: " + error);
    return out;
  }
  service::ResourceAgentDaemon::Config rc;
  rc.name = "calib";
  rc.memoryMB = 256;
  rc.matchmakerPort = mm.port();
  rc.adIntervalSeconds = kAdInterval;
  rc.serviceSeconds = kService;
  rc.leaseSeconds = kLease;
  rc.tracing = false;
  rc.sendTap = tap("ra->mm", "ra->ca");
  service::CustomerAgentDaemon::Config cc;
  cc.owner = "calib";
  cc.matchmakerPort = mm.port();
  cc.adIntervalSeconds = kAdInterval;
  cc.sendTap = tap("ca->mm", "ca->ra");
  for (std::size_t i = 0; i < kJobs; ++i) {
    service::JobSpec job;
    job.id = i + 1;
    cc.jobs.push_back(job);
  }
  service::ResourceAgentDaemon ra(rc);
  service::CustomerAgentDaemon ca(cc);
  if (!ra.start(&error) || !ca.start(&error)) {
    out.problems.push_back("calibration agents: " + error);
    return out;
  }
  const double deadline = now() + 30.0;
  while (ca.completedJobs() < kJobs && now() < deadline) {
    out.threads = std::max(out.threads, threadCount());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const std::size_t realPlaced = ca.completedJobs();
  ca.stop();
  ra.stop();
  mm.stop();
  if (realPlaced < kJobs) {
    out.problems.push_back("real daemons placed only " +
                           std::to_string(realPlaced) + " calibration jobs");
    return out;
  }

  // The same scenario through the emulation: one machine, kJobs jobs
  // submitted at once, the same cadences.
  WorkloadSpec spec = *findWorkload("steady_regular");
  spec.name = "calibration";
  spec.pool = PoolShape::kContended;  // one 256 MiB machine fits every job
  spec.machines = 1;
  spec.jobRate = 0.0;
  spec.serviceSeconds = kService;
  spec.leaseSeconds = kLease;
  spec.adIntervalSeconds = kAdInterval;
  spec.negotiationInterval = kNegotiationInterval;
  LiveOptions options;
  options.spec = &spec;
  options.seed = seed;
  options.calibrationJobs = kJobs;
  const LiveResult emu = runLive(options, false);
  for (const std::string& p : emu.problems) out.problems.push_back("emulation: " + p);
  if (emu.placedJobs < kJobs) {
    out.problems.push_back("emulation placed only " +
                           std::to_string(emu.placedJobs) + " calibration jobs");
    return out;
  }

  out.real = perJob(real, realPlaced);
  out.emulated = perJob(emu.frames, emu.placedJobs);
  FrameMix keys = out.real;
  for (const auto& [key, n] : out.emulated) keys[key] += 0.0;
  for (const auto& [key, unused] : keys) {
    const double r = out.real.count(key) ? out.real.at(key) : 0.0;
    const double e = out.emulated.count(key) ? out.emulated.at(key) : 0.0;
    // The kinds must coincide; per-job counts agree to within one frame
    // or half of the real count (periodic re-ads depend on timing).
    if (racy(key)) continue;
    if ((r == 0.0) != (e == 0.0) || std::abs(e - r) > std::max(1.0, 0.5 * r)) {
      out.problems.push_back("frame mix differs on '" + key + "': real " +
                             std::to_string(r) + "/job, emulated " +
                             std::to_string(e) + "/job");
    }
  }
  return out;
}

}  // namespace perfbench
