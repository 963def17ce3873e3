// workload.h - The benchmark's workload definitions and the seeded ad
// generators behind them. Every input the daemon sees is derived from the
// workload and the --seed argument; nothing else varies between runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "classad/classad.h"
#include "matchmaker/policy/policy.h"
#include "sim/rng.h"

namespace perfbench {

enum class PoolShape {
  kRegular,    ///< few machine classes (bench::machineAds), static state
  kSelective,  ///< 8 archs, per-machine values, drifting LoadAvg/KeyboardIdle
  kContended,  ///< E13: 1/4 scarce fast SPARCs, 3/4 slow INTELs
};

enum class JobShape {
  kFigure2,       ///< non-selective Figure-2 jobs (any machine with room)
  kArchTargeted,  ///< one of the 8 archs, ranked by KFlops
  kContendedMix,  ///< E13: 1/4 SPARC seekers, 1/2 indifferent, 1/4 specialists
};

struct WorkloadSpec {
  std::string name;
  std::string why;
  PoolShape pool = PoolShape::kRegular;
  std::size_t machines = 0;
  JobShape jobs = JobShape::kFigure2;
  /// Open-loop job arrivals per second (evenly spaced, seeded jitter).
  double jobRate = 0.0;
  /// Wall seconds a claim runs before the emulated RA completes it.
  double serviceSeconds = 1.0;
  /// Lease granted with each claim; the emulated CA heartbeats at 1/3.
  double leaseSeconds = 1.5;
  /// Period of every machine's and every idle job's re-advertisement.
  double adIntervalSeconds = 5.0;
  /// Re-advertisement storm: machine re-ads go out in windows of
  /// `stormWindow` machines, each closed by a barrier, paced to
  /// `stormRate` machines per second, with at most `stormInFlight` windows
  /// unacknowledged (a window that would exceed it is skipped).
  bool storm = false;
  std::size_t stormWindow = 0;
  std::size_t stormInFlight = 0;
  double stormRate = 0.0;
  matchmaking::policy::PolicyKind policy =
      matchmaking::policy::PolicyKind::kGreedy;
  /// Negotiation interval; fixed at or above the p99 cycle at this load.
  double negotiationInterval = 0.25;
  std::string intervalWhy;
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* findWorkload(const std::string& name);

/// Static part of one emulated machine (everything but claim state,
/// ticket and the drifting load/idle readings).
struct MachineSpec {
  std::string name;
  classad::ClassAd attrs;
  double loadAvg = 0.05;
  double keyboardIdle = 1800.0;
};

std::vector<MachineSpec> makeMachines(const WorkloadSpec& spec,
                                      std::uint64_t seed);

/// One job ad of the workload's shape (JobId and ContactAddress are
/// stamped by the caller).
classad::ClassAd makeJobAd(const WorkloadSpec& spec, htcsim::Rng& rng,
                           std::uint64_t jobId);

}  // namespace perfbench
