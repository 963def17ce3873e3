#include "workload.h"

#include <algorithm>

namespace perfbench {

namespace {

/// The five accounting principals owning every job.
const char* const kUsers[5] = {"raman", "miron", "tannenba", "alice", "bob"};

const char* const kArchs[8] = {"INTEL", "SPARC", "ALPHA", "PPC",
                               "MIPS",  "HPPA",  "ARM",   "VAX"};

constexpr const char* kMachineConstraint =
    "other.Type == \"Job\" && LoadAvg < 0.3 && KeyboardIdle > 15*60";

std::vector<WorkloadSpec> build() {
  using matchmaking::policy::PolicyKind;
  std::vector<WorkloadSpec> out;

  WorkloadSpec steady;
  steady.name = "steady_regular";
  steady.why =
      "greedy cycle over a large regular pool: pair evaluation in the "
      "cycle dominates time-to-claim, intake does little";
  steady.pool = PoolShape::kRegular;
  steady.machines = 1000;
  steady.jobs = JobShape::kFigure2;
  steady.jobRate = 120.0;
  steady.serviceSeconds = 2.0;
  steady.leaseSeconds = 1.5;
  steady.adIntervalSeconds = 5.0;
  steady.policy = PolicyKind::kGreedy;
  steady.negotiationInterval = 0.25;
  steady.intervalWhy =
      "p99 cycle at this load is ~0.1 s; busy_frac ~0.3, as higher loads "
      "tipped some runs into a backlog that never drained";
  out.push_back(steady);

  WorkloadSpec storm;
  storm.name = "ad_storm";
  storm.why =
      "paced re-advertisement storm over a selective pool: decode, lint, "
      "upsert and index upkeep dominate, the index prunes ~7/8";
  storm.pool = PoolShape::kSelective;
  storm.machines = 1000;
  storm.jobs = JobShape::kArchTargeted;
  storm.jobRate = 60.0;
  storm.serviceSeconds = 1.0;
  storm.leaseSeconds = 1.5;
  storm.adIntervalSeconds = 5.0;
  storm.storm = true;
  storm.stormWindow = 64;
  storm.stormInFlight = 4;
  storm.stormRate = 2500.0;
  storm.policy = PolicyKind::kGreedy;
  storm.negotiationInterval = 0.25;
  storm.intervalWhy =
      "cycles are a few ms here; 0.25 s keeps the sparse jobs' wait "
      "comparable to steady_regular";
  out.push_back(storm);

  WorkloadSpec contended;
  contended.name = "contended_assign";
  contended.why =
      "assignment policy on the E13 contended shape: the SPFA solve "
      "dominates each cycle and the specialists' waits set p99";
  contended.pool = PoolShape::kContended;
  contended.machines = 512;
  contended.jobs = JobShape::kContendedMix;
  contended.jobRate = 80.0;
  contended.serviceSeconds = 2.0;
  contended.leaseSeconds = 1.5;
  contended.adIntervalSeconds = 5.0;
  contended.policy = PolicyKind::kAssignment;
  contended.negotiationInterval = 0.2;
  contended.intervalWhy = "p99 cycle (solve included) stays below 0.2 s";
  out.push_back(contended);
  return out;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = build();
  return all;
}

const WorkloadSpec* findWorkload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<MachineSpec> makeMachines(const WorkloadSpec& spec,
                                      std::uint64_t seed) {
  htcsim::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  std::vector<MachineSpec> out;
  out.reserve(spec.machines);
  // Contended pools keep exactly 1/4 SPARCs; the seed picks which.
  std::vector<char> scarce(spec.machines, 0);
  for (std::size_t i = 0; i < spec.machines / 4; ++i) scarce[i] = 1;
  for (std::size_t i = spec.machines; i > 1; --i) {
    std::swap(scarce[i - 1], scarce[rng.below(i)]);
  }
  for (std::size_t i = 0; i < spec.machines; ++i) {
    MachineSpec m;
    m.name = "node" + std::to_string(i);
    classad::ClassAd& ad = m.attrs;
    ad.set("Type", "Machine");
    ad.set("Name", m.name);
    ad.set("Machine", m.name);
    switch (spec.pool) {
      case PoolShape::kRegular: {
        const std::size_t cls = rng.below(4);  // bench::machineAds' classes
        ad.set("Arch", cls % 2 ? "SPARC" : "INTEL");
        ad.set("OpSys", (cls / 2) % 2 ? "LINUX" : "SOLARIS251");
        ad.set("Memory", static_cast<std::int64_t>(32 << (cls % 4)));
        ad.set("Disk", static_cast<std::int64_t>(100000 + 1000 * (cls % 16)));
        ad.set("Mips", static_cast<std::int64_t>(100 + 25 * (cls % 8)));
        ad.set("KFlops", static_cast<std::int64_t>(20000 + 500 * (cls % 8)));
        ad.setExpr("Constraint", kMachineConstraint);
        m.loadAvg = 0.05;
        m.keyboardIdle = 1800.0;
        break;
      }
      case PoolShape::kSelective: {
        ad.set("Arch", kArchs[rng.below(8)]);
        ad.set("OpSys", rng.below(2) ? "LINUX" : "SOLARIS251");
        ad.set("Memory", static_cast<std::int64_t>(32 * (1 + rng.below(8))));
        ad.set("Disk", static_cast<std::int64_t>(50000 + rng.below(400000)));
        ad.set("Mips", static_cast<std::int64_t>(80 + rng.below(200)));
        ad.set("KFlops", static_cast<std::int64_t>(15000 + rng.below(15000)));
        ad.setExpr("Constraint", kMachineConstraint);
        m.loadAvg = rng.uniform(0.0, 0.25);
        m.keyboardIdle = rng.uniform(1000.0, 5000.0);
        break;
      }
      case PoolShape::kContended: {
        const bool sparc = scarce[i] != 0;
        ad.set("Arch", sparc ? "SPARC" : "INTEL");
        ad.set("OpSys", "LINUX");
        ad.set("Memory", static_cast<std::int64_t>(256));
        ad.set("Disk", static_cast<std::int64_t>(200000));
        ad.set("KFlops",
               static_cast<std::int64_t>(sparc ? 9000 : 100 + rng.below(50)));
        ad.setExpr("Constraint", "other.Type == \"Job\"");
        m.loadAvg = 0.05;
        m.keyboardIdle = 1800.0;
        break;
      }
    }
    ad.setExpr("Rank", "0");
    out.push_back(std::move(m));
  }
  return out;
}

classad::ClassAd makeJobAd(const WorkloadSpec& spec, htcsim::Rng& rng,
                           std::uint64_t jobId) {
  classad::ClassAd ad;
  ad.set("Type", "Job");
  ad.set("JobId", static_cast<std::int64_t>(jobId));
  ad.set("Owner", kUsers[rng.below(5)]);
  switch (spec.jobs) {
    case JobShape::kFigure2:
      // Figure 2 with the Arch/OpSys conjuncts dropped: any machine with
      // the memory and disk qualifies.
      ad.set("QDate", static_cast<std::int64_t>(874377421 + jobId));
      ad.set("CompletionDate", static_cast<std::int64_t>(0));
      ad.set("Cmd", "run_sim");
      ad.set("WantRemoteSyscalls", static_cast<std::int64_t>(1));
      ad.set("WantCheckpoint", static_cast<std::int64_t>(1));
      ad.set("Iwd", "/usr/raman/sim2");
      ad.set("Args", "-Q 17 3200 10");
      ad.set("Memory", static_cast<std::int64_t>(16 << rng.below(3)));
      ad.set("Disk", static_cast<std::int64_t>(15000));
      ad.setExpr("Rank", "KFlops/1E3 + other.Memory/32");
      ad.setExpr("Constraint",
                 "other.Type == \"Machine\" && other.Disk >= self.Disk && "
                 "other.Memory >= self.Memory");
      break;
    case JobShape::kArchTargeted:
      ad.set("Cmd", "arch_job");
      ad.set("Memory", static_cast<std::int64_t>(32));
      ad.setExpr("Rank", "other.KFlops");
      ad.setExpr("Constraint",
                 std::string("other.Type == \"Machine\" && other.Arch == \"") +
                     kArchs[rng.below(8)] +
                     "\" && other.Memory >= self.Memory");
      break;
    case JobShape::kContendedMix: {
      ad.set("Cmd", "mix_job");
      ad.set("Memory", static_cast<std::int64_t>(64));
      const std::uint64_t kind = rng.below(4);  // 0 seeker, 1-2 any, 3 spec
      if (kind == 3) {
        ad.set("Specialist", true);
        ad.setExpr("Constraint",
                   "other.Type == \"Machine\" && other.Arch == \"SPARC\"");
        ad.setExpr("Rank", "1");
      } else {
        ad.setExpr("Constraint", "other.Type == \"Machine\"");
        ad.setExpr("Rank", kind == 0 ? "other.KFlops" : "0");
      }
      break;
    }
  }
  return ad;
}

}  // namespace perfbench
