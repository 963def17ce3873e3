// main.cpp - The live-pool benchmark's entry point.
//
//   mm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs the traffic check against the real agent daemons, sets the pool up
// several times (setup_s is their median), then drives one live phase
// with the daemon's tracing off. --trace 1 adds a second, traced live
// phase and the per-layer replay. Prints every metric as a table, then
// one JSON line: the end-to-end metrics (--trace 0) or the per-layer
// ones (--trace 1).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "calibrate.h"
#include "common.h"
#include "live.h"
#include "replay.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr int kSetups = 7;

const char* const kEndToEnd[] = {
    "submit_to_claim_p50_ms", "submit_to_claim_p99_ms", "jobs_placed_per_s",
    "intake_ads_per_s",       "ops_ok_frac",            "setup_s",
    "peak_rss_mb",
};

const char* const kPerLayer[] = {
    "wire.decode_us.advertisement", "wire.bytes_per_ad",
    "wire.encode_us.advertisement", "wire.decode_us.match_notification",
    "wire.roundtrip_us.claim",
    "service.mm_reactor_busy_frac", "service.mm_reactor_pass_us.mean",
    "service.frames_in_per_s", "service.rejected_frames", "service.decode_errors",
    "analysis.lint_us_per_ad", "analysis.schema_fold_ms",
    "classad.parse_us.machine_ad", "classad.parse_us.job_ad",
    "classad.pair_eval_ns.prepared", "classad.pair_eval_ns.raw",
    "engine.upsert_us_per_ad", "engine.prepare_us_per_ad", "engine.index_rebuilds",
    "engine.guard_us_per_request", "engine.evals_per_cycle", "engine.prune_ratio",
    "negotiate.cycle_ms.mean", "negotiate.cycle_ms.p99", "negotiate.scan_ms.mean",
    "negotiate.fairshare_ms.mean", "negotiate.adscan_ms.mean",
    "negotiate.notify_ms.mean", "negotiate.busy_frac",
    "negotiate.requests_per_cycle", "negotiate.matches_per_cycle",
    "negotiate.cycles", "negotiate.policy_share",
    "policy.solve_ms.mean", "policy.solve_ms.p99", "policy.pairs_per_cycle",
    "policy.replay_ms.greedy", "policy.replay_ms.assignment",
    "policy.replay_ms.auction",
    "claim.verify_us", "claim.rejected", "claim.timeouts",
    "lease.grants", "lease.renewals", "lease.expiries",
    "obs.span_ns.enabled", "obs.span_ns.disabled", "obs.trace_overhead_frac",
    "obs.spans_dropped",
    "stage.to_intake_ms.p50", "stage.wait_cycle_ms.p50", "stage.in_cycle_ms.p50",
    "stage.notify_ms.p50", "stage.claim_ms.p50", "stage.joined_frac",
    "daemon.intake_share", "daemon.negotiate_share",
    "gen.late_ms.p99", "gen.busy_frac", "gen.claim_samples",
};

int usage() {
  std::fprintf(stderr,
               "usage: mm_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:");
  for (const WorkloadSpec& w : workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

void printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const Report& report, bool trace) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const char* name) {
    const Report::Row* row = report.find(name);
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", row ? row->value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += std::string("\"") + name + "\": {\"value\": " + value +
           ", \"unit\": \"" + (row ? row->unit : "count") + "\"}";
  };
  if (trace) {
    for (const char* name : kPerLayer) emit(name);
  } else {
    for (const char* name : kEndToEnd) emit(name);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      return usage();
    }
  }
  const WorkloadSpec* spec = findWorkload(workload);
  if (spec == nullptr || seconds <= 0.0) return usage();
  std::printf("workload %s seed %llu seconds %g trace %d\n  why: %s\n  interval %.3f s: %s\n",
              spec->name.c_str(), static_cast<unsigned long long>(seed), seconds,
              trace, spec->why.c_str(), spec->negotiationInterval,
              spec->intervalWhy.c_str());

  std::vector<std::string> problems, invalid, notes;
  const auto note = [](std::vector<std::string>& into, const std::string& phase,
                       const std::vector<std::string>& what) {
    for (const std::string& w : what) into.push_back(phase + ": " + w);
  };

  // 1. Traffic check against the real daemons.
  const CalibrationResult cal = calibrate(seed);
  note(problems, "traffic check", cal.problems);
  std::printf("== traffic check (frames per placed job: real / emulated)\n");
  FrameMix keys = cal.real;
  for (const auto& [k, v] : cal.emulated) keys[k] += 0.0;
  for (const auto& [k, unused] : keys) {
    std::printf("  %-36s %8.3f %8.3f\n", k.c_str(),
                cal.real.count(k) ? cal.real.at(k) : 0.0,
                cal.emulated.count(k) ? cal.emulated.at(k) : 0.0);
  }
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  if (cal.threads > nproc) invalid.push_back("traffic check ran more threads than nproc");

  // 2. Set-up, repeated; the last set-up carries the live phase.
  LiveOptions options;
  options.spec = spec;
  options.seed = seed;
  options.seconds = seconds;
  std::vector<double> setups;
  for (int i = 0; i + 1 < kSetups; ++i) {
    const LiveResult s = runLive(options, /*setupOnly=*/true);
    note(problems, "setup", s.problems);
    setups.push_back(s.setupSeconds);
  }
  LiveResult live = runLive(options, /*setupOnly=*/false);
  setups.push_back(live.setupSeconds);
  note(problems, "live", live.problems);
  note(invalid, "live", live.invalid);
  note(notes, "live", live.notes);
  Report report = live.report;
  report.set("setup_s", medianOf(setups), "s", setups.size());

  // 3. Traced run and replay.
  if (trace) {
    LiveOptions traced = options;
    traced.tracing = true;
    LiveResult t = runLive(traced, /*setupOnly=*/false);
    note(problems, "traced", t.problems);
    note(invalid, "traced", t.invalid);
    note(notes, "traced", t.notes);
    Report layers = t.report;
    runReplay(*spec, t.replay, layers);
    const double base = report.value("submit_to_claim_p50_ms");
    layers.set("obs.trace_overhead_frac",
               base > 0.0 ? t.report.value("submit_to_claim_p50_ms") / base - 1.0 : 0.0,
               "frac", 2);
    layers.set("gen.claim_samples",
               double(report.find("submit_to_claim_p50_ms")->samples), "count");
    for (const Report::Row& row : layers.rows()) {
      if (row.name.find('.') != std::string::npos) {
        report.set(row.name, row.value, row.unit, row.samples);
      }
    }
  }

  report.printTable(stdout, "metrics");
  for (const std::string& p : problems) std::printf("CHECK FAILED %s\n", p.c_str());
  for (const std::string& p : invalid) std::printf("INVALID RUN %s\n", p.c_str());
  for (const std::string& p : notes) std::printf("NOTE %s\n", p.c_str());
  const bool correct = problems.empty() && invalid.empty();
  printJson(correct, live.attempted, live.failed, report, trace != 0);
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
