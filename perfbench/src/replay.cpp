// replay.cpp - Single-threaded replay of the live phase's captured inputs
// through each layer's public entry points, after the daemon is gone.
// Every figure is the median over repetitions of a per-call mean.
#include "replay.h"

#include <functional>
#include <span>

#include "classad/analysis/lint.h"
#include "classad/analysis/schema.h"
#include "classad/match.h"
#include "classad/prepared.h"
#include "matchmaker/ad_store.h"
#include "matchmaker/claiming.h"
#include "matchmaker/engine/guards.h"
#include "matchmaker/matchmaker.h"
#include "obs/trace.h"
#include "wire/codec.h"

namespace perfbench {
namespace {

using classad::ClassAdPtr;

constexpr int kReps = 5;

/// Median over kReps of (time of `body` / `calls`), in seconds per call.
double perCall(std::size_t calls, const std::function<void()>& body,
               int reps = kReps) {
  if (calls == 0) return 0.0;
  std::vector<double> runs;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now();
    body();
    runs.push_back((now() - t0) / double(calls));
  }
  return medianOf(runs);
}

template <class T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

}  // namespace

void runReplay(const WorkloadSpec& spec, const ReplayInputs& in, Report& r) {
  // ---- wire codec -------------------------------------------------------
  r.set("wire.decode_us.advertisement",
        1e6 * perCall(in.adFrames.size(), [&] {
          std::string error;
          for (const wire::Frame& f : in.adFrames) keep(wire::decodeEnvelope(f, &error));
        }),
        "us", in.adFrames.size());
  r.set("wire.decode_us.match_notification",
        1e6 * perCall(in.notificationFrames.size(), [&] {
          std::string error;
          for (const wire::Frame& f : in.notificationFrames) {
            keep(wire::decodeEnvelope(f, &error));
          }
        }),
        "us", in.notificationFrames.size());

  // ---- classad parse ------------------------------------------------------
  const auto parseCost = [&](const std::vector<ClassAdPtr>& ads) {
    std::vector<std::string> texts;
    for (std::size_t i = 0; i < ads.size() && i < 1000; ++i) {
      texts.push_back(ads[i]->unparse());
    }
    return 1e6 * perCall(texts.size(), [&] {
             for (const std::string& t : texts) keep(classad::ClassAd::parse(t));
           });
  };
  r.set("classad.parse_us.machine_ad", parseCost(in.machineAds), "us",
        std::min<std::size_t>(in.machineAds.size(), 1000));
  r.set("classad.parse_us.job_ad", parseCost(in.jobAds), "us",
        std::min<std::size_t>(in.jobAds.size(), 1000));

  // ---- static analysis (lint at the advertising boundary) ----------------
  const std::vector<ClassAdPtr>& pool =
      in.cycleResources.empty() ? in.machineAds : in.cycleResources;
  r.set("analysis.schema_fold_ms", 1e3 * perCall(1, [&] {
          keep(classad::analysis::Schema::fromAds(pool));
        }),
        "ms", pool.size());
  const classad::analysis::Schema machineSchema =
      classad::analysis::Schema::fromAds(pool);
  const classad::analysis::Schema jobSchema =
      classad::analysis::Schema::fromAds(in.jobAds);
  std::size_t linted = 0;
  for (const auto* ads : {&in.machineAds, &in.jobAds}) linted += ads->size();
  r.set("analysis.lint_us_per_ad",
        1e6 * perCall(linted, [&] {
          classad::analysis::LintOptions opts;
          opts.otherSchema = jobSchema.empty() ? nullptr : &jobSchema;
          for (const ClassAdPtr& ad : in.machineAds) {
            keep(classad::analysis::lintAd(*ad, opts));
          }
          opts.otherSchema = &machineSchema;
          for (const ClassAdPtr& ad : in.jobAds) {
            keep(classad::analysis::lintAd(*ad, opts));
          }
        }, 3),
        "us", linted);

  // ---- engine: prepare, guards, upsert -----------------------------------
  matchmaking::MatchmakerConfig config;
  config.negotiationPolicy = spec.policy;
  r.set("engine.prepare_us_per_ad",
        1e6 * perCall(in.machineAds.size() + in.jobAds.size(), [&] {
          for (const auto* ads : {&in.machineAds, &in.jobAds}) {
            for (const ClassAdPtr& ad : *ads) keep(classad::PreparedAd::prepare(ad));
          }
        }),
        "us", in.machineAds.size() + in.jobAds.size());
  std::vector<classad::PreparedAd> preparedJobs;
  for (const ClassAdPtr& ad : in.jobAds) {
    preparedJobs.push_back(classad::PreparedAd::prepare(ad));
  }
  r.set("engine.guard_us_per_request",
        1e6 * perCall(preparedJobs.size(), [&] {
          for (const classad::PreparedAd& p : preparedJobs) {
            keep(matchmaking::engine::deriveGuards(p));
          }
        }),
        "us", preparedJobs.size());
  {
    const auto keyOf = [](const ClassAdPtr& ad) {
      return ad->getString("Name").value_or("");
    };
    std::vector<double> runs;
    for (int rep = 0; rep < 3; ++rep) {
      matchmaking::AdStore store(60.0, matchmaking::resourcePoolOptions(config));
      std::uint64_t seq = 0;
      for (const ClassAdPtr& ad : pool) store.update(keyOf(ad), ad, 0.0, ++seq);
      const double t0 = now();
      for (const ClassAdPtr& ad : in.machineAds) {
        store.update(keyOf(ad), ad, 0.0, ++seq);
      }
      runs.push_back((now() - t0) / double(std::max<std::size_t>(1, in.machineAds.size())));
    }
    r.set("engine.upsert_us_per_ad", 1e6 * medianOf(runs), "us", in.machineAds.size());
  }

  // ---- pair evaluation: prepared vs raw -----------------------------------
  {
    const std::size_t nj = std::min<std::size_t>(in.jobAds.size(), 100);
    const std::size_t nm = std::min<std::size_t>(pool.size(), 200);
    std::vector<classad::PreparedAd> pm;
    for (std::size_t i = 0; i < nm; ++i) pm.push_back(classad::PreparedAd::prepare(pool[i]));
    const std::size_t pairs = nj * nm;
    r.set("classad.pair_eval_ns.prepared",
          1e9 * perCall(pairs, [&] {
            for (std::size_t j = 0; j < nj; ++j) {
              for (std::size_t m = 0; m < nm; ++m) {
                keep(classad::analyzeMatch(preparedJobs[j], pm[m]));
              }
            }
          }),
          "ns", pairs);
    r.set("classad.pair_eval_ns.raw",
          1e9 * perCall(pairs, [&] {
            for (std::size_t j = 0; j < nj; ++j) {
              for (std::size_t m = 0; m < nm; ++m) {
                keep(classad::analyzeMatch(*in.jobAds[j], *pool[m]));
              }
            }
          }),
          "ns", pairs);
  }

  // ---- negotiation policies on one cycle snapshot ------------------------
  {
    std::vector<ClassAdPtr> requests = in.cycleRequests;
    for (std::size_t i = 0; requests.size() < 8 && i < in.jobAds.size(); ++i) {
      requests.push_back(in.jobAds[i]);
    }
    const matchmaking::Accountant accountant;
    using matchmaking::policy::PolicyKind;
    for (const auto& [kind, name] :
         {std::pair{PolicyKind::kGreedy, "policy.replay_ms.greedy"},
          std::pair{PolicyKind::kAssignment, "policy.replay_ms.assignment"},
          std::pair{PolicyKind::kAuction, "policy.replay_ms.auction"}}) {
      matchmaking::MatchmakerConfig c;
      c.negotiationPolicy = kind;
      const matchmaking::Matchmaker mm(c);
      const auto reqPool = matchmaking::engine::PreparedPool::fromAds(
          requests, matchmaking::requestPoolOptions(c));
      const auto resPool = matchmaking::engine::PreparedPool::fromAds(
          pool, matchmaking::resourcePoolOptions(c));
      r.set(name, 1e3 * perCall(1, [&] {
              keep(mm.negotiate(reqPool, resPool, accountant, 0.0));
            }, 3),
            "ms", requests.size());
    }
  }

  // ---- claim verification -------------------------------------------------
  {
    std::vector<const ReplayInputs::Claim*> claims;
    for (const ReplayInputs::Claim& c : in.claims) {
      if (c.machineAd != nullptr) claims.push_back(&c);
    }
    r.set("claim.verify_us",
          1e6 * perCall(claims.size(), [&] {
            for (const ReplayInputs::Claim* c : claims) {
              keep(matchmaking::evaluateClaim(*c->machineAd, c->ticket, c->request));
            }
          }),
          "us", claims.size());
  }

  // ---- span cost, tracing on and off -------------------------------------
  {
    constexpr std::size_t kSpans = 100000;
    for (const bool enabled : {true, false}) {
      obs::Tracer tracer(obs::Tracer::Options{1u << 12, enabled, "replay", 7});
      const obs::TraceContext parent = tracer.mintContext();
      r.set(enabled ? "obs.span_ns.enabled" : "obs.span_ns.disabled",
            1e9 * perCall(kSpans, [&] {
              for (std::size_t i = 0; i < kSpans; ++i) {
                obs::ActiveSpan s = obs::startSpan(&tracer, "replay.span", parent);
              }
            }),
            "ns", kSpans);
    }
  }
}

}  // namespace perfbench
