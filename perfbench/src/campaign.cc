// `campaign`: fault-injection campaigns against analyses built in set-up
// (no activation walks anywhere). Each loop iteration runs
//   * uniform register campaigns at jitter 0 under the default (auto)
//     checkpoint policy: two inputs where auto picks no snapshots and two
//     where it picks some;
//   * one campaign at the CLI's default jitter, which always executes from
//     instruction zero;
//   * the stratified planner to its CI target on two apps, two fixed planner
//     seeds each — the same injector driven in small rounds.
// The workload seed picks the uniform campaigns' seeds. The planner's are
// fixed: how many injections it needs to reach the CI target moves by whole
// rounds with its seed (704 to 896 on mm s1), so seed-picked planner runs
// would time different amounts of work under different workload seeds.
#include <cstdio>
#include <exception>

#include "apps/app.h"
#include "bench.h"
#include "fi/campaign.h"
#include "fi/planner.h"
#include "reference.h"
#include "store/cache.h"

namespace perfbench {

namespace {

using namespace epvf;

struct Target {
  const char* app;
  int scale;
};

struct CampaignSpec {
  Target target;
  int runs;
  std::uint32_t jitter_pages;
};

struct Sizes {
  std::vector<CampaignSpec> uniform;  ///< jitter 0 and jittered campaigns
  std::vector<Target> planned;
  int plan_seeds;
  double ci_target;
};

Sizes SizesFor(Size size) {
  if (size == Size::kTiny) {
    return {{{{"lulesh", 1}, 200, 0}, {{"srad", 1}, 200, 0}, {{"lulesh", 1}, 200, 2}},
            {{"mm", 1}},
            1,
            0.1};
  }
  return {{{{"lulesh", 1}, 200, 0},
           {{"srad", 1}, 200, 0},
           {{"srad", 4}, 200, 0},
           {{"hotspot", 4}, 200, 0},
           {{"lulesh", 1}, 200, 2}},
          {{"mm", 1}, {"lud", 1}},
          2,
          0.1};
}

std::string TargetName(const Target& t) { return std::string(t.app) + ".s" + std::to_string(t.scale); }

/// FNV-1a over every record's site, bit and outcome.
std::uint64_t RecordDigest(const std::vector<fi::FaultRecord>& records) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ull;
    }
  };
  for (const fi::FaultRecord& r : records) {
    mix(r.site.dyn_index);
    mix(r.site.slot);
    mix(r.site.node);
    mix(r.bit);
    mix(static_cast<std::uint64_t>(r.outcome));
  }
  return h;
}

struct OutcomeCounts {
  std::uint64_t benign = 0, sdc = 0, crash = 0, hang = 0, detected = 0;
};

OutcomeCounts CountOutcomes(const std::vector<fi::FaultRecord>& records) {
  OutcomeCounts c;
  for (const fi::FaultRecord& r : records) {
    if (fi::IsCrash(r.outcome)) {
      ++c.crash;
    } else if (r.outcome == fi::Outcome::kBenign) {
      ++c.benign;
    } else if (r.outcome == fi::Outcome::kSdc) {
      ++c.sdc;
    } else if (r.outcome == fi::Outcome::kHang) {
      ++c.hang;
    } else {
      ++c.detected;
    }
  }
  return c;
}

std::string RecordsLine(const std::vector<fi::FaultRecord>& records) {
  const OutcomeCounts c = CountOutcomes(records);
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "runs=%zu benign=%llu sdc=%llu crash=%llu hang=%llu detected=%llu digest=%016llx",
                records.size(), static_cast<unsigned long long>(c.benign),
                static_cast<unsigned long long>(c.sdc), static_cast<unsigned long long>(c.crash),
                static_cast<unsigned long long>(c.hang),
                static_cast<unsigned long long>(c.detected),
                static_cast<unsigned long long>(RecordDigest(records)));
  return buf;
}

struct Prepared {
  std::unique_ptr<ir::Module> module;
  std::unique_ptr<core::Analysis> analysis;
};

class CampaignWorkload final : public Workload {
 public:
  explicit CampaignWorkload(const Config& config) : sizes_(SizesFor(config.size)) {}

  void Setup(Env& env) override {
    prepared_.clear();
    const core::AnalysisOptions options = AnalysisOpts(env.config);
    std::vector<Target> targets;
    for (const CampaignSpec& spec : sizes_.uniform) targets.push_back(spec.target);
    targets.insert(targets.end(), sizes_.planned.begin(), sizes_.planned.end());
    for (const Target& target : targets) {
      const std::string name = TargetName(target);
      if (prepared_.count(name) != 0) continue;
      Prepared p;
      p.module = BuildModule(env.tracer, target.app, target.scale, apps::AppConfig{}.seed);
      // Campaigns need the golden run, DDG, ACE and crash bits — no walks.
      if (env.tracer.enabled()) {
        p.analysis = std::make_unique<core::Analysis>(
            AnalyzeByLayers(env.tracer, *p.module, options, /*probe=*/true, nullptr));
      } else {
        p.analysis = std::make_unique<core::Analysis>(core::Analysis::Run(*p.module, options));
      }
      prepared_.emplace(name, std::move(p));
    }
  }

  void RunIteration(Env& env, int /*iteration*/, std::vector<OpSample>& ops) override {
    const std::uint64_t set = env.config.SeedSet();
    for (std::size_t i = 0; i < sizes_.uniform.size(); ++i) {
      const CampaignSpec& spec = sizes_.uniform[i];
      const std::string kind =
          std::string(spec.jitter_pages == 0 ? "uniform." : "jitter.") + TargetName(spec.target);
      Guard(env, kind, [&](OpSample& sample) {
        return Uniform(env, spec, Mix(set * 131 + i), sample);
      }, ops);
    }
    for (const Target& target : sizes_.planned) {
      for (int k = 0; k < sizes_.plan_seeds; ++k) {
        const std::string kind = "plan." + TargetName(target) + ".k" + std::to_string(k);
        Guard(env, kind, [&](OpSample& sample) {
          return Planned(env, target, Mix(100 + static_cast<std::uint64_t>(k)), sample);
        }, ops);
      }
    }
  }

 private:
  /// Runs one operation, checks its result line against the reference and
  /// records the sample when it passed.
  template <typename Fn>
  void Guard(Env& env, const std::string& kind, Fn&& fn, std::vector<OpSample>& ops) {
    bool ok = false;
    try {
      OpSample sample{.kind = kind, .traced = env.tracer.enabled()};
      const auto start = std::chrono::steady_clock::now();
      std::string line;
      {
        Scope op(env.tracer, "bench.campaign_op");
        line = fn(sample);
      }
      sample.ms = MsSince(start);
      ok = env.refs.Check("campaign", env.config.SeedSet(), kind, line);
      if (ok) ops.push_back(std::move(sample));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: campaign %s failed: %s\n", kind.c_str(), e.what());
    }
    env.outcome.Record(ok);
  }

  fi::CampaignOptions Options(Env& env, std::uint64_t seed, int runs,
                              std::uint32_t jitter_pages) const {
    fi::CampaignOptions campaign;
    campaign.num_runs = runs;
    campaign.seed = seed;
    campaign.injector.jitter_pages = jitter_pages;
    campaign.num_threads = env.config.jobs;
    campaign.progress_enable = 0;
    return campaign;  // checkpoint_interval 0 = the auto policy
  }

  std::string Uniform(Env& env, const CampaignSpec& spec, std::uint64_t seed,
                      OpSample& sample) {
    const Prepared& p = prepared_.at(TargetName(spec.target));
    const fi::CampaignOptions campaign = Options(env, seed, spec.runs, spec.jitter_pages);
    Scope span(env.tracer, "fi.campaign");
    const fi::CampaignStats stats =
        fi::RunCampaign(*p.module, p.analysis->graph(), p.analysis->golden(), campaign);
    const fi::CampaignPerf& perf = stats.perf;
    const double trace_length = static_cast<double>(p.analysis->TraceLength());
    const OutcomeCounts c = CountOutcomes(stats.records);
    span.Arg("runs", static_cast<double>(stats.records.size()));
    span.Arg("trace_length", trace_length);
    span.Arg("inject_ms", perf.inject_seconds * 1e3);
    span.Arg("checkpoint_ms", perf.checkpoint_seconds * 1e3);
    span.Arg("checkpoints", static_cast<double>(perf.checkpoints));
    span.Arg("resumed_runs", static_cast<double>(perf.checkpointed_runs));
    span.Arg("skipped_instr", static_cast<double>(perf.skipped_instructions));
    span.Arg("benign", static_cast<double>(c.benign));
    span.Arg("sdc", static_cast<double>(c.sdc));
    span.Arg("crash", static_cast<double>(c.crash));
    span.Arg("hang", static_cast<double>(c.hang));
    sample.injections = static_cast<double>(stats.records.size());
    sample.minstr = sample.injections * trace_length / 1e6;
    return RecordsLine(stats.records);
  }

  /// The stratified planner to its CI target. Untraced runs go through the
  /// store's orchestrator exactly as `epvf inject --plan stratified` does;
  /// traced runs drive the same planner round by round so each round and its
  /// bookkeeping get their own spans.
  std::string Planned(Env& env, const Target& target, std::uint64_t seed, OpSample& sample) {
    const Prepared& p = prepared_.at(TargetName(target));
    const core::Analysis& a = *p.analysis;
    // The CLI's defaults: jitter 2, so the planner never checkpoints.
    const fi::CampaignOptions campaign = Options(env, seed, 0, 2);
    fi::StratifiedOptions plan;
    plan.ci_target = sizes_.ci_target;
    Scope span(env.tracer, "fi.plan");
    fi::Injector injector(*p.module, a.golden(), campaign.injector);
    std::vector<fi::FaultRecord> records;
    std::uint32_t rounds = 0;
    if (!env.tracer.enabled()) {
      const store::StratifiedResult result =
          store::RunStratifiedCampaign(a, injector, campaign, plan, store::PlanKey{}, nullptr);
      records = result.stats.records;
      rounds = result.rounds;
    } else {
      fi::CampaignPlanner planner(a.graph(), a.ace(), a.crash_bits(), injector, seed, plan);
      while (!planner.Done()) {
        Scope round(env.tracer, "fi.plan_round");
        std::vector<fi::PlannedInjection> queue;
        {
          Scope begin(env.tracer, "fi.plan_begin");
          queue = planner.BeginRound();
        }
        fi::ExecuteResult executed;
        {
          Scope execute(env.tracer, "fi.plan_execute");
          fi::ExecuteOptions exec;
          exec.num_threads = campaign.num_threads;
          executed = fi::ExecutePlannedRuns(injector, queue, exec);
        }
        Scope commit(env.tracer, "fi.plan_commit");
        planner.CommitRound(executed.records);
      }
      records = planner.records();
      rounds = planner.RoundsCommitted();
    }
    span.Arg("injections", static_cast<double>(records.size()));
    span.Arg("rounds", rounds);
    sample.injections = static_cast<double>(records.size());
    sample.minstr = sample.injections * static_cast<double>(a.TraceLength()) / 1e6;
    return RecordsLine(records) + " rounds=" + std::to_string(rounds);
  }

  Sizes sizes_;
  std::map<std::string, Prepared> prepared_;
};

}  // namespace

std::unique_ptr<Workload> MakeCampaignWorkload(const Config& config) {
  return std::make_unique<CampaignWorkload>(config);
}

}  // namespace perfbench
