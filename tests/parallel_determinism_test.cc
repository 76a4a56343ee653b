// Determinism of the parallel analysis engine: every ePVF metric and every
// campaign outcome must be bit-identical at 1, 2 and 8 threads. This is the
// invariant that makes `--jobs` a pure performance knob — the paper's
// numbers cannot depend on the machine the reproduction runs on.
#include <gtest/gtest.h>

#include <utility>

#include "apps/app.h"
#include "epvf/analysis.h"
#include "fi/campaign.h"
#include "fi/injector.h"
#include "fi/planner.h"

namespace epvf {
namespace {

core::Analysis Analyze(const ir::Module& module, int jobs) {
  core::AnalysisOptions options;
  options.jobs = jobs;
  return core::Analysis::Run(module, options);
}

TEST(ParallelDeterminism, AnalysisMetricsIdenticalAcrossJobs) {
  const apps::App app = apps::BuildApp("pathfinder", apps::AppConfig{.scale = 0});
  const core::Analysis serial = Analyze(app.module, 1);
  for (const int jobs : {2, 8}) {
    const core::Analysis parallel = Analyze(app.module, jobs);
    // Exact equality on purpose: the parallel stages must not change a single
    // bit of any metric, integer or floating point.
    EXPECT_EQ(serial.ace().ace_bits, parallel.ace().ace_bits) << "jobs=" << jobs;
    EXPECT_EQ(serial.ace().ace_node_count, parallel.ace().ace_node_count) << "jobs=" << jobs;
    EXPECT_EQ(serial.ace().ace_register_nodes, parallel.ace().ace_register_nodes)
        << "jobs=" << jobs;
    EXPECT_EQ(serial.crash_bits().total_crash_bits, parallel.crash_bits().total_crash_bits)
        << "jobs=" << jobs;
    EXPECT_EQ(serial.crash_bits().constrained_nodes, parallel.crash_bits().constrained_nodes)
        << "jobs=" << jobs;
    EXPECT_EQ(serial.crash_bits().crash_mask, parallel.crash_bits().crash_mask)
        << "jobs=" << jobs;
    EXPECT_EQ(serial.Pvf(), parallel.Pvf()) << "jobs=" << jobs;
    EXPECT_EQ(serial.Epvf(), parallel.Epvf()) << "jobs=" << jobs;
    EXPECT_EQ(serial.CrashRateEstimate(), parallel.CrashRateEstimate()) << "jobs=" << jobs;
    EXPECT_EQ(serial.PvfUseWeighted(), parallel.PvfUseWeighted()) << "jobs=" << jobs;
    EXPECT_EQ(serial.EpvfUseWeighted(), parallel.EpvfUseWeighted()) << "jobs=" << jobs;
    EXPECT_EQ(serial.MemoryEpvf(), parallel.MemoryEpvf()) << "jobs=" << jobs;
  }
}

TEST(ParallelDeterminism, CampaignStatsIdenticalAcrossThreadCounts) {
  const apps::App app = apps::BuildApp("mm", apps::AppConfig{.scale = 0});
  const core::Analysis a = Analyze(app.module, 1);
  fi::CampaignOptions options;
  options.num_runs = 48;
  options.seed = 7;
  options.injector.jitter_pages = 2;
  options.num_threads = 1;
  const fi::CampaignStats serial = fi::RunCampaign(app.module, a.graph(), a.golden(), options);
  for (const int threads : {2, 8}) {
    options.num_threads = threads;
    const fi::CampaignStats parallel =
        fi::RunCampaign(app.module, a.graph(), a.golden(), options);
    EXPECT_EQ(serial.counts, parallel.counts) << "threads=" << threads;
    ASSERT_EQ(serial.records.size(), parallel.records.size());
    for (std::size_t i = 0; i < serial.records.size(); ++i) {
      EXPECT_EQ(serial.records[i].site.dyn_index, parallel.records[i].site.dyn_index);
      EXPECT_EQ(serial.records[i].site.slot, parallel.records[i].site.slot);
      EXPECT_EQ(serial.records[i].bit, parallel.records[i].bit);
      EXPECT_EQ(serial.records[i].outcome, parallel.records[i].outcome)
          << "run " << i << " at threads=" << threads;
    }
  }
}

TEST(ParallelDeterminism, CheckpointedCampaignIdenticalAcrossThreadCounts) {
  // The suffix-replay fast path re-orders execution (runs sorted by injection
  // site, resumed from snapshots) — records must still be bit-identical to
  // the from-scratch serial campaign at every thread count, with a few
  // snapshots or with the most an injector holds.
  const apps::App app = apps::BuildApp("mm", apps::AppConfig{.scale = 0});
  const core::Analysis a = Analyze(app.module, 1);
  fi::CampaignOptions options;
  options.num_runs = 48;
  options.seed = 7;
  options.injector.jitter_pages = 0;
  options.num_threads = 1;
  options.injector.checkpoints = 0;  // from-scratch baseline
  const fi::CampaignStats serial = fi::RunCampaign(app.module, a.graph(), a.golden(), options);
  for (const auto& [threads, checkpoints] :
       {std::pair{1, 8u}, std::pair{2, 8u}, std::pair{8, 8u}, std::pair{4, 1024u}}) {
    options.num_threads = threads;
    options.injector.checkpoints = checkpoints;
    const fi::CampaignStats fast = fi::RunCampaign(app.module, a.graph(), a.golden(), options);
    EXPECT_EQ(serial.counts, fast.counts) << "threads=" << threads << " ckpts=" << checkpoints;
    EXPECT_EQ(fast.perf.checkpoints, checkpoints);
    ASSERT_EQ(serial.records.size(), fast.records.size());
    for (std::size_t i = 0; i < serial.records.size(); ++i) {
      EXPECT_EQ(serial.records[i].site.dyn_index, fast.records[i].site.dyn_index);
      EXPECT_EQ(serial.records[i].site.slot, fast.records[i].site.slot);
      EXPECT_EQ(serial.records[i].bit, fast.records[i].bit);
      EXPECT_EQ(serial.records[i].outcome, fast.records[i].outcome)
          << "run " << i << " at threads=" << threads;
    }
  }
}

TEST(ParallelDeterminism, CampaignStatsIdenticalAcrossExecutionTiers) {
  // The executor composes with the thread count: a jittered campaign, whose
  // sink-free runs take the fast loop between events, must reproduce the
  // serial campaign record for record at any parallelism.
  const apps::App app = apps::BuildApp("mm", apps::AppConfig{.scale = 0});
  const core::Analysis a = Analyze(app.module, 1);
  fi::CampaignOptions options;
  options.num_runs = 48;
  options.seed = 7;
  options.injector.jitter_pages = 2;
  options.num_threads = 1;
  const fi::CampaignStats serial = fi::RunCampaign(app.module, a.graph(), a.golden(), options);
  for (const int threads : {1, 8}) {
    options.num_threads = threads;
    const fi::CampaignStats fast = fi::RunCampaign(app.module, a.graph(), a.golden(), options);
    EXPECT_EQ(serial.counts, fast.counts) << "threads=" << threads;
    ASSERT_EQ(serial.records.size(), fast.records.size());
    for (std::size_t i = 0; i < serial.records.size(); ++i) {
      EXPECT_EQ(serial.records[i].site.dyn_index, fast.records[i].site.dyn_index);
      EXPECT_EQ(serial.records[i].site.slot, fast.records[i].site.slot);
      EXPECT_EQ(serial.records[i].bit, fast.records[i].bit);
      EXPECT_EQ(serial.records[i].outcome, fast.records[i].outcome)
          << "run " << i << " at threads=" << threads;
    }
  }
}

TEST(ParallelDeterminism, StratifiedPlannerIdenticalAcrossThreadCounts) {
  // The planner's round queues are fixed by (seed, committed outcomes), and
  // ExecutePlannedRuns writes each record at its queue index — so the whole
  // stratified campaign, round boundaries included, must be bit-identical at
  // every thread count.
  const apps::App app = apps::BuildApp("mm", apps::AppConfig{.scale = 0});
  const core::Analysis a = Analyze(app.module, 1);
  fi::StratifiedOptions plan;
  plan.ci_target = 0.12;

  struct PlanOutcome {
    std::vector<std::uint32_t> round_sizes;
    std::vector<fi::FaultRecord> records;
    fi::RateEstimate sdc;
  };
  auto run = [&](int threads) {
    fi::Injector injector(app.module, a.golden(), fi::InjectorOptions{});
    fi::CampaignPlanner planner(a.graph(), a.ace(), a.crash_bits(), injector, 7, plan);
    while (!planner.Done()) {
      const std::vector<fi::PlannedInjection> queue = planner.BeginRound();
      fi::ExecuteOptions eo;
      eo.num_threads = threads;
      planner.CommitRound(fi::ExecutePlannedRuns(injector, queue, eo).records);
    }
    return PlanOutcome{planner.round_sizes(), planner.records(), planner.SdcEstimate()};
  };

  const PlanOutcome serial = run(1);
  ASSERT_GT(serial.records.size(), 0u);
  for (const int threads : {2, 8}) {
    const PlanOutcome parallel = run(threads);
    EXPECT_EQ(parallel.round_sizes, serial.round_sizes) << "threads=" << threads;
    ASSERT_EQ(parallel.records.size(), serial.records.size());
    for (std::size_t i = 0; i < serial.records.size(); ++i) {
      EXPECT_EQ(serial.records[i].site.dyn_index, parallel.records[i].site.dyn_index);
      EXPECT_EQ(serial.records[i].site.slot, parallel.records[i].site.slot);
      EXPECT_EQ(serial.records[i].bit, parallel.records[i].bit);
      EXPECT_EQ(serial.records[i].outcome, parallel.records[i].outcome)
          << "run " << i << " at threads=" << threads;
    }
    EXPECT_EQ(parallel.sdc.rate, serial.sdc.rate);
    EXPECT_EQ(parallel.sdc.half_width, serial.sdc.half_width);
  }
}

TEST(ParallelDeterminism, CampaignWithFewerRunsThanThreads) {
  // Regression: the old static-chunk split spawned zero-width ranges when
  // plan.size() < workers; dynamic scheduling must execute all runs exactly
  // once regardless.
  const apps::App app = apps::BuildApp("lud", apps::AppConfig{.scale = 0});
  const core::Analysis a = Analyze(app.module, 1);
  fi::CampaignOptions options;
  options.num_runs = 3;
  options.seed = 11;
  options.num_threads = 1;
  const fi::CampaignStats serial = fi::RunCampaign(app.module, a.graph(), a.golden(), options);
  options.num_threads = 8;
  const fi::CampaignStats parallel = fi::RunCampaign(app.module, a.graph(), a.golden(), options);
  EXPECT_EQ(parallel.Total(), 3u);
  EXPECT_EQ(parallel.records.size(), 3u);
  EXPECT_EQ(serial.counts, parallel.counts);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(serial.records[i].outcome, parallel.records[i].outcome) << "run " << i;
  }
}

}  // namespace
}  // namespace epvf
