// Stratified campaign planner properties: the strata must partition the
// fault-site space exactly, Neyman allocation must spend the budget to the
// run, and the round structure must be a pure function of (seed, options,
// committed outcomes) — so shard geometry, executor mode, and
// interrupt/resume are all invisible in the committed record stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "apps/app.h"
#include "epvf/analysis.h"
#include "fi/campaign.h"
#include "fi/injector.h"
#include "fi/planner.h"
#include "fi/outcome.h"
#include "fi/shard.h"
#include "store/artifact.h"
#include "vm/interpreter.h"
#include "vm/trace.h"

namespace epvf::fi {
namespace {

/// One analyzed app shared across the suite — Analysis::Run dominates the
/// test's wall clock, the planner itself is cheap.
struct Pipeline {
  apps::App app;
  core::Analysis analysis;
  explicit Pipeline(const char* name)
      : app(apps::BuildApp(name, apps::AppConfig{.scale = 0})),
        analysis(core::Analysis::Run(app.module)) {}
};

const Pipeline& Mm() {
  static const Pipeline p("mm");
  return p;
}

CampaignPlanner MakePlanner(const Pipeline& p, const Injector& injector, std::uint64_t seed,
                            const StratifiedOptions& options) {
  const core::Analysis& a = p.analysis;
  return CampaignPlanner(a.graph(), a.ace(), a.crash_bits(), injector, seed, options);
}

Injector MakeInjector(const Pipeline& p) {
  return Injector(p.app.module, p.analysis.golden(), InjectorOptions{});
}

/// Drives the planner's round loop in-process until every stratum retires.
std::vector<FaultRecord> RunToCompletion(CampaignPlanner& planner, Injector& injector,
                                         int threads) {
  while (!planner.Done()) {
    const std::vector<PlannedInjection> queue = planner.BeginRound();
    ExecuteOptions eo;
    eo.num_threads = threads;
    const ExecuteResult r = ExecutePlannedRuns(injector, queue, eo);
    planner.CommitRound(r.records);
  }
  return planner.records();
}

bool SameRecords(const std::vector<FaultRecord>& a, const std::vector<FaultRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].site.dyn_index != b[i].site.dyn_index || a[i].site.slot != b[i].site.slot ||
        a[i].bit != b[i].bit || a[i].outcome != b[i].outcome) {
      return false;
    }
  }
  return true;
}

// --- stratification ----------------------------------------------------------

TEST(CampaignPlanner, StrataAreADisjointCoverOfTheSiteSpace) {
  const Pipeline& p = Mm();
  const Injector injector = MakeInjector(p);
  const CampaignPlanner planner = MakePlanner(p, injector, 7, StratifiedOptions{});

  const std::vector<FaultSite> population = EnumerateFaultSites(p.analysis.graph());
  ASSERT_EQ(planner.sites().size(), population.size());
  ASSERT_FALSE(planner.strata().empty());

  std::vector<int> owners(population.size(), 0);
  std::uint64_t strata_bits = 0;
  double weight_sum = 0.0;
  for (const StratumState& s : planner.strata()) {
    EXPECT_FALSE(s.sites.empty()) << "empty strata must be dropped at build time";
    EXPECT_GT(s.total_bits, 0u);
    strata_bits += s.total_bits;
    weight_sum += s.weight;
    for (const std::uint32_t site : s.sites) {
      ASSERT_LT(site, owners.size());
      owners[site] += 1;
    }
  }
  for (std::size_t i = 0; i < owners.size(); ++i) {
    EXPECT_EQ(owners[i], 1) << "site " << i << " owned " << owners[i] << " times";
  }
  std::uint64_t population_bits = 0;
  for (const FaultSite& site : population) population_bits += site.width;
  EXPECT_EQ(strata_bits, population_bits);
  EXPECT_NEAR(weight_sum, 1.0, 1e-9);
}

// --- allocation --------------------------------------------------------------

TEST(CampaignPlanner, UniformPlanIsOneUnstoppableRoundOverEverySite) {
  const Pipeline& p = Mm();
  Injector injector = MakeInjector(p);
  CampaignPlanner planner(p.analysis.graph(), injector, 7, 50);
  EXPECT_EQ(planner.kind(), PlanKind::kUniform);
  ASSERT_EQ(planner.strata().size(), 1u);
  EXPECT_EQ(planner.strata()[0].sites.size(), EnumerateFaultSites(p.analysis.graph()).size());
  EXPECT_DOUBLE_EQ(planner.strata()[0].weight, 1.0);

  ASSERT_FALSE(planner.Done());
  const std::vector<PlannedInjection> queue = planner.BeginRound();
  ASSERT_EQ(queue.size(), 50u);
  planner.CommitRound(ExecutePlannedRuns(injector, queue, ExecuteOptions{}).records);
  // A fixed budget: done after its one round, never by the stopping rule.
  EXPECT_TRUE(planner.Done());
  EXPECT_EQ(planner.RoundsCommitted(), 1u);
  EXPECT_FALSE(planner.strata()[0].retired);
  EXPECT_THROW((void)planner.BeginRound(), std::logic_error);

  CampaignPlanner empty(p.analysis.graph(), injector, 7, 0);
  EXPECT_TRUE(empty.Done()) << "a zero-run budget has nothing to draw";
}

TEST(CampaignPlanner, AllocationSumsToBudgetAndSkipsRetiredStrata) {
  const Pipeline& p = Mm();
  Injector injector = MakeInjector(p);
  StratifiedOptions options;
  options.ci_target = 0.15;  // loose target so strata actually retire quickly
  CampaignPlanner planner = MakePlanner(p, injector, 7, options);

  for (const std::uint32_t budget : {1u, 13u, 101u, 4096u}) {
    const std::vector<std::uint32_t> parts = planner.Allocate(budget);
    ASSERT_EQ(parts.size(), planner.strata().size());
    EXPECT_EQ(std::accumulate(parts.begin(), parts.end(), 0u), budget);
  }

  // Run rounds until the planner holds both retired and live strata.
  for (int round = 0; round < 64 && !planner.Done(); ++round) {
    const std::vector<PlannedInjection> queue = planner.BeginRound();
    ExecuteOptions eo;
    eo.num_threads = 4;
    planner.CommitRound(ExecutePlannedRuns(injector, queue, eo).records);
    if (planner.LiveStrata() > 0 && planner.LiveStrata() < planner.strata().size()) break;
  }
  ASSERT_GT(planner.LiveStrata(), 0u);
  ASSERT_LT(planner.LiveStrata(), planner.strata().size());

  const std::vector<std::uint32_t> parts = planner.Allocate(257);
  EXPECT_EQ(std::accumulate(parts.begin(), parts.end(), 0u), 257u);
  for (std::size_t h = 0; h < parts.size(); ++h) {
    if (planner.strata()[h].retired) {
      EXPECT_EQ(parts[h], 0u) << "retired stratum " << planner.strata()[h].name
                              << " must receive no budget";
    }
  }
}

// --- shard geometry ----------------------------------------------------------

TEST(CampaignPlanner, ShardGeometryIsInvisibleInTheRecordStream) {
  const Pipeline& p = Mm();
  StratifiedOptions options;
  options.ci_target = 0.12;

  Injector single = MakeInjector(p);
  CampaignPlanner reference = MakePlanner(p, single, 7, options);
  const std::vector<FaultRecord> want = RunToCompletion(reference, single, 4);
  ASSERT_FALSE(want.empty());

  // Re-run the identical plan, but execute every round as 4 independent
  // shard windows recombined by MergeShards — the worker-process protocol.
  Injector sharded = MakeInjector(p);
  CampaignPlanner planner = MakePlanner(p, sharded, 7, options);
  while (!planner.Done()) {
    const std::vector<PlannedInjection> queue = planner.BeginRound();
    constexpr std::uint32_t kShards = 4;
    std::vector<ShardRecords> parts(kShards);
    for (std::uint32_t shard = 0; shard < kShards; ++shard) {
      ExecuteOptions eo;
      eo.num_threads = 2;
      eo.shard_index = shard;
      eo.shard_count = kShards;
      const ExecuteResult r = ExecutePlannedRuns(sharded, queue, eo);
      parts[shard].records = r.records;
      parts[shard].completed = r.completed;
    }
    const MergedRecords merged = MergeShards(queue.size(), parts);
    ASSERT_EQ(merged.missing, 0u);
    ASSERT_EQ(merged.conflicts, 0u);
    planner.CommitRound(merged.records);
  }
  EXPECT_TRUE(SameRecords(planner.records(), want));
  EXPECT_EQ(planner.RoundsCommitted(), reference.RoundsCommitted());
}

// --- executor modes ----------------------------------------------------------

TEST(CampaignPlanner, ExecutionTiersAgreeRecordForRecord) {
  // The planner's sink-free runs take the executor's fast loop between
  // events; each committed record must match its injection re-run with a
  // sink attached (every instruction on the careful step), classified afresh.
  const Pipeline& p = Mm();
  StratifiedOptions options;
  options.ci_target = 0.12;

  Injector injector = MakeInjector(p);
  CampaignPlanner planner = MakePlanner(p, injector, 7, options);
  const std::vector<FaultRecord> got = RunToCompletion(planner, injector, 4);
  ASSERT_FALSE(got.empty());

  const vm::RunResult& golden = p.analysis.golden();
  vm::ExecOptions careful;
  careful.max_instructions = std::max<std::uint64_t>(golden.instructions_executed * 10, 10'000);
  for (const FaultRecord& r : got) {
    careful.fault = vm::FaultPlan{r.site.dyn_index, r.site.slot, r.bit};
    vm::NullTraceSink sink;
    vm::Interpreter interp(p.app.module, careful);
    EXPECT_EQ(Classify(interp.Run("main", &sink), golden), r.outcome)
        << "site " << r.site.dyn_index << " slot " << int{r.site.slot} << " bit " << int{r.bit};
  }
}

// --- resume ------------------------------------------------------------------

TEST(CampaignPlanner, MidRoundResumeReplaysIntoTheIdenticalCampaign) {
  const Pipeline& p = Mm();
  StratifiedOptions options;
  options.ci_target = 0.12;

  Injector reference_injector = MakeInjector(p);
  CampaignPlanner reference = MakePlanner(p, reference_injector, 7, options);
  const std::vector<FaultRecord> want = RunToCompletion(reference, reference_injector, 4);
  const std::vector<std::uint32_t> round_sizes = reference.round_sizes();
  ASSERT_GE(round_sizes.size(), 2u) << "need at least two rounds to interrupt one";

  // Build the epvf-plan-v1 payload of a campaign killed halfway through its
  // final round: all earlier rounds committed, the tail round half done.
  const std::uint32_t last = round_sizes.back();
  const std::size_t prefix = want.size() - last;
  const std::size_t done_in_last = last / 2;
  std::vector<std::uint8_t> completed(want.size(), 0);
  for (std::size_t i = 0; i < prefix + done_in_last; ++i) completed[i] = 1;

  Injector resume_injector = MakeInjector(p);
  CampaignPlanner resumed = MakePlanner(p, resume_injector, 7, options);
  const PlanReplay replay = ReplayPlan(resumed, round_sizes, want, completed);
  ASSERT_TRUE(replay.consistent);
  EXPECT_EQ(replay.resumed_runs, prefix + done_in_last);
  ASSERT_EQ(replay.pending_queue.size(), static_cast<std::size_t>(last));
  ASSERT_EQ(replay.pending_records.size(), static_cast<std::size_t>(last));
  EXPECT_EQ(resumed.RoundsCommitted() + 1, reference.RoundsCommitted());

  // Execute only the holes of the interrupted round, then run the loop out.
  ExecuteOptions eo;
  eo.num_threads = 4;
  eo.resume_records = replay.pending_records;
  eo.resume_completed = replay.pending_completed;
  const ExecuteResult tail = ExecutePlannedRuns(resume_injector, replay.pending_queue, eo);
  resumed.CommitRound(tail.records);
  while (!resumed.Done()) {
    const std::vector<PlannedInjection> queue = resumed.BeginRound();
    ExecuteOptions more;
    more.num_threads = 4;
    resumed.CommitRound(ExecutePlannedRuns(resume_injector, queue, more).records);
  }
  EXPECT_TRUE(SameRecords(resumed.records(), want));
}

TEST(CampaignPlanner, ReplayRejectsAForeignRecordLog) {
  const Pipeline& p = Mm();
  StratifiedOptions options;
  options.ci_target = 0.12;

  Injector injector = MakeInjector(p);
  CampaignPlanner original = MakePlanner(p, injector, 7, options);
  const std::vector<FaultRecord> records = RunToCompletion(original, injector, 4);
  const std::vector<std::uint8_t> completed(records.size(), 1);

  // Same analysis, different seed: the regenerated round queues differ, so
  // the log must be rejected rather than silently adopted.
  Injector other_injector = MakeInjector(p);
  CampaignPlanner other = MakePlanner(p, other_injector, 8, options);
  const PlanReplay replay = ReplayPlan(other, original.round_sizes(), records, completed);
  EXPECT_FALSE(replay.consistent);
}

// --- persistence format ------------------------------------------------------

TEST(PlanArtifact, RoundTripsAndValidatesIdentity) {
  store::PlanArtifact plan;
  plan.seed = 7;
  plan.ci_target = 0.12;
  plan.max_runs = 500;
  plan.round_size = 64;
  plan.model_prior = 32.0;
  plan.min_per_stratum = 8;
  plan.jitter_pages = 2;
  plan.burst_length = 1;
  plan.round_sizes = {64, 64, 32};
  plan.records.resize(160);
  plan.completed.assign(160, 1);
  plan.records[5].site.dyn_index = 1234;
  plan.records[5].site.slot = 1;
  plan.records[5].bit = 17;
  plan.records[5].outcome = Outcome::kSdc;
  plan.completed[159] = 0;

  store::ArtifactWriter writer(store::ArtifactKind::kPlan);
  store::WritePlanArtifact(plan, writer);
  const std::string image = writer.Finish();
  const auto reader = store::ArtifactReader::Parse(
      std::vector<std::uint8_t>(image.begin(), image.end()), store::ArtifactKind::kPlan, "t");
  ASSERT_TRUE(reader.has_value());
  const auto loaded = store::ReadPlanArtifact(*reader);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->kind, plan.kind);
  EXPECT_EQ(loaded->seed, plan.seed);
  EXPECT_EQ(loaded->ci_target, plan.ci_target);
  EXPECT_EQ(loaded->round_sizes, plan.round_sizes);
  EXPECT_EQ(loaded->records.size(), plan.records.size());
  EXPECT_EQ(loaded->records[5].site.dyn_index, 1234u);
  EXPECT_EQ(loaded->records[5].bit, 17);
  EXPECT_EQ(loaded->records[5].outcome, Outcome::kSdc);
  EXPECT_EQ(loaded->completed, plan.completed);
  EXPECT_EQ(loaded->CompletedCount(), 159u);

  CampaignOptions campaign;
  campaign.seed = 7;
  campaign.injector.jitter_pages = 2;
  StratifiedOptions matching;
  matching.ci_target = 0.12;
  matching.max_runs = 500;
  matching.round_size = 64;
  EXPECT_TRUE(loaded->Matches(campaign, matching, PlanKind::kStratified));
  StratifiedOptions mismatched = matching;
  mismatched.ci_target = 0.05;
  EXPECT_FALSE(loaded->Matches(campaign, mismatched, PlanKind::kStratified));
  campaign.seed = 8;
  EXPECT_FALSE(loaded->Matches(campaign, matching, PlanKind::kStratified));

  // A uniform plan keys on its run budget and ignores planner options.
  campaign.seed = 7;
  campaign.num_runs = 200;
  const store::PlanArtifact uniform =
      store::PlanArtifact::Identity(campaign, matching, PlanKind::kUniform);
  EXPECT_EQ(uniform.num_runs, 200u);
  EXPECT_EQ(uniform.ci_target, 0.0);
  EXPECT_TRUE(uniform.Matches(campaign, mismatched, PlanKind::kUniform));
  EXPECT_FALSE(uniform.Matches(campaign, matching, PlanKind::kStratified));
  EXPECT_FALSE(loaded->Matches(campaign, matching, PlanKind::kUniform));
  campaign.num_runs = 201;
  EXPECT_FALSE(uniform.Matches(campaign, matching, PlanKind::kUniform));

  // Truncated images must fail structurally, not crash.
  for (const std::size_t cut : {image.size() - 1, image.size() / 2}) {
    std::vector<std::uint8_t> bytes(image.begin(), image.begin() + static_cast<long>(cut));
    EXPECT_FALSE(store::ArtifactReader::Parse(std::move(bytes), store::ArtifactKind::kPlan, "t")
                     .has_value())
        << "cut at " << cut;
  }
}

}  // namespace
}  // namespace epvf::fi
