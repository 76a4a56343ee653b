// Sharded-campaign property tests: the shard decomposition must be invisible
// in the results. ShardSlice partitions a round queue exactly; executing
// every shard's window of a uniform plan separately and merging the
// per-shard record streams must reproduce the single-process campaign byte
// for byte — same records, same outcome counts, same confidence intervals —
// across applications, seeds, shard counts, and checkpoint settings. The
// merge itself must survive missing shards, wrong-shape shards, and
// conflicting double-claims by falling back to re-execution, never to wrong
// answers.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "apps/app.h"
#include "epvf/analysis.h"
#include "fi/campaign.h"
#include "fi/planner.h"
#include "fi/shard.h"

namespace epvf::fi {
namespace {

bool SameRecord(const FaultRecord& a, const FaultRecord& b) {
  return a.site.dyn_index == b.site.dyn_index && a.site.slot == b.site.slot &&
         a.site.width == b.site.width && a.site.node == b.site.node && a.bit == b.bit &&
         a.outcome == b.outcome;
}

bool SameRecords(const std::vector<FaultRecord>& a, const std::vector<FaultRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!SameRecord(a[i], b[i])) return false;
  }
  return true;
}

// --- ShardSlice: exact partition ---------------------------------------------

TEST(ShardSlice, PartitionsEveryIndexExactlyOnce) {
  for (const std::size_t num_runs : {0UL, 1UL, 7UL, 64UL, 1000UL}) {
    for (const int shard_count : {1, 2, 3, 4, 8, 13}) {
      std::vector<int> owners(num_runs, 0);
      std::size_t covered = 0;
      for (int shard = 0; shard < shard_count; ++shard) {
        const ShardRange range = ShardSlice(num_runs, shard_count, shard);
        ASSERT_LE(range.begin, range.end);
        ASSERT_LE(range.end, num_runs);
        covered += range.Size();
        for (std::size_t i = range.begin; i < range.end; ++i) owners[i] += 1;
      }
      EXPECT_EQ(covered, num_runs) << num_runs << " runs over " << shard_count << " shards";
      for (std::size_t i = 0; i < num_runs; ++i) {
        EXPECT_EQ(owners[i], 1) << "index " << i << " owned " << owners[i] << " times";
      }
    }
  }
}

TEST(ShardSlice, SlicesAreBalancedWithinOneRun) {
  for (const std::size_t num_runs : {5UL, 97UL, 1000UL}) {
    for (const int shard_count : {2, 3, 7}) {
      std::size_t smallest = num_runs;
      std::size_t largest = 0;
      for (int shard = 0; shard < shard_count; ++shard) {
        const std::size_t size = ShardSlice(num_runs, shard_count, shard).Size();
        smallest = std::min(smallest, size);
        largest = std::max(largest, size);
      }
      EXPECT_LE(largest - smallest, 1UL);
    }
  }
}

TEST(ShardSlice, RejectsInvalidCoordinates) {
  EXPECT_THROW((void)ShardSlice(10, 0, 0), std::invalid_argument);
  EXPECT_THROW((void)ShardSlice(10, -1, 0), std::invalid_argument);
  EXPECT_THROW((void)ShardSlice(10, 4, -1), std::invalid_argument);
  EXPECT_THROW((void)ShardSlice(10, 4, 4), std::invalid_argument);
}

// --- ResolveShardCount: flag, environment and the fan-out bound ---------------

TEST(ShardCount, FlagBeatsEnvAndAtLeastOne) {
  EXPECT_EQ(ResolveShardCount(3, "5", PlanKind::kUniform, 500), 3);
  EXPECT_EQ(ResolveShardCount(0, "5", PlanKind::kUniform, 500), 5);
  EXPECT_EQ(ResolveShardCount(-2, nullptr, PlanKind::kUniform, 500), 1);
  EXPECT_EQ(ResolveShardCount(0, "-7", PlanKind::kStratified, 500), 1);
  EXPECT_EQ(ResolveShardCount(0, "junk", PlanKind::kUniform, 500), 1);
}

TEST(ShardCount, UniformClampsToRunsStratifiedDoesNot) {
  EXPECT_EQ(ResolveShardCount(8, nullptr, PlanKind::kUniform, 3), 3);
  EXPECT_EQ(ResolveShardCount(8, nullptr, PlanKind::kUniform, 0), 1);
  EXPECT_EQ(ResolveShardCount(8, nullptr, PlanKind::kStratified, 3), 8);
}

TEST(ShardCount, RefusesPastTheLimitUnderEitherPlan) {
  // Resolved, never launched: the bound is checked before any clamp, so a
  // one-run campaign (which would run in-process) is refused all the same.
  ASSERT_EQ(kMaxShards, 64);
  for (const PlanKind kind : {PlanKind::kUniform, PlanKind::kStratified}) {
    EXPECT_EQ(ResolveShardCount(kMaxShards, nullptr, kind, 1000), kMaxShards);
    EXPECT_EQ(ResolveShardCount(0, "64", kind, 1000), kMaxShards);
    EXPECT_THROW((void)ResolveShardCount(kMaxShards + 1, nullptr, kind, 1), std::out_of_range);
    EXPECT_THROW((void)ResolveShardCount(0, "65", kind, 1), std::out_of_range);
  }
  try {
    (void)ResolveShardCount(65, nullptr, PlanKind::kUniform, 1);
    FAIL() << "--shards 65 was accepted";
  } catch (const std::out_of_range& error) {
    EXPECT_NE(std::string(error.what()).find("limit of 64"), std::string::npos) << error.what();
  }
  try {
    (void)ResolveShardCount(0, "65", PlanKind::kStratified, 1);
    FAIL() << "EPVF_SHARDS=65 was accepted";
  } catch (const std::out_of_range& error) {
    EXPECT_NE(std::string(error.what()).find("EPVF_SHARDS"), std::string::npos) << error.what();
  }
}

// --- MergeShards: recombination and degradation ------------------------------

FaultRecord MakeRecord(std::uint32_t dyn_index, std::uint8_t bit, Outcome outcome) {
  FaultRecord record;
  record.site.dyn_index = dyn_index;
  record.bit = bit;
  record.outcome = outcome;
  return record;
}

TEST(MergeShards, AdoptsSingleClaimsAndCountsMissing) {
  const std::size_t num_runs = 6;
  std::vector<ShardRecords> shards(2);
  for (ShardRecords& shard : shards) {
    shard.records.resize(num_runs);
    shard.completed.assign(num_runs, 0);
  }
  shards[0].records[0] = MakeRecord(10, 3, Outcome::kSdc);
  shards[0].completed[0] = 1;
  shards[1].records[4] = MakeRecord(40, 1, Outcome::kBenign);
  shards[1].completed[4] = 1;

  const MergedRecords merged = MergeShards(num_runs, shards);
  EXPECT_EQ(merged.merged, 2u);
  EXPECT_EQ(merged.missing, 4u);
  EXPECT_EQ(merged.conflicts, 0u);
  EXPECT_EQ(merged.completed[0], 1);
  EXPECT_EQ(merged.completed[4], 1);
  EXPECT_TRUE(SameRecord(merged.records[0], shards[0].records[0]));
  EXPECT_TRUE(SameRecord(merged.records[4], shards[1].records[4]));
}

TEST(MergeShards, DisagreeingDoubleClaimIsDroppedToIncomplete) {
  const std::size_t num_runs = 3;
  std::vector<ShardRecords> shards(2);
  for (ShardRecords& shard : shards) {
    shard.records.resize(num_runs);
    shard.completed.assign(num_runs, 0);
  }
  shards[0].records[1] = MakeRecord(7, 2, Outcome::kSdc);
  shards[0].completed[1] = 1;
  shards[1].records[1] = MakeRecord(7, 2, Outcome::kBenign);  // disagrees
  shards[1].completed[1] = 1;

  const MergedRecords merged = MergeShards(num_runs, shards);
  EXPECT_EQ(merged.conflicts, 1u);
  EXPECT_EQ(merged.completed[1], 0) << "a conflicted index must be re-executed";
}

TEST(MergeShards, IdenticalDoubleClaimIsHarmless) {
  const std::size_t num_runs = 3;
  std::vector<ShardRecords> shards(2);
  for (ShardRecords& shard : shards) {
    shard.records.resize(num_runs);
    shard.completed.assign(num_runs, 0);
    shard.records[2] = MakeRecord(9, 5, Outcome::kHang);
    shard.completed[2] = 1;
  }
  const MergedRecords merged = MergeShards(num_runs, shards);
  EXPECT_EQ(merged.conflicts, 0u);
  EXPECT_EQ(merged.completed[2], 1);
}

TEST(MergeShards, WrongShapeShardIsSkippedNotTrusted) {
  const std::size_t num_runs = 4;
  std::vector<ShardRecords> shards(1);
  shards[0].records.resize(num_runs - 1);  // stale artifact for other options
  shards[0].completed.assign(num_runs - 1, 1);
  const MergedRecords merged = MergeShards(num_runs, shards);
  EXPECT_EQ(merged.merged, 0u);
  EXPECT_EQ(merged.missing, num_runs);
}

// --- the headline property: sharded == single-process ------------------------

struct ShardIdentityCase {
  const char* app;
  std::uint64_t seed;
  std::uint32_t checkpoints;  // 0 = fast path off
  std::uint32_t jitter_pages;
};

class ShardIdentity : public ::testing::TestWithParam<ShardIdentityCase> {};

TEST_P(ShardIdentity, ShardedRunsRecombineIntoTheSingleProcessStream) {
  const ShardIdentityCase& param = GetParam();
  const apps::App app = apps::BuildApp(param.app, apps::AppConfig{.scale = 0});
  const core::Analysis a = core::Analysis::Run(app.module);

  CampaignOptions options;
  options.num_runs = 60;
  options.seed = param.seed;
  options.num_threads = 2;
  options.injector.checkpoints = param.checkpoints;
  options.injector.jitter_pages = param.jitter_pages;

  const CampaignStats full = RunCampaign(app.module, a.graph(), a.golden(), options);
  ASSERT_EQ(full.records.size(), static_cast<std::size_t>(options.num_runs));
  if (param.checkpoints > 0) {
    EXPECT_GT(full.perf.checkpoints, 0u) << "the _ckpt cases must take the snapshot path";
  }
  const auto num_runs = static_cast<std::uint32_t>(options.num_runs);

  for (const int shard_count : {2, 4, 8}) {
    // Every worker regenerates the uniform plan's one round and executes only
    // its own window, as the worker processes do.
    std::vector<ShardRecords> shards;
    shards.reserve(static_cast<std::size_t>(shard_count));
    for (int shard = 0; shard < shard_count; ++shard) {
      Injector injector(app.module, a.golden(), options.injector);
      CampaignPlanner planner(a.graph(), injector, options.seed, num_runs);
      const std::vector<PlannedInjection> queue = planner.BeginRound();
      ExecuteOptions exec;
      exec.num_threads = options.num_threads;
      exec.shard_index = static_cast<std::uint32_t>(shard);
      exec.shard_count = static_cast<std::uint32_t>(shard_count);
      const ExecuteResult result = ExecutePlannedRuns(injector, queue, exec);
      const ShardRange window = ShardSlice(num_runs, shard_count, shard);
      std::size_t completed = 0;
      for (std::size_t i = 0; i < result.completed.size(); ++i) {
        completed += result.completed[i];
        EXPECT_EQ(result.completed[i] != 0, window.Contains(i))
            << "a shard must complete exactly its own window";
      }
      EXPECT_EQ(completed, window.Size());
      shards.push_back(ShardRecords{result.records, result.completed});
    }

    const MergedRecords merged = MergeShards(num_runs, shards);
    EXPECT_EQ(merged.merged, num_runs);
    EXPECT_EQ(merged.missing, 0u);
    EXPECT_EQ(merged.conflicts, 0u);
    EXPECT_TRUE(SameRecords(merged.records, full.records))
        << param.app << " seed " << param.seed << " at " << shard_count << " shards";

    // Feeding the merged stream back through the executor as resume data is
    // exactly what the supervisor's merge does: every record must validate
    // against the regenerated queue, nothing may re-execute, and the
    // committed statistics must match.
    Injector injector(app.module, a.golden(), options.injector);
    CampaignPlanner planner(a.graph(), injector, options.seed, num_runs);
    const std::vector<PlannedInjection> queue = planner.BeginRound();
    ExecuteOptions exec;
    exec.num_threads = options.num_threads;
    exec.resume_records = merged.records;
    exec.resume_completed = merged.completed;
    const ExecuteResult rebuilt = ExecutePlannedRuns(injector, queue, exec);
    EXPECT_EQ(rebuilt.perf.resumed_records, num_runs)
        << "every merged record must survive plan validation";
    EXPECT_EQ(rebuilt.perf.full_runs + rebuilt.perf.checkpointed_runs, 0u);
    planner.CommitRound(rebuilt.records);
    const CampaignStats stats = planner.Stats();
    EXPECT_TRUE(SameRecords(stats.records, full.records));
    EXPECT_EQ(stats.counts, full.counts);
    for (int o = 0; o < kNumOutcomes; ++o) {
      const auto outcome = static_cast<Outcome>(o);
      EXPECT_DOUBLE_EQ(stats.CI(outcome).rate, full.CI(outcome).rate);
      EXPECT_DOUBLE_EQ(stats.CI(outcome).half_width, full.CI(outcome).half_width);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AppsSeedsAndCheckpoints, ShardIdentity,
    ::testing::Values(ShardIdentityCase{"mm", 7, 0, 2},
                      ShardIdentityCase{"mm", 11, kDefaultCheckpoints, 0},
                      ShardIdentityCase{"nw", 7, 0, 2},
                      ShardIdentityCase{"nw", 123, kDefaultCheckpoints, 0}),
    [](const ::testing::TestParamInfo<ShardIdentityCase>& info) {
      return std::string(info.param.app) + "_seed" + std::to_string(info.param.seed) +
             (info.param.checkpoints == 0 ? "_nockpt" : "_ckpt") +
             (info.param.jitter_pages > 0 ? "_jitter" : "_nojitter");
    });

}  // namespace
}  // namespace epvf::fi
