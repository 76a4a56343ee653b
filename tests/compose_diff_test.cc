// Differential battery: the compositional pipeline (BuildProgramSlices +
// RunUnitWalks + ComposeProgram) against the monolithic one, on every app in
// src/apps/, at --jobs 1 and --jobs 4. Every headline number must be
// bit-identical — the compositional path is a re-expression of the same
// math, not an approximation of it.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/app.h"
#include "epvf/analysis.h"
#include "epvf/compose.h"
#include "epvf/report.h"
#include "epvf/units.h"

namespace epvf::core {
namespace {

void ExpectStatsEqual(const ReportStats& mono, const ReportStats& comp) {
  EXPECT_EQ(mono.dyn_instructions, comp.dyn_instructions);
  EXPECT_EQ(mono.num_nodes, comp.num_nodes);
  EXPECT_EQ(mono.ace_node_count, comp.ace_node_count);
  EXPECT_EQ(mono.ace_bits, comp.ace_bits);
  EXPECT_EQ(mono.total_bits, comp.total_bits);
  EXPECT_EQ(mono.crash_bits, comp.crash_bits);
  EXPECT_EQ(mono.use_weighted.total, comp.use_weighted.total);
  EXPECT_EQ(mono.use_weighted.ace, comp.use_weighted.ace);
  EXPECT_EQ(mono.use_weighted.crash, comp.use_weighted.crash);
  EXPECT_EQ(mono.mem_total, comp.mem_total);
  EXPECT_EQ(mono.mem_ace, comp.mem_ace);
  EXPECT_EQ(mono.mem_crash, comp.mem_crash);
  for (std::size_t c = 0; c < kNumRegisterClasses; ++c) {
    EXPECT_EQ(mono.structure[c].cls, comp.structure[c].cls) << "class " << c;
    EXPECT_EQ(mono.structure[c].total_bits, comp.structure[c].total_bits) << "class " << c;
    EXPECT_EQ(mono.structure[c].ace_bits, comp.structure[c].ace_bits) << "class " << c;
    EXPECT_EQ(mono.structure[c].crash_bits, comp.structure[c].crash_bits) << "class " << c;
  }
  // The derived ratios follow from the integer fields, but assert them too:
  // they are exactly what the report renders.
  EXPECT_EQ(mono.Pvf(), comp.Pvf());
  EXPECT_EQ(mono.Epvf(), comp.Epvf());
  EXPECT_EQ(mono.CrashRateEstimate(), comp.CrashRateEstimate());
  EXPECT_EQ(mono.MemoryPvf(), comp.MemoryPvf());
  EXPECT_EQ(mono.MemoryEpvf(), comp.MemoryEpvf());
}

struct Case {
  std::string app;
  int jobs;
};

class ComposeDiff : public ::testing::TestWithParam<Case> {};

TEST_P(ComposeDiff, MatchesMonolithicBitForBit) {
  const auto& [name, jobs] = GetParam();
  const apps::App app = apps::BuildApp(name, apps::AppConfig{.scale = 0});
  const Analysis a = Analysis::Run(app.module, AnalysisOptions{.jobs = jobs});
  const ReportStats mono = StatsFromAnalysis(a);

  ProgramSlices p = BuildProgramSlices(a, PartitionModule(app.module));
  RunUnitWalks(p, app.module, jobs);
  ExpectStatsEqual(mono, ComposeProgram(p));
}

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (const std::string& app : apps::AppNames()) {
    cases.push_back({app, 1});
    cases.push_back({app, 4});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllApps, ComposeDiff, ::testing::ValuesIn(AllCases()),
                         [](const auto& info) {
                           return info.param.app + "_jobs" + std::to_string(info.param.jobs);
                         });

// The resweep path (RunUnitBackward) runs inside BuildProgramSlices for every
// unit as verification-by-construction; this case re-runs it explicitly after
// the walks and re-composes, proving the backward results are a fixed point
// of the per-unit sweeps (not just a one-shot projection).
TEST(ComposeDiff, ResweepIsAFixedPoint) {
  const apps::App app = apps::BuildApp("mm", apps::AppConfig{.scale = 0});
  const Analysis a = Analysis::Run(app.module);
  const ReportStats mono = StatsFromAnalysis(a);

  ProgramSlices p = BuildProgramSlices(a, PartitionModule(app.module));
  RunUnitWalks(p, app.module, 1);
  for (std::uint32_t u = 0; u < p.units.size(); ++u) RunUnitBackward(p, u);
  ExpectStatsEqual(mono, ComposeProgram(p));
}

// The per-unit split of the walk sums is what `epvf delta` and the stored
// manifest carry; the battery above checks only their program total. Each
// unit's sums must not depend on the thread count either, and at least one
// unit must carry walk work, so the comparison is not vacuous.
TEST(ComposeDiff, PerUnitWalkSumsMatchAcrossJobs) {
  const apps::App app = apps::BuildApp("bfs", apps::AppConfig{.scale = 0});
  const Analysis a = Analysis::Run(app.module);
  ProgramSlices p1 = BuildProgramSlices(a, PartitionModule(app.module));
  ProgramSlices p2 = BuildProgramSlices(a, PartitionModule(app.module));
  RunUnitWalks(p1, app.module, 1);
  RunUnitWalks(p2, app.module, 4);
  ASSERT_EQ(p1.units.size(), p2.units.size());
  std::uint64_t crash = 0;
  for (std::uint32_t u = 0; u < p1.units.size(); ++u) {
    EXPECT_EQ(p1.units[u].walk.total, p2.units[u].walk.total) << "unit " << u;
    EXPECT_EQ(p1.units[u].walk.ace, p2.units[u].walk.ace) << "unit " << u;
    EXPECT_EQ(p1.units[u].walk.crash, p2.units[u].walk.crash) << "unit " << u;
    crash += p1.units[u].walk.crash;
  }
  EXPECT_GT(crash, 0u);
}

}  // namespace
}  // namespace epvf::core
