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

std::vector<std::uint32_t> AllUnits(const ProgramSlices& p) {
  std::vector<std::uint32_t> units(p.units.size());
  for (std::uint32_t u = 0; u < units.size(); ++u) units[u] = u;
  return units;
}

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

/// Every walk-index key's cached dependency mask is the OR of UnitBit over
/// the units of its uses.
void ExpectWalkMasksMatchLists(const ProgramSlices& p) {
  ASSERT_NE(p.walk_index, nullptr);
  std::size_t wrong = 0;
  for (const auto& [key, entry] : p.walk_index->uses) {
    std::uint64_t want = 0;
    for (const WalkUse& use : entry.list) want |= UnitBit(use.unit);
    if (entry.unit_mask != want && wrong++ == 0) {
      ADD_FAILURE() << "key " << key << ": mask " << entry.unit_mask << ", uses OR to " << want;
    }
  }
  EXPECT_EQ(wrong, 0u) << "of " << p.walk_index->uses.size() << " keys";
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
  RunUnitWalks(p, app.module, AllUnits(p), jobs);
  ExpectWalkMasksMatchLists(p);
  ExpectStatsEqual(mono, ComposeProgram(p));

  // Per-instruction metrics: same sids, same counters, same order.
  const std::vector<InstrMetrics> mono_pi = a.PerInstructionMetrics();
  const std::vector<InstrMetrics> comp_pi = ComposePerInstruction(p);
  ASSERT_EQ(mono_pi.size(), comp_pi.size());
  for (std::size_t i = 0; i < mono_pi.size(); ++i) {
    EXPECT_EQ(mono_pi[i].sid, comp_pi[i].sid) << "row " << i;
    EXPECT_EQ(mono_pi[i].exec_count, comp_pi[i].exec_count) << "row " << i;
    EXPECT_EQ(mono_pi[i].ace_bits, comp_pi[i].ace_bits) << "row " << i;
    EXPECT_EQ(mono_pi[i].crash_bits, comp_pi[i].crash_bits) << "row " << i;
    EXPECT_EQ(mono_pi[i].total_bits, comp_pi[i].total_bits) << "row " << i;
  }
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
  RunUnitWalks(p, app.module, AllUnits(p), 1);
  for (std::uint32_t u = 0; u < p.units.size(); ++u) RunUnitBackward(p, u);
  ExpectStatsEqual(mono, ComposeProgram(p));
}

// The walk dependency masks must at least cover the unit itself, and every
// unit's data mask must be reproducible across runs (they gate incremental
// invalidation, so nondeterminism there would mean flaky warm results).
TEST(ComposeDiff, WalkDependencyMasksAreStable) {
  const apps::App app = apps::BuildApp("bfs", apps::AppConfig{.scale = 0});
  const Analysis a = Analysis::Run(app.module);
  ProgramSlices p1 = BuildProgramSlices(a, PartitionModule(app.module));
  ProgramSlices p2 = BuildProgramSlices(a, PartitionModule(app.module));
  RunUnitWalks(p1, app.module, AllUnits(p1), 1);
  RunUnitWalks(p2, app.module, AllUnits(p2), 4);
  ASSERT_EQ(p1.units.size(), p2.units.size());
  for (std::uint32_t u = 0; u < p1.units.size(); ++u) {
    EXPECT_NE(p1.units[u].walk.data_deps & UnitBit(u), 0u) << "unit " << u;
    EXPECT_EQ(p1.units[u].walk.data_deps, p2.units[u].walk.data_deps) << "unit " << u;
    EXPECT_EQ(p1.units[u].walk.oracle_deps, p2.units[u].walk.oracle_deps) << "unit " << u;
  }
}

}  // namespace
}  // namespace epvf::core
