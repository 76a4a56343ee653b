// Incremental re-analysis property battery.
//
// The invariant under test: whatever ReanalyzeIncremental does — fast path
// or fallback — the recomposed program-level numbers equal a from-scratch
// monolithic analysis of the edited module, bit for bit. Mutations come from
// the deterministic harness in epvf/mutate.h; boundary-preserving kinds
// additionally assert *which* path was taken, so a silently-degraded fast
// path (always falling back) cannot pass.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

#include "apps/app.h"
#include "apps/kernel_util.h"
#include "epvf/analysis.h"
#include "epvf/compose.h"
#include "epvf/mutate.h"
#include "epvf/reexec.h"
#include "epvf/report.h"
#include "epvf/units.h"
#include "ir/builder.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "store/units_store.h"

namespace epvf::core {
namespace {

std::vector<std::uint32_t> AllUnits(const ProgramSlices& p) {
  std::vector<std::uint32_t> units(p.units.size());
  for (std::uint32_t u = 0; u < units.size(); ++u) units[u] = u;
  return units;
}

ProgramSlices ColdState(const ir::Module& module, int jobs) {
  const Analysis a = Analysis::Run(module, AnalysisOptions{.jobs = jobs});
  ProgramSlices p = BuildProgramSlices(a, PartitionModule(module));
  RunUnitWalks(p, module, AllUnits(p), jobs);
  return p;
}

void ExpectMatchesFresh(const ProgramSlices& p, const ir::Module& mutated, int jobs) {
  const Analysis fresh = Analysis::Run(mutated, AnalysisOptions{.jobs = jobs});
  const ReportStats want = StatsFromAnalysis(fresh);
  const ReportStats got = ComposeProgram(p);
  EXPECT_EQ(want.dyn_instructions, got.dyn_instructions);
  EXPECT_EQ(want.num_nodes, got.num_nodes);
  EXPECT_EQ(want.ace_node_count, got.ace_node_count);
  EXPECT_EQ(want.ace_bits, got.ace_bits);
  EXPECT_EQ(want.total_bits, got.total_bits);
  EXPECT_EQ(want.crash_bits, got.crash_bits);
  EXPECT_EQ(want.use_weighted.total, got.use_weighted.total);
  EXPECT_EQ(want.use_weighted.ace, got.use_weighted.ace);
  EXPECT_EQ(want.use_weighted.crash, got.use_weighted.crash);
  EXPECT_EQ(want.mem_total, got.mem_total);
  EXPECT_EQ(want.mem_ace, got.mem_ace);
  EXPECT_EQ(want.mem_crash, got.mem_crash);
  for (std::size_t c = 0; c < kNumRegisterClasses; ++c) {
    EXPECT_EQ(want.structure[c].total_bits, got.structure[c].total_bits) << "class " << c;
    EXPECT_EQ(want.structure[c].ace_bits, got.structure[c].ace_bits) << "class " << c;
    EXPECT_EQ(want.structure[c].crash_bits, got.structure[c].crash_bits) << "class " << c;
  }

  const std::vector<InstrMetrics> want_pi = fresh.PerInstructionMetrics();
  const std::vector<InstrMetrics> got_pi = ComposePerInstruction(p);
  ASSERT_EQ(want_pi.size(), got_pi.size());
  for (std::size_t i = 0; i < want_pi.size(); ++i) {
    EXPECT_EQ(want_pi[i].sid, got_pi[i].sid) << "row " << i;
    EXPECT_EQ(want_pi[i].exec_count, got_pi[i].exec_count) << "row " << i;
    EXPECT_EQ(want_pi[i].ace_bits, got_pi[i].ace_bits) << "row " << i;
    EXPECT_EQ(want_pi[i].crash_bits, got_pi[i].crash_bits) << "row " << i;
    EXPECT_EQ(want_pi[i].total_bits, got_pi[i].total_bits) << "row " << i;
  }
}

/// Every walk-index key's cached dependency mask is the OR of UnitBit over
/// the units of its uses. No-op before the index is built.
void ExpectWalkMasksMatchLists(const ProgramSlices& p) {
  if (!p.walk_index) return;
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

constexpr int kJobs = 2;

TEST(Incremental, IdenticalModuleIsAWarmNoOp) {
  const apps::App app = apps::BuildApp("mm", apps::AppConfig{.scale = 0});
  ProgramSlices p = ColdState(app.module, kJobs);

  // A re-parse of the printed module: semantically and textually identical,
  // but a distinct object — the no-dirty warm swap must adopt it.
  const ir::Module reparsed = ir::ParseModuleOrThrow(ir::PrintModule(app.module));
  const IncrementalOutcome out = ReanalyzeIncremental(p, reparsed, kJobs);
  ExpectWalkMasksMatchLists(p);
  EXPECT_TRUE(out.used_fast_path);
  EXPECT_EQ(out.fallback, FallbackReason::kNone);
  EXPECT_EQ(out.units_replayed, 0u);
  EXPECT_EQ(out.units_rewalked, 0u);
  EXPECT_EQ(p.module, &reparsed);
  ExpectMatchesFresh(p, reparsed, kJobs);
}

TEST(Incremental, RenameBlockFallsBackOnPartitionShape) {
  const apps::App app = apps::BuildApp("hotspot", apps::AppConfig{.scale = 0});
  ProgramSlices p = ColdState(app.module, kJobs);

  ir::Module mutated = app.module;
  const UnitPartition part = PartitionModule(app.module);
  const auto m = MutateAnywhere(mutated, part, MutationKind::kRenameBlock, 7);
  ASSERT_TRUE(m.has_value());

  const IncrementalOutcome out = ReanalyzeIncremental(p, mutated, kJobs);
  EXPECT_FALSE(out.used_fast_path);
  EXPECT_EQ(out.fallback, FallbackReason::kPartitionShape);

  // Caller contract after fallback: rebuild cold; results must still match.
  p = ColdState(mutated, kJobs);
  ExpectMatchesFresh(p, mutated, kJobs);
}

struct MutCase {
  std::string app;
  MutationKind kind;
  std::uint64_t seed;
};

class IncrementalMutation : public ::testing::TestWithParam<MutCase> {};

TEST_P(IncrementalMutation, RecomposedEqualsFreshRun) {
  const auto& [name, kind, seed] = GetParam();
  const apps::App app = apps::BuildApp(name, apps::AppConfig{.scale = 0});
  const UnitPartition part = PartitionModule(app.module);

  ir::Module mutated = app.module;
  const auto m = MutateAnywhere(mutated, part, kind, seed);
  if (!m.has_value()) GTEST_SKIP() << "no applicable site for " << MutationKindName(kind);

  ProgramSlices p = ColdState(app.module, kJobs);
  const IncrementalOutcome out = ReanalyzeIncremental(p, mutated, kJobs);
  if (out.used_fast_path) ExpectWalkMasksMatchLists(p);

  const bool guaranteed = kind == MutationKind::kSwapIndependent ||
                          kind == MutationKind::kRenameRegister;
  if (guaranteed) {
    EXPECT_TRUE(out.used_fast_path)
        << m->description << " in " << m->unit_name << " fell back: "
        << FallbackReasonName(out.fallback);
    EXPECT_EQ(out.units_replayed, 1u);
    EXPECT_EQ(out.dirty_unit, m->unit);
  }
  if (!out.used_fast_path) p = ColdState(mutated, kJobs);
  ExpectMatchesFresh(p, mutated, kJobs);
}

std::vector<MutCase> AllCases() {
  std::vector<MutCase> cases;
  const MutationKind kinds[] = {MutationKind::kSwapIndependent,
                                MutationKind::kRenameRegister,
                                MutationKind::kTweakConstant};
  std::uint64_t seed = 1;
  for (const std::string& app : apps::AppNames()) {
    for (const MutationKind kind : kinds) cases.push_back({app, kind, seed++});
  }
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<MutCase>& info) {
  std::string kind{MutationKindName(info.param.kind)};
  for (char& c : kind) {
    if (c == '-') c = '_';
  }
  return info.param.app + "_" + kind;
}

INSTANTIATE_TEST_SUITE_P(Apps, IncrementalMutation, ::testing::ValuesIn(AllCases()),
                         CaseName);

// --- more units than dependency bits -----------------------------------------

constexpr int kWideLoops = 66;
constexpr std::uint32_t kOverflowBit = 63;

/// One function with `kWideLoops` top-level loops after a straight-line
/// prologue. Every loop updates the same heap buffer through one pointer
/// register defined in the prologue, so that register's walk-index key has
/// uses in every loop unit. The loops are units 1..kWideLoops (unit 0 is the
/// function's top), so units 63 and up share dependency bit 63. Each loop body
/// holds one pair of independent arithmetic instructions for a swap edit.
ir::Module BuildWideModule() {
  using ir::Type;
  ir::Module m;
  ir::IRBuilder b(m);
  apps::KernelBuilder k(b);
  (void)b.CreateFunction("main", Type::Void(), {});
  const ir::ValueRef buf = b.MallocArray(Type::I64(), b.I64(2), "buf");
  b.Store(b.I64(0), b.Gep(buf, b.I64(0)));
  b.Store(b.I64(0), b.Gep(buf, b.I64(1)));
  for (int loop = 0; loop < kWideLoops; ++loop) {
    k.For(b.I64(0), b.I64(2), [&](ir::ValueRef i) {
      const ir::ValueRef slot = b.Gep(buf, i, "slot");
      const ir::ValueRef v = b.Load(slot, "v");
      const ir::ValueRef bumped = b.Add(v, b.I64(loop + 1), "bumped");
      const ir::ValueRef scaled = b.Mul(i, b.I64(3), "scaled");
      b.Store(b.Add(bumped, scaled, "sum"), slot);
    }, "l" + std::to_string(loop));
  }
  b.Output(b.Load(b.Gep(buf, b.I64(0)), "out0"));
  b.Output(b.Load(b.Gep(buf, b.I64(1)), "out1"));
  b.RetVoid();
  return m;
}

/// The walk-index keys with uses in at least two units that share bit 63.
std::vector<UnitRef> OverflowSharedKeys(const ProgramSlices& p) {
  std::vector<UnitRef> keys;
  for (const auto& [key, entry] : p.walk_index->uses) {
    std::uint32_t first = ~std::uint32_t{0};
    for (const WalkUse& use : entry.list) {
      if (use.unit < kOverflowBit) continue;
      if (first == ~std::uint32_t{0}) {
        first = use.unit;
      } else if (use.unit != first) {
        keys.push_back(key);
        break;
      }
    }
  }
  return keys;
}

class ManyUnits : public ::testing::TestWithParam<int> {};

TEST_P(ManyUnits, OverflowUnitsShareBit63ThroughEveryReplay) {
  const int jobs = GetParam();
  const ir::Module module = BuildWideModule();
  const UnitPartition part = PartitionModule(module);
  ASSERT_EQ(part.units.size(), std::size_t{kWideLoops} + 1);

  ProgramSlices p = ColdState(module, jobs);
  ExpectMatchesFresh(p, module, jobs);
  ExpectWalkMasksMatchLists(p);
  const std::vector<UnitRef> shared = OverflowSharedKeys(p);
  ASSERT_FALSE(shared.empty());
  for (const UnitRef key : shared) {
    EXPECT_NE(p.walk_index->uses.at(key).unit_mask & UnitBit(kOverflowBit), 0u);
  }

  // Replay one overflow unit after a real edit: the swap moves the unit's
  // text and slice, so its index entries are rewritten in place.
  const std::uint32_t dirty = kOverflowBit + 1;
  ir::Module mutated = module;
  const auto m = MutateUnit(mutated, part, dirty, MutationKind::kSwapIndependent, 1);
  ASSERT_TRUE(m.has_value());
  const IncrementalOutcome out = ReanalyzeIncremental(p, mutated, jobs);
  ASSERT_TRUE(out.used_fast_path) << FallbackReasonName(out.fallback);
  EXPECT_EQ(out.dirty_unit, dirty);
  EXPECT_GT(out.units_rewalked, 0u) << "the edit must reach UpdateWalkIndexForUnit";
  ExpectWalkMasksMatchLists(p);
  for (const UnitRef key : shared) {
    EXPECT_NE(p.walk_index->uses.at(key).unit_mask & UnitBit(kOverflowBit), 0u);
  }
  ExpectMatchesFresh(p, mutated, jobs);

  // Replays after which a unit reads none of its old keys (its slice is
  // emptied by hand; only the index update is under test). A unit below 63
  // takes its own bit off the shared keys; an overflow unit leaves bit 63,
  // which the other overflow units still set.
  const std::uint32_t low = 5;
  for (const std::uint32_t unit : {low, dirty}) {
    UnitSlice& slice = p.units[unit].slice;
    std::fill(slice.operand_nodes.begin(), slice.operand_nodes.end(), kNullRef);
    UpdateWalkIndexForUnit(p, unit);
    ExpectWalkMasksMatchLists(p);
  }
  for (const UnitRef key : shared) {
    const KeyUses& entry = p.walk_index->uses.at(key);
    for (const WalkUse& use : entry.list) {
      EXPECT_NE(use.unit, low);
      EXPECT_NE(use.unit, dirty);
    }
    EXPECT_EQ(entry.unit_mask & UnitBit(low), 0u);
    EXPECT_NE(entry.unit_mask & UnitBit(kOverflowBit), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Jobs, ManyUnits, ::testing::Values(1, 4),
                         [](const auto& info) { return "jobs" + std::to_string(info.param); });

// --- the disk-backed incremental pipeline ------------------------------------

/// A throwaway cache directory, removed (with contents) on scope exit.
struct TempDir {
  std::string path;

  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "epvf_incr_XXXXXX").string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    char* made = mkdtemp(buf.data());
    EXPECT_NE(made, nullptr);
    path = made == nullptr ? std::string() : std::string(made);
  }
  ~TempDir() {
    if (path.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

store::AnalysisKey KeyFor(const std::string& app, const ir::Module& module) {
  store::AnalysisKey key;
  key.app = app;
  key.config = "scale=0";
  key.module_fingerprint = store::ModuleFingerprint(module);
  key.options.jobs = kJobs;
  return key;
}

/// The tentpole store property: cold populate, mutate one unit, re-analyze —
/// the hit/miss counters must prove exactly the edited unit recomputed, and
/// the recomposed numbers must equal a fresh monolithic run.
TEST(IncrementalStore, SingleEditRecomputesExactlyOneUnit) {
  const apps::App app = apps::BuildApp("lulesh", apps::AppConfig{.scale = 0});
  const UnitPartition part = PartitionModule(app.module);

  TempDir dir;
  store::ArtifactCache cache(dir.path);

  // Cold run: everything is a miss, and the state is persisted.
  const auto cold = store::RunAnalysisIncremental(app.module, AnalysisOptions{.jobs = kJobs},
                                                  KeyFor("lulesh", app.module), cache);
  EXPECT_TRUE(cold.stats.cold_rebuild);
  EXPECT_FALSE(cold.stats.manifest_hit);
  EXPECT_EQ(cold.stats.unit_hits, 0u);
  EXPECT_EQ(cold.stats.unit_misses, cold.stats.units_total);
  ASSERT_EQ(cold.stats.units_total, part.units.size());

  ir::Module mutated = app.module;
  const auto m = MutateAnywhere(mutated, part, MutationKind::kSwapIndependent, 11);
  ASSERT_TRUE(m.has_value());

  const auto warm = store::RunAnalysisIncremental(mutated, AnalysisOptions{.jobs = kJobs},
                                                  KeyFor("lulesh", mutated), cache);
  ExpectWalkMasksMatchLists(warm.slices);
  EXPECT_FALSE(warm.stats.cold_rebuild);
  EXPECT_TRUE(warm.stats.manifest_hit);
  EXPECT_TRUE(warm.stats.outcome.used_fast_path)
      << "fell back: " << FallbackReasonName(warm.stats.outcome.fallback);
  EXPECT_EQ(warm.stats.unit_misses, 1u);
  EXPECT_EQ(warm.stats.unit_hits, warm.stats.units_total - 1);
  EXPECT_EQ(warm.stats.outcome.dirty_unit, m->unit);
  ExpectMatchesFresh(warm.slices, mutated, kJobs);
}

/// An identical module re-analyzed against a populated cache is a pure warm
/// hit: no unit recomputes, no cold rebuild.
TEST(IncrementalStore, UnchangedModuleIsAllHits) {
  const apps::App app = apps::BuildApp("mm", apps::AppConfig{.scale = 0});
  TempDir dir;
  store::ArtifactCache cache(dir.path);
  const AnalysisOptions options{.jobs = kJobs};

  (void)store::RunAnalysisIncremental(app.module, options, KeyFor("mm", app.module), cache);
  const auto warm =
      store::RunAnalysisIncremental(app.module, options, KeyFor("mm", app.module), cache);
  EXPECT_FALSE(warm.stats.cold_rebuild);
  EXPECT_TRUE(warm.stats.manifest_hit);
  EXPECT_TRUE(warm.stats.outcome.used_fast_path);
  EXPECT_EQ(warm.stats.outcome.units_replayed, 0u);
  EXPECT_EQ(warm.stats.unit_hits, warm.stats.units_total);
  EXPECT_EQ(warm.stats.unit_misses, 0u);
  ExpectMatchesFresh(warm.slices, app.module, kJobs);
}

/// A boundary-breaking edit (renamed block → partition shape moved) degrades
/// to a cold rebuild — and the rebuilt state is correct and re-persisted.
TEST(IncrementalStore, ShapeChangeDegradesToColdRebuild) {
  const apps::App app = apps::BuildApp("hotspot", apps::AppConfig{.scale = 0});
  const UnitPartition part = PartitionModule(app.module);
  TempDir dir;
  store::ArtifactCache cache(dir.path);
  const AnalysisOptions options{.jobs = kJobs};

  (void)store::RunAnalysisIncremental(app.module, options, KeyFor("hotspot", app.module),
                                      cache);

  ir::Module mutated = app.module;
  const auto m = MutateAnywhere(mutated, part, MutationKind::kRenameBlock, 3);
  ASSERT_TRUE(m.has_value());

  const auto after = store::RunAnalysisIncremental(mutated, options,
                                                   KeyFor("hotspot", mutated), cache);
  EXPECT_TRUE(after.stats.manifest_hit);  // the manifest itself was served
  EXPECT_TRUE(after.stats.cold_rebuild);
  EXPECT_FALSE(after.stats.outcome.used_fast_path);
  ExpectMatchesFresh(after.slices, mutated, kJobs);

  // The rebuild republished the new state: a third run over the same module
  // is a pure warm hit again.
  const auto warm = store::RunAnalysisIncremental(mutated, options,
                                                  KeyFor("hotspot", mutated), cache);
  EXPECT_FALSE(warm.stats.cold_rebuild);
  EXPECT_TRUE(warm.stats.outcome.used_fast_path);
  EXPECT_EQ(warm.stats.unit_misses, 0u);
}

/// Unit artifacts are content-addressed: editing a unit and editing it back
/// re-serves the original entry (the key returns to its old address).
TEST(IncrementalStore, RevertedEditServesOriginalEntries) {
  const apps::App app = apps::BuildApp("nw", apps::AppConfig{.scale = 0});
  const UnitPartition part = PartitionModule(app.module);
  TempDir dir;
  store::ArtifactCache cache(dir.path);
  const AnalysisOptions options{.jobs = kJobs};

  (void)store::RunAnalysisIncremental(app.module, options, KeyFor("nw", app.module), cache);

  ir::Module mutated = app.module;
  const auto m = MutateAnywhere(mutated, part, MutationKind::kSwapIndependent, 5);
  ASSERT_TRUE(m.has_value());
  (void)store::RunAnalysisIncremental(mutated, options, KeyFor("nw", mutated), cache);

  // Back to the original text: every unit key (including the once-dirty one)
  // already has an entry on disk, so nothing recomputes.
  const auto reverted =
      store::RunAnalysisIncremental(app.module, options, KeyFor("nw", app.module), cache);
  ExpectWalkMasksMatchLists(reverted.slices);
  EXPECT_FALSE(reverted.stats.cold_rebuild);
  EXPECT_TRUE(reverted.stats.outcome.used_fast_path);
  EXPECT_EQ(reverted.stats.unit_misses, 1u)
      << "the fingerprint moved back, so exactly the edited unit replays";
  ExpectMatchesFresh(reverted.slices, app.module, kJobs);
}

/// A corrupted unit entry degrades to a cold rebuild, never a wrong result.
TEST(IncrementalStore, CorruptUnitEntryDegradesToCold) {
  const apps::App app = apps::BuildApp("bfs", apps::AppConfig{.scale = 0});
  TempDir dir;
  store::ArtifactCache cache(dir.path);
  const AnalysisOptions options{.jobs = kJobs};

  (void)store::RunAnalysisIncremental(app.module, options, KeyFor("bfs", app.module), cache);

  // Flip one payload byte in every unit entry (headers stay valid; CRC check
  // fires at Load time and counts a miss).
  std::size_t corrupted = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    const std::string name = entry.path().filename().string();
    if (name.size() < 11 || name.substr(name.size() - 11) != ".unit.epvfa") continue;
    std::string bytes;
    {
      std::ifstream in(entry.path(), std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_GT(bytes.size(), 64u);
    bytes[bytes.size() - 8] ^= 0x01;
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ++corrupted;
  }
  ASSERT_GT(corrupted, 0u);

  const auto after =
      store::RunAnalysisIncremental(app.module, options, KeyFor("bfs", app.module), cache);
  EXPECT_TRUE(after.stats.cold_rebuild);
  ExpectMatchesFresh(after.slices, app.module, kJobs);
}

}  // namespace
}  // namespace epvf::core
