// Incremental re-analysis property battery.
//
// The invariant under test: whatever ReanalyzeIncremental does — fast path
// or fallback — the recomposed program-level numbers equal a from-scratch
// monolithic analysis of the edited module, bit for bit. Mutations come from
// the deterministic harness in epvf/mutate.h; boundary-preserving kinds
// additionally assert *which* path was taken, so a silently-degraded fast
// path (always falling back) cannot pass.
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
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

/// The loader recomputes every unit's digest against the manifest it loaded:
/// a manifest whose intern table disagrees with the one the unit entries
/// were written under (every constant's value changed, rewritten with a
/// valid checksum) is a miss and a cold rebuild, never a fast path over
/// entries whose intern ids now name other values.
TEST(IncrementalStore, ManifestInternTableMismatchIsAMiss) {
  const apps::App app = apps::BuildApp("lulesh", apps::AppConfig{.scale = 0});
  const store::AnalysisKey key = KeyFor("lulesh", app.module);
  TempDir dir;
  store::ArtifactCache cache(dir.path);
  (void)store::RunAnalysisIncremental(app.module, key.options, key, cache);

  const std::string id = store::CacheId(store::ManifestKey{key});
  std::optional<store::UnitsManifest> manifest;
  {
    const auto reader = cache.Load(id, store::ArtifactKind::kUnitManifest);
    ASSERT_TRUE(reader.has_value());
    manifest = store::ReadUnitsManifest(*reader);
  }
  ASSERT_TRUE(manifest.has_value());
  std::size_t changed = 0;
  for (InternEntry& e : manifest->interns) {
    if (e.is_global != 0) continue;
    e.value ^= 1;
    ++changed;
  }
  ASSERT_GT(changed, 0u);
  store::ArtifactWriter writer(store::ArtifactKind::kUnitManifest);
  store::WriteUnitsManifest(*manifest, writer);
  ASSERT_TRUE(cache.Store(id, writer));

  const auto after = store::RunAnalysisIncremental(app.module, key.options, key, cache);
  EXPECT_TRUE(after.stats.manifest_hit);
  EXPECT_TRUE(after.stats.cold_rebuild);
  ExpectMatchesFresh(after.slices, app.module, kJobs);
}

// --- chained edits through one cache directory --------------------------------

/// `text` with one seeded `kind` mutation applied, the way `epvf mutate`
/// applies it: parse, partition, mutate, print. std::nullopt when no unit
/// admits `kind`.
std::optional<std::string> MutateText(const std::string& text, MutationKind kind,
                                      std::uint64_t seed) {
  ir::Module module = ir::ParseModuleOrThrow(text);
  const UnitPartition partition = PartitionModule(module);
  if (!MutateAnywhere(module, partition, kind, seed).has_value()) return std::nullopt;
  return ir::PrintModule(module);
}

/// Analyzes the IR `text` through the incremental store under one key for
/// every version, as `epvf analyze m.ir --incremental` does for a file edited
/// in place, and checks the recomposition against a fresh run; `inspect`, if
/// given, sees the resulting state while its module is alive.
store::IncrementalStats AnalyzeStep(
    const std::string& text, store::ArtifactCache& cache,
    const std::function<void(const ProgramSlices&)>& inspect = nullptr) {
  const ir::Module module = ir::ParseModuleOrThrow(text);
  store::AnalysisKey key;
  key.app = "m.ir";
  key.config = "scale=1";
  key.module_fingerprint = store::ModuleFingerprint(module);
  key.options.jobs = kJobs;
  const store::IncrementalResult result =
      store::RunAnalysisIncremental(module, key.options, key, cache);
  ExpectMatchesFresh(result.slices, module, kJobs);
  if (inspect) inspect(result.slices);
  return result.stats;
}

/// A cold rebuild renumbers the program-wide intern table when one unit's
/// constants change; a unit entry written under the old numbering must never
/// be served against the new table. lulesh at scale 2, one cache directory:
/// v0 (cold), v2 = v0 with a tweaked constant and a renamed block (a cold
/// rebuild that renumbers the interns), v3 = v2 with a renamed register (the
/// fast path, serving the nine untouched units from the store).
TEST(IncrementalStore, ChainedColdRebuildsNeverServeAStaleUnit) {
  const std::string v0 =
      ir::PrintModule(apps::BuildApp("lulesh", apps::AppConfig{.scale = 2}).module);
  const std::optional<std::string> v1 = MutateText(v0, MutationKind::kTweakConstant, 552);
  ASSERT_TRUE(v1.has_value());
  const std::optional<std::string> v2 = MutateText(*v1, MutationKind::kRenameBlock, 535);
  ASSERT_TRUE(v2.has_value());
  const std::optional<std::string> v3 = MutateText(*v2, MutationKind::kRenameRegister, 518);
  ASSERT_TRUE(v3.has_value());

  TempDir dir;
  store::ArtifactCache cache(dir.path);
  EXPECT_TRUE(AnalyzeStep(v0, cache).cold_rebuild);
  EXPECT_TRUE(AnalyzeStep(*v2, cache).cold_rebuild);
  const store::IncrementalStats last = AnalyzeStep(*v3, cache);
  EXPECT_TRUE(last.outcome.used_fast_path) << FallbackReasonName(last.outcome.fallback);
  EXPECT_EQ(last.unit_misses, 1u);
}

/// Three top-level loops over heap buffers: `produce` stores i*2 into tmp[i]
/// for i < 4, `consume` loads tmp[i] for i < `consumed` and computes i+i, and
/// outputs the loaded value or, with `output_loads` off, the equal sum
/// (leaving the load dead), and `tail` holds an independent arithmetic pair
/// for a swap edit. What `consume` does with the loads decides which of
/// `produce`'s stores are exported and which are ACE, so editing `consume`
/// moves `produce`'s export table or backward results without touching
/// `produce`'s text or its own boundary.
ir::Module BuildProducerConsumerModule(bool output_loads, std::int64_t consumed) {
  using ir::Type;
  ir::Module m;
  ir::IRBuilder b(m);
  apps::KernelBuilder k(b);
  (void)b.CreateFunction("main", Type::Void(), {});
  const ir::ValueRef tmp = b.MallocArray(Type::I64(), b.I64(4), "tmp");
  const ir::ValueRef acc = b.MallocArray(Type::I64(), b.I64(1), "acc");
  b.Store(b.I64(0), b.Gep(acc, b.I64(0)));
  k.For(b.I64(0), b.I64(4), [&](ir::ValueRef i) {
    b.Store(b.Mul(i, b.I64(2), "twice"), b.Gep(tmp, i, "slot"));
  }, "produce");
  k.For(b.I64(0), b.I64(consumed), [&](ir::ValueRef i) {
    const ir::ValueRef v = b.Load(b.Gep(tmp, i, "slot"), "v");
    const ir::ValueRef w = b.Add(i, i, "w");
    b.Output(output_loads ? v : w);
  }, "consume");
  k.For(b.I64(0), b.I64(2), [&](ir::ValueRef i) {
    const ir::ValueRef slot = b.Gep(acc, b.I64(0), "slot");
    const ir::ValueRef a = b.Load(slot, "a");
    const ir::ValueRef bumped = b.Add(a, b.I64(1), "bumped");
    const ir::ValueRef scaled = b.Mul(i, b.I64(3), "scaled");
    b.Store(b.Add(bumped, scaled, "sum"), slot);
  }, "tail");
  b.Output(b.Load(b.Gep(acc, b.I64(0)), "out"));
  b.RetVoid();
  return m;
}

/// A cold rebuild can change a unit's export table or backward results while
/// its own text and boundary stay put; its old entry must not be served
/// afterwards. Each chain: v0, then v1 = an edit of `consume` (a cold
/// rebuild), then v2 = v1 with a swap in `tail` (the fast path, serving
/// `produce` from the store). Besides matching a fresh run, every unit the
/// fast path served must carry the export table a fresh projection gives it.
///   - backward: v1 stops outputting the loads, so `consume`'s replay
///     succeeds but its spills into `produce` move (`produce`'s stores stop
///     being ACE);
///   - exports: v1 loads all four slots instead of two, so `produce` exports
///     two more stores and `consume` names them by slots v0's entry lacks.
TEST(IncrementalStore, ColdRebuildsThatMoveAUnitsInputsNeverServeItStale) {
  struct Chain {
    const char* name;
    ir::Module v0;
    ir::Module v1;
  };
  Chain chains[] = {
      {"backward", BuildProducerConsumerModule(true, 4), BuildProducerConsumerModule(false, 4)},
      {"exports", BuildProducerConsumerModule(false, 2), BuildProducerConsumerModule(false, 4)},
  };
  for (Chain& chain : chains) {
    SCOPED_TRACE(chain.name);
    ir::Module v2 = chain.v1;
    const UnitPartition part = PartitionModule(v2);
    std::optional<Mutation> swap;
    for (std::uint32_t u = 0; u < part.units.size() && !swap.has_value(); ++u) {
      if (part.units[u].name.find("tail") == std::string::npos) continue;
      swap = MutateUnit(v2, part, u, MutationKind::kSwapIndependent, 1);
    }
    ASSERT_TRUE(swap.has_value());

    TempDir dir;
    store::ArtifactCache cache(dir.path);
    EXPECT_TRUE(AnalyzeStep(ir::PrintModule(chain.v0), cache).cold_rebuild);
    EXPECT_TRUE(AnalyzeStep(ir::PrintModule(chain.v1), cache).cold_rebuild);
    const auto exports_match_a_fresh_projection = [&](const ProgramSlices& p) {
      const ProgramSlices fresh = ColdState(*p.module, kJobs);
      for (std::uint32_t u = 0; u < p.units.size(); ++u) {
        if (u == swap->unit) continue;
        EXPECT_TRUE(p.units[u].slice.exports == fresh.units[u].slice.exports)
            << p.partition.units[u].name << ": " << p.units[u].slice.exports.size()
            << " exports, a fresh projection has " << fresh.units[u].slice.exports.size();
      }
    };
    const store::IncrementalStats last =
        AnalyzeStep(ir::PrintModule(v2), cache, exports_match_a_fresh_projection);
    EXPECT_TRUE(last.outcome.used_fast_path) << FallbackReasonName(last.outcome.fallback);
  }
}

/// The chained battery: on each app at scale 1, two 4-step chains share one
/// cache directory, each applying the four mutation kinds from the unedited
/// module (the second in the first's order rotated by two, so every kind
/// lands early in one chain and late in the other), and every step must
/// recompose to a fresh run. Restarting each chain forces a cold rebuild
/// over entries earlier versions wrote; the steps within a chain mix fast
/// paths and fallbacks. tweak-constant edits f64 literals, which lulesh and
/// hotspot have at scale >= 1 and the integer-only nw never has; every other
/// kind always applies.
class ChainedEdits : public ::testing::TestWithParam<std::string> {};

TEST_P(ChainedEdits, EveryStepMatchesAFreshRun) {
  constexpr std::array<MutationKind, 4> kKinds = {
      MutationKind::kSwapIndependent, MutationKind::kRenameRegister,
      MutationKind::kRenameBlock, MutationKind::kTweakConstant};
  const std::string base =
      ir::PrintModule(apps::BuildApp(GetParam(), apps::AppConfig{.scale = 1}).module);
  TempDir dir;
  store::ArtifactCache cache(dir.path);
  (void)AnalyzeStep(base, cache);

  std::uint64_t seed = 1;
  std::size_t fast_paths = 0;
  for (const std::size_t rotation : {0, 2}) {
    std::string text = base;
    for (std::size_t step = 0; step < kKinds.size(); ++step) {
      const MutationKind kind = kKinds[(rotation + step) % kKinds.size()];
      const std::optional<std::string> next = MutateText(text, kind, seed++);
      if (!next.has_value()) {
        EXPECT_TRUE(kind == MutationKind::kTweakConstant && GetParam() == "nw")
            << "no site for " << MutationKindName(kind);
        continue;
      }
      text = *next;
      SCOPED_TRACE("rotation " + std::to_string(rotation) + " step " + std::to_string(step) +
                   ": " + std::string(MutationKindName(kind)));
      fast_paths += AnalyzeStep(text, cache).outcome.used_fast_path ? 1 : 0;
    }
  }
  EXPECT_GT(fast_paths, 0u) << "every step fell back";
}

INSTANTIATE_TEST_SUITE_P(Apps, ChainedEdits, ::testing::Values("lulesh", "hotspot", "nw"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace epvf::core
