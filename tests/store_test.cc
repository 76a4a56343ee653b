// Artifact-store tests: primitive and artifact round-trips, corruption
// fallback (bit flips, truncation, version/magic/kind mismatch — never a
// crash, always identical recomputed results), the content-addressed cache
// end to end, campaign resume from a partially persisted plan entry, and the
// restore contract of an Analysis assembled from its stages.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "apps/app.h"
#include "epvf/analysis.h"
#include "fi/campaign.h"
#include "fi/planner.h"
#include "store/artifact.h"
#include "store/cache.h"
#include "store/format.h"
#include "store/serializer.h"
#include "store/units_store.h"
#include "support/atomic_file.h"

namespace epvf::store {
namespace {

namespace fs = std::filesystem;

/// A throwaway directory, removed (with contents) on scope exit.
struct TempDir {
  std::string path;

  TempDir() {
    std::string tmpl = (fs::temp_directory_path() / "epvf_store_XXXXXX").string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    char* made = mkdtemp(buf.data());
    EXPECT_NE(made, nullptr);
    path = made == nullptr ? std::string() : std::string(made);
  }
  ~TempDir() {
    if (path.empty()) return;
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

std::vector<std::uint8_t> AsBytes(const std::string& image) {
  return {image.begin(), image.end()};
}

core::Analysis Analyze(const ir::Module& module) {
  core::AnalysisOptions options;
  options.jobs = 2;
  return core::Analysis::Run(module, options);
}

// --- primitives ---------------------------------------------------------------

TEST(Serializer, PrimitiveRoundTrip) {
  ByteWriter out;
  out.U8(0xAB);
  out.U32(0xDEADBEEF);
  out.U64(0x0123456789ABCDEFull);
  out.F64(-1234.5678);
  out.Str("hello, artifact");

  const std::string& buf = out.bytes();
  ByteReader in({reinterpret_cast<const std::uint8_t*>(buf.data()), buf.size()});
  EXPECT_EQ(in.U8(), 0xAB);
  EXPECT_EQ(in.U32(), 0xDEADBEEFu);
  EXPECT_EQ(in.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(in.F64(), -1234.5678);
  EXPECT_EQ(in.Str(), "hello, artifact");
  EXPECT_TRUE(in.Finished());
}

TEST(Serializer, ReaderLatchesOnOverrun) {
  const std::uint8_t bytes[2] = {1, 2};
  ByteReader in({bytes, 2});
  (void)in.U32();  // needs 4 bytes, only 2 present
  EXPECT_FALSE(in.ok());
  EXPECT_EQ(in.U64(), 0u);  // stays failed
  EXPECT_FALSE(in.Finished());
}

TEST(Serializer, ReaderRejectsOversizedString) {
  ByteWriter out;
  out.U64(1'000'000);  // claims a megabyte that is not there
  const std::string& buf = out.bytes();
  ByteReader in({reinterpret_cast<const std::uint8_t*>(buf.data()), buf.size()});
  EXPECT_EQ(in.Str(), "");
  EXPECT_FALSE(in.ok());
}

TEST(Format, Crc32KnownAnswer) {
  // The standard CRC-32 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Support, AtomicWriteFileReplacesAndReadsBack) {
  TempDir dir;
  const std::string path = dir.path + "/file.txt";
  EXPECT_TRUE(AtomicWriteFile(path, "first"));
  EXPECT_TRUE(AtomicWriteFile(path, "second version"));
  const auto text = ReadWholeFile(path);
  ASSERT_TRUE(text.has_value());
  EXPECT_EQ(*text, "second version");
  // No temp droppings left behind.
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    (void)entry;
    files += 1;
  }
  EXPECT_EQ(files, 1u);
}

TEST(Support, AtomicWriteFileFailsGracefullyOnMissingDirectory) {
  EXPECT_FALSE(AtomicWriteFile("/nonexistent-epvf-dir/file.txt", "data"));
  EXPECT_FALSE(ReadWholeFile("/nonexistent-epvf-dir/file.txt").has_value());
}

// --- artifact container -------------------------------------------------------

TEST(Artifact, SectionRoundTrip) {
  ArtifactWriter writer(ArtifactKind::kUnit);
  writer.Section(SectionId::kUnitSlice).U64(42);
  writer.Section(SectionId::kUnitBackward).Str("backward payload");
  writer.Section(SectionId::kUnitSlice).U64(43);  // appends to the same section

  auto reader = ArtifactReader::Parse(AsBytes(writer.Finish()), ArtifactKind::kUnit, "test");
  ASSERT_TRUE(reader.has_value());
  auto slice = reader->Section(SectionId::kUnitSlice);
  ASSERT_TRUE(slice.has_value());
  EXPECT_EQ(slice->U64(), 42u);
  EXPECT_EQ(slice->U64(), 43u);
  EXPECT_TRUE(slice->Finished());
  auto backward = reader->Section(SectionId::kUnitBackward);
  ASSERT_TRUE(backward.has_value());
  EXPECT_EQ(backward->Str(), "backward payload");
  EXPECT_FALSE(reader->Section(SectionId::kUnitSums).has_value());
}

TEST(Artifact, RejectsWrongMagicVersionAndKind) {
  ArtifactWriter writer(ArtifactKind::kPlan);
  writer.Section(SectionId::kPlan).U64(7);
  const std::string image = writer.Finish();

  auto magic = AsBytes(image);
  magic[0] ^= 0xFF;
  EXPECT_FALSE(ArtifactReader::Parse(std::move(magic), ArtifactKind::kPlan, "t").has_value());

  auto version = AsBytes(image);
  version[4] += 1;  // future format version
  EXPECT_FALSE(ArtifactReader::Parse(std::move(version), ArtifactKind::kPlan, "t").has_value());

  // Right image, wrong expected kind.
  EXPECT_FALSE(
      ArtifactReader::Parse(AsBytes(image), ArtifactKind::kCampaign, "t").has_value());
}

TEST(Artifact, RejectsEveryTruncation) {
  ArtifactWriter writer(ArtifactKind::kPlan);
  writer.Section(SectionId::kPlan).Str("some payload bytes");
  const std::string image = writer.Finish();
  for (std::size_t keep = 0; keep < image.size(); ++keep) {
    auto cut = AsBytes(image.substr(0, keep));
    EXPECT_FALSE(ArtifactReader::Parse(std::move(cut), ArtifactKind::kPlan, "t").has_value())
        << "truncation to " << keep << " bytes parsed";
  }
}

TEST(Artifact, DetectsPayloadBitFlips) {
  ArtifactWriter writer(ArtifactKind::kCampaign);
  writer.Section(SectionId::kCampaign).Str("payload under checksum");
  const std::string image = writer.Finish();
  // Flip one bit in every payload byte: the per-section CRC must catch each.
  const std::size_t payload_start = kHeaderBytes + kSectionEntryBytes;
  for (std::size_t at = payload_start; at < image.size(); ++at) {
    auto bytes = AsBytes(image);
    bytes[at] ^= 0x10;
    EXPECT_FALSE(ArtifactReader::Parse(std::move(bytes), ArtifactKind::kCampaign, "t").has_value())
        << "bit flip at " << at << " went undetected";
  }
}

// --- restored analyses --------------------------------------------------------

TEST(AnalysisArtifact, RestoredAnalysisThrowsOnLiveAccessorsButServesMetrics) {
  // The restore contract perfbench's per-layer timing relies on: an Analysis
  // assembled from a live run's stages serves every derived metric without
  // the live interpreter, and the two accessors that need it fail loudly
  // (std::logic_error) instead of returning stale state.
  const apps::App app = apps::BuildApp("mm", apps::AppConfig{.scale = 0});
  const core::Analysis a = Analyze(app.module);
  const core::Analysis restored = core::Analysis::Restore(
      app.module, a.options(), a.golden(), a.graph(), a.ace(), a.crash_bits(), std::nullopt);
  EXPECT_THROW((void)restored.memory(), std::logic_error);
  EXPECT_THROW((void)restored.crash_model(), std::logic_error);
  EXPECT_EQ(restored.golden().instructions_executed, a.golden().instructions_executed);
  EXPECT_EQ(restored.graph().NumNodes(), a.graph().NumNodes());
  EXPECT_EQ(restored.Pvf(), a.Pvf());
  EXPECT_EQ(restored.Epvf(), a.Epvf());
  // No sums handed over: the activation-walk pass runs lazily on the parts.
  EXPECT_EQ(restored.CrashRateEstimate(), a.CrashRateEstimate());
  EXPECT_EQ(restored.MemoryPvf(), a.MemoryPvf());
  EXPECT_EQ(restored.MemoryEpvf(), a.MemoryEpvf());
  EXPECT_NO_THROW((void)restored.PerInstructionMetrics());

  // Sums handed over are served as given, without a walk.
  const core::Analysis::UseWeightedBits uw = a.use_weighted_bits();
  const core::Analysis with_sums = core::Analysis::Restore(
      app.module, a.options(), a.golden(), a.graph(), a.ace(), a.crash_bits(), uw);
  EXPECT_EQ(with_sums.EpvfUseWeighted(), a.EpvfUseWeighted());
  EXPECT_EQ(with_sums.timings().rate_estimate_seconds, 0.0);
}

TEST(CampaignArtifact, RoundTripAndIdentity) {
  CampaignArtifact campaign;
  campaign.seed = 99;
  campaign.num_runs = 3;
  campaign.jitter_pages = 2;
  campaign.burst_length = 1;
  campaign.records.resize(3);
  campaign.records[1].site.dyn_index = 17;
  campaign.records[1].site.slot = 1;
  campaign.records[1].site.width = 32;
  campaign.records[1].site.node = 5;
  campaign.records[1].bit = 12;
  campaign.records[1].outcome = fi::Outcome::kSdc;
  campaign.completed = {1, 1, 0};

  ArtifactWriter writer(ArtifactKind::kCampaign);
  WriteCampaignArtifact(campaign, writer);
  auto reader = ArtifactReader::Parse(AsBytes(writer.Finish()), ArtifactKind::kCampaign, "t");
  ASSERT_TRUE(reader.has_value());
  auto loaded = ReadCampaignArtifact(*reader);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->seed, 99u);
  EXPECT_EQ(loaded->num_runs, 3u);
  EXPECT_EQ(loaded->records[1].site.dyn_index, 17u);
  EXPECT_EQ(loaded->records[1].bit, 12);
  EXPECT_EQ(loaded->records[1].outcome, fi::Outcome::kSdc);
  EXPECT_EQ(loaded->CompletedCount(), 2u);

  fi::CampaignOptions options;
  options.num_runs = 3;
  options.seed = 99;
  options.injector.jitter_pages = 2;
  options.injector.burst_length = 1;
  EXPECT_TRUE(loaded->Matches(options));
  options.seed = 100;
  EXPECT_FALSE(loaded->Matches(options));
}

// --- content-addressed cache --------------------------------------------------

TEST(Cache, KeySeparatesIdentities) {
  const apps::App app = apps::BuildApp("mm", apps::AppConfig{.scale = 0});
  AnalysisKey key;
  key.app = "mm";
  key.config = "scale=0";
  key.module_fingerprint = ModuleFingerprint(app.module);
  const std::string base = CacheId(key);

  AnalysisKey other = key;
  other.config = "scale=1";
  EXPECT_NE(CacheId(other), base);
  other = key;
  other.module_fingerprint ^= 1;
  EXPECT_NE(CacheId(other), base);
  other = key;
  other.options.max_instructions += 1;
  EXPECT_NE(CacheId(other), base);

  fi::CampaignOptions campaign;
  const auto plan_id = [&](fi::PlanKind kind) {
    return CacheId(PlanKey{CampaignKey{key, campaign}, {}, kind});
  };
  const std::string cbase = plan_id(fi::PlanKind::kUniform);
  EXPECT_NE(cbase, base);
  EXPECT_NE(plan_id(fi::PlanKind::kStratified), cbase);
  campaign.seed += 1;
  EXPECT_NE(plan_id(fi::PlanKind::kUniform), cbase);
}

/// A small uniform mm campaign with its plan identity: the fixture of the
/// plan-entry cache tests. Not copyable (the analysis and injector point
/// into the module).
struct PlanFixture {
  apps::App app = apps::BuildApp("mm", apps::AppConfig{.scale = 0});
  core::Analysis analysis = Analyze(app.module);
  fi::CampaignOptions options = [] {
    fi::CampaignOptions o;
    o.num_runs = 6;
    o.seed = 5;
    o.num_threads = 2;
    return o;
  }();
  PlanKey key{CampaignKey{AnalysisKey{"mm", "scale=0", ModuleFingerprint(app.module),
                                      analysis.options()},
                          options},
              {},
              fi::PlanKind::kUniform};
  fi::Injector injector{app.module, analysis.golden(), options.injector};

  StratifiedResult Run(ArtifactCache& cache) {
    return RunPlannedCampaign(analysis, injector, key, &cache);
  }
};

void ExpectSameRecords(const fi::CampaignStats& got, const fi::CampaignStats& want,
                       const std::string& what) {
  EXPECT_EQ(got.counts, want.counts) << what;
  ASSERT_EQ(got.records.size(), want.records.size()) << what;
  for (std::size_t i = 0; i < want.records.size(); ++i) {
    EXPECT_EQ(got.records[i].site.dyn_index, want.records[i].site.dyn_index) << what;
    EXPECT_EQ(got.records[i].bit, want.records[i].bit) << what;
    EXPECT_EQ(got.records[i].outcome, want.records[i].outcome) << what;
  }
}

TEST(Cache, CorruptedEntryFallsBackToIdenticalRecompute) {
  TempDir dir;
  PlanFixture f;
  ArtifactCache cache(dir.path);
  const StratifiedResult reference = f.Run(cache);
  ASSERT_FALSE(reference.stats.perf.cache_hit);
  const std::string path = cache.EntryPath(CacheId(f.key), ArtifactKind::kPlan);
  const auto pristine = ReadWholeFile(path);
  ASSERT_TRUE(pristine.has_value());

  // Bit-flip a sample of offsets across header, table and payload: every
  // corruption must degrade to a recompute with identical records, and the
  // miss rewrites a valid entry (verified by the follow-up hit).
  for (std::size_t at = 0; at < pristine->size(); at += 1 + pristine->size() / 16) {
    std::string mangled = *pristine;
    mangled[at] = static_cast<char>(mangled[at] ^ 0x08);
    ASSERT_TRUE(AtomicWriteFile(path, mangled));
    const std::string where = "offset " + std::to_string(at);
    const StratifiedResult recomputed = f.Run(cache);
    EXPECT_FALSE(recomputed.stats.perf.cache_hit) << where;
    ExpectSameRecords(recomputed.stats, reference.stats, where);
    const StratifiedResult rewarmed = f.Run(cache);
    EXPECT_TRUE(rewarmed.stats.perf.cache_hit) << where;
    ExpectSameRecords(rewarmed.stats, reference.stats, where);
  }

  // Every truncation, including an empty file.
  for (std::size_t keep = 0; keep < pristine->size(); ++keep) {
    ASSERT_TRUE(AtomicWriteFile(path, pristine->substr(0, keep)));
    const std::string where = "kept " + std::to_string(keep);
    const StratifiedResult recomputed = f.Run(cache);
    EXPECT_FALSE(recomputed.stats.perf.cache_hit) << where;
    ExpectSameRecords(recomputed.stats, reference.stats, where);
  }
  // The last recompute rewrote the pristine entry, byte for byte.
  const auto rewritten = ReadWholeFile(path);
  ASSERT_TRUE(rewritten.has_value());
  EXPECT_EQ(*rewritten, *pristine);
}

TEST(Cache, CampaignFullHitAndResume) {
  TempDir dir;
  const apps::App app = apps::BuildApp("lud", apps::AppConfig{.scale = 0});
  const core::Analysis a = Analyze(app.module);
  fi::CampaignOptions options;
  options.num_runs = 40;
  options.seed = 7;
  options.num_threads = 2;

  // Uncached reference.
  const fi::CampaignStats reference = fi::RunCampaign(app.module, a.graph(), a.golden(), options);

  AnalysisKey akey{"lud", "scale=0", ModuleFingerprint(app.module), core::AnalysisOptions{}};
  const PlanKey key{CampaignKey{akey, options}, {}, fi::PlanKind::kUniform};
  ArtifactCache cache(dir.path);
  fi::Injector injector(app.module, a.golden(), options.injector);
  const auto run = [&](int persist_every) {
    return RunPlannedCampaign(a, injector, key, &cache, nullptr, nullptr, persist_every).stats;
  };

  const fi::CampaignStats cold = run(/*persist_every=*/8);
  EXPECT_FALSE(cold.perf.cache_hit);
  EXPECT_EQ(cold.counts, reference.counts);
  ASSERT_EQ(cold.records.size(), reference.records.size());
  for (std::size_t i = 0; i < reference.records.size(); ++i) {
    EXPECT_EQ(cold.records[i].site.dyn_index, reference.records[i].site.dyn_index);
    EXPECT_EQ(cold.records[i].bit, reference.records[i].bit);
    EXPECT_EQ(cold.records[i].outcome, reference.records[i].outcome);
  }

  // Second run: everything served from the plan entry.
  const fi::CampaignStats warm = run(64);
  EXPECT_TRUE(warm.perf.cache_hit);
  EXPECT_EQ(warm.perf.resumed_records, reference.records.size());
  EXPECT_EQ(warm.counts, reference.counts);

  // Interrupted-campaign simulation: persist the uniform plan's one round
  // with only the even indices complete and resume — the odd ones
  // re-execute, outcomes stay bit-identical.
  PlanArtifact partial = PlanArtifact::Identity(options, {}, fi::PlanKind::kUniform);
  partial.round_sizes = {static_cast<std::uint32_t>(options.num_runs)};
  partial.records = reference.records;
  partial.completed.assign(partial.records.size(), 0);
  for (std::size_t i = 0; i < partial.records.size(); i += 2) partial.completed[i] = 1;
  for (std::size_t i = 1; i < partial.records.size(); i += 2) {
    partial.records[i] = fi::FaultRecord{};  // incomplete slots carry no data
  }
  ArtifactWriter writer(ArtifactKind::kPlan);
  WritePlanArtifact(partial, writer);
  ASSERT_TRUE(cache.Store(CacheId(key), writer));

  const fi::CampaignStats resumed = run(64);
  EXPECT_FALSE(resumed.perf.cache_hit);
  EXPECT_EQ(resumed.perf.resumed_records, (reference.records.size() + 1) / 2);
  EXPECT_EQ(resumed.counts, reference.counts);
  for (std::size_t i = 0; i < reference.records.size(); ++i) {
    EXPECT_EQ(resumed.records[i].outcome, reference.records[i].outcome) << "index " << i;
  }

  // A tampered completed record (site disagrees with the regenerated queue)
  // discards the resume data wholesale — results still identical.
  partial.records[0].site.dyn_index += 1;
  ArtifactWriter tampered_writer(ArtifactKind::kPlan);
  WritePlanArtifact(partial, tampered_writer);
  ASSERT_TRUE(cache.Store(CacheId(key), tampered_writer));
  const fi::CampaignStats retried = run(64);
  EXPECT_EQ(retried.perf.resumed_records, 0u);
  EXPECT_EQ(retried.counts, reference.counts);
}

TEST(Cache, DisabledCacheComputesWithoutTouchingDisk) {
  PlanFixture f;
  const fi::CampaignStats reference =
      fi::RunCampaign(f.app.module, f.analysis.graph(), f.analysis.golden(), f.options);
  ArtifactCache cache("");
  EXPECT_FALSE(cache.enabled());
  const StratifiedResult result = f.Run(cache);
  EXPECT_FALSE(result.stats.perf.cache_hit);
  ExpectSameRecords(result.stats, reference, "disabled cache");
  EXPECT_FALSE(fs::exists(cache.EntryPath(CacheId(f.key), ArtifactKind::kPlan)));
  // The incremental pipeline degrades the same way: a cold rebuild.
  const IncrementalResult incremental =
      RunAnalysisIncremental(f.app.module, f.analysis.options(), f.key.campaign.analysis, cache);
  EXPECT_TRUE(incremental.stats.cold_rebuild);
  EXPECT_FALSE(incremental.stats.manifest_hit);
  const CacheCounters& counters = cache.session_counters();
  EXPECT_EQ(counters.hits + counters.misses, 0u);
  EXPECT_EQ(counters.bytes_read + counters.bytes_written, 0u);
}

TEST(Cache, PersistsCountersAcrossSessions) {
  TempDir dir;
  PlanFixture f;
  {
    ArtifactCache cache(dir.path);
    ASSERT_FALSE(f.Run(cache).stats.perf.cache_hit);  // miss + store
    ASSERT_TRUE(f.Run(cache).stats.perf.cache_hit);   // hit
  }
  ArtifactCache next_session(dir.path);
  const ArtifactCache::DirStats stats = next_session.Stats();
  EXPECT_EQ(stats.lifetime.hits, 1u);
  EXPECT_EQ(stats.lifetime.misses, 1u);
  EXPECT_GT(stats.lifetime.bytes_read, 0u);
  EXPECT_GT(stats.lifetime.bytes_written, 0u);
}

TEST(Cache, PerKindStatsBreakdown) {
  TempDir dir;
  const apps::App app = apps::BuildApp("mm", apps::AppConfig{.scale = 0});
  core::AnalysisOptions options;
  options.jobs = 2;
  AnalysisKey key{"mm", "scale=0", ModuleFingerprint(app.module), options};

  {
    ArtifactCache cache(dir.path);
    // One uniform campaign cold (plan miss) + warm (plan hit), one
    // compositional cold run (manifest + unit misses) + warm run (manifest +
    // unit hits).
    const core::Analysis analysis = Analyze(app.module);
    fi::CampaignOptions campaign;
    campaign.num_runs = 12;
    campaign.num_threads = 2;
    const PlanKey plan{CampaignKey{key, campaign}, {}, fi::PlanKind::kUniform};
    fi::Injector injector(app.module, analysis.golden(), campaign.injector);
    ASSERT_FALSE(RunPlannedCampaign(analysis, injector, plan, &cache).stats.perf.cache_hit);
    ASSERT_TRUE(RunPlannedCampaign(analysis, injector, plan, &cache).stats.perf.cache_hit);
    const auto cold = RunAnalysisIncremental(app.module, options, key, cache);
    ASSERT_TRUE(cold.stats.cold_rebuild);
    const auto warm = RunAnalysisIncremental(app.module, options, key, cache);
    ASSERT_FALSE(warm.stats.cold_rebuild);
    const std::uint32_t num_units = warm.stats.units_total;
    ASSERT_GT(num_units, 0u);

    const ArtifactCache::DirStats stats = cache.Stats();
    // Directory scan: 1 plan + 1 manifest + num_units unit entries, and no
    // shard slices.
    EXPECT_EQ(stats.kind_entries[KindIndex(ArtifactKind::kPlan)], 1u);
    EXPECT_EQ(stats.kind_entries[KindIndex(ArtifactKind::kUnitManifest)], 1u);
    EXPECT_EQ(stats.kind_entries[KindIndex(ArtifactKind::kUnit)], num_units);
    EXPECT_EQ(stats.kind_entries[KindIndex(ArtifactKind::kCampaign)], 0u);
    EXPECT_EQ(stats.entries, 2u + num_units);
    EXPECT_GT(stats.kind_bytes[KindIndex(ArtifactKind::kUnit)], 0u);

    // Session counters, by kind.
    EXPECT_EQ(stats.kind_lifetime[KindIndex(ArtifactKind::kPlan)].hits, 1u);
    EXPECT_EQ(stats.kind_lifetime[KindIndex(ArtifactKind::kPlan)].misses, 1u);
    EXPECT_EQ(stats.kind_lifetime[KindIndex(ArtifactKind::kUnitManifest)].hits, 1u);
    EXPECT_EQ(stats.kind_lifetime[KindIndex(ArtifactKind::kUnitManifest)].misses, 1u);
    EXPECT_EQ(stats.kind_lifetime[KindIndex(ArtifactKind::kUnit)].hits, num_units);
  }

  // The per-kind counters persist (dotted lines in the counter file) and are
  // folded into the next session's stats.
  ArtifactCache next_session(dir.path);
  const ArtifactCache::DirStats stats = next_session.Stats();
  EXPECT_EQ(stats.kind_lifetime[KindIndex(ArtifactKind::kPlan)].hits, 1u);
  EXPECT_EQ(stats.kind_lifetime[KindIndex(ArtifactKind::kPlan)].misses, 1u);
  EXPECT_EQ(stats.kind_lifetime[KindIndex(ArtifactKind::kUnitManifest)].misses, 1u);
  EXPECT_EQ(stats.kind_lifetime[KindIndex(ArtifactKind::kUnit)].hits,
            stats.kind_entries[KindIndex(ArtifactKind::kUnit)]);
  // And the aggregate lifetime still matches the plain (undotted) lines.
  EXPECT_EQ(stats.lifetime.hits, 2u + stats.kind_lifetime[KindIndex(ArtifactKind::kUnit)].hits);

  EXPECT_EQ(ArtifactKindName(ArtifactKind::kCampaign), "campaign");
  EXPECT_EQ(ArtifactKindName(ArtifactKind::kPlan), "plan");
  EXPECT_EQ(ArtifactKindName(ArtifactKind::kUnitManifest), "manifest");
  EXPECT_EQ(ArtifactKindName(ArtifactKind::kUnit), "unit");
}

TEST(UnitsStore, KeyedByUnitIdentityNotModule) {
  const apps::App app = apps::BuildApp("mm", apps::AppConfig{.scale = 0});
  core::AnalysisOptions options;
  options.jobs = 2;
  AnalysisKey a{"mm", "scale=0", ModuleFingerprint(app.module), options};
  AnalysisKey b = a;
  b.module_fingerprint = a.module_fingerprint + 1;

  // Unit keys ignore the module fingerprint — that's what lets entries
  // survive edits elsewhere in the module.
  const UnitKey ua{a, "main/top", 0x1111, 0x2222};
  const UnitKey ub{b, "main/top", 0x1111, 0x2222};
  EXPECT_EQ(CacheId(ua), CacheId(ub));
  EXPECT_EQ(CacheId(ManifestKey{a}), CacheId(ManifestKey{b}));

  // ...but every component of the unit identity moves the address.
  EXPECT_NE(CacheId(UnitKey{a, "main/loop", 0x1111, 0x2222}), CacheId(ua));
  EXPECT_NE(CacheId(UnitKey{a, "main/top", 0x1112, 0x2222}), CacheId(ua));
  EXPECT_NE(CacheId(UnitKey{a, "main/top", 0x1111, 0x2223}), CacheId(ua));
  AnalysisKey other_app = a;
  other_app.app = "nw";
  EXPECT_NE(CacheId(UnitKey{other_app, "main/top", 0x1111, 0x2222}), CacheId(ua));
  EXPECT_NE(CacheId(ManifestKey{other_app}), CacheId(ManifestKey{a}));
}

}  // namespace
}  // namespace epvf::store
