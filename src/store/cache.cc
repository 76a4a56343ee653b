#include "store/cache.h"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "fi/shard.h"
#include "ir/printer.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/timing.h"
#include "support/atomic_file.h"
#include "support/hash.h"
#include "support/logging.h"
#include "support/stopwatch.h"

namespace epvf::store {

namespace fs = std::filesystem;

std::uint64_t Fnv1a64(std::string_view data) { return support::Fnv1a64(data); }

std::uint64_t ModuleFingerprint(const ir::Module& module) {
  return Fnv1a64(ir::PrintModule(module));
}

namespace {

std::string Hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void AppendLayout(std::ostringstream& out, const mem::MemoryLayout& l) {
  out << "|layout=" << l.page_size << ',' << l.text_base << ',' << l.text_size << ','
      << l.data_base << ',' << l.heap_base << ',' << l.heap_slack_pages << ',' << l.stack_top
      << ',' << l.stack_initial_bytes << ',' << l.stack_limit_bytes << ','
      << l.stack_grow_window;
}

constexpr std::string_view kCampaignSuffix = ".campaign.epvfa";
constexpr std::string_view kPlanSuffix = ".plan.epvfa";
constexpr std::string_view kUnitManifestSuffix = ".units.epvfa";
constexpr std::string_view kUnitSuffix = ".unit.epvfa";

std::string_view SuffixFor(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kPlan: return kPlanSuffix;
    case ArtifactKind::kUnitManifest: return kUnitManifestSuffix;
    case ArtifactKind::kUnit: return kUnitSuffix;
    case ArtifactKind::kCampaign: break;
  }
  return kCampaignSuffix;
}

}  // namespace

std::string_view ArtifactKindName(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kCampaign: return "campaign";
    case ArtifactKind::kPlan: return "plan";
    case ArtifactKind::kUnitManifest: return "manifest";
    case ArtifactKind::kUnit: return "unit";
  }
  return "?";
}

AnalysisKey MakeAnalysisKey(const std::string& target, int scale, const ir::Module& module,
                            const core::AnalysisOptions& options) {
  AnalysisKey key;
  key.app = target;
  key.config = "scale=" + std::to_string(scale);
  key.module_fingerprint = ModuleFingerprint(module);
  key.options = options;
  return key;
}

std::string CanonicalKey(const AnalysisKey& key) {
  std::ostringstream out;
  out << "epvf-analysis|v" << kFormatVersion << "|app=" << key.app << "|cfg=" << key.config
      << "|module=" << Hex16(key.module_fingerprint) << "|entry=" << key.options.entry
      << "|max=" << key.options.max_instructions;
  AppendLayout(out, key.options.layout);
  return std::move(out).str();
}

std::string CanonicalKey(const PlanKey& key) {
  // A uniform plan keys on its run budget; the stratified planner decides its
  // own total, so --runs must not split its address.
  const fi::CampaignOptions& c = key.campaign.options;
  const bool uniform = key.kind == fi::PlanKind::kUniform;
  std::ostringstream out;
  out << CanonicalKey(key.campaign.analysis) << "|campaign|runs=" << (uniform ? c.num_runs : 0)
      << "|seed=" << c.seed << "|jitter=" << c.injector.jitter_pages
      << "|burst=" << static_cast<unsigned>(c.injector.burst_length)
      << "|hang=" << c.injector.hang_factor << "|scenario=" << fi::ScenarioName(c.injector.scenario)
      << "|ientry=" << c.injector.entry;
  AppendLayout(out, c.injector.layout);
  out << "|plan=" << fi::PlanKindName(key.kind);
  if (!uniform) {
    out.precision(17);
    out << "|ci=" << key.plan.ci_target << "|maxruns=" << key.plan.max_runs
        << "|round=" << key.plan.round_size << "|prior=" << key.plan.model_prior
        << "|minper=" << key.plan.min_per_stratum;
  }
  return std::move(out).str();
}

std::string CacheId(const AnalysisKey& key) { return Hex16(Fnv1a64(CanonicalKey(key))); }
std::string CacheId(const PlanKey& key) { return Hex16(Fnv1a64(CanonicalKey(key))); }

std::string PlanRoundShardId(const std::string& plan_id, std::uint32_t round, int shard_index,
                             int shard_count) {
  return plan_id + "-round" + std::to_string(round) + "-shard-" + std::to_string(shard_index) +
         "of" + std::to_string(shard_count);
}

// --- ArtifactCache ------------------------------------------------------------

ArtifactCache::ArtifactCache(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty()) return;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    LogWarn("cache: cannot create " + dir_ + " (" + ec.message() + ") — caching disabled");
    dir_.clear();
  }
}

ArtifactCache::~ArtifactCache() {
  if (!enabled()) return;
  if (session_.hits == 0 && session_.misses == 0 && session_.bytes_written == 0) return;
  // Advisory merge: read-modify-write of the counter file. Concurrent
  // sessions may lose increments to the race; artifacts are never affected.
  CacheCounters total = ReadPersistedCounters();
  total.hits += session_.hits;
  total.misses += session_.misses;
  total.bytes_read += session_.bytes_read;
  total.bytes_written += session_.bytes_written;
  std::array<CacheCounters, kNumArtifactKinds> kinds = ReadPersistedKindCounters();
  for (std::size_t k = 0; k < kNumArtifactKinds; ++k) {
    kinds[k].hits += session_kind_[k].hits;
    kinds[k].misses += session_kind_[k].misses;
    kinds[k].bytes_read += session_kind_[k].bytes_read;
    kinds[k].bytes_written += session_kind_[k].bytes_written;
  }
  std::ostringstream out;
  out << "hits " << total.hits << "\nmisses " << total.misses << "\nbytes_read "
      << total.bytes_read << "\nbytes_written " << total.bytes_written << '\n';
  for (std::size_t k = 0; k < kNumArtifactKinds; ++k) {
    const std::string_view name = ArtifactKindName(kArtifactKinds[k]);
    out << "hits." << name << ' ' << kinds[k].hits << "\nmisses." << name << ' '
        << kinds[k].misses << "\nbytes_read." << name << ' ' << kinds[k].bytes_read
        << "\nbytes_written." << name << ' ' << kinds[k].bytes_written << '\n';
  }
  AtomicWriteFile(CountersPath(), out.str());
}

std::string ArtifactCache::CountersPath() const { return dir_ + "/cache_stats.txt"; }

CacheCounters ArtifactCache::ReadPersistedCounters() const {
  CacheCounters counters;
  const auto text = ReadWholeFile(CountersPath());
  if (!text.has_value()) return counters;
  std::istringstream in(*text);
  std::string name;
  std::uint64_t value = 0;
  while (in >> name >> value) {
    if (name == "hits") counters.hits = value;
    if (name == "misses") counters.misses = value;
    if (name == "bytes_read") counters.bytes_read = value;
    if (name == "bytes_written") counters.bytes_written = value;
  }
  return counters;
}

std::array<CacheCounters, kNumArtifactKinds> ArtifactCache::ReadPersistedKindCounters() const {
  std::array<CacheCounters, kNumArtifactKinds> kinds{};
  const auto text = ReadWholeFile(CountersPath());
  if (!text.has_value()) return kinds;
  std::istringstream in(*text);
  std::string name;
  std::uint64_t value = 0;
  while (in >> name >> value) {
    const auto dot = name.find('.');
    if (dot == std::string::npos) continue;
    const std::string field = name.substr(0, dot);
    const std::string kind_name = name.substr(dot + 1);
    for (std::size_t k = 0; k < kNumArtifactKinds; ++k) {
      if (kind_name != ArtifactKindName(kArtifactKinds[k])) continue;
      if (field == "hits") kinds[k].hits = value;
      if (field == "misses") kinds[k].misses = value;
      if (field == "bytes_read") kinds[k].bytes_read = value;
      if (field == "bytes_written") kinds[k].bytes_written = value;
    }
  }
  return kinds;
}

std::string ArtifactCache::EntryPath(const std::string& id, ArtifactKind kind) const {
  return dir_ + "/" + id + std::string(SuffixFor(kind));
}

std::optional<ArtifactReader> ArtifactCache::Load(const std::string& id, ArtifactKind kind) {
  if (!enabled()) return std::nullopt;
  const obs::TraceSpan span("store", "load-artifact");
  auto reader = ArtifactReader::Open(EntryPath(id, kind), kind);
  if (!reader.has_value()) {
    session_.misses += 1;
    session_kind_[KindIndex(kind)].misses += 1;
    obs::GetCounter("store.cache.misses").Add();
    return std::nullopt;
  }
  session_.hits += 1;
  session_.bytes_read += reader->file_size();
  CacheCounters& by_kind = session_kind_[KindIndex(kind)];
  by_kind.hits += 1;
  by_kind.bytes_read += reader->file_size();
  last_hit_kind_ = kind;
  obs::GetCounter("store.cache.hits").Add();
  obs::GetCounter("store.cache.bytes_read").Add(reader->file_size());
  return reader;
}

bool ArtifactCache::Store(const std::string& id, const ArtifactWriter& writer) {
  if (!enabled()) return false;
  const obs::TraceSpan span("store", "store-artifact");
  const std::string image = writer.Finish();
  if (!AtomicWriteFile(EntryPath(id, writer.kind()), image)) return false;
  session_.bytes_written += image.size();
  session_kind_[KindIndex(writer.kind())].bytes_written += image.size();
  obs::GetCounter("store.cache.bytes_written").Add(image.size());
  return true;
}

void ArtifactCache::DemoteLastHit() {
  if (session_.hits > 0) session_.hits -= 1;
  session_.misses += 1;
  CacheCounters& by_kind = session_kind_[KindIndex(last_hit_kind_)];
  if (by_kind.hits > 0) by_kind.hits -= 1;
  by_kind.misses += 1;
  obs::Counter& hits = obs::GetCounter("store.cache.hits");
  if (hits.Value() > 0) hits.Sub();
  obs::GetCounter("store.cache.misses").Add();
}

bool ArtifactCache::RemoveEntry(const std::string& id, ArtifactKind kind) {
  if (!enabled()) return false;
  std::error_code ec;
  return fs::remove(EntryPath(id, kind), ec);
}

ArtifactCache::DirStats ArtifactCache::Stats() const {
  DirStats stats;
  stats.lifetime = ReadPersistedCounters();
  stats.lifetime.hits += session_.hits;
  stats.lifetime.misses += session_.misses;
  stats.lifetime.bytes_read += session_.bytes_read;
  stats.lifetime.bytes_written += session_.bytes_written;
  stats.kind_lifetime = ReadPersistedKindCounters();
  for (std::size_t k = 0; k < kNumArtifactKinds; ++k) {
    stats.kind_lifetime[k].hits += session_kind_[k].hits;
    stats.kind_lifetime[k].misses += session_kind_[k].misses;
    stats.kind_lifetime[k].bytes_read += session_kind_[k].bytes_read;
    stats.kind_lifetime[k].bytes_written += session_kind_[k].bytes_written;
  }
  if (!enabled()) return stats;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (!name.ends_with(".epvfa")) continue;
    stats.entries += 1;
    const std::uint64_t size = entry.file_size(ec);
    stats.bytes += size;
    for (std::size_t k = 0; k < kNumArtifactKinds; ++k) {
      if (!name.ends_with(SuffixFor(kArtifactKinds[k]))) continue;
      stats.kind_entries[k] += 1;
      stats.kind_bytes[k] += size;
      break;
    }
  }
  return stats;
}

std::size_t ArtifactCache::Clear() {
  if (!enabled()) return 0;
  std::size_t removed = 0;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (!name.ends_with(".epvfa") && name != "cache_stats.txt") continue;
    if (fs::remove(entry.path(), ec) && name.ends_with(".epvfa")) removed += 1;
  }
  return removed;
}

// --- campaigns ----------------------------------------------------------------

namespace {

/// One slice image from the current records + mask under `options`' identity
/// fields (num_runs = the round queue's length).
void PersistSliceEntry(ArtifactCache& cache, const std::string& entry_id,
                       const fi::CampaignOptions& options,
                       const std::vector<fi::FaultRecord>& records,
                       const std::vector<std::uint8_t>& completed) {
  CampaignArtifact artifact;
  artifact.seed = options.seed;
  artifact.num_runs = static_cast<std::uint32_t>(options.num_runs);
  artifact.jitter_pages = options.injector.jitter_pages;
  artifact.burst_length = options.injector.burst_length;
  artifact.scenario = static_cast<std::uint8_t>(options.injector.scenario);
  artifact.records = records;
  artifact.completed = completed;
  ArtifactWriter writer(ArtifactKind::kCampaign);
  WriteCampaignArtifact(artifact, writer);
  cache.Store(entry_id, writer);
}

/// Loads slice entry `entry_id` matching `options`; demotes the cache hit and
/// returns std::nullopt on any mismatch.
std::optional<CampaignArtifact> LoadMatchingSlice(ArtifactCache& cache,
                                                  const std::string& entry_id,
                                                  const fi::CampaignOptions& options) {
  auto reader = cache.Load(entry_id, ArtifactKind::kCampaign);
  if (!reader.has_value()) return std::nullopt;
  std::optional<CampaignArtifact> artifact = ReadCampaignArtifact(*reader);
  if (artifact.has_value() && !artifact->Matches(options)) {
    LogWarn("cache: slice entry " + entry_id + " does not match options — ignoring");
    artifact.reset();
  }
  if (!artifact.has_value()) cache.DemoteLastHit();
  return artifact;
}

/// One epvf-plan-v1 image from the plan identity + record log.
void PersistPlanEntry(ArtifactCache& cache, const std::string& entry_id, const PlanKey& key,
                      const std::vector<std::uint32_t>& round_sizes,
                      const std::vector<fi::FaultRecord>& records,
                      const std::vector<std::uint8_t>& completed) {
  PlanArtifact artifact = PlanArtifact::Identity(key.campaign.options, key.plan, key.kind);
  artifact.round_sizes = round_sizes;
  artifact.records = records;
  artifact.completed = completed;
  ArtifactWriter writer(ArtifactKind::kPlan);
  WritePlanArtifact(artifact, writer);
  cache.Store(entry_id, writer);
}

std::optional<PlanArtifact> LoadMatchingPlan(ArtifactCache& cache, const std::string& entry_id,
                                             const PlanKey& key) {
  auto reader = cache.Load(entry_id, ArtifactKind::kPlan);
  if (!reader.has_value()) return std::nullopt;
  std::optional<PlanArtifact> artifact = ReadPlanArtifact(*reader);
  if (artifact.has_value() && !artifact->Matches(key.campaign.options, key.plan, key.kind)) {
    LogWarn("cache: plan entry " + entry_id + " does not match options — ignoring");
    artifact.reset();
  }
  if (!artifact.has_value()) cache.DemoteLastHit();
  return artifact;
}

/// Builds the planner `key` describes in `slot` — in place, because the
/// planner holds a reference to the injector.
fi::CampaignPlanner& EmplacePlanner(std::optional<fi::CampaignPlanner>& slot,
                                    const core::Analysis& analysis, const fi::Injector& injector,
                                    const PlanKey& key) {
  const fi::CampaignOptions& options = key.campaign.options;
  if (key.kind == fi::PlanKind::kUniform) {
    return slot.emplace(analysis.graph(), injector, options.seed,
                        static_cast<std::uint32_t>(std::max(0, options.num_runs)));
  }
  return slot.emplace(analysis.graph(), analysis.ace(), analysis.crash_bits(), injector,
                      options.seed, key.plan);
}

std::vector<StratumRow> SummarizeStrata(const fi::CampaignPlanner& planner) {
  std::vector<StratumRow> rows;
  rows.reserve(planner.strata().size());
  for (std::size_t h = 0; h < planner.strata().size(); ++h) {
    const fi::StratumState& s = planner.strata()[h];
    StratumRow row;
    row.name = s.name;
    row.weight = s.weight;
    row.runs = s.runs;
    row.sdc = planner.StratumSdc(h);
    row.crash = planner.StratumCrash(h);
    row.prior_sdc = s.prior_sdc;
    row.prior_crash = s.prior_crash;
    row.retired = s.retired;
    row.retired_round = s.retired_round;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string PlannerPhaseLine(const fi::CampaignPlanner& planner) {
  char buf[160];
  if (planner.Done()) {
    std::snprintf(buf, sizeof buf, "plan done: rounds %u, strata %zu/%zu retired",
                  planner.RoundsCommitted(),
                  planner.strata().size() - planner.LiveStrata(), planner.strata().size());
  } else {
    std::snprintf(buf, sizeof buf, "round %u, strata %zu/%zu live, widest CI %.4f",
                  planner.RoundsCommitted() + 1, planner.LiveStrata(),
                  planner.strata().size(), planner.WidestHalfWidth());
  }
  return buf;
}

}  // namespace

StratifiedResult RunPlannedCampaign(const core::Analysis& analysis, fi::Injector& injector,
                                    const PlanKey& key, ArtifactCache* cache,
                                    const RoundExecutor& executor,
                                    obs::ProgressReporter* progress, int persist_every) {
  const obs::TraceSpan span("injection", "campaign");
  const fi::CampaignOptions& options = key.campaign.options;
  const bool persisting = cache != nullptr && cache->enabled();
  const std::string id = persisting ? CacheId(key) : std::string();

  std::optional<fi::CampaignPlanner> planner_slot;
  fi::CampaignPlanner* planner = &EmplacePlanner(planner_slot, analysis, injector, key);

  StratifiedResult result;
  std::vector<fi::PlannedInjection> queue;
  // Full-length resume vectors for a restored partial round (kept alive here;
  // the executor sees them as spans).
  std::vector<fi::FaultRecord> pending_records;
  std::vector<std::uint8_t> pending_completed;
  bool resumed_from_cache = false;

  Stopwatch load_watch;
  if (persisting) {
    if (std::optional<PlanArtifact> prior = LoadMatchingPlan(*cache, id, key)) {
      fi::PlanReplay replay =
          fi::ReplayPlan(*planner, prior->round_sizes, prior->records, prior->completed);
      if (replay.consistent) {
        resumed_from_cache = true;
        result.resumed_runs = replay.resumed_runs;
        queue = std::move(replay.pending_queue);
        pending_records = std::move(replay.pending_records);
        pending_completed = std::move(replay.pending_completed);
      } else {
        LogWarn("cache: plan entry " + id + " fails replay validation — restarting campaign");
        cache->DemoteLastHit();
        planner = &EmplacePlanner(planner_slot, analysis, injector, key);
      }
    }
  }
  const double load_seconds = load_watch.ElapsedSeconds();

  fi::CampaignPerf perf;
  // Persists committed state plus (optionally) the open round's partial
  // progress — also the mid-round on_progress hook of the in-process path.
  const auto persist_plan = [&](const std::vector<fi::FaultRecord>& partial_records,
                                const std::vector<std::uint8_t>& partial_completed) {
    if (!persisting) return;
    double seconds = 0;
    {
      const obs::TimedSection timed("store", "persist-progress", "campaign.persist.us",
                                    &seconds);
      std::vector<std::uint32_t> sizes = planner->round_sizes();
      std::vector<fi::FaultRecord> records = planner->records();
      std::vector<std::uint8_t> completed(records.size(), 1);
      if (!partial_records.empty()) {
        sizes.push_back(static_cast<std::uint32_t>(partial_records.size()));
        records.insert(records.end(), partial_records.begin(), partial_records.end());
        completed.insert(completed.end(), partial_completed.begin(), partial_completed.end());
      }
      PersistPlanEntry(*cache, id, key, sizes, records, completed);
    }
    perf.persist_seconds += seconds;
  };

  const RoundExecutor in_process = [&](std::uint32_t,
                                       const std::vector<fi::PlannedInjection>& round_queue,
                                       std::span<const fi::FaultRecord> resume_records,
                                       std::span<const std::uint8_t> resume_completed) {
    fi::PrepareCheckpoints(injector, options, perf);
    fi::ExecuteOptions exec;
    exec.num_threads = options.num_threads;
    exec.resume_records = resume_records;
    exec.resume_completed = resume_completed;
    exec.progress = progress;
    if (persisting && persist_every > 0) {
      exec.on_progress = persist_plan;
      exec.progress_interval = static_cast<std::uint64_t>(persist_every);
    }
    return fi::ExecutePlannedRuns(injector, round_queue, exec);
  };
  const RoundExecutor& execute = executor ? executor : in_process;

  // A uniform plan's progress line keeps its done/total head; a stratified
  // plan's total is open-ended, so its head is the round/strata/CI state.
  const bool show_phase = progress != nullptr && key.kind == fi::PlanKind::kStratified;
  bool executed_any = false;
  while (true) {
    if (queue.empty()) {
      if (planner->Done()) break;
      queue = planner->BeginRound();
    }
    executed_any = true;
    const std::uint32_t round = planner->RoundsCommitted();
    if (show_phase) progress->SetPhase(PlannerPhaseLine(*planner));
    // Workers regenerate the round-`round` queue by replaying the persisted
    // plan entry, so it must be on disk before any fan-out.
    persist_plan(pending_records, pending_completed);
    const fi::ExecuteResult round_result =
        execute(round, queue, pending_records, pending_completed);
    perf.Add(round_result.perf);
    planner->CommitRound(round_result.records);
    persist_plan({}, {});
    queue.clear();
    pending_records.clear();
    pending_completed.clear();
  }
  if (show_phase) progress->SetPhase(PlannerPhaseLine(*planner));

  result.stats = planner->Stats();
  perf.cache_load_seconds = load_seconds;
  perf.cache_store_seconds = perf.persist_seconds;
  // Runs adopted from the plan entry; slices an executor merged are its own.
  perf.resumed_records = result.resumed_runs;
  perf.cache_hit = resumed_from_cache && !executed_any && planner->TotalRuns() > 0;
  result.stats.perf = perf;
  result.sdc = planner->SdcEstimate();
  result.crash = planner->CrashEstimate();
  result.strata = SummarizeStrata(*planner);
  result.rounds = planner->RoundsCommitted();
  result.strata_retired = planner->strata().size() - planner->LiveStrata();
  return result;
}

std::uint64_t RunPlanRoundShard(const core::Analysis& analysis, fi::Injector& injector,
                                const PlanKey& key, ArtifactCache& cache, std::uint32_t round,
                                int shard_index, int shard_count, int persist_every,
                                const std::function<void(std::uint64_t completed)>& after_persist,
                                obs::ProgressReporter* progress) {
  if (!cache.enabled()) {
    throw std::invalid_argument("RunPlanRoundShard: needs an enabled cache");
  }
  const obs::TraceSpan span("store", "run-plan-shard");
  const std::string id = CacheId(key);

  std::optional<PlanArtifact> prior = LoadMatchingPlan(cache, id, key);
  if (!prior.has_value() || prior->round_sizes.size() < round) {
    throw std::runtime_error("plan entry " + id + " missing or behind round " +
                             std::to_string(round));
  }
  // Replay exactly the first `round` committed rounds; a partial tail in the
  // entry belongs to this very round and is recovered from the slice entries
  // by the supervisor, not here.
  std::size_t prefix = 0;
  for (std::uint32_t r = 0; r < round; ++r) prefix += prior->round_sizes[r];
  for (std::size_t i = 0; i < prefix; ++i) {
    if (prior->completed[i] == 0) {
      throw std::runtime_error("plan entry " + id + " has an incomplete committed round");
    }
  }
  std::optional<fi::CampaignPlanner> planner_slot;
  fi::CampaignPlanner& planner = EmplacePlanner(planner_slot, analysis, injector, key);
  const fi::PlanReplay replay = fi::ReplayPlan(
      planner, std::span(prior->round_sizes).first(round),
      std::span(prior->records).first(prefix), std::span(prior->completed).first(prefix));
  if (!replay.consistent || planner.RoundsCommitted() != round) {
    throw std::runtime_error("plan entry " + id + " fails replay validation");
  }
  if (planner.Done()) return 0;
  const std::vector<fi::PlannedInjection> queue = planner.BeginRound();
  fi::CampaignPerf perf;
  fi::PrepareCheckpoints(injector, key.campaign.options, perf);

  // The slice entry is a campaign artifact over the round queue.
  const std::string entry_id = PlanRoundShardId(id, round, shard_index, shard_count);
  fi::CampaignOptions slice_options = key.campaign.options;
  slice_options.num_runs = static_cast<int>(queue.size());
  const std::optional<CampaignArtifact> slice = LoadMatchingSlice(cache, entry_id, slice_options);

  fi::ExecuteOptions exec;
  exec.num_threads = slice_options.num_threads;
  exec.shard_index = static_cast<std::uint32_t>(shard_index);
  exec.shard_count = static_cast<std::uint32_t>(shard_count);
  exec.progress = progress;
  if (slice.has_value()) {
    exec.resume_records = slice->records;
    exec.resume_completed = slice->completed;
  }
  const auto persist_slice = [&](const std::vector<fi::FaultRecord>& records,
                                 const std::vector<std::uint8_t>& completed) {
    PersistSliceEntry(cache, entry_id, slice_options, records, completed);
    if (after_persist) {
      std::uint64_t done = 0;
      for (const std::uint8_t c : completed) done += c;
      after_persist(done);
    }
  };
  if (persist_every > 0) {
    exec.on_progress = persist_slice;
    exec.progress_interval = static_cast<std::uint64_t>(persist_every);
  }
  const fi::ExecuteResult result = fi::ExecutePlannedRuns(injector, queue, exec);
  persist_slice(result.records, result.completed);
  std::uint64_t done = 0;
  for (const std::uint8_t c : result.completed) done += c;
  return done;
}

fi::ExecuteResult LoadPlanRoundShards(ArtifactCache& cache, const std::string& plan_id,
                                      std::uint32_t round, int shard_count,
                                      std::span<const fi::PlannedInjection> queue) {
  const obs::TraceSpan span("store", "merge-plan-shards");
  std::vector<fi::ShardRecords> shards;
  shards.reserve(static_cast<std::size_t>(shard_count));
  for (int i = 0; i < shard_count; ++i) {
    auto reader =
        cache.Load(PlanRoundShardId(plan_id, round, i, shard_count), ArtifactKind::kCampaign);
    if (!reader.has_value()) continue;
    std::optional<CampaignArtifact> artifact = ReadCampaignArtifact(*reader);
    if (!artifact.has_value() || artifact->num_runs != queue.size()) {
      cache.DemoteLastHit();
      continue;
    }
    shards.push_back(
        fi::ShardRecords{std::move(artifact->records), std::move(artifact->completed)});
  }
  fi::MergedRecords merged = fi::MergeShards(queue.size(), shards);
  fi::ExecuteResult out;
  out.records = std::move(merged.records);
  out.completed = std::move(merged.completed);
  // Belt and braces: an adopted record must match the regenerated queue, or
  // it drops back to incomplete and the supervisor re-executes it.
  std::uint64_t dropped = 0;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    if (out.completed[i] != 0 && !fi::CampaignPlanner::Matches(queue[i], out.records[i])) {
      out.records[i] = fi::FaultRecord{};
      out.completed[i] = 0;
      dropped += 1;
    }
  }
  if (merged.conflicts > 0 || dropped > 0) {
    LogWarn("cache: plan round " + std::to_string(round) + ": " +
            std::to_string(merged.conflicts + dropped) +
            " shard records discarded — re-executing those runs");
  }
  return out;
}

std::size_t RemovePlanRoundShards(ArtifactCache& cache, const std::string& plan_id,
                                  std::uint32_t round, int shard_count) {
  std::size_t removed = 0;
  for (int i = 0; i < shard_count; ++i) {
    if (cache.RemoveEntry(PlanRoundShardId(plan_id, round, i, shard_count),
                          ArtifactKind::kCampaign)) {
      removed += 1;
    }
  }
  return removed;
}

}  // namespace epvf::store
