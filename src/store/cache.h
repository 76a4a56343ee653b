// Content-addressed on-disk store of campaign and compositional artifacts.
//
// What persists is what a later run cannot cheaply redo: campaign plans and
// shard slices (the injected runs themselves, so interrupted campaigns
// resume and sharded ones merge) and the per-unit compositional state
// behind `analyze --incremental` (units_store.h). The whole-program analysis
// is not stored: with the activation walk linear, recomputing it is faster
// than loading it. Entries are keyed by a 64-bit content address hashing
// (app name + kernel config + IR module fingerprint + the result-affecting
// analysis options + format version, plus each kind's own identity fields),
// so any change to the program, its inputs, or the format lands on a
// different address and stale entries are simply never read.
//
// Degradation and concurrency: a missing, truncated, version-mismatched, or
// checksum-failing entry logs a warning, counts as a miss, and the caller
// recomputes and rewrites the entry — never a crash, never a wrong result.
// Writes are atomic (temp file + fsync + rename), so any number of
// concurrent --jobs processes can share one cache directory: readers see
// complete files only and racing writers of the same key produce identical
// bytes anyway.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "epvf/analysis.h"
#include "fi/campaign.h"
#include "fi/planner.h"
#include "store/artifact.h"
#include "store/serializer.h"

namespace epvf::store {

/// FNV-1a 64-bit over a byte string — the content-address hash.
[[nodiscard]] std::uint64_t Fnv1a64(std::string_view data);

/// 64-bit fingerprint of a module via its canonical textual printing (the
/// printer is deterministic and covers functions, globals and constants).
[[nodiscard]] std::uint64_t ModuleFingerprint(const ir::Module& module);

/// The identity of one analysis: the prefix of every plan, unit and manifest
/// key, and the serve daemon's resident-analysis key.
struct AnalysisKey {
  std::string app;     ///< benchmark name or IR file path
  std::string config;  ///< kernel config fingerprint, e.g. "scale=2"
  std::uint64_t module_fingerprint = 0;
  /// Only the result-affecting options enter the key (entry, budget, layout);
  /// `jobs` does not — results are bit-identical at every thread count.
  core::AnalysisOptions options;
};

/// A campaign's identity: the analysis it runs against plus the
/// outcome-affecting campaign options (seed, runs, jitter, burst, hang
/// budget, scenario). Thread count and checkpoint spacing are excluded —
/// outcomes are bit-identical at every setting.
struct CampaignKey {
  AnalysisKey analysis;
  fi::CampaignOptions options;
};

/// The identity of an analysis of `module`, loaded from `target` (a
/// benchmark name or an IR file path, apps::LoadTarget) at `scale`: the
/// target, the kernel config and the module fingerprint (which covers file
/// targets whose content changed under the same path). The one recipe behind
/// every key the CLI and the serve daemon build.
[[nodiscard]] AnalysisKey MakeAnalysisKey(const std::string& target, int scale,
                                          const ir::Module& module,
                                          const core::AnalysisOptions& options);

/// The canonical key string (hashed into the content address; also what
/// docs/STORE_FORMAT.md specifies).
[[nodiscard]] std::string CanonicalKey(const AnalysisKey& key);

/// 16-hex-digit content address.
[[nodiscard]] std::string CacheId(const AnalysisKey& key);

/// Hit/miss and byte counters. Session counters are merged into the cache
/// directory's persistent counters (read-modify-write of a tiny text file,
/// atomically replaced) when the cache is destroyed; `epvf cache stats`
/// reports the accumulated values. The merge is advisory — concurrent
/// processes may lose increments to races, artifacts never.
struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
};

/// Short stable name of an artifact kind ("campaign", "plan", "manifest",
/// "unit") — used in the persisted counter file and by
/// `epvf cache stats` for the per-kind breakdown.
[[nodiscard]] std::string_view ArtifactKindName(ArtifactKind kind);

class ArtifactCache {
 public:
  /// `dir` empty = disabled: every Load misses, every Store is a no-op. A
  /// nonempty directory is created on demand.
  explicit ArtifactCache(std::string dir);
  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;
  ~ArtifactCache();

  [[nodiscard]] bool enabled() const { return !dir_.empty(); }
  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// Loads and fully validates entry `id`. std::nullopt counts as a miss:
  /// silently when the entry is absent, with a logged warning when it exists
  /// but is truncated, version-mismatched, or checksum-failing (the caller
  /// recomputes and rewrites it).
  [[nodiscard]] std::optional<ArtifactReader> Load(const std::string& id, ArtifactKind kind);

  /// Serializes `writer` and atomically publishes it as entry `id`.
  bool Store(const std::string& id, const ArtifactWriter& writer);

  /// An entry that passed Load's integrity checks but could not be decoded or
  /// used (stale identity fields, undecodable payload): reclassify the Load
  /// as a miss so the counters reflect what actually got served.
  void DemoteLastHit();

  /// Path of entry `id` (exists or not).
  [[nodiscard]] std::string EntryPath(const std::string& id, ArtifactKind kind) const;

  /// Deletes entry `id` if present (e.g. shard slices after a successful
  /// merge). Returns true when a file was removed.
  bool RemoveEntry(const std::string& id, ArtifactKind kind);

  [[nodiscard]] const CacheCounters& session_counters() const { return session_; }

  struct DirStats {
    std::uint64_t entries = 0;
    std::uint64_t bytes = 0;
    CacheCounters lifetime;  ///< persisted counters + this session
    /// Per-kind breakdown (index = KindIndex(kind)): on-disk entry and byte
    /// counts from the directory scan, hit/miss from the counter file.
    std::array<std::uint64_t, kNumArtifactKinds> kind_entries{};
    std::array<std::uint64_t, kNumArtifactKinds> kind_bytes{};
    std::array<CacheCounters, kNumArtifactKinds> kind_lifetime{};
  };
  /// Scans the directory (artifact entries only) and folds in the persisted
  /// counter file.
  [[nodiscard]] DirStats Stats() const;

  /// Removes every artifact entry and the counter file; returns the number of
  /// entries removed.
  std::size_t Clear();

 private:
  [[nodiscard]] std::string CountersPath() const;
  [[nodiscard]] CacheCounters ReadPersistedCounters() const;

  [[nodiscard]] std::array<CacheCounters, kNumArtifactKinds> ReadPersistedKindCounters() const;

  std::string dir_;
  CacheCounters session_;
  std::array<CacheCounters, kNumArtifactKinds> session_kind_{};
  /// Kind of the most recent Load hit — DemoteLastHit reclassifies it.
  ArtifactKind last_hit_kind_ = ArtifactKind::kCampaign;
};

// --- campaigns ----------------------------------------------------------------

/// A campaign plan's identity and options: the campaign (its analysis and
/// options), the plan kind, and for a stratified plan the outcome-affecting
/// planner options. A uniform plan keys on its run budget (`--runs`); a
/// stratified plan ignores it — the planner decides the total. Entries are
/// named `<id>.plan.epvfa`.
struct PlanKey {
  CampaignKey campaign;
  fi::StratifiedOptions plan;  ///< ignored by uniform plans
  fi::PlanKind kind = fi::PlanKind::kStratified;
};

[[nodiscard]] std::string CanonicalKey(const PlanKey& key);
[[nodiscard]] std::string CacheId(const PlanKey& key);

/// Entry id of one shard's slice of planner round `round`:
/// "<plan id>-round<r>-shard-<i>of<n>". Slices are campaign artifacts over
/// the round queue (num_runs = queue length, only the shard's window
/// completed), so the integrity/degradation paths apply unchanged.
[[nodiscard]] std::string PlanRoundShardId(const std::string& plan_id, std::uint32_t round,
                                           int shard_index, int shard_count);

/// One stratum's row of the final report.
struct StratumRow {
  std::string name;
  double weight = 0.0;
  std::uint64_t runs = 0;
  fi::RateEstimate sdc;
  fi::RateEstimate crash;
  double prior_sdc = 0.0;
  double prior_crash = 0.0;
  bool retired = false;
  std::uint32_t retired_round = 0;
};

/// A finished campaign. The estimates and strata rows describe a stratified
/// plan; a uniform plan reports through `stats` alone.
struct StratifiedResult {
  fi::CampaignStats stats;  ///< committed records in round order
  fi::RateEstimate sdc;     ///< composite stratum-weighted estimates
  fi::RateEstimate crash;
  std::vector<StratumRow> strata;
  std::uint32_t rounds = 0;
  std::size_t strata_retired = 0;
  std::uint64_t resumed_runs = 0;
};

/// Executes one round queue and returns the full-length records/completed
/// vectors (every index complete) with the round's run accounting. The CLI's
/// sharded campaign plugs the worker-process fan-out in here; the default
/// executor runs in process.
using RoundExecutor = std::function<fi::ExecuteResult(
    std::uint32_t round, const std::vector<fi::PlannedInjection>& queue,
    std::span<const fi::FaultRecord> resume_records,
    std::span<const std::uint8_t> resume_completed)>;

/// Orchestrates a campaign of either plan kind: builds the planner over the
/// analysis artifacts, restores committed rounds from a persisted
/// epvf-plan-v1 entry (validated by replay; a mismatch discards it
/// wholesale), then loops BeginRound -> execute -> CommitRound until the plan
/// is done, persisting the plan entry before and after every round (and, in
/// process, every `persist_every` runs mid-round). A complete entry is
/// served without executing anything (perf.cache_hit). `cache` may be null or
/// disabled (no persistence, no resume); `executor` null = in process, with
/// the suffix checkpoints the campaign options ask for; `progress` is ticked
/// per run and, for a stratified plan, fed the round/strata/CI phase line.
[[nodiscard]] StratifiedResult RunPlannedCampaign(const core::Analysis& analysis,
                                                  fi::Injector& injector, const PlanKey& plan,
                                                  ArtifactCache* cache,
                                                  const RoundExecutor& executor = nullptr,
                                                  obs::ProgressReporter* progress = nullptr,
                                                  int persist_every = 64);

/// The stratified planner with its options passed apart from the identity:
/// RunPlannedCampaign over `options` and `plan`, keyed on `key`'s analysis.
[[nodiscard]] inline StratifiedResult RunStratifiedCampaign(
    const core::Analysis& analysis, fi::Injector& injector, const fi::CampaignOptions& options,
    const fi::StratifiedOptions& plan, const PlanKey& key, ArtifactCache* cache,
    const RoundExecutor& executor = nullptr, obs::ProgressReporter* progress = nullptr,
    int persist_every = 64) {
  return RunPlannedCampaign(
      analysis, injector,
      PlanKey{CampaignKey{key.campaign.analysis, options}, plan, fi::PlanKind::kStratified}, cache,
      executor, progress, persist_every);
}

/// Worker side of one sharded round: replays the first `round` committed
/// rounds of the persisted plan entry (written by the supervisor before the
/// fan-out), regenerates the round queue, executes this shard's window —
/// resuming from a previous attempt's slice entry — and persists the slice
/// under PlanRoundShardId every `persist_every` runs; `after_persist(done)`
/// fires after each persisted batch (test hooks inject worker deaths there)
/// and `progress` is ticked per run. Returns the number of runs of the window
/// that are complete. Throws when the plan entry is absent or inconsistent
/// (the supervisor treats the nonzero exit as a dead shard and relaunches).
std::uint64_t RunPlanRoundShard(
    const core::Analysis& analysis, fi::Injector& injector, const PlanKey& plan,
    ArtifactCache& cache, std::uint32_t round, int shard_index, int shard_count,
    int persist_every = 64,
    const std::function<void(std::uint64_t completed)>& after_persist = nullptr,
    obs::ProgressReporter* progress = nullptr);

/// Supervisor side: loads every slice entry of `round`, merges them, and
/// validates each adopted record against the regenerated `queue` (mismatches
/// drop back to incomplete). The caller executes the holes and removes the
/// slices via RemovePlanRoundShards after the round commits.
[[nodiscard]] fi::ExecuteResult LoadPlanRoundShards(ArtifactCache& cache,
                                                    const std::string& plan_id,
                                                    std::uint32_t round, int shard_count,
                                                    std::span<const fi::PlannedInjection> queue);

std::size_t RemovePlanRoundShards(ArtifactCache& cache, const std::string& plan_id,
                                  std::uint32_t round, int shard_count);

}  // namespace epvf::store
