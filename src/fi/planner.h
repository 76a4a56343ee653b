// Statistical campaign planner: stratified sampling with Neyman allocation
// and per-stratum early stopping (the two-level-model direction of Hari et
// al., PAPERS.md, using the ePVF crash-bit prediction as the auxiliary
// variable).
//
// The fault-site space is partitioned into strata keyed by instruction class,
// the analytical model's crash-bit status, and backward-slice depth. Each
// round allocates a fixed batch across the live strata Neyman-style
// (proportional to stratum bit-weight x estimated outcome standard
// deviation), draws the stratum's runs from its own persistent seeded RNG
// stream, and — after the batch's outcomes commit — retires every stratum
// whose posterior Wilson CI half-width has fallen below the target. The
// posterior blends `model_prior` pseudo-counts at the model-predicted rate
// into the real counts, so strata the model is confidently right about
// (non-ACE = masked, crash-heavy = crash) retire after a handful of
// confirming samples while budget concentrates on the uncertain SDC-prone
// strata; contradicting samples move the posterior and keep the stratum
// alive. Final SDC/crash estimates are stratum-weighted composites over the
// real counts only — pseudo-counts decide where to spend injections, never
// what to report — so they stay unbiased even where the model is wrong.
//
// A uniform campaign (the paper's LLFI-style methodology) is the degenerate
// plan: one stratum over every fault site, one round of a fixed number of
// draws from the campaign seed, and no early stopping. Both kinds share the
// executor, the record log and the replay below, so one resume, shard and
// merge path serves every campaign.
//
// Everything is deterministic given (seed, options, analysis artifacts): the
// round-r queue is a pure function of the committed outcomes of rounds
// 0..r-1, so shard workers regenerate it independently, and a persisted
// record log replays into the identical planner state (store's epvf-plan-v1).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "crash/propagation.h"
#include "ddg/ace.h"
#include "ddg/graph.h"
#include "fi/campaign.h"
#include "fi/injector.h"
#include "support/rng.h"

namespace epvf::obs {
class ProgressReporter;
}

namespace epvf::fi {

/// How a campaign samples its fault sites (`--plan uniform|stratified`).
enum class PlanKind : std::uint8_t {
  kUniform = 0,     ///< fixed run budget, one stratum, no early stopping
  kStratified = 1,  ///< the stratified planner below
};

[[nodiscard]] constexpr std::string_view PlanKindName(PlanKind kind) {
  return kind == PlanKind::kUniform ? "uniform" : "stratified";
}

[[nodiscard]] inline std::optional<PlanKind> ParsePlanKind(std::string_view name) {
  if (name == "uniform") return PlanKind::kUniform;
  if (name == "stratified") return PlanKind::kStratified;
  return std::nullopt;
}

struct StratifiedOptions {
  /// Target 95% CI half-width; a stratum retires when both its SDC and crash
  /// posterior half-widths are at or below this.
  double ci_target = 0.05;
  /// Hard cap on total injections (0 = run until every stratum retires).
  std::uint32_t max_runs = 0;
  /// Injections per round (0 = auto: max(64, 4 x strata)).
  std::uint32_t round_size = 0;
  /// Pseudo-count strength of the analytical prior per stratum.
  double model_prior = 32.0;
  /// Real samples a stratum must accumulate before it may retire — the
  /// "confirming samples" floor that keeps a wrong model from retiring a
  /// stratum on pseudo-counts alone.
  std::uint32_t min_per_stratum = 8;
};

/// One planned injection of a round queue.
struct PlannedInjection {
  FaultSite site;
  std::uint8_t bit = 0;
  std::uint32_t stratum = 0;
  mem::LayoutJitter jitter;
};

/// A rate with its 95% half-width.
struct RateEstimate {
  double rate = 0.0;
  double half_width = 0.0;
};

struct StratumState {
  std::string name;                           ///< e.g. "mem/crash-heavy/deep"
  std::vector<std::uint32_t> sites;           ///< indices into the planner's site table
  std::vector<std::uint64_t> cumulative_bits; ///< per-site prefix widths, for draws
  std::uint64_t total_bits = 0;
  double weight = 0.0;       ///< total_bits / population bits (sums to 1)
  double prior_sdc = 0.0;    ///< model-predicted SDC probability
  double prior_crash = 0.0;  ///< model-predicted crash probability

  std::uint64_t runs = 0;  ///< committed real samples
  std::uint64_t sdc = 0;
  std::uint64_t crashes = 0;
  std::array<std::uint64_t, kNumOutcomes> counts{};
  bool retired = false;
  std::uint32_t retired_round = kNeverRetired;
  /// Persistent draw stream, seeded from (campaign seed, stratum); a uniform
  /// plan's one stratum draws from the campaign seed itself.
  Rng rng;

  static constexpr std::uint32_t kNeverRetired = 0xFFFFFFFFu;
};

class CampaignPlanner {
 public:
  /// `injector` supplies the jitter draw policy and the scenario; the planner
  /// only reads it. Register scenario: strata are built over
  /// EnumerateFaultSites(graph). Memory scenario: over the injector's
  /// attached MemoryScenario sites, keyed by dwell depth (see
  /// BuildMemoryStrata). Empty strata are dropped, so the kept strata are a
  /// disjoint cover of the site space.
  CampaignPlanner(const ddg::Graph& graph, const ddg::AceResult& ace,
                  const crash::CrashBits& crash_bits, const Injector& injector,
                  std::uint64_t seed, StratifiedOptions options);

  /// A uniform plan: one stratum holding every site in enumeration order
  /// (EnumerateFaultSites, or the attached MemoryScenario's sites), weighted
  /// by operand width (memory: WeightBits), drawn from Rng(seed) in a single
  /// round of `num_runs` injections with no retirement. The queue is the
  /// classic LLFI-style campaign: site probability proportional to its bits,
  /// bit uniform within the site, then the per-run jitter draws.
  CampaignPlanner(const ddg::Graph& graph, const Injector& injector, std::uint64_t seed,
                  std::uint32_t num_runs);

  [[nodiscard]] PlanKind kind() const { return kind_; }

  /// True when every stratum retired or max_runs is exhausted (uniform: once
  /// its one round committed).
  [[nodiscard]] bool Done() const;

  /// Deterministic queue for the next round: strata in index order, each
  /// stratum's draws consecutive from its own RNG stream. Throws if a round
  /// is already open or the planner is Done().
  [[nodiscard]] std::vector<PlannedInjection> BeginRound();

  /// Commits the open round's outcomes (in queue order; sites/bits must match
  /// the queue — throws on mismatch) and runs the retirement sweep.
  void CommitRound(std::span<const FaultRecord> records);

  /// Neyman allocation of `budget` across the live strata: proportional to
  /// weight x posterior outcome standard deviation (floored so starved strata
  /// keep making progress), rounded by largest remainder so the parts sum to
  /// `budget` exactly. Retired strata get zero.
  [[nodiscard]] std::vector<std::uint32_t> Allocate(std::uint32_t budget) const;

  [[nodiscard]] std::uint32_t EffectiveRoundSize() const;
  [[nodiscard]] const std::vector<StratumState>& strata() const { return strata_; }
  [[nodiscard]] const std::vector<FaultSite>& sites() const { return sites_; }
  [[nodiscard]] const StratifiedOptions& options() const { return options_; }
  [[nodiscard]] std::uint32_t RoundsCommitted() const {
    return static_cast<std::uint32_t>(round_sizes_.size());
  }
  [[nodiscard]] const std::vector<std::uint32_t>& round_sizes() const { return round_sizes_; }
  /// All committed records, in commit order (concatenated round queues).
  [[nodiscard]] const std::vector<FaultRecord>& records() const { return records_; }
  [[nodiscard]] std::uint64_t TotalRuns() const { return records_.size(); }
  [[nodiscard]] std::size_t LiveStrata() const;
  /// Widest posterior half-width (max over SDC/crash) among live strata;
  /// 0 when everything retired.
  [[nodiscard]] double WidestHalfWidth() const;

  /// Posterior per-stratum estimates (real counts + model pseudo-counts).
  [[nodiscard]] RateEstimate StratumSdc(std::size_t h) const;
  [[nodiscard]] RateEstimate StratumCrash(std::size_t h) const;

  /// Composite stratum-weighted estimates: rate = sum W_h p_h, half-width =
  /// z * sqrt(sum W_h^2 p_h(1-p_h)/trials_h) over the *real* counts — the
  /// model prior steers allocation and stopping but is kept out of the
  /// headline rates, so these are the unbiased classic stratified estimators
  /// (a stratum with zero real samples falls back to its model prediction).
  [[nodiscard]] RateEstimate SdcEstimate() const;
  [[nodiscard]] RateEstimate CrashEstimate() const;

  /// Committed records folded into the ordinary campaign statistics shape.
  [[nodiscard]] CampaignStats Stats() const;

  /// Whether a persisted record can stand in for a planned injection.
  [[nodiscard]] static bool Matches(const PlannedInjection& run, const FaultRecord& record) {
    return record.site.dyn_index == run.site.dyn_index && record.site.slot == run.site.slot &&
           record.bit == run.bit;
  }

 private:
  void RetireSweep(std::uint32_t round);
  /// Memory scenario: strata over the injector's MemoryScenario site table —
  /// consumed sites keyed by log-spaced dwell-depth buckets, plus one stratum
  /// of overwritten (deterministically benign) bytes. Within-stratum draws
  /// are dwell-weighted, mirroring the uniform memory campaign.
  void BuildMemoryStrata(const ddg::AceResult& ace, const crash::CrashBits& crash_bits,
                         std::uint64_t seed);
  [[nodiscard]] RateEstimate Composite(bool crash) const;

  const Injector& injector_;
  PlanKind kind_ = PlanKind::kStratified;
  /// Uniform plans: round_size = max_runs = the run budget.
  StratifiedOptions options_;
  std::vector<FaultSite> sites_;
  std::vector<StratumState> strata_;
  std::vector<std::uint32_t> round_sizes_;
  std::vector<FaultRecord> records_;
  std::vector<PlannedInjection> open_round_;
  bool round_open_ = false;
};

/// Result of replaying a persisted record log into a fresh planner.
struct PlanReplay {
  /// False when the log contradicts the regenerated plan (different seed,
  /// options, or analysis) — the caller must discard the artifact and rebuild
  /// the planner from scratch, mirroring the campaign resume contract.
  bool consistent = false;
  std::uint64_t resumed_runs = 0;
  /// When the log ends mid-round: the regenerated open-round queue plus the
  /// full-length records/completed vectors holding the finished prefix. The
  /// caller executes the holes and commits. Empty when every round committed.
  std::vector<PlannedInjection> pending_queue;
  std::vector<FaultRecord> pending_records;
  std::vector<std::uint8_t> pending_completed;
};

/// Replays `round_sizes`/`records`/`completed` (the epvf-plan-v1 payload)
/// through `planner`, which must be freshly constructed. Fully completed
/// rounds are validated against the regenerated queues and committed; a
/// partial final round is returned as pending work. On any mismatch the
/// replay stops and `consistent` is false — the planner is then in an
/// unspecified replayed state and must be rebuilt.
[[nodiscard]] PlanReplay ReplayPlan(CampaignPlanner& planner,
                                    std::span<const std::uint32_t> round_sizes,
                                    std::span<const FaultRecord> records,
                                    std::span<const std::uint8_t> completed);

/// Options for executing one round queue (or a shard slice of it).
struct ExecuteOptions {
  int num_threads = 0;
  /// Execute only the contiguous ShardSlice window `shard_index` of
  /// `shard_count` (1 = the whole queue).
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  /// Full-length resume vectors for the queue (empty = nothing done yet).
  /// A completed record whose (site, bit) matches its queue entry is adopted
  /// without re-execution; anything else runs again.
  std::span<const FaultRecord> resume_records = {};
  std::span<const std::uint8_t> resume_completed = {};
  /// Batched persistence hook: called from the coordinating thread with the
  /// full-length records/completed vectors after every `progress_interval`
  /// runs, so an interrupted process loses at most one batch.
  std::function<void(const std::vector<FaultRecord>&, const std::vector<std::uint8_t>&)>
      on_progress;
  std::uint64_t progress_interval = 0;
  /// Optional externally owned reporter ticked once per adopted or executed
  /// run, by outcome.
  obs::ProgressReporter* progress = nullptr;
};

struct ExecuteResult {
  std::vector<FaultRecord> records;     ///< full queue length
  std::vector<std::uint8_t> completed;  ///< 1 = executed or adopted from resume
  /// Per-run accounting of this call: adopted (resumed_records), checkpointed,
  /// full and statically masked runs, skipped prefix, injection-loop time,
  /// and the snapshots this call built with their build time.
  CampaignPerf perf;
};

/// Executes the shard window of `queue` on `injector`. The first call with a
/// run to execute on a zero-jitter injector that holds no snapshots builds
/// the injector's InjectorOptions::checkpoints (the `checkpoint-build` span);
/// with snapshots loaded, runs execute in site order for snapshot locality,
/// landing at their queue index. Deterministic per record at every thread
/// count, snapshot count and shard geometry. Records the `inject-loop` span
/// and the campaign.* run metrics of the runs it executes.
[[nodiscard]] ExecuteResult ExecutePlannedRuns(Injector& injector,
                                               std::span<const PlannedInjection> queue,
                                               const ExecuteOptions& options);

}  // namespace epvf::fi
