// Fault-injection campaigns.
//
// Reproduces the paper's campaign methodology (section IV-A): thousands of
// independent single-bit injections per benchmark, outcome counts with 95%
// confidence intervals. Site sampling is LLFI-like — uniformly random over
// the executed register-operand sites of the golden trace, then a uniformly
// random bit — and each run may draw fresh layout jitter.
//
// Campaign records keep the injected site (including its DDG node), which is
// what the recall study (section IV-B) and the protection case study
// (section V) consume.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "fi/injector.h"
#include "obs/progress.h"
#include "support/statistics.h"

namespace epvf::fi {

struct FaultRecord {
  FaultSite site;
  std::uint8_t bit = 0;
  Outcome outcome = Outcome::kBenign;
};

struct CampaignOptions {
  int num_runs = 1000;
  std::uint64_t seed = 42;
  InjectorOptions injector;
  /// Worker threads for the injections, scheduled dynamically on the shared
  /// pool (crash runs terminate early, so static chunking load-imbalances —
  /// dynamic work stealing keeps stragglers from serializing the campaign).
  /// Runs are pre-drawn from `seed` and recorded by plan index, so results
  /// are bit-identical for every thread count (the paper's section VI-A
  /// observes that fault injection parallelizes trivially). <= 0 = one
  /// thread per hardware core.
  int num_threads = 0;

  /// Progress-line gating, forwarded to RunCampaign's reporter: -1 = auto
  /// (EPVF_PROGRESS env, else tty), 0 = force off, 1 = force on.
  int progress_enable = -1;
};

/// Fast-path accounting for one campaign (not part of the outcome data; all
/// outcome statistics are bit-identical whether or not the fast path ran).
struct CampaignPerf {
  std::uint64_t checkpoints = 0;           ///< snapshots captured for the fast path
  std::uint64_t checkpointed_runs = 0;     ///< runs resumed from a snapshot
  std::uint64_t full_runs = 0;             ///< runs executed from instruction zero
  std::uint64_t skipped_instructions = 0;  ///< golden-prefix work the fast path avoided
  /// Memory scenario: runs classified benign by delayed error reporting
  /// (byte overwritten before any consuming load) without executing anything.
  std::uint64_t statically_masked_runs = 0;
  double checkpoint_seconds = 0;           ///< extra golden replay + snapshot capture
  double inject_seconds = 0;               ///< wall time of the injection loop

  // Artifact-store accounting (zero unless the campaign ran through
  // store::RunPlannedCampaign or was handed resume data).
  std::uint64_t resumed_records = 0;  ///< runs adopted from a persisted plan or merged slices
  double persist_seconds = 0;         ///< time spent persisting the plan entry
  bool cache_hit = false;             ///< every record served from the artifact store
  double cache_load_seconds = 0;      ///< artifact map + verify + deserialize

  /// Folds another batch of the same campaign (a round, a worker's window)
  /// into this one: sums every counter and duration; cache_hit is kept.
  void Add(const CampaignPerf& other);
};

struct CampaignStats {
  std::array<std::uint64_t, kNumOutcomes> counts{};
  std::vector<FaultRecord> records;
  CampaignPerf perf;

  [[nodiscard]] std::uint64_t Total() const;
  [[nodiscard]] std::uint64_t Count(Outcome outcome) const {
    return counts[static_cast<int>(outcome)];
  }
  [[nodiscard]] double Rate(Outcome outcome) const;
  [[nodiscard]] ProportionCI CI(Outcome outcome) const;

  /// All crash classes combined (the paper's headline crash rate).
  [[nodiscard]] std::uint64_t CrashCount() const;
  [[nodiscard]] double CrashRate() const;
  [[nodiscard]] ProportionCI CrashCI() const;

  /// Crash-class shares *within* crashes — the rows of Table II.
  [[nodiscard]] double CrashShare(Outcome crash_class) const;
};

/// Progress-line options for a campaign: label "campaign", one tally per
/// outcome class, `total` expected runs (0 = open-ended, no ETA).
[[nodiscard]] obs::ProgressReporter::Options CampaignProgressOptions(std::uint64_t total);

/// Runs a uniform campaign against a golden run whose DDG is `graph`: draws
/// the one-round uniform plan (see CampaignPlanner's uniform constructor) and
/// executes it with ExecutePlannedRuns.
[[nodiscard]] CampaignStats RunCampaign(const ir::Module& module, const ddg::Graph& graph,
                                        const vm::RunResult& golden,
                                        const CampaignOptions& options);

}  // namespace epvf::fi
