// (De)serialization of the campaign artifacts.
//
// One plan artifact carries a campaign's record log in round order (uniform
// campaigns are one-round plans), and a campaign artifact carries one shard
// worker's slice of a round plus its completion mask, so interrupted
// campaigns and relaunched workers resume by skipping completed runs. The
// analysis a campaign runs against is never persisted: recomputing it is
// cheaper than loading it.
//
// Readers return std::nullopt on any structural inconsistency — section
// missing, short/overlong payload, cross-array size mismatch, out-of-range
// enum — so a decoding failure (like a CRC failure one layer below)
// degrades to recomputation, never a crash.
#pragma once

#include <optional>

#include "fi/campaign.h"
#include "fi/planner.h"
#include "store/serializer.h"

namespace epvf::store {

/// One shard worker's slice of a round queue: identity fields (verified
/// against the resuming worker's options, with num_runs = the queue length),
/// per-queue-index records, and the completion mask.
struct CampaignArtifact {
  std::uint64_t seed = 0;
  std::uint32_t num_runs = 0;
  std::uint32_t jitter_pages = 0;
  std::uint8_t burst_length = 1;
  std::uint8_t scenario = 0;  ///< fi::Scenario (0 = register, 1 = memory)
  std::vector<fi::FaultRecord> records;
  std::vector<std::uint8_t> completed;  ///< 1 = records[i] is final

  [[nodiscard]] bool Matches(const fi::CampaignOptions& options) const {
    return num_runs == static_cast<std::uint32_t>(options.num_runs) && seed == options.seed &&
           jitter_pages == options.injector.jitter_pages &&
           burst_length == options.injector.burst_length &&
           scenario == static_cast<std::uint8_t>(options.injector.scenario);
  }
  [[nodiscard]] std::uint64_t CompletedCount() const;
};

void WriteCampaignArtifact(const CampaignArtifact& campaign, ArtifactWriter& writer);
[[nodiscard]] std::optional<CampaignArtifact> ReadCampaignArtifact(const ArtifactReader& reader);

/// A persisted campaign plan (epvf-plan-v1): the plan identity fields plus
/// the committed/in-flight record log in round order. The records are
/// validated by *replaying* them through a freshly built planner (see
/// fi::ReplayPlan) — round sizes and per-record (site, bit) must match the
/// regenerated plan or the artifact is discarded wholesale.
struct PlanArtifact {
  std::uint8_t kind = static_cast<std::uint8_t>(fi::PlanKind::kStratified);
  std::uint64_t seed = 0;
  std::uint32_t num_runs = 0;  ///< uniform plans: the run budget (0 for stratified)
  // Stratified planner options (all zero for uniform plans).
  double ci_target = 0.0;
  std::uint32_t max_runs = 0;
  std::uint32_t round_size = 0;
  double model_prior = 0.0;
  std::uint32_t min_per_stratum = 0;
  std::uint32_t jitter_pages = 0;
  std::uint8_t burst_length = 1;
  std::uint8_t scenario = 0;  ///< fi::Scenario (0 = register, 1 = memory)
  std::vector<std::uint32_t> round_sizes;
  std::vector<fi::FaultRecord> records;  ///< sum(round_sizes) entries, round order
  std::vector<std::uint8_t> completed;   ///< 1 = records[i] is final

  /// The identity fields of a `kind` plan over `campaign` (no records): a
  /// uniform plan keeps its run budget, a stratified plan its planner options.
  [[nodiscard]] static PlanArtifact Identity(const fi::CampaignOptions& campaign,
                                             const fi::StratifiedOptions& plan,
                                             fi::PlanKind kind);
  [[nodiscard]] bool Matches(const fi::CampaignOptions& campaign,
                             const fi::StratifiedOptions& plan, fi::PlanKind kind) const;
  [[nodiscard]] std::uint64_t CompletedCount() const;
};

void WritePlanArtifact(const PlanArtifact& plan, ArtifactWriter& writer);
[[nodiscard]] std::optional<PlanArtifact> ReadPlanArtifact(const ArtifactReader& reader);

}  // namespace epvf::store
