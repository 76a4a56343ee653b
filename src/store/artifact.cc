#include "store/artifact.h"

#include <algorithm>

namespace epvf::store {

namespace {

// Element counts are length-prefixed; a sanity ceiling keeps a corrupted (but
// CRC-colliding) length from driving a multi-gigabyte allocation before the
// bounds checks run. Real record logs stay far below this.
constexpr std::uint64_t kMaxElements = std::uint64_t{1} << 32;

template <typename T, typename ReadElem>
bool ReadVec(ByteReader& in, std::vector<T>& out, ReadElem&& read_elem) {
  const std::uint64_t n = in.U64();
  if (!in.ok() || n > kMaxElements) return false;
  out.clear();
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(read_elem(in));
    if (!in.ok()) return false;
  }
  return true;
}

void WriteU32Vec(const std::vector<std::uint32_t>& v, ByteWriter& out) {
  out.U64(v.size());
  for (const std::uint32_t x : v) out.U32(x);
}

bool ReadU32Vec(ByteReader& in, std::vector<std::uint32_t>& out) {
  return ReadVec(in, out, [](ByteReader& r) { return r.U32(); });
}

void WriteU8Vec(const std::vector<std::uint8_t>& v, ByteWriter& out) {
  out.U64(v.size());
  out.Bytes(v.data(), v.size());
}

bool ReadU8Vec(ByteReader& in, std::vector<std::uint8_t>& out) {
  return ReadVec(in, out, [](ByteReader& r) { return r.U8(); });
}

}  // namespace

// --- campaign artifact --------------------------------------------------------

std::uint64_t CampaignArtifact::CompletedCount() const {
  std::uint64_t count = 0;
  for (const std::uint8_t c : completed) count += c != 0 ? 1 : 0;
  return count;
}

void WriteCampaignArtifact(const CampaignArtifact& campaign, ArtifactWriter& writer) {
  ByteWriter& out = writer.Section(SectionId::kCampaign);
  out.U64(campaign.seed);
  out.U32(campaign.num_runs);
  out.U32(campaign.jitter_pages);
  out.U8(campaign.burst_length);
  out.U8(campaign.scenario);
  out.U64(campaign.records.size());
  for (const fi::FaultRecord& r : campaign.records) {
    out.U32(r.site.dyn_index);
    out.U8(r.site.slot);
    out.U8(r.site.width);
    out.U32(r.site.node);
    out.U8(r.bit);
    out.U8(static_cast<std::uint8_t>(r.outcome));
  }
  WriteU8Vec(campaign.completed, out);
}

std::optional<CampaignArtifact> ReadCampaignArtifact(const ArtifactReader& reader) {
  auto in = reader.Section(SectionId::kCampaign);
  if (!in) return std::nullopt;
  CampaignArtifact campaign;
  campaign.seed = in->U64();
  campaign.num_runs = in->U32();
  campaign.jitter_pages = in->U32();
  campaign.burst_length = in->U8();
  campaign.scenario = in->U8();
  const bool ok = ReadVec(*in, campaign.records, [](ByteReader& r) {
    fi::FaultRecord record;
    record.site.dyn_index = r.U32();
    record.site.slot = r.U8();
    record.site.width = r.U8();
    record.site.node = r.U32();
    record.bit = r.U8();
    record.outcome = static_cast<fi::Outcome>(r.U8());
    return record;
  });
  if (!ok || !ReadU8Vec(*in, campaign.completed) || !in->Finished()) return std::nullopt;
  if (campaign.records.size() != campaign.num_runs ||
      campaign.completed.size() != campaign.num_runs) {
    return std::nullopt;
  }
  for (const fi::FaultRecord& r : campaign.records) {
    if (static_cast<int>(r.outcome) >= fi::kNumOutcomes) return std::nullopt;
  }
  return campaign;
}

// --- plan artifact ------------------------------------------------------------

PlanArtifact PlanArtifact::Identity(const fi::CampaignOptions& campaign,
                                    const fi::StratifiedOptions& plan, fi::PlanKind kind) {
  PlanArtifact id;
  id.kind = static_cast<std::uint8_t>(kind);
  id.seed = campaign.seed;
  if (kind == fi::PlanKind::kUniform) {
    id.num_runs = static_cast<std::uint32_t>(std::max(0, campaign.num_runs));
  } else {
    id.ci_target = plan.ci_target;
    id.max_runs = plan.max_runs;
    id.round_size = plan.round_size;
    id.model_prior = plan.model_prior;
    id.min_per_stratum = plan.min_per_stratum;
  }
  id.jitter_pages = campaign.injector.jitter_pages;
  id.burst_length = campaign.injector.burst_length;
  id.scenario = static_cast<std::uint8_t>(campaign.injector.scenario);
  return id;
}

bool PlanArtifact::Matches(const fi::CampaignOptions& campaign, const fi::StratifiedOptions& plan,
                           fi::PlanKind plan_kind) const {
  const PlanArtifact id = Identity(campaign, plan, plan_kind);
  return kind == id.kind && seed == id.seed && num_runs == id.num_runs &&
         ci_target == id.ci_target && max_runs == id.max_runs && round_size == id.round_size &&
         model_prior == id.model_prior && min_per_stratum == id.min_per_stratum &&
         jitter_pages == id.jitter_pages && burst_length == id.burst_length &&
         scenario == id.scenario;
}

std::uint64_t PlanArtifact::CompletedCount() const {
  std::uint64_t count = 0;
  for (const std::uint8_t c : completed) count += c != 0 ? 1 : 0;
  return count;
}

void WritePlanArtifact(const PlanArtifact& plan, ArtifactWriter& writer) {
  ByteWriter& out = writer.Section(SectionId::kPlan);
  out.U8(plan.kind);
  out.U64(plan.seed);
  out.U32(plan.num_runs);
  out.F64(plan.ci_target);
  out.U32(plan.max_runs);
  out.U32(plan.round_size);
  out.F64(plan.model_prior);
  out.U32(plan.min_per_stratum);
  out.U32(plan.jitter_pages);
  out.U8(plan.burst_length);
  out.U8(plan.scenario);
  WriteU32Vec(plan.round_sizes, out);
  out.U64(plan.records.size());
  for (const fi::FaultRecord& r : plan.records) {
    out.U32(r.site.dyn_index);
    out.U8(r.site.slot);
    out.U8(r.site.width);
    out.U32(r.site.node);
    out.U8(r.bit);
    out.U8(static_cast<std::uint8_t>(r.outcome));
  }
  WriteU8Vec(plan.completed, out);
}

std::optional<PlanArtifact> ReadPlanArtifact(const ArtifactReader& reader) {
  auto in = reader.Section(SectionId::kPlan);
  if (!in) return std::nullopt;
  PlanArtifact plan;
  plan.kind = in->U8();
  plan.seed = in->U64();
  plan.num_runs = in->U32();
  plan.ci_target = in->F64();
  plan.max_runs = in->U32();
  plan.round_size = in->U32();
  plan.model_prior = in->F64();
  plan.min_per_stratum = in->U32();
  plan.jitter_pages = in->U32();
  plan.burst_length = in->U8();
  plan.scenario = in->U8();
  bool ok = ReadU32Vec(*in, plan.round_sizes);
  ok = ok && ReadVec(*in, plan.records, [](ByteReader& r) {
         fi::FaultRecord record;
         record.site.dyn_index = r.U32();
         record.site.slot = r.U8();
         record.site.width = r.U8();
         record.site.node = r.U32();
         record.bit = r.U8();
         record.outcome = static_cast<fi::Outcome>(r.U8());
         return record;
       });
  if (!ok || !ReadU8Vec(*in, plan.completed) || !in->Finished()) return std::nullopt;
  if (plan.kind > static_cast<std::uint8_t>(fi::PlanKind::kStratified)) return std::nullopt;
  std::uint64_t total = 0;
  for (const std::uint32_t size : plan.round_sizes) total += size;
  if (plan.records.size() != total || plan.completed.size() != total) return std::nullopt;
  for (const fi::FaultRecord& r : plan.records) {
    if (static_cast<int>(r.outcome) >= fi::kNumOutcomes) return std::nullopt;
  }
  return plan;
}

}  // namespace epvf::store
