#include "store/artifact.h"

#include <algorithm>
#include <limits>

namespace epvf::store {

namespace {

// Element counts are length-prefixed; a sanity ceiling keeps a corrupted (but
// CRC-colliding) length from driving a multi-gigabyte allocation before the
// bounds checks run. Real graphs stay far below this.
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

void WriteU64Vec(const std::vector<std::uint64_t>& v, ByteWriter& out) {
  out.U64(v.size());
  for (const std::uint64_t x : v) out.U64(x);
}

bool ReadU64Vec(ByteReader& in, std::vector<std::uint64_t>& out) {
  return ReadVec(in, out, [](ByteReader& r) { return r.U64(); });
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

// --- vm::RunResult ------------------------------------------------------------

void WriteRunResult(const vm::RunResult& run, ByteWriter& out) {
  out.U8(static_cast<std::uint8_t>(run.trap));
  out.U64(run.instructions_executed);
  out.U64(run.trap_dyn_index);
  out.U64(run.trap_addr);
  out.U8(run.fault_was_applied ? 1 : 0);
  WriteU64Vec(run.output, out);
}

std::optional<vm::RunResult> ReadRunResult(ByteReader& in) {
  vm::RunResult run;
  const std::uint8_t trap = in.U8();
  if (trap > static_cast<std::uint8_t>(vm::TrapKind::kInstructionLimit)) return std::nullopt;
  run.trap = static_cast<vm::TrapKind>(trap);
  run.instructions_executed = in.U64();
  run.trap_dyn_index = in.U64();
  run.trap_addr = in.U64();
  run.fault_was_applied = in.U8() != 0;
  if (!ReadU64Vec(in, run.output)) return std::nullopt;
  if (!in.ok()) return std::nullopt;
  return run;
}

// --- ddg::Graph ---------------------------------------------------------------

void WriteGraph(const ddg::Graph& graph, ByteWriter& out) {
  out.U64(graph.nodes().size());
  for (const ddg::Node& n : graph.nodes()) {
    out.U8(static_cast<std::uint8_t>(n.kind));
    out.U8(n.width);
    out.U32(n.dyn_index);
    out.U64(n.value);
  }
  out.U64(graph.pred_ranges().size());
  for (const ddg::PredRange& r : graph.pred_ranges()) {
    out.U32(r.offset);
    out.U8(r.count);
    out.U8(r.virtual_mask);
  }
  WriteU32Vec(graph.pred_pool(), out);
  out.U64(graph.dyn_instrs().size());
  for (const ddg::DynInstr& d : graph.dyn_instrs()) {
    out.U32(d.sid.function);
    out.U32(d.sid.block);
    out.U32(d.sid.instr);
    out.U32(d.result_node);
    out.U32(d.operands_offset);
    out.U8(d.num_operands);
    out.U8(d.selected_operand);
  }
  WriteU32Vec(graph.operand_node_pool(), out);
  WriteU64Vec(graph.operand_value_pool(), out);
  out.U64(graph.accesses().size());
  for (const ddg::AccessRecord& a : graph.accesses()) {
    out.U32(a.dyn_index);
    out.U32(a.addr_node);
    out.U64(a.addr);
    out.U32(a.size);
    out.U64(a.map_version);
    out.U64(a.esp);
    out.U8(a.is_store ? 1 : 0);
  }
  WriteU32Vec(graph.output_roots(), out);
  WriteU32Vec(graph.control_roots(), out);
  out.U64(graph.dropped_load_preds());
}

std::optional<ddg::Graph> ReadGraph(const ir::Module& module, ByteReader& in) {
  ddg::Graph::Storage storage;
  bool ok = ReadVec(in, storage.nodes, [](ByteReader& r) {
    ddg::Node n;
    n.kind = static_cast<ddg::NodeKind>(r.U8());
    n.width = r.U8();
    n.dyn_index = r.U32();
    n.value = r.U64();
    return n;
  });
  ok = ok && ReadVec(in, storage.pred_ranges, [](ByteReader& r) {
    ddg::PredRange p;
    p.offset = r.U32();
    p.count = r.U8();
    p.virtual_mask = r.U8();
    return p;
  });
  ok = ok && ReadU32Vec(in, storage.pred_pool);
  ok = ok && ReadVec(in, storage.dyn, [](ByteReader& r) {
    ddg::DynInstr d;
    d.sid.function = r.U32();
    d.sid.block = r.U32();
    d.sid.instr = r.U32();
    d.result_node = r.U32();
    d.operands_offset = r.U32();
    d.num_operands = r.U8();
    d.selected_operand = r.U8();
    return d;
  });
  ok = ok && ReadU32Vec(in, storage.operand_node_pool);
  ok = ok && ReadU64Vec(in, storage.operand_value_pool);
  ok = ok && ReadVec(in, storage.accesses, [](ByteReader& r) {
    ddg::AccessRecord a;
    a.dyn_index = r.U32();
    a.addr_node = r.U32();
    a.addr = r.U64();
    a.size = r.U32();
    a.map_version = r.U64();
    a.esp = r.U64();
    a.is_store = r.U8() != 0;
    return a;
  });
  ok = ok && ReadU32Vec(in, storage.output_roots);
  ok = ok && ReadU32Vec(in, storage.control_roots);
  storage.dropped_load_preds = in.U64();
  if (!ok || !in.ok()) return std::nullopt;
  for (const ddg::Node& n : storage.nodes) {
    if (static_cast<std::uint8_t>(n.kind) > static_cast<std::uint8_t>(ddg::NodeKind::kGlobal) ||
        n.width > 64) {
      return std::nullopt;
    }
  }
  if (!ddg::Graph::ValidateStorage(module, storage)) return std::nullopt;
  return ddg::Graph::FromStorage(&module, std::move(storage));
}

// --- ddg::AceResult -----------------------------------------------------------

void WriteAce(const ddg::AceResult& ace, ByteWriter& out) {
  WriteU8Vec(ace.in_ace, out);
  out.U64(ace.ace_bits);
  out.U64(ace.total_bits);
  out.U64(ace.ace_node_count);
  out.U64(ace.ace_register_nodes);
}

std::optional<ddg::AceResult> ReadAce(ByteReader& in) {
  ddg::AceResult ace;
  if (!ReadU8Vec(in, ace.in_ace)) return std::nullopt;
  ace.ace_bits = in.U64();
  ace.total_bits = in.U64();
  ace.ace_node_count = in.U64();
  ace.ace_register_nodes = in.U64();
  if (!in.ok()) return std::nullopt;
  return ace;
}

// --- crash::CrashBits ---------------------------------------------------------

void WriteCrashBits(const crash::CrashBits& bits, ByteWriter& out) {
  out.U64(bits.allowed.size());
  for (const Interval& iv : bits.allowed) {
    out.U64(iv.lo);
    out.U64(iv.hi);
  }
  WriteU64Vec(bits.crash_mask, out);
  out.U64(bits.total_crash_bits);
  out.U64(bits.constrained_nodes);
  out.U64(bits.seeded_accesses);
}

std::optional<crash::CrashBits> ReadCrashBits(ByteReader& in) {
  crash::CrashBits bits;
  const bool ok = ReadVec(in, bits.allowed, [](ByteReader& r) {
    Interval iv;
    iv.lo = r.U64();
    iv.hi = r.U64();
    return iv;
  });
  if (!ok || !ReadU64Vec(in, bits.crash_mask)) return std::nullopt;
  bits.total_crash_bits = in.U64();
  bits.constrained_nodes = in.U64();
  bits.seeded_accesses = in.U64();
  if (!in.ok()) return std::nullopt;
  if (bits.crash_mask.size() != bits.allowed.size()) return std::nullopt;
  return bits;
}

// --- analysis artifact --------------------------------------------------------

void WriteAnalysisArtifact(const core::Analysis& analysis, ArtifactWriter& writer) {
  WriteRunResult(analysis.golden(), writer.Section(SectionId::kGoldenRun));
  WriteGraph(analysis.graph(), writer.Section(SectionId::kGraph));
  WriteAce(analysis.ace(), writer.Section(SectionId::kAce));
  WriteCrashBits(analysis.crash_bits(), writer.Section(SectionId::kCrashBits));
  // Force the lazy activation-walk pass: persisting its three sums lets a
  // warm load serve CrashRateEstimate / the use-weighted metrics instantly.
  const core::Analysis::UseWeightedBits& uw = analysis.use_weighted_bits();
  ByteWriter& section = writer.Section(SectionId::kUseWeighted);
  section.U64(uw.total);
  section.U64(uw.ace);
  section.U64(uw.crash);
}

std::optional<AnalysisArtifactData> ReadAnalysisArtifact(const ir::Module& module,
                                                         const ArtifactReader& reader) {
  auto golden_in = reader.Section(SectionId::kGoldenRun);
  auto graph_in = reader.Section(SectionId::kGraph);
  auto ace_in = reader.Section(SectionId::kAce);
  auto crash_in = reader.Section(SectionId::kCrashBits);
  if (!golden_in || !graph_in || !ace_in || !crash_in) return std::nullopt;

  auto golden = ReadRunResult(*golden_in);
  auto graph = ReadGraph(module, *graph_in);
  auto ace = ReadAce(*ace_in);
  auto crash_bits = ReadCrashBits(*crash_in);
  if (!golden || !graph || !ace || !crash_bits) return std::nullopt;
  // Cross-section consistency: per-node arrays must cover the graph.
  if (ace->in_ace.size() != graph->NumNodes()) return std::nullopt;
  if (crash_bits->allowed.size() != graph->NumNodes()) return std::nullopt;
  AnalysisArtifactData data{std::move(*golden), std::move(*graph), std::move(*ace),
                            std::move(*crash_bits), std::nullopt};
  if (auto uw_in = reader.Section(SectionId::kUseWeighted)) {
    core::Analysis::UseWeightedBits uw;
    uw.total = uw_in->U64();
    uw.ace = uw_in->U64();
    uw.crash = uw_in->U64();
    if (uw_in->Finished()) data.use_weighted = uw;
  }
  return data;
}

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
