#include "epvf/report.h"

#include <cmath>

#include "support/bits.h"

namespace epvf::core {

std::string_view RegisterClassName(RegisterClass cls) {
  switch (cls) {
    case RegisterClass::kPointer: return "pointer";
    case RegisterClass::kInteger: return "integer";
    case RegisterClass::kFloat: return "float";
    case RegisterClass::kPredicate: return "predicate";
  }
  return "<bad>";
}

RegisterClass RegisterClassOf(ir::Type type) {
  if (type.IsPointer()) return RegisterClass::kPointer;
  if (type.IsFloat()) return RegisterClass::kFloat;
  if (type == ir::Type::I1()) return RegisterClass::kPredicate;
  return RegisterClass::kInteger;
}

namespace {

RegisterClass ClassifyNode(const ddg::Graph& graph, ddg::NodeId id) {
  const ddg::Node& node = graph.GetNode(id);
  if (node.dyn_index == ddg::kNoDyn) return RegisterClass::kInteger;
  return RegisterClassOf(graph.InstructionAt(node.dyn_index).type);
}

}  // namespace

std::array<StructureVulnerability, kNumRegisterClasses> StructureReport(
    const Analysis& analysis) {
  std::array<StructureVulnerability, kNumRegisterClasses> report;
  for (int c = 0; c < kNumRegisterClasses; ++c) {
    report[static_cast<std::size_t>(c)].cls = static_cast<RegisterClass>(c);
  }
  const ddg::Graph& graph = analysis.graph();
  for (ddg::NodeId id = 0; id < graph.NumNodes(); ++id) {
    const ddg::Node& node = graph.GetNode(id);
    if (node.kind != ddg::NodeKind::kRegister) continue;
    StructureVulnerability& slot =
        report[static_cast<std::size_t>(ClassifyNode(graph, id))];
    slot.total_bits += node.width;
    if (analysis.ace().Contains(id)) {
      slot.ace_bits += node.width;
      slot.crash_bits +=
          PopCount(analysis.crash_bits().crash_mask[id] & LowMask(node.width));
    }
  }
  return report;
}

ReportStats StatsFromAnalysis(const Analysis& analysis) {
  ReportStats stats;
  stats.dyn_instructions = analysis.golden().instructions_executed;
  stats.num_nodes = analysis.graph().NumNodes();
  stats.ace_node_count = analysis.ace().ace_node_count;
  stats.ace_bits = analysis.ace().ace_bits;
  stats.total_bits = analysis.ace().total_bits;
  stats.crash_bits = analysis.crash_bits().total_crash_bits;
  stats.use_weighted = analysis.use_weighted_bits();
  const Analysis::MemoryBitsSums mem = analysis.ComputeMemoryBitsSums();
  stats.mem_total = mem.total;
  stats.mem_ace = mem.ace;
  stats.mem_crash = mem.crash;
  stats.structure = StructureReport(analysis);
  return stats;
}

RegisterClass MostSdcProneStructure(const Analysis& analysis) {
  const auto report = StructureReport(analysis);
  RegisterClass best = RegisterClass::kInteger;
  std::uint64_t best_mass = 0;
  for (const StructureVulnerability& entry : report) {
    if (entry.SdcProneBits() > best_mass) {
      best_mass = entry.SdcProneBits();
      best = entry.cls;
    }
  }
  return best;
}

CheckpointAdvice AdviseCheckpointInterval(const Analysis& analysis,
                                          double raw_fault_rate_per_s,
                                          double checkpoint_cost_s) {
  CheckpointAdvice advice;
  if (raw_fault_rate_per_s <= 0.0 || checkpoint_cost_s <= 0.0) return advice;
  advice.crash_probability_per_fault = analysis.CrashRateEstimate();
  const double crash_rate_per_s = raw_fault_rate_per_s * advice.crash_probability_per_fault;
  if (crash_rate_per_s <= 0.0) return advice;
  advice.mean_time_between_crashes_s = 1.0 / crash_rate_per_s;
  // Young's first-order optimum for checkpoint interval.
  advice.optimal_interval_s =
      std::sqrt(2.0 * checkpoint_cost_s * advice.mean_time_between_crashes_s);
  return advice;
}

}  // namespace epvf::core
