#include "protect/duplication.h"

#include <deque>
#include <map>

namespace epvf::protect {

namespace {

/// Duplication slice, SWIFT-style: the redundant stream re-executes the
/// *computation* chain only. Loads and phis are synchronization points —
/// executed once, their value copied into the redundant stream (cost 1, and
/// the copy makes a later flip of the result register detectable), so the
/// traversal includes them as leaves without following their predecessors
/// (no re-loading, no re-execution of earlier loop iterations through the
/// dynamic phi chain). Memory versions, constants and globals are free.
void CollectDuplicationSlice(const ddg::Graph& graph, ddg::NodeId start,
                             std::vector<std::uint8_t>& visited,
                             std::vector<ddg::NodeId>& out_new_nodes) {
  if (start == ddg::kNoNode || visited[start]) return;
  auto is_phi = [&](ddg::NodeId id) {
    const ddg::Node& node = graph.GetNode(id);
    if (node.dyn_index == ddg::kNoDyn) return false;
    return graph.InstructionAt(node.dyn_index).op == ir::Opcode::kPhi;
  };
  std::deque<ddg::NodeId> frontier{start};
  visited[start] = 1;
  while (!frontier.empty()) {
    const ddg::NodeId id = frontier.front();
    frontier.pop_front();
    const ddg::Node& node = graph.GetNode(id);
    if (node.kind == ddg::NodeKind::kRegister) out_new_nodes.push_back(id);
    if (is_phi(id)) continue;  // loop-carried value copied, preds untouched
    const auto preds = graph.Preds(id);
    for (unsigned i = 0; i < preds.size(); ++i) {
      const ddg::NodeId pred = preds[i];
      if (pred == ddg::kNoNode || visited[pred]) continue;
      const ddg::Node& pred_node = graph.GetNode(pred);
      if (pred_node.kind == ddg::NodeKind::kMemory) continue;  // stop at memory
      if (pred_node.kind == ddg::NodeKind::kConstant ||
          pred_node.kind == ddg::NodeKind::kGlobal) {
        continue;  // immediates are re-materialized for free
      }
      visited[pred] = 1;
      frontier.push_back(pred);
    }
  }
}

}  // namespace

std::uint64_t ProtectionPlan::CoveredNodes() const {
  std::uint64_t count = 0;
  for (const std::uint8_t p : node_protected) count += p;
  return count;
}

ProtectionPlan BuildDuplicationPlan(const core::Analysis& analysis,
                                    std::span<const RankedInstr> ranking,
                                    const PlanOptions& options) {
  const ddg::Graph& graph = analysis.graph();
  ProtectionPlan plan;
  plan.node_protected.assign(graph.NumNodes(), 0);

  // Index: static instruction -> its dynamic result nodes.
  std::map<ir::StaticInstrId, std::vector<ddg::NodeId>> instances;
  for (std::uint32_t dyn = 0; dyn < graph.NumDynInstrs(); ++dyn) {
    const ddg::DynInstr& d = graph.GetDyn(dyn);
    if (d.result_node == ddg::kNoNode) continue;
    if (graph.GetNode(d.result_node).kind != ddg::NodeKind::kRegister) continue;
    instances[d.sid].push_back(d.result_node);
  }

  const auto golden_total = static_cast<double>(graph.NumDynInstrs());
  if (golden_total == 0) return plan;

  std::uint64_t extra_instructions = 0;
  std::vector<ddg::NodeId> new_nodes;
  for (const RankedInstr& ranked : ranking) {
    const auto it = instances.find(ranked.sid);
    if (it == instances.end()) continue;

    // Tentatively duplicate every dynamic instance's backward slice.
    new_nodes.clear();
    for (const ddg::NodeId root : it->second) {
      CollectDuplicationSlice(graph, root, plan.node_protected, new_nodes);
    }
    // Cost: one re-executed instruction per newly duplicated register node,
    // plus one comparison per protected dynamic instance.
    const std::uint64_t cost = new_nodes.size() + it->second.size();
    const double new_overhead =
        static_cast<double>(extra_instructions + cost) / golden_total;
    if (new_overhead > options.overhead_budget) {
      // Roll the tentative marks back and move to the next candidate — a
      // cheaper slice further down the list may still fit the budget.
      for (const ddg::NodeId id : new_nodes) plan.node_protected[id] = 0;
      continue;
    }
    extra_instructions += cost;
    plan.chosen.push_back(ranked.sid);
  }

  plan.duplicated_dynamic_instructions = extra_instructions;
  plan.overhead = static_cast<double>(extra_instructions) / golden_total;
  return plan;
}

}  // namespace epvf::protect
