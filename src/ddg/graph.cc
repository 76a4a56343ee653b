#include "ddg/graph.h"

#include <stdexcept>

namespace epvf::ddg {

NodeId Graph::AddNode(const Node& node, std::span<const NodeId> preds,
                      std::uint8_t virtual_mask) {
  if (preds.size() > 8) throw std::invalid_argument("Graph::AddNode: too many preds");
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(node);
  PredRange range;
  range.offset = static_cast<std::uint32_t>(pred_pool_.size());
  range.count = static_cast<std::uint8_t>(preds.size());
  range.virtual_mask = virtual_mask;
  pred_ranges_.push_back(range);
  pred_pool_.insert(pred_pool_.end(), preds.begin(), preds.end());
  return id;
}

void Graph::AddDynInstr(const DynInstr& header, std::span<const NodeId> operand_nodes,
                        std::span<const std::uint64_t> operand_values) {
  if (operand_nodes.size() != operand_values.size()) {
    throw std::invalid_argument("Graph::AddDynInstr: operand arity mismatch");
  }
  DynInstr d = header;
  d.operands_offset = static_cast<std::uint32_t>(operand_node_pool_.size());
  d.num_operands = static_cast<std::uint8_t>(operand_nodes.size());
  operand_node_pool_.insert(operand_node_pool_.end(), operand_nodes.begin(), operand_nodes.end());
  operand_value_pool_.insert(operand_value_pool_.end(), operand_values.begin(),
                             operand_values.end());
  dyn_.push_back(d);
}

std::uint64_t Graph::TotalRegisterBits() const {
  std::uint64_t total = 0;
  for (const Node& n : nodes_) {
    if (n.kind == NodeKind::kRegister) total += n.width;
  }
  return total;
}

std::uint64_t Graph::NumRegisterNodes() const {
  std::uint64_t count = 0;
  for (const Node& n : nodes_) {
    if (n.kind == NodeKind::kRegister) ++count;
  }
  return count;
}

}  // namespace epvf::ddg
