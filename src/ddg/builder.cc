#include "ddg/builder.h"

#include <array>
#include <stdexcept>

namespace epvf::ddg {

namespace {
using ir::Opcode;
}  // namespace

const WriterShadow::Page* WriterShadow::FindPage(std::uint64_t page_index) const {
  if (page_index == cached_index_) return cached_page_;
  const auto it = pages_.find(page_index);
  if (it == pages_.end()) return nullptr;
  cached_index_ = page_index;
  cached_page_ = it->second.get();
  return cached_page_;
}

WriterShadow::Page& WriterShadow::TouchPage(std::uint64_t page_index) {
  if (page_index == cached_index_) return *cached_page_;
  std::unique_ptr<Page>& slot = pages_[page_index];
  if (slot == nullptr) slot = std::make_unique<Page>(kPageBytes, kNoNode);
  cached_index_ = page_index;
  cached_page_ = slot.get();
  return *slot;
}

GraphBuilder::GraphBuilder(const ir::Module& module) : module_(module), graph_(&module) {}

NodeId GraphBuilder::ConstantNode(std::uint32_t constant_index, std::uint64_t value,
                                  std::uint8_t width) {
  const auto it = constant_nodes_.find(constant_index);
  if (it != constant_nodes_.end()) return it->second;
  Node node;
  node.kind = NodeKind::kConstant;
  node.width = width;
  node.value = value;
  const NodeId id = graph_.AddNode(node, {});
  constant_nodes_.emplace(constant_index, id);
  return id;
}

NodeId GraphBuilder::GlobalNode(std::uint32_t global_index, std::uint64_t value) {
  const auto it = global_nodes_.find(global_index);
  if (it != global_nodes_.end()) return it->second;
  Node node;
  node.kind = NodeKind::kGlobal;
  node.width = 64;
  node.value = value;
  const NodeId id = graph_.AddNode(node, {});
  global_nodes_.emplace(global_index, id);
  return id;
}

NodeId GraphBuilder::OperandNode(const vm::DynContext& ctx, std::size_t slot) {
  const ir::ValueRef ref = ctx.inst->operands[slot];
  switch (ref.kind) {
    case ir::ValueKind::kRegister:
      return shadows_.back().reg_nodes[ref.index];
    case ir::ValueKind::kConstant: {
      const ir::Constant& c = module_.GetConstant(ref.index);
      return ConstantNode(ref.index, ctx.operand_values[slot],
                          static_cast<std::uint8_t>(c.type.BitWidth()));
    }
    case ir::ValueKind::kGlobal:
      return GlobalNode(ref.index, ctx.operand_values[slot]);
    case ir::ValueKind::kNone:
      break;
  }
  throw std::logic_error("GraphBuilder: bad operand reference");
}

void GraphBuilder::OnEnterFunction(std::uint32_t function_index) {
  const ir::Function& fn = module_.functions[function_index];
  ShadowFrame frame;
  frame.reg_nodes.assign(fn.registers.size(), kNoNode);
  // Parameters alias the caller's argument nodes (no new defs).
  for (std::uint32_t i = 0; i < fn.num_params && i < pending_args_.size(); ++i) {
    frame.reg_nodes[i] = pending_args_[i];
  }
  pending_args_.clear();
  shadows_.push_back(std::move(frame));
}

void GraphBuilder::OnExitFunction(bool has_value) {
  shadows_.pop_back();
  if (call_stack_.empty()) return;  // entry-function exit
  const PendingCall call = call_stack_.back();
  call_stack_.pop_back();
  if (has_value && call.result_reg != ir::kInvalidIndex && !shadows_.empty()) {
    shadows_.back().reg_nodes[call.result_reg] = pending_ret_node_;
  }
  pending_ret_node_ = kNoNode;
}

void GraphBuilder::OnInstruction(const vm::DynContext& ctx) {
  const ir::Instruction& inst = *ctx.inst;
  const auto dyn_index = static_cast<std::uint32_t>(ctx.dyn_index);

  // --- operand provenance ---------------------------------------------------
  std::array<NodeId, 8> op_nodes{};
  std::array<std::uint64_t, 8> op_values{};
  const std::size_t num_ops = inst.operands.size();
  if (num_ops > op_nodes.size()) {
    throw std::logic_error("GraphBuilder: instruction with more than 8 operands");
  }
  for (std::size_t i = 0; i < num_ops; ++i) {
    const bool is_phi_unselected = inst.op == Opcode::kPhi && i != ctx.selected_operand;
    op_nodes[i] = is_phi_unselected ? kNoNode : OperandNode(ctx, i);
    op_values[i] = ctx.operand_values[i];
  }

  DynInstr header;
  header.sid = ctx.sid;
  header.selected_operand = inst.op == Opcode::kPhi
                                ? static_cast<std::uint8_t>(ctx.selected_operand)
                                : static_cast<std::uint8_t>(0xFF);

  // --- result node construction ----------------------------------------------
  if (MakesResultNode(inst)) {
    const ResultPreds<NodeId> preds = ResultNodePreds<NodeId>(
        inst, std::span<const NodeId>(op_nodes.data(), num_ops),
        std::span<const std::uint64_t>(op_values.data(), num_ops), ctx.selected_operand, kNoNode,
        [this](std::uint64_t addr) { return memory_writer_.Lookup(addr); });
    graph_.NoteDroppedLoadPreds(preds.dropped_writers);
    Node node;
    node.dyn_index = dyn_index;
    if (inst.op == Opcode::kStore) {
      node.kind = NodeKind::kMemory;
      node.width = static_cast<std::uint8_t>(
          module_.TypeOf(*ctx.fn, inst.operands[0]).BitWidth());
      node.value = ctx.operand_values[0];
    } else {
      node.kind = NodeKind::kRegister;
      node.width = static_cast<std::uint8_t>(inst.type.BitWidth());
      node.value = ctx.result_bits;
    }
    header.result_node = graph_.AddNode(node, preds.Span(), preds.virtual_mask);
  }

  switch (inst.op) {
    case Opcode::kStore:
      memory_writer_.Record(ctx.mem_addr, ctx.mem_size, header.result_node);
      graph_.AddAccess(AccessRecord{dyn_index, op_nodes[1], ctx.mem_addr, ctx.mem_size,
                                    ctx.map_version, ctx.esp, /*is_store=*/true});
      break;
    case Opcode::kLoad:
      graph_.AddAccess(AccessRecord{dyn_index, op_nodes[0], ctx.mem_addr, ctx.mem_size,
                                    ctx.map_version, ctx.esp, /*is_store=*/false});
      break;
    case Opcode::kCondBr:
      if (op_nodes[0] != kNoNode && inst.operands[0].IsRegister()) {
        graph_.AddControlRoot(op_nodes[0]);
      }
      break;
    case Opcode::kRet:
      if (!inst.operands.empty()) pending_ret_node_ = op_nodes[0];
      break;
    case Opcode::kCall:
      if (inst.is_intrinsic) {
        if (ir::IsOutputIntrinsic(inst.intrinsic)) graph_.AddOutputRoot(op_nodes[0]);
        break;
      }
      // User call: remember argument nodes for OnEnterFunction and where the
      // result lands for OnExitFunction.
      pending_args_.assign(op_nodes.begin(), op_nodes.begin() + num_ops);
      call_stack_.push_back(
          PendingCall{inst.DefinesValue() ? inst.result : ir::kInvalidIndex});
      break;
    default:
      break;
  }

  if (DefinesShadowedRegister(inst)) shadows_.back().reg_nodes[inst.result] = header.result_node;

  graph_.AddDynInstr(header, std::span<const NodeId>(op_nodes.data(), num_ops),
                     std::span<const std::uint64_t>(op_values.data(), num_ops));
}

}  // namespace epvf::ddg
