#include "ir/verifier.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "ir/printer.h"
#include "obs/trace.h"

namespace epvf::ir {

namespace {

std::vector<std::uint32_t> Successors(const BasicBlock& bb) {
  if (bb.instructions.empty()) return {};
  const Instruction& term = bb.instructions.back();
  switch (term.op) {
    case Opcode::kBr: return {term.bb_true};
    case Opcode::kCondBr: return {term.bb_true, term.bb_false};
    default: return {};
  }
}

/// Reverse-postorder numbering of reachable blocks.
std::vector<std::uint32_t> ReversePostorder(const Function& fn) {
  std::vector<std::uint32_t> order;
  if (fn.blocks.empty()) return order;
  std::vector<std::uint8_t> state(fn.blocks.size(), 0);  // 0=unseen 1=open 2=done
  // Iterative DFS with explicit post stack.
  std::vector<std::pair<std::uint32_t, std::size_t>> stack;
  stack.emplace_back(0u, 0u);
  state[0] = 1;
  while (!stack.empty()) {
    auto& [block, next_succ] = stack.back();
    const auto succs = Successors(fn.blocks[block]);
    if (next_succ < succs.size()) {
      const std::uint32_t succ = succs[next_succ++];
      if (succ < fn.blocks.size() && state[succ] == 0) {
        state[succ] = 1;
        stack.emplace_back(succ, 0u);
      }
    } else {
      state[block] = 2;
      order.push_back(block);
      stack.pop_back();
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

}  // namespace

std::vector<std::vector<std::uint32_t>> ComputePredecessors(const Function& fn) {
  std::vector<std::vector<std::uint32_t>> preds(fn.blocks.size());
  for (std::uint32_t b = 0; b < fn.blocks.size(); ++b) {
    for (std::uint32_t s : Successors(fn.blocks[b])) {
      if (s < fn.blocks.size()) preds[s].push_back(b);
    }
  }
  return preds;
}

std::vector<std::uint32_t> ComputeImmediateDominators(const Function& fn) {
  // Cooper, Harvey & Kennedy, "A Simple, Fast Dominance Algorithm".
  const std::size_t n = fn.blocks.size();
  std::vector<std::uint32_t> idom(n, kInvalidIndex);
  if (n == 0) return idom;

  const auto rpo = ReversePostorder(fn);
  std::vector<std::uint32_t> rpo_index(n, kInvalidIndex);
  for (std::uint32_t i = 0; i < rpo.size(); ++i) rpo_index[rpo[i]] = i;
  const auto preds = ComputePredecessors(fn);

  auto intersect = [&](std::uint32_t a, std::uint32_t b) {
    while (a != b) {
      while (rpo_index[a] > rpo_index[b]) a = idom[a];
      while (rpo_index[b] > rpo_index[a]) b = idom[b];
    }
    return a;
  };

  idom[0] = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::uint32_t block : rpo) {
      if (block == 0) continue;
      std::uint32_t new_idom = kInvalidIndex;
      for (std::uint32_t p : preds[block]) {
        if (rpo_index[p] == kInvalidIndex || idom[p] == kInvalidIndex) continue;
        new_idom = (new_idom == kInvalidIndex) ? p : intersect(p, new_idom);
      }
      if (new_idom != kInvalidIndex && idom[block] != new_idom) {
        idom[block] = new_idom;
        changed = true;
      }
    }
  }
  return idom;
}

std::vector<std::uint32_t> ComputeImmediatePostDominators(const Function& fn) {
  // Dominators of the reversed CFG, rooted at a virtual exit node that
  // succeeds every ret block (Cooper-Harvey-Kennedy again, on the reverse).
  const std::size_t n = fn.blocks.size();
  const std::uint32_t exit_node = static_cast<std::uint32_t>(n);
  std::vector<std::uint32_t> ipdom(n + 1, kInvalidIndex);
  if (n == 0) return ipdom;

  // Reverse-graph successors(v) = CFG predecessors(v); reverse-graph
  // predecessors(v) = CFG successors(v), plus exit edges for ret blocks.
  const auto cfg_preds = ComputePredecessors(fn);
  auto cfg_succs = [&](std::uint32_t b) -> std::vector<std::uint32_t> {
    const BasicBlock& bb = fn.blocks[b];
    if (bb.instructions.empty()) return {};
    const Instruction& term = bb.instructions.back();
    switch (term.op) {
      case Opcode::kBr: return {term.bb_true};
      case Opcode::kCondBr: return {term.bb_true, term.bb_false};
      case Opcode::kRet: return {exit_node};
      default: return {};
    }
  };

  std::vector<std::uint32_t> ret_blocks;
  for (std::uint32_t b = 0; b < n; ++b) {
    if (!fn.blocks[b].instructions.empty() &&
        fn.blocks[b].instructions.back().op == Opcode::kRet) {
      ret_blocks.push_back(b);
    }
  }

  // Reverse-postorder of the reversed graph from the virtual exit.
  std::vector<std::uint32_t> order;
  std::vector<std::uint8_t> state(n + 1, 0);
  std::vector<std::pair<std::uint32_t, std::size_t>> stack{{exit_node, 0}};
  state[exit_node] = 1;
  while (!stack.empty()) {
    auto& [block, cursor] = stack.back();
    const std::vector<std::uint32_t>& succs =
        block == exit_node ? ret_blocks : cfg_preds[block];
    if (cursor < succs.size()) {
      const std::uint32_t next = succs[cursor++];
      if (state[next] == 0) {
        state[next] = 1;
        stack.emplace_back(next, 0);
      }
    } else {
      order.push_back(block);
      stack.pop_back();
    }
  }
  std::reverse(order.begin(), order.end());

  std::vector<std::uint32_t> rpo_index(n + 1, kInvalidIndex);
  for (std::uint32_t i = 0; i < order.size(); ++i) rpo_index[order[i]] = i;

  auto intersect = [&](std::uint32_t a, std::uint32_t b) {
    while (a != b) {
      while (rpo_index[a] > rpo_index[b]) a = ipdom[a];
      while (rpo_index[b] > rpo_index[a]) b = ipdom[b];
    }
    return a;
  };

  ipdom[exit_node] = exit_node;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const std::uint32_t block : order) {
      if (block == exit_node) continue;
      std::uint32_t new_ipdom = kInvalidIndex;
      for (const std::uint32_t p : cfg_succs(block)) {  // reverse-graph preds
        if (rpo_index[p] == kInvalidIndex || ipdom[p] == kInvalidIndex) continue;
        new_ipdom = (new_ipdom == kInvalidIndex) ? p : intersect(p, new_ipdom);
      }
      if (new_ipdom != kInvalidIndex && ipdom[block] != new_ipdom) {
        ipdom[block] = new_ipdom;
        changed = true;
      }
    }
  }
  return ipdom;
}

bool PostDominates(const std::vector<std::uint32_t>& ipdom, std::uint32_t a, std::uint32_t b) {
  const std::uint32_t exit_node = static_cast<std::uint32_t>(ipdom.size() - 1);
  while (true) {
    if (a == b) return true;
    if (b == exit_node || ipdom[b] == kInvalidIndex || ipdom[b] == b) return false;
    b = ipdom[b];
  }
}

namespace {

class FunctionVerifier {
 public:
  FunctionVerifier(const Module& module, const Function& fn, std::uint32_t fn_index,
                   std::vector<std::string>& errors)
      : module_(module), fn_(fn), fn_index_(fn_index), errors_(errors) {}

  void Run() {
    if (fn_.blocks.empty()) {
      Error("function has no blocks");
      return;
    }
    CollectDefs();
    if (!single_assignment_ok_) return;  // def maps unreliable; stop here
    idom_ = ComputeImmediateDominators(fn_);
    preds_ = ComputePredecessors(fn_);
    for (std::uint32_t b = 0; b < fn_.blocks.size(); ++b) CheckBlock(b);
  }

 private:
  void Error(const std::string& message) {
    std::ostringstream os;
    os << "@" << fn_.name << " (fn " << fn_index_ << "): " << message;
    errors_.push_back(os.str());
  }

  void ErrorAt(std::uint32_t block, const Instruction& inst, const std::string& message) {
    Error("[" + fn_.blocks[block].name + "] '" + PrintInstruction(module_, fn_, inst) +
          "': " + message);
  }

  void CollectDefs() {
    def_block_.assign(fn_.registers.size(), kInvalidIndex);
    def_pos_.assign(fn_.registers.size(), 0);
    for (std::uint32_t p = 0; p < fn_.num_params; ++p) {
      def_block_[p] = 0;  // parameters are defined on entry, before position 0
    }
    for (std::uint32_t b = 0; b < fn_.blocks.size(); ++b) {
      const auto& insts = fn_.blocks[b].instructions;
      for (std::uint32_t i = 0; i < insts.size(); ++i) {
        const Instruction& inst = insts[i];
        if (!inst.DefinesValue()) continue;
        if (inst.result >= fn_.registers.size()) {
          Error("instruction defines out-of-range register");
          single_assignment_ok_ = false;
          continue;
        }
        if (def_block_[inst.result] != kInvalidIndex) {
          ErrorAt(b, inst, "register defined more than once (SSA violation)");
          single_assignment_ok_ = false;
          continue;
        }
        def_block_[inst.result] = b;
        def_pos_[inst.result] = i + 1;  // +1: params use position 0
        if (fn_.registers[inst.result].type != inst.type) {
          ErrorAt(b, inst, "result register type differs from instruction type");
        }
      }
    }
  }

  [[nodiscard]] bool Dominates(std::uint32_t a, std::uint32_t b) const {
    // Walk b's dominator chain up to the entry.
    while (true) {
      if (a == b) return true;
      if (b == 0 || idom_[b] == kInvalidIndex || idom_[b] == b) return a == b;
      b = idom_[b];
    }
  }

  void CheckUse(std::uint32_t block, std::uint32_t pos, const Instruction& inst, ValueRef v,
                bool is_phi_incoming, std::uint32_t incoming_block) {
    switch (v.kind) {
      case ValueKind::kNone:
        ErrorAt(block, inst, "none operand");
        return;
      case ValueKind::kConstant:
        if (v.index >= module_.constants().size()) ErrorAt(block, inst, "bad constant index");
        return;
      case ValueKind::kGlobal:
        if (v.index >= module_.globals.size()) ErrorAt(block, inst, "bad global index");
        return;
      case ValueKind::kRegister:
        break;
    }
    if (v.index >= fn_.registers.size()) {
      ErrorAt(block, inst, "use of out-of-range register");
      return;
    }
    const std::uint32_t db = def_block_[v.index];
    if (db == kInvalidIndex) {
      ErrorAt(block, inst, "use of never-defined register");
      return;
    }
    if (is_phi_incoming) {
      // The incoming value must dominate the end of the incoming block.
      if (!Dominates(db, incoming_block)) {
        ErrorAt(block, inst, "phi incoming value does not dominate incoming block");
      }
      return;
    }
    if (db == block) {
      if (def_pos_[v.index] > pos) {
        ErrorAt(block, inst, "use before definition in the same block");
      }
    } else if (!Dominates(db, block)) {
      ErrorAt(block, inst, "use not dominated by definition");
    }
  }

  void CheckBlock(std::uint32_t b) {
    const BasicBlock& bb = fn_.blocks[b];
    if (bb.instructions.empty() || !IsTerminator(bb.instructions.back().op)) {
      Error("block '" + bb.name + "' lacks a terminator");
    }
    bool seen_non_phi = false;
    for (std::uint32_t i = 0; i < bb.instructions.size(); ++i) {
      const Instruction& inst = bb.instructions[i];
      if (IsTerminator(inst.op) && i + 1 != bb.instructions.size()) {
        ErrorAt(b, inst, "terminator in the middle of a block");
      }
      if (inst.op == Opcode::kPhi) {
        if (seen_non_phi) ErrorAt(b, inst, "phi after non-phi instruction");
        // A call enters the entry block with no predecessor edge to select.
        if (b == 0) ErrorAt(b, inst, "phi in the entry block");
      } else {
        seen_non_phi = true;
      }
      CheckInstruction(b, i, inst);
    }
  }

  void CheckInstruction(std::uint32_t b, std::uint32_t pos, const Instruction& inst) {
    // Operand existence/dominance.
    if (inst.op == Opcode::kPhi) {
      if (inst.operands.size() != inst.phi_blocks.size() || inst.operands.empty()) {
        ErrorAt(b, inst, "phi operand/block arity mismatch");
        return;
      }
      // Incoming blocks must be exactly the CFG predecessors (as a set).
      auto sorted_preds = preds_[b];
      std::sort(sorted_preds.begin(), sorted_preds.end());
      auto sorted_in = inst.phi_blocks;
      std::sort(sorted_in.begin(), sorted_in.end());
      if (sorted_preds != sorted_in) {
        ErrorAt(b, inst, "phi incoming blocks do not match CFG predecessors");
      }
      for (std::size_t i = 0; i < inst.operands.size(); ++i) {
        if (inst.phi_blocks[i] >= fn_.blocks.size()) {
          ErrorAt(b, inst, "phi incoming block out of range");
          continue;
        }
        CheckUse(b, pos, inst, inst.operands[i], /*is_phi_incoming=*/true, inst.phi_blocks[i]);
        if (TypeOf(inst.operands[i]) != inst.type) {
          ErrorAt(b, inst, "phi incoming type mismatch");
        }
      }
      return;
    }
    for (ValueRef v : inst.operands) CheckUse(b, pos, inst, v, false, 0);

    // Opcode-specific typing.
    switch (inst.op) {
      case Opcode::kBr:
        if (inst.bb_true >= fn_.blocks.size()) ErrorAt(b, inst, "bad branch target");
        break;
      case Opcode::kCondBr:
        if (inst.bb_true >= fn_.blocks.size() || inst.bb_false >= fn_.blocks.size()) {
          ErrorAt(b, inst, "bad branch target");
        }
        if (inst.operands.size() != 1 || TypeOf(inst.operands[0]) != Type::I1()) {
          ErrorAt(b, inst, "condbr requires a single i1 condition");
        }
        break;
      case Opcode::kRet:
        if (fn_.return_type.IsVoid()) {
          if (!inst.operands.empty()) ErrorAt(b, inst, "ret with value in void function");
        } else if (inst.operands.size() != 1 ||
                   TypeOf(inst.operands[0]) != fn_.return_type) {
          ErrorAt(b, inst, "ret value type mismatch");
        }
        break;
      case Opcode::kLoad:
        if (inst.operands.size() != 1 || !TypeOf(inst.operands[0]).IsPointer()) {
          ErrorAt(b, inst, "load requires a pointer operand");
        } else if (TypeOf(inst.operands[0]).Pointee() != inst.type) {
          ErrorAt(b, inst, "load result type does not match pointee");
        }
        break;
      case Opcode::kStore:
        if (inst.operands.size() != 2 || !TypeOf(inst.operands[1]).IsPointer()) {
          ErrorAt(b, inst, "store requires (value, pointer) operands");
        } else if (TypeOf(inst.operands[1]).Pointee() != TypeOf(inst.operands[0])) {
          ErrorAt(b, inst, "store value type does not match pointee");
        }
        break;
      case Opcode::kGep:
        if (inst.operands.size() != 2 || !TypeOf(inst.operands[0]).IsPointer() ||
            !TypeOf(inst.operands[1]).IsInt()) {
          ErrorAt(b, inst, "gep requires (pointer, integer) operands");
        } else if (inst.gep_elem_bytes == 0) {
          ErrorAt(b, inst, "gep element size is zero");
        }
        break;
      case Opcode::kCall: {
        if (inst.is_intrinsic) {
          if (inst.operands.size() != IntrinsicArity(inst.intrinsic)) {
            ErrorAt(b, inst, "intrinsic arity mismatch");
          }
          break;
        }
        if (inst.callee >= module_.functions.size()) {
          ErrorAt(b, inst, "call target out of range");
          break;
        }
        const Function& callee = module_.functions[inst.callee];
        if (inst.operands.size() != callee.num_params) {
          ErrorAt(b, inst, "call argument count mismatch");
          break;
        }
        for (std::size_t i = 0; i < inst.operands.size(); ++i) {
          if (TypeOf(inst.operands[i]) != callee.registers[i].type) {
            ErrorAt(b, inst, "call argument type mismatch");
          }
        }
        break;
      }
      default:
        if (IsBinaryArith(inst.op)) {
          if (inst.operands.size() != 2 ||
              TypeOf(inst.operands[0]) != TypeOf(inst.operands[1]) ||
              TypeOf(inst.operands[0]) != inst.type) {
            ErrorAt(b, inst, "binary operand typing violation");
          }
        }
        break;
    }
  }

  [[nodiscard]] Type TypeOf(ValueRef v) const { return module_.TypeOf(fn_, v); }

  const Module& module_;
  const Function& fn_;
  std::uint32_t fn_index_;
  std::vector<std::string>& errors_;
  std::vector<std::uint32_t> def_block_;
  std::vector<std::uint32_t> def_pos_;
  std::vector<std::uint32_t> idom_;
  std::vector<std::vector<std::uint32_t>> preds_;
  bool single_assignment_ok_ = true;
};

}  // namespace

std::string VerifyResult::Summary() const {
  std::ostringstream os;
  os << errors.size() << " verifier error(s)";
  for (const auto& e : errors) os << "\n  " << e;
  return os.str();
}

VerifyResult VerifyModule(const Module& module) {
  const obs::TraceSpan span("parse", "verify-module");
  VerifyResult result;
  for (std::uint32_t f = 0; f < module.functions.size(); ++f) {
    FunctionVerifier(module, module.functions[f], f, result.errors).Run();
  }
  return result;
}

void VerifyModuleOrThrow(const Module& module) {
  const VerifyResult result = VerifyModule(module);
  if (!result.ok()) throw std::runtime_error(result.Summary());
}

}  // namespace epvf::ir
