#include "vm/compile.h"

#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace epvf::vm::bc {

namespace {

using ir::Opcode;

/// Per-function lowering state. Every IR shape the executor cannot represent
/// is one the verifier rejects, so `Reject` only fires on unverified modules.
class FunctionCompiler {
 public:
  FunctionCompiler(const ir::Module& module, const ir::Function& fn)
      : module_(module), fn_(fn) {}

  void Lower(FuncCode& out, std::uint64_t fused_pairs[kNumBOpcodes]) {
    out.num_regs = static_cast<std::uint32_t>(fn_.registers.size());
    if (fn_.blocks.empty()) Reject("function without blocks: " + fn_.name);

    // Pass 1: block layout. pc is the linear instruction index, so pc <->
    // (block, ip) conversion is a table lookup in both directions.
    std::uint32_t pc = 0;
    out.block_start.reserve(fn_.blocks.size());
    out.phi_count.assign(fn_.blocks.size(), 0);
    for (std::uint32_t b = 0; b < fn_.blocks.size(); ++b) {
      const ir::BasicBlock& bb = fn_.blocks[b];
      if (!bb.HasTerminator()) Reject("block without terminator: " + bb.name);
      out.block_start.push_back(pc);
      bool seen_non_phi = false;
      for (std::uint32_t ip = 0; ip < bb.instructions.size(); ++ip) {
        const ir::Instruction& inst = bb.instructions[ip];
        if (inst.op == Opcode::kPhi) {
          if (seen_non_phi) Reject("phi after a non-phi instruction in block " + bb.name);
          out.phi_count[b] += 1;
        } else {
          seen_non_phi = true;
        }
        out.pc_block.push_back(b);
        out.pc_ip.push_back(ip);
        ++pc;
      }
    }
    // A call enters the entry block with no predecessor edge to fill from.
    if (out.phi_count[0] != 0) Reject("phi in the entry block of function " + fn_.name);

    // Pass 2: emit one BOp per instruction.
    for (std::uint32_t b = 0; b < fn_.blocks.size(); ++b) {
      for (const ir::Instruction& inst : fn_.blocks[b].instructions) {
        out.code.push_back(EmitOne(out, b, inst));
      }
    }

    // Pass 3: fuse the dominant dynamic pairs (bench_micro's histogram —
    // cmp feeding its branch, gep feeding a load/store, mul feeding an add).
    // The plain second op stays at pc+1; only the pair head is rewritten.
    for (std::uint32_t b = 0; b < fn_.blocks.size(); ++b) {
      const std::uint32_t begin = out.block_start[b];
      const std::uint32_t end =
          begin + static_cast<std::uint32_t>(fn_.blocks[b].instructions.size());
      for (std::uint32_t i = begin; i + 1 < end; ++i) {
        BOpcode fused = FusedPair(fn_.blocks[b], i - begin);
        if (fused == BOpcode::kCount) continue;
        if (fused == BOpcode::kCmpBr) {
          // Loop back-edge compares are overwhelmingly against a literal
          // bound; folding the constant's bits into the head op skips the
          // pool-slot load on the hottest dispatch in the program.
          const ir::Instruction& cmp = fn_.blocks[b].instructions[i - begin];
          if (cmp.operands[1].IsConstant()) {
            fused = BOpcode::kCmpImmBr;
            out.code[i].imm = module_.GetConstant(cmp.operands[1].index).bits;
          }
        }
        out.code[i].op = fused;
        fused_pairs[static_cast<int>(fused)] += 1;
        ++i;  // the consumed second op cannot head another pair
      }
    }

    out.frame_slots = out.num_regs + static_cast<std::uint32_t>(out.literals.size());
  }

 private:
  [[noreturn]] static void Reject(const std::string& construct) {
    throw std::invalid_argument("bc::Compile: unverified module: " + construct);
  }

  /// Frame slot of a value reference: registers keep their IR index, other
  /// kinds intern into the literal pool at slots >= num_regs.
  std::uint32_t SlotOf(FuncCode& out, ir::ValueRef ref) {
    if (ref.IsRegister()) return ref.index;
    Literal lit;
    if (ref.IsConstant()) {
      lit.payload = module_.GetConstant(ref.index).bits;
    } else {
      lit.is_global = true;
      lit.payload = ref.index;
    }
    const auto key = std::make_pair(lit.is_global, lit.payload);
    const auto it = literal_slots_.find(key);
    if (it != literal_slots_.end()) return it->second;
    const auto slot = out.num_regs + static_cast<std::uint32_t>(out.literals.size());
    out.literals.push_back(lit);
    literal_slots_.emplace(key, slot);
    return slot;
  }

  /// Phi-edge id for entering `target` from `from`, creating the source-slot
  /// list on first use. kNoEdge when the target has no phi group.
  std::uint32_t EdgeOf(FuncCode& out, std::uint32_t from, std::uint32_t target) {
    if (out.phi_count[target] == 0) return kNoEdge;
    const auto key = std::make_pair(target, from);
    const auto it = edge_ids_.find(key);
    if (it != edge_ids_.end()) return it->second;
    PhiEdge e;
    e.offset = static_cast<std::uint32_t>(out.phi_sources.size());
    e.count = out.phi_count[target];
    for (std::uint32_t k = 0; k < e.count; ++k) {
      const ir::Instruction& phi = fn_.blocks[target].instructions[k];
      std::uint32_t i = 0;
      while (i < phi.phi_blocks.size() && phi.phi_blocks[i] != from) ++i;
      if (i == phi.phi_blocks.size()) {
        Reject("phi without an incoming edge in block " + fn_.blocks[target].name);
      }
      out.phi_sources.push_back(SlotOf(out, phi.operands[i]));
    }
    const auto edge = static_cast<std::uint32_t>(out.phi_edges.size());
    out.phi_edges.push_back(e);
    edge_ids_.emplace(key, edge);
    return edge;
  }

  BOp EmitOne(FuncCode& out, std::uint32_t block, const ir::Instruction& inst) {
    for (const ir::ValueRef& ref : inst.operands) {
      if (ref.IsNone()) Reject("instruction with a none operand in " + fn_.name);
    }
    BOp op;
    op.dst = inst.result;
    op.type = inst.type;
    switch (inst.op) {
      case Opcode::kAdd: case Opcode::kSub: case Opcode::kMul:
      case Opcode::kSDiv: case Opcode::kUDiv: case Opcode::kSRem: case Opcode::kURem:
      case Opcode::kFAdd: case Opcode::kFSub: case Opcode::kFMul: case Opcode::kFDiv:
      case Opcode::kAnd: case Opcode::kOr: case Opcode::kXor:
      case Opcode::kShl: case Opcode::kLShr: case Opcode::kAShr:
        // BOpcode's leading section mirrors ir::Opcode's binary-arith order.
        op.op = static_cast<BOpcode>(static_cast<int>(inst.op));
        op.a = SlotOf(out, inst.operands[0]);
        op.b = SlotOf(out, inst.operands[1]);
        break;
      case Opcode::kICmp:
        op.op = BOpcode::kICmp;
        op.aux = static_cast<std::uint8_t>(inst.icmp_pred);
        op.type = module_.TypeOf(fn_, inst.operands[0]);  // operand type drives signedness
        op.a = SlotOf(out, inst.operands[0]);
        op.b = SlotOf(out, inst.operands[1]);
        break;
      case Opcode::kFCmp:
        op.op = BOpcode::kFCmp;
        op.aux = static_cast<std::uint8_t>(inst.fcmp_pred);
        op.type = module_.TypeOf(fn_, inst.operands[0]);
        op.a = SlotOf(out, inst.operands[0]);
        op.b = SlotOf(out, inst.operands[1]);
        break;
      case Opcode::kSelect:
        op.op = BOpcode::kSelect;
        op.a = SlotOf(out, inst.operands[0]);
        op.b = SlotOf(out, inst.operands[1]);
        op.c = SlotOf(out, inst.operands[2]);
        break;
      case Opcode::kPhi:
        op.op = BOpcode::kPhi;
        op.a = out.pc_ip[out.code.size()];  // index within the leading group
        break;
      case Opcode::kTrunc: case Opcode::kZExt: case Opcode::kBitCast:
      case Opcode::kPtrToInt: case Opcode::kIntToPtr:
        op.op = BOpcode::kMove;  // canonicalization to the result type does the work
        op.a = SlotOf(out, inst.operands[0]);
        break;
      case Opcode::kSExt:
        op.op = BOpcode::kSExt;
        op.a = SlotOf(out, inst.operands[0]);
        op.type2 = module_.TypeOf(fn_, inst.operands[0]);
        break;
      case Opcode::kSIToFP:
        op.op = BOpcode::kSIToFP;
        op.a = SlotOf(out, inst.operands[0]);
        op.type2 = module_.TypeOf(fn_, inst.operands[0]);
        break;
      case Opcode::kUIToFP:
        op.op = BOpcode::kUIToFP;
        op.a = SlotOf(out, inst.operands[0]);
        break;
      case Opcode::kFPToSI:
        op.op = BOpcode::kFPToSI;
        op.a = SlotOf(out, inst.operands[0]);
        op.type2 = module_.TypeOf(fn_, inst.operands[0]);
        break;
      case Opcode::kFPTrunc:
        op.op = BOpcode::kFPTrunc;
        op.a = SlotOf(out, inst.operands[0]);
        break;
      case Opcode::kFPExt:
        op.op = BOpcode::kFPExt;
        op.a = SlotOf(out, inst.operands[0]);
        break;
      case Opcode::kAlloca:
        op.op = BOpcode::kAlloca;
        op.imm = inst.alloca_bytes;
        break;
      case Opcode::kGep:
        op.op = BOpcode::kGep;
        op.a = SlotOf(out, inst.operands[0]);
        op.b = SlotOf(out, inst.operands[1]);
        op.imm = inst.gep_elem_bytes;
        op.type2 = module_.TypeOf(fn_, inst.operands[1]);
        break;
      case Opcode::kLoad:
        op.op = BOpcode::kLoad;
        op.a = SlotOf(out, inst.operands[0]);
        op.aux = static_cast<std::uint8_t>(inst.type.StoreSize());
        break;
      case Opcode::kStore:
        op.op = BOpcode::kStore;
        op.a = SlotOf(out, inst.operands[0]);
        op.b = SlotOf(out, inst.operands[1]);
        op.type2 = module_.TypeOf(fn_, inst.operands[0]);
        op.aux = static_cast<std::uint8_t>(op.type2.StoreSize());
        break;
      case Opcode::kBr: {
        op.op = BOpcode::kBr;
        op.dst = block;  // becomes prev_block when taken
        op.b = out.block_start[inst.bb_true];
        op.imm = EdgeOf(out, block, inst.bb_true);
        break;
      }
      case Opcode::kCondBr: {
        op.op = BOpcode::kCondBr;
        op.dst = block;
        op.a = SlotOf(out, inst.operands[0]);
        op.b = out.block_start[inst.bb_true];
        op.c = out.block_start[inst.bb_false];
        const std::uint32_t true_edge = EdgeOf(out, block, inst.bb_true);
        const std::uint32_t false_edge = EdgeOf(out, block, inst.bb_false);
        op.imm = (static_cast<std::uint64_t>(true_edge) << 32) | false_edge;
        break;
      }
      case Opcode::kRet:
        op.op = BOpcode::kRet;
        op.aux = inst.operands.empty() ? 0 : 1;
        op.type = fn_.return_type;
        if (op.aux != 0) op.a = SlotOf(out, inst.operands[0]);
        break;
      case Opcode::kCall:
        if (inst.is_intrinsic) {
          EmitIntrinsic(out, inst, op);
          break;
        }
        op.op = BOpcode::kCall;
        op.imm = inst.callee;
        op.a = static_cast<std::uint32_t>(out.call_args.size());
        op.b = static_cast<std::uint32_t>(inst.operands.size());
        for (const ir::ValueRef& ref : inst.operands) {
          out.call_args.push_back(SlotOf(out, ref));
        }
        op.dst = inst.DefinesValue() ? inst.result : ir::kInvalidIndex;
        op.type = module_.functions[inst.callee].return_type;
        break;
    }
    return op;
  }

  void EmitIntrinsic(FuncCode& out, const ir::Instruction& inst, BOp& op) {
    switch (inst.intrinsic) {
      case ir::Intrinsic::kOutputI64: op.op = BOpcode::kOutputI64; break;
      case ir::Intrinsic::kOutputF64: op.op = BOpcode::kOutputF64; break;
      case ir::Intrinsic::kMalloc: op.op = BOpcode::kMalloc; break;
      case ir::Intrinsic::kFree: op.op = BOpcode::kFree; break;
      case ir::Intrinsic::kAbort: op.op = BOpcode::kAbortIntr; break;
      case ir::Intrinsic::kAssert: op.op = BOpcode::kAssert; break;
      case ir::Intrinsic::kDetect: op.op = BOpcode::kDetect; break;
      default:
        op.op = BOpcode::kMath;
        op.aux = static_cast<std::uint8_t>(inst.intrinsic);
        break;
    }
    if (!inst.operands.empty()) {
      op.a = SlotOf(out, inst.operands[0]);
      // Unary math intrinsics ignore their second argument; aliasing it to
      // the first keeps the fetch branchless.
      op.b = inst.operands.size() > 1 ? SlotOf(out, inst.operands[1]) : op.a;
    }
  }

  /// Returns the fused opcode for the pair starting at instruction `ip` of
  /// `bb`, or kCount when the pair is not fusable.
  static BOpcode FusedPair(const ir::BasicBlock& bb, std::uint32_t ip) {
    const ir::Instruction& first = bb.instructions[ip];
    const ir::Instruction& second = bb.instructions[ip + 1];
    switch (first.op) {
      case Opcode::kICmp:
        if (second.op == Opcode::kCondBr &&
            second.operands[0] == ir::ValueRef::Reg(first.result)) {
          return BOpcode::kCmpBr;
        }
        break;
      case Opcode::kGep:
        if (second.op == Opcode::kLoad &&
            second.operands[0] == ir::ValueRef::Reg(first.result)) {
          return BOpcode::kGepLoad;
        }
        if (second.op == Opcode::kStore &&
            second.operands[1] == ir::ValueRef::Reg(first.result)) {
          return BOpcode::kGepStore;
        }
        break;
      case Opcode::kMul:
        if (second.op == Opcode::kAdd &&
            (second.operands[0] == ir::ValueRef::Reg(first.result) ||
             second.operands[1] == ir::ValueRef::Reg(first.result))) {
          return BOpcode::kMulAdd;
        }
        break;
      case Opcode::kFMul:
        if (second.op == Opcode::kFAdd &&
            (second.operands[0] == ir::ValueRef::Reg(first.result) ||
             second.operands[1] == ir::ValueRef::Reg(first.result))) {
          return BOpcode::kFMulFAdd;
        }
        break;
      default:
        break;
    }
    return BOpcode::kCount;
  }

  const ir::Module& module_;
  const ir::Function& fn_;
  std::map<std::pair<bool, std::uint64_t>, std::uint32_t> literal_slots_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> edge_ids_;
};

}  // namespace

std::shared_ptr<const Program> Compile(const ir::Module& module) {
  const obs::TraceSpan span("vm", "compile-bytecode");
  static obs::Counter& compiles = obs::GetCounter("vm.bytecode.compiles");
  compiles.Add();

  auto program = std::make_shared<Program>();
  program->functions.resize(module.functions.size());
  for (std::size_t i = 0; i < module.functions.size(); ++i) {
    FunctionCompiler(module, module.functions[i]).Lower(program->functions[i],
                                                        program->fused_pairs);
  }
  return program;
}

}  // namespace epvf::vm::bc
