// The executor: one IR-level semantics, stepped two ways.
//
// The *careful* step executes one IR instruction at a time from its
// `ir::Instruction` (operand gathering, bit flips, checkpoint capture
// ordering, budget traps) and publishes it to the TraceSink when one is
// attached. It is both the instrumented path of golden profiling runs and the
// handler of every event. The *fast* loop is a computed-goto (or switch)
// dispatch over flat BOps with no per-instruction event polling beyond one
// watermark comparison. It runs only while no sink is attached and the next
// two dynamic instruction indices are clear of every event — checkpoint
// capture sites, the fault plan's injection site, and the instruction budget
// ("two" because a fused superinstruction retires two IR instructions in one
// dispatch). Both modes step the same pc-based Interpreter::Frame, so a
// checkpoint stores exactly what the loop runs.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "vm/bytecode.h"
#include "vm/eval.h"
#include "vm/interpreter.h"
#include "vm/value.h"

#if defined(__GNUC__) && !defined(EPVF_BC_NO_COMPUTED_GOTO)
#define EPVF_BC_THREADED 1
#else
#define EPVF_BC_THREADED 0
#endif

#if defined(__GNUC__)
#define EPVF_BC_ALWAYS_INLINE __attribute__((always_inline))
#else
#define EPVF_BC_ALWAYS_INLINE
#endif

namespace epvf::vm {

namespace {

using ir::Opcode;
using ir::Type;
using Frame = Interpreter::Frame;

/// Fills the phi buffer for entry via `edge`. Reading every source slot
/// before any phi writes its destination preserves the buffer-swap-safe
/// parallel semantics.
void ApplyPhiEdge(const bc::FuncCode& fc, Frame& f, std::uint32_t edge) {
  if (edge == bc::kNoEdge) return;
  const bc::PhiEdge& e = fc.phi_edges[edge];
  if (f.phi.size() < e.count) f.phi.resize(e.count);
  const std::uint32_t* src = fc.phi_sources.data() + e.offset;
  for (std::uint32_t k = 0; k < e.count; ++k) f.phi[k] = f.regs[src[k]];
}

}  // namespace

Interpreter::Frame Interpreter::NewFrame(std::uint32_t fn) const {
  const std::vector<std::uint64_t>& literals = literal_values_[fn];
  Frame frame;
  frame.fn = fn;
  frame.regs.reserve(program_->functions[fn].frame_slots);
  frame.regs.assign(program_->functions[fn].num_regs, 0);
  frame.regs.insert(frame.regs.end(), literals.begin(), literals.end());
  frame.saved_esp = memory_.esp();
  return frame;
}

RunResult Interpreter::Execute(std::vector<Frame> stack, std::uint64_t dyn, RunResult result,
                               std::span<const std::uint64_t> checkpoint_at,
                               std::vector<Checkpoint>* checkpoints, TraceSink* sink) {
  const bc::Program& prog = *program_;

  std::size_t next_ckpt = 0;
  while (next_ckpt < checkpoint_at.size() && checkpoint_at[next_ckpt] < dyn) ++next_ckpt;

  const std::optional<FaultPlan>& fault = options_.fault;
  const std::uint64_t max_instr = options_.max_instructions;

  auto trap_out = [&](TrapKind kind, std::uint64_t addr) -> RunResult& {
    result.trap = kind;
    result.trap_dyn_index = dyn;
    result.trap_addr = addr;
    result.instructions_executed = dyn;
    return result;
  };

  /// Watermark below which the fast loop may run freely: the next dynamic
  /// index at which an event (checkpoint, fault, budget) must be observed.
  auto guard = [&]() -> std::uint64_t {
    std::uint64_t g = max_instr;
    if (next_ckpt < checkpoint_at.size()) g = std::min(g, checkpoint_at[next_ckpt]);
    if (fault.has_value() && fault->dyn_index >= dyn) g = std::min(g, fault->dyn_index);
    return g;
  };

  auto push_frame = [&](std::uint32_t callee_index, const std::uint64_t* args,
                        std::uint32_t result_reg) {
    const ir::Function& callee = module_.functions[callee_index];
    Frame nf = NewFrame(callee_index);
    for (std::uint32_t i = 0; i < callee.num_params; ++i) {
      nf.regs[i] = Canonicalize(callee.registers[i].type, args[i]);
    }
    nf.caller_result_reg = result_reg;
    stack.push_back(std::move(nf));
  };

  // --- careful single-step: one IR instruction, published to the sink.
  // Returns false when the run trapped (result is already finalized via
  // trap_out). Inlined into the event loop: as an out-of-line call it cost a
  // sink-attached run up to ~15% of its stepping time.
  std::vector<std::uint64_t> operand_buf;
  auto careful_step = [&]() EPVF_BC_ALWAYS_INLINE -> bool {
    Frame& f = stack.back();
    const bc::FuncCode& fc = prog.functions[f.fn];
    const ir::Function& fn = module_.functions[f.fn];
    const std::uint32_t block = fc.pc_block[f.pc];
    const std::uint32_t ip = fc.pc_ip[f.pc];
    const ir::Instruction& inst = fn.blocks[block].instructions[ip];

    auto value_of = [&](ir::ValueRef ref) -> std::uint64_t {
      switch (ref.kind) {
        case ir::ValueKind::kRegister: return f.regs[ref.index];
        case ir::ValueKind::kConstant: return module_.GetConstant(ref.index).bits;
        case ir::ValueKind::kGlobal: return global_addresses_[ref.index];
        case ir::ValueKind::kNone: break;
      }
      throw std::logic_error("Interpreter: bad value reference");
    };

    DynContext ctx;
    ctx.dyn_index = dyn;
    ctx.sid = ir::StaticInstrId{f.fn, block, ip};
    ctx.module = &module_;
    ctx.fn = &fn;
    ctx.inst = &inst;

    // --- operand gathering + fault injection --------------------------------
    operand_buf.assign(inst.operands.size(), 0);
    const bool fault_here =
        fault.has_value() && fault->kind == FaultKind::kRegister && fault->dyn_index == dyn;

    if (inst.op == Opcode::kPhi) {
      std::uint32_t selected = 0;
      while (inst.phi_blocks[selected] != f.prev_block) ++selected;
      ctx.selected_operand = selected;
      operand_buf[selected] = f.phi[ip];
      if (fault_here && fault->operand_slot == selected &&
          inst.operands[selected].IsRegister()) {
        // Source-register injection: corrupt the incoming register, and let
        // this phi read the corrupted value (the buffered values other phis
        // of the group read stay pre-flip).
        const auto reg = inst.operands[selected].index;
        const Type rt = fn.registers[reg].type;
        f.regs[reg] = Canonicalize(rt, FlipBits(f.regs[reg], fault->bit, fault->num_bits));
        operand_buf[selected] = f.regs[reg];
        result.fault_was_applied = true;
      }
    } else {
      if (fault_here && fault->operand_slot < inst.operands.size()) {
        const ir::ValueRef target = inst.operands[fault->operand_slot];
        if (target.IsRegister()) {
          const Type rt = fn.registers[target.index].type;
          f.regs[target.index] = Canonicalize(
              rt, FlipBits(f.regs[target.index], fault->bit, fault->num_bits));
          result.fault_was_applied = true;
        }
      }
      for (std::size_t i = 0; i < inst.operands.size(); ++i) {
        operand_buf[i] = value_of(inst.operands[i]);
      }
      // Flips into constant/global operands corrupt only this use.
      if (fault_here && fault->operand_slot < inst.operands.size() &&
          !inst.operands[fault->operand_slot].IsRegister()) {
        const Type ot = module_.TypeOf(fn, inst.operands[fault->operand_slot]);
        operand_buf[fault->operand_slot] = Canonicalize(
            ot, FlipBits(operand_buf[fault->operand_slot], fault->bit, fault->num_bits));
        result.fault_was_applied = true;
      }
    }
    ctx.operand_values = std::span<const std::uint64_t>(operand_buf);

    auto set_result = [&](std::uint64_t bits) {
      const std::uint64_t canonical = Canonicalize(inst.type, bits);
      f.regs[inst.result] = canonical;
      ctx.has_result = true;
      ctx.result_bits = canonical;
    };
    auto probe = [&](std::uint64_t addr, unsigned size) {
      ctx.is_mem_access = true;
      ctx.mem_addr = addr;
      ctx.mem_size = size;
      ctx.map_version = memory_.map().version();
      ctx.esp = memory_.esp();
    };

    // --- execution ----------------------------------------------------------
    std::uint32_t next_block = ir::kInvalidIndex;
    bool cond_taken = false;
    bool did_return = false;
    bool did_call = false;
    std::uint64_t ret_bits = 0;
    bool ret_has_value = false;

    switch (inst.op) {
      case Opcode::kICmp:
        set_result(detail::EvalICmp(inst.icmp_pred, module_.TypeOf(fn, inst.operands[0]),
                                    operand_buf[0], operand_buf[1])
                       ? 1
                       : 0);
        break;
      case Opcode::kFCmp:
        set_result(detail::EvalFCmp(inst.fcmp_pred, module_.TypeOf(fn, inst.operands[0]),
                                    operand_buf[0], operand_buf[1])
                       ? 1
                       : 0);
        break;
      case Opcode::kSelect:
        set_result((operand_buf[0] & 1) != 0 ? operand_buf[1] : operand_buf[2]);
        break;
      case Opcode::kPhi:
        set_result(operand_buf[ctx.selected_operand]);
        break;
      case Opcode::kTrunc:
      case Opcode::kBitCast:
      case Opcode::kPtrToInt:
      case Opcode::kIntToPtr:
      case Opcode::kZExt:
        set_result(operand_buf[0]);  // canonicalization truncates as needed
        break;
      case Opcode::kSExt:
        set_result(SignExtendFrom(operand_buf[0],
                                  module_.TypeOf(fn, inst.operands[0]).BitWidth()));
        break;
      case Opcode::kSIToFP: {
        const auto sv = SignedOf(module_.TypeOf(fn, inst.operands[0]), operand_buf[0]);
        set_result(inst.type == Type::F32() ? BitsFromFloat(static_cast<float>(sv))
                                            : BitsFromDouble(static_cast<double>(sv)));
        break;
      }
      case Opcode::kUIToFP:
        set_result(inst.type == Type::F32()
                       ? BitsFromFloat(static_cast<float>(operand_buf[0]))
                       : BitsFromDouble(static_cast<double>(operand_buf[0])));
        break;
      case Opcode::kFPToSI: {
        const Type from = module_.TypeOf(fn, inst.operands[0]);
        const double d = from == Type::F32() ? FloatFromBits(operand_buf[0])
                                             : DoubleFromBits(operand_buf[0]);
        set_result(static_cast<std::uint64_t>(detail::SafeFpToInt(d)));
        break;
      }
      case Opcode::kFPTrunc:
        set_result(BitsFromFloat(static_cast<float>(DoubleFromBits(operand_buf[0]))));
        break;
      case Opcode::kFPExt:
        set_result(BitsFromDouble(static_cast<double>(FloatFromBits(operand_buf[0]))));
        break;
      case Opcode::kAlloca: {
        const std::uint64_t new_esp = (memory_.esp() - inst.alloca_bytes) & ~std::uint64_t{15};
        memory_.SetEsp(new_esp);
        set_result(new_esp);
        break;
      }
      case Opcode::kGep: {
        const Type index_type = module_.TypeOf(fn, inst.operands[1]);
        const std::uint64_t index = SignExtendFrom(operand_buf[1], index_type.BitWidth());
        set_result(operand_buf[0] + inst.gep_elem_bytes * index);
        break;
      }
      case Opcode::kLoad: {
        const std::uint64_t addr = operand_buf[0];
        const unsigned size = inst.type.StoreSize();
        const mem::MemFault mf = memory_.CheckAccess(addr, size);
        if (mf != mem::MemFault::kNone) {
          trap_out(detail::TrapFromMemFault(mf), addr);
          return false;
        }
        set_result(memory_.LoadScalar(addr, size));
        probe(addr, size);
        break;
      }
      case Opcode::kStore: {
        const std::uint64_t addr = operand_buf[1];
        const Type value_type = module_.TypeOf(fn, inst.operands[0]);
        const unsigned size = value_type.StoreSize();
        const mem::MemFault mf = memory_.CheckAccess(addr, size);
        if (mf != mem::MemFault::kNone) {
          trap_out(detail::TrapFromMemFault(mf), addr);
          return false;
        }
        memory_.StoreScalar(addr, size, operand_buf[0]);
        probe(addr, size);
        break;
      }
      case Opcode::kBr:
        next_block = inst.bb_true;
        break;
      case Opcode::kCondBr:
        cond_taken = (operand_buf[0] & 1) != 0;
        next_block = cond_taken ? inst.bb_true : inst.bb_false;
        break;
      case Opcode::kRet:
        did_return = true;
        ret_has_value = !inst.operands.empty();
        if (ret_has_value) ret_bits = operand_buf[0];
        break;
      case Opcode::kCall: {
        if (inst.is_intrinsic) {
          switch (inst.intrinsic) {
            case ir::Intrinsic::kOutputI64:
              result.output.push_back(operand_buf[0]);
              break;
            case ir::Intrinsic::kOutputF64: {
              // Programs emit output through printf-style formatting with
              // limited precision ("%.6g" here); SDC detection compares that
              // printed text, so sub-precision floating-point deviations are
              // masked exactly as in the paper's LLFI-based methodology.
              char text[64];
              std::snprintf(text, sizeof text, "%.6g", DoubleFromBits(operand_buf[0]));
              result.output.push_back(BitsFromDouble(std::strtod(text, nullptr)));
              break;
            }
            case ir::Intrinsic::kMalloc:
              set_result(memory_.Malloc(operand_buf[0]));
              break;
            case ir::Intrinsic::kFree:
              memory_.Free(operand_buf[0]);
              break;
            case ir::Intrinsic::kAbort:
              trap_out(TrapKind::kAbort, 0);
              return false;
            case ir::Intrinsic::kAssert:
              if ((operand_buf[0] & 1) == 0) {
                trap_out(TrapKind::kAbort, 0);
                return false;
              }
              break;
            case ir::Intrinsic::kDetect:
              trap_out(TrapKind::kDetected, 0);
              return false;
            default:
              set_result(detail::EvalIntrinsicMath(
                  inst.intrinsic, operand_buf[0],
                  inst.operands.size() > 1 ? operand_buf[1] : 0));
              break;
          }
        } else {
          did_call = true;
        }
        break;
      }
      default: {
        TrapKind arith = TrapKind::kNone;
        const std::uint64_t r =
            detail::EvalBinary(inst.op, inst.type, operand_buf[0], operand_buf[1], arith);
        if (arith != TrapKind::kNone) {
          trap_out(arith, 0);
          return false;
        }
        set_result(r);
        break;
      }
    }

    if (sink != nullptr) sink->OnInstruction(ctx);
    ++dyn;

    if (did_return) {
      const std::uint64_t restored_esp = f.saved_esp;
      const std::uint32_t result_reg = f.caller_result_reg;
      const Type ret_type = fn.return_type;
      stack.pop_back();
      memory_.SetEsp(restored_esp);
      if (sink != nullptr) sink->OnExitFunction(ret_has_value && !stack.empty());
      if (!stack.empty() && ret_has_value && result_reg != ir::kInvalidIndex) {
        stack.back().regs[result_reg] = Canonicalize(ret_type, ret_bits);
      }
      return true;
    }
    if (did_call) {
      f.pc += 1;  // caller resumes past the call
      push_frame(inst.callee, operand_buf.data(),
                 inst.DefinesValue() ? inst.result : ir::kInvalidIndex);
      if (sink != nullptr) sink->OnEnterFunction(inst.callee);
      return true;
    }
    if (next_block != ir::kInvalidIndex) {
      // The branch's BOp carries the edge ids for this transition.
      const bc::BOp& bop = fc.code[f.pc];
      const std::uint32_t edge = inst.op == Opcode::kCondBr && cond_taken
                                     ? static_cast<std::uint32_t>(bop.imm >> 32)
                                     : static_cast<std::uint32_t>(bop.imm);
      f.prev_block = block;
      f.pc = fc.block_start[next_block];
      ApplyPhiEdge(fc, f, edge);
      return true;
    }
    f.pc += 1;
    return true;
  };

  // --- main loop: careful steps around events, fast dispatch between -------
  std::vector<std::uint64_t> arg_buf;
  std::uint64_t fast_guard = 0;
  Frame* f = nullptr;
  const bc::FuncCode* fcur = nullptr;
  const bc::BOp* code = nullptr;
  std::uint64_t* R = nullptr;
  const bc::BOp* o = nullptr;
  std::uint32_t pc = 0;

  auto load_frame = [&] {
    f = &stack.back();
    fcur = &prog.functions[f->fn];
    code = fcur->code.data();
    R = f->regs.data();
    pc = f->pc;
  };

events:
  for (;;) {
    if (stack.empty()) {
      result.instructions_executed = dyn;
      return result;
    }
    if (next_ckpt < checkpoint_at.size() && dyn == checkpoint_at[next_ckpt]) {
      // Capture state *before* instruction #dyn executes: a run resumed from
      // this checkpoint replays exactly the instructions from dyn onward.
      Checkpoint ckpt;
      ckpt.dyn_index = dyn;
      ckpt.fault_was_applied = result.fault_was_applied;
      ckpt.frames = stack;
      ckpt.output = result.output;
      ckpt.memory = memory_.TakeSnapshot();
      checkpoints->push_back(std::move(ckpt));
      do {
        ++next_ckpt;  // skip duplicates
      } while (next_ckpt < checkpoint_at.size() && checkpoint_at[next_ckpt] <= dyn);
    }
    if (dyn >= max_instr) return trap_out(TrapKind::kInstructionLimit, 0);
    // Memory-resident faults corrupt the byte *before* instruction #dyn runs
    // (the instruction after the producing store; the guard clamps the fast
    // loop, so this loop always observes the site index), so a run resumed
    // from any checkpoint at or before the site replays the identical
    // corruption.
    if (fault.has_value() && fault->kind == FaultKind::kMemory && fault->dyn_index == dyn &&
        !result.fault_was_applied) {
      memory_.FlipBits(fault->addr, fault->bit, fault->num_bits);
      result.fault_was_applied = true;
    }
    if (sink == nullptr) {
      const std::uint64_t g = guard();
      if (dyn + 2 <= g) {
        fast_guard = g;
        break;
      }
    }
    if (!careful_step()) return result;
  }
  load_frame();

#if EPVF_BC_THREADED
  {
    static const void* const kJump[bc::kNumBOpcodes] = {
#define EPVF_BC_LABEL_ADDR(n) &&L_##n,
        EPVF_BC_OPCODES(EPVF_BC_LABEL_ADDR)
#undef EPVF_BC_LABEL_ADDR
    };

#define EPVF_BC_OP(name) L_##name:
#define EPVF_BC_NEXT() EPVF_BC_DISPATCH()
#define EPVF_BC_DISPATCH()                \
  do {                                    \
    if (dyn + 2 > fast_guard) {           \
      f->pc = pc;                         \
      goto events;                        \
    }                                     \
    o = code + pc;                        \
    goto* kJump[static_cast<int>(o->op)]; \
  } while (0)

    EPVF_BC_DISPATCH();
#else
  for (;;) {
    if (dyn + 2 > fast_guard) {
      f->pc = pc;
      goto events;
    }
    o = code + pc;

#define EPVF_BC_OP(name) case bc::BOpcode::name:
#define EPVF_BC_NEXT() continue

    switch (o->op) {
#endif

#define EPVF_BC_BINARY(name)                                                        \
  EPVF_BC_OP(name) {                                                                \
    TrapKind arith = TrapKind::kNone;                                               \
    const std::uint64_t r =                                                         \
        detail::EvalBinary(ir::Opcode::name, o->type, R[o->a], R[o->b], arith);     \
    if (arith != TrapKind::kNone) return trap_out(arith, 0);                        \
    R[o->dst] = Canonicalize(o->type, r);                                           \
    ++dyn;                                                                          \
    ++pc;                                                                           \
  }                                                                                 \
  EPVF_BC_NEXT();

    EPVF_BC_BINARY(kAdd)
    EPVF_BC_BINARY(kSub)
    EPVF_BC_BINARY(kMul)
    EPVF_BC_BINARY(kSDiv)
    EPVF_BC_BINARY(kUDiv)
    EPVF_BC_BINARY(kSRem)
    EPVF_BC_BINARY(kURem)
    EPVF_BC_BINARY(kFAdd)
    EPVF_BC_BINARY(kFSub)
    EPVF_BC_BINARY(kFMul)
    EPVF_BC_BINARY(kFDiv)
    EPVF_BC_BINARY(kAnd)
    EPVF_BC_BINARY(kOr)
    EPVF_BC_BINARY(kXor)
    EPVF_BC_BINARY(kShl)
    EPVF_BC_BINARY(kLShr)
    EPVF_BC_BINARY(kAShr)
#undef EPVF_BC_BINARY

    EPVF_BC_OP(kICmp) {
      R[o->dst] = detail::EvalICmp(static_cast<ir::ICmpPred>(o->aux), o->type, R[o->a],
                                   R[o->b])
                      ? 1
                      : 0;
      ++dyn;
      ++pc;
    }
    EPVF_BC_NEXT();

    EPVF_BC_OP(kFCmp) {
      R[o->dst] = detail::EvalFCmp(static_cast<ir::FCmpPred>(o->aux), o->type, R[o->a],
                                   R[o->b])
                      ? 1
                      : 0;
      ++dyn;
      ++pc;
    }
    EPVF_BC_NEXT();

    EPVF_BC_OP(kSelect) {
      R[o->dst] = Canonicalize(o->type, (R[o->a] & 1) != 0 ? R[o->b] : R[o->c]);
      ++dyn;
      ++pc;
    }
    EPVF_BC_NEXT();

    EPVF_BC_OP(kPhi) {
      R[o->dst] = Canonicalize(o->type, f->phi[o->a]);
      ++dyn;
      ++pc;
    }
    EPVF_BC_NEXT();

    EPVF_BC_OP(kMove) {
      R[o->dst] = Canonicalize(o->type, R[o->a]);
      ++dyn;
      ++pc;
    }
    EPVF_BC_NEXT();

    EPVF_BC_OP(kSExt) {
      R[o->dst] = Canonicalize(o->type, SignExtendFrom(R[o->a], o->type2.BitWidth()));
      ++dyn;
      ++pc;
    }
    EPVF_BC_NEXT();

    EPVF_BC_OP(kSIToFP) {
      const std::int64_t sv = SignedOf(o->type2, R[o->a]);
      R[o->dst] = Canonicalize(o->type, o->type == Type::F32()
                                            ? BitsFromFloat(static_cast<float>(sv))
                                            : BitsFromDouble(static_cast<double>(sv)));
      ++dyn;
      ++pc;
    }
    EPVF_BC_NEXT();

    EPVF_BC_OP(kUIToFP) {
      R[o->dst] = Canonicalize(o->type, o->type == Type::F32()
                                            ? BitsFromFloat(static_cast<float>(R[o->a]))
                                            : BitsFromDouble(static_cast<double>(R[o->a])));
      ++dyn;
      ++pc;
    }
    EPVF_BC_NEXT();

    EPVF_BC_OP(kFPToSI) {
      const double d =
          o->type2 == Type::F32() ? FloatFromBits(R[o->a]) : DoubleFromBits(R[o->a]);
      R[o->dst] =
          Canonicalize(o->type, static_cast<std::uint64_t>(detail::SafeFpToInt(d)));
      ++dyn;
      ++pc;
    }
    EPVF_BC_NEXT();

    EPVF_BC_OP(kFPTrunc) {
      R[o->dst] =
          Canonicalize(o->type, BitsFromFloat(static_cast<float>(DoubleFromBits(R[o->a]))));
      ++dyn;
      ++pc;
    }
    EPVF_BC_NEXT();

    EPVF_BC_OP(kFPExt) {
      R[o->dst] =
          Canonicalize(o->type, BitsFromDouble(static_cast<double>(FloatFromBits(R[o->a]))));
      ++dyn;
      ++pc;
    }
    EPVF_BC_NEXT();

    EPVF_BC_OP(kAlloca) {
      const std::uint64_t new_esp = (memory_.esp() - o->imm) & ~std::uint64_t{15};
      memory_.SetEsp(new_esp);
      R[o->dst] = Canonicalize(o->type, new_esp);
      ++dyn;
      ++pc;
    }
    EPVF_BC_NEXT();

    EPVF_BC_OP(kGep) {
      R[o->dst] = Canonicalize(
          o->type, R[o->a] + o->imm * SignExtendFrom(R[o->b], o->type2.BitWidth()));
      ++dyn;
      ++pc;
    }
    EPVF_BC_NEXT();

    EPVF_BC_OP(kLoad) {
      const std::uint64_t addr = R[o->a];
      const unsigned size = o->aux;
      const mem::MemFault mf = memory_.CheckAccess(addr, size);
      if (mf != mem::MemFault::kNone) return trap_out(detail::TrapFromMemFault(mf), addr);
      R[o->dst] = Canonicalize(o->type, memory_.LoadScalar(addr, size));
      ++dyn;
      ++pc;
    }
    EPVF_BC_NEXT();

    EPVF_BC_OP(kStore) {
      const std::uint64_t addr = R[o->b];
      const unsigned size = o->aux;
      const mem::MemFault mf = memory_.CheckAccess(addr, size);
      if (mf != mem::MemFault::kNone) return trap_out(detail::TrapFromMemFault(mf), addr);
      memory_.StoreScalar(addr, size, R[o->a]);
      ++dyn;
      ++pc;
    }
    EPVF_BC_NEXT();

    EPVF_BC_OP(kBr) {
      f->prev_block = o->dst;
      ApplyPhiEdge(*fcur, *f, static_cast<std::uint32_t>(o->imm));
      ++dyn;
      pc = o->b;
    }
    EPVF_BC_NEXT();

    EPVF_BC_OP(kCondBr) {
      const bool taken = (R[o->a] & 1) != 0;
      f->prev_block = o->dst;
      ApplyPhiEdge(*fcur, *f,
                   taken ? static_cast<std::uint32_t>(o->imm >> 32)
                         : static_cast<std::uint32_t>(o->imm));
      ++dyn;
      pc = taken ? o->b : o->c;
    }
    EPVF_BC_NEXT();

    EPVF_BC_OP(kRet) {
      const bool has_value = o->aux != 0;
      const std::uint64_t ret_bits = has_value ? R[o->a] : 0;
      const std::uint64_t restored_esp = f->saved_esp;
      const std::uint32_t result_reg = f->caller_result_reg;
      const Type ret_type = o->type;
      ++dyn;
      stack.pop_back();
      memory_.SetEsp(restored_esp);
      if (stack.empty()) {
        result.instructions_executed = dyn;
        return result;
      }
      if (has_value && result_reg != ir::kInvalidIndex) {
        stack.back().regs[result_reg] = Canonicalize(ret_type, ret_bits);
      }
      load_frame();
    }
    EPVF_BC_NEXT();

    EPVF_BC_OP(kCall) {
      const std::uint32_t argc = o->b;
      arg_buf.resize(argc);
      const std::uint32_t* slots = fcur->call_args.data() + o->a;
      for (std::uint32_t i = 0; i < argc; ++i) arg_buf[i] = R[slots[i]];
      f->pc = pc + 1;
      ++dyn;
      push_frame(static_cast<std::uint32_t>(o->imm), arg_buf.data(), o->dst);
      load_frame();
    }
    EPVF_BC_NEXT();

    EPVF_BC_OP(kOutputI64) {
      result.output.push_back(R[o->a]);
      ++dyn;
      ++pc;
    }
    EPVF_BC_NEXT();

    EPVF_BC_OP(kOutputF64) {
      char text[64];
      std::snprintf(text, sizeof text, "%.6g", DoubleFromBits(R[o->a]));
      result.output.push_back(BitsFromDouble(std::strtod(text, nullptr)));
      ++dyn;
      ++pc;
    }
    EPVF_BC_NEXT();

    EPVF_BC_OP(kMalloc) {
      R[o->dst] = Canonicalize(o->type, memory_.Malloc(R[o->a]));
      ++dyn;
      ++pc;
    }
    EPVF_BC_NEXT();

    EPVF_BC_OP(kFree) {
      memory_.Free(R[o->a]);
      ++dyn;
      ++pc;
    }
    EPVF_BC_NEXT();

    EPVF_BC_OP(kAbortIntr) { return trap_out(TrapKind::kAbort, 0); }

    EPVF_BC_OP(kAssert) {
      if ((R[o->a] & 1) == 0) return trap_out(TrapKind::kAbort, 0);
      ++dyn;
      ++pc;
    }
    EPVF_BC_NEXT();

    EPVF_BC_OP(kDetect) { return trap_out(TrapKind::kDetected, 0); }

    EPVF_BC_OP(kMath) {
      R[o->dst] = Canonicalize(
          o->type, detail::EvalIntrinsicMath(static_cast<ir::Intrinsic>(o->aux), R[o->a],
                                             R[o->b]));
      ++dyn;
      ++pc;
    }
    EPVF_BC_NEXT();

    // --- superinstructions: the fused head retires both IR instructions in
    // one dispatch; the plain second op still sits at pc+1 for the careful
    // mode and for resume-into-the-middle cases.
    EPVF_BC_OP(kCmpBr) {
      const bool taken = detail::EvalICmp(static_cast<ir::ICmpPred>(o->aux), o->type,
                                          R[o->a], R[o->b]);
      R[o->dst] = taken ? 1 : 0;
      const bc::BOp* br = o + 1;
      f->prev_block = br->dst;
      ApplyPhiEdge(*fcur, *f,
                   taken ? static_cast<std::uint32_t>(br->imm >> 32)
                         : static_cast<std::uint32_t>(br->imm));
      dyn += 2;
      pc = taken ? br->b : br->c;
    }
    EPVF_BC_NEXT();

    EPVF_BC_OP(kGepLoad) {
      const std::uint64_t addr = Canonicalize(
          o->type, R[o->a] + o->imm * SignExtendFrom(R[o->b], o->type2.BitWidth()));
      R[o->dst] = addr;
      ++dyn;
      const bc::BOp* ld = o + 1;
      const unsigned size = ld->aux;
      const mem::MemFault mf = memory_.CheckAccess(addr, size);
      if (mf != mem::MemFault::kNone) return trap_out(detail::TrapFromMemFault(mf), addr);
      R[ld->dst] = Canonicalize(ld->type, memory_.LoadScalar(addr, size));
      ++dyn;
      pc += 2;
    }
    EPVF_BC_NEXT();

    EPVF_BC_OP(kGepStore) {
      const std::uint64_t addr = Canonicalize(
          o->type, R[o->a] + o->imm * SignExtendFrom(R[o->b], o->type2.BitWidth()));
      R[o->dst] = addr;
      ++dyn;
      const bc::BOp* st = o + 1;
      const unsigned size = st->aux;
      const mem::MemFault mf = memory_.CheckAccess(addr, size);
      if (mf != mem::MemFault::kNone) return trap_out(detail::TrapFromMemFault(mf), addr);
      memory_.StoreScalar(addr, size, R[st->a]);
      ++dyn;
      pc += 2;
    }
    EPVF_BC_NEXT();

    EPVF_BC_OP(kMulAdd) {
      TrapKind arith = TrapKind::kNone;  // mul/add never trap
      R[o->dst] = Canonicalize(
          o->type, detail::EvalBinary(ir::Opcode::kMul, o->type, R[o->a], R[o->b], arith));
      const bc::BOp* ad = o + 1;
      R[ad->dst] = Canonicalize(
          ad->type,
          detail::EvalBinary(ir::Opcode::kAdd, ad->type, R[ad->a], R[ad->b], arith));
      dyn += 2;
      pc += 2;
    }
    EPVF_BC_NEXT();

    EPVF_BC_OP(kCmpImmBr) {
      const bool taken = detail::EvalICmp(static_cast<ir::ICmpPred>(o->aux), o->type,
                                          R[o->a], o->imm);
      R[o->dst] = taken ? 1 : 0;
      const bc::BOp* br = o + 1;
      f->prev_block = br->dst;
      ApplyPhiEdge(*fcur, *f,
                   taken ? static_cast<std::uint32_t>(br->imm >> 32)
                         : static_cast<std::uint32_t>(br->imm));
      dyn += 2;
      pc = taken ? br->b : br->c;
    }
    EPVF_BC_NEXT();

    EPVF_BC_OP(kFMulFAdd) {
      TrapKind arith = TrapKind::kNone;  // IEEE: no fp traps
      R[o->dst] = Canonicalize(
          o->type, detail::EvalBinary(ir::Opcode::kFMul, o->type, R[o->a], R[o->b], arith));
      const bc::BOp* ad = o + 1;
      R[ad->dst] = Canonicalize(
          ad->type,
          detail::EvalBinary(ir::Opcode::kFAdd, ad->type, R[ad->a], R[ad->b], arith));
      dyn += 2;
      pc += 2;
    }
    EPVF_BC_NEXT();

#if EPVF_BC_THREADED
  }
#else
      default:
        throw std::logic_error("Interpreter: bad opcode");
    }
  }
#endif

#undef EPVF_BC_OP
#undef EPVF_BC_NEXT
#if EPVF_BC_THREADED
#undef EPVF_BC_DISPATCH
#endif
}

}  // namespace epvf::vm
