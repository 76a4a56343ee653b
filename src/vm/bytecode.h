// Flat register bytecode — the program format the executor steps.
//
// The careful step re-decodes `ir::Instruction` objects (operand vectors,
// TypeOf lookups, phi-block scans) on every dynamic instruction. The bytecode
// compiler does all of that once for the fast loop: each IR instruction
// lowers to exactly one fixed-width `BOp` whose operands are dense frame-slot
// indices and whose branch targets are code offsets, so the inner loop is a
// single indexed dispatch with no pointer chasing.
//
// Layout invariants the executor relies on:
//  - `FuncCode::code` is 1:1 with the function's IR instructions, blocks
//    concatenated in order: pc == block_start[block] + ip. Superinstructions
//    do not break this — a fused opcode replaces the *first* op of a pair and
//    the plain second op remains at pc+1, so the careful step and
//    checkpoint/resume can always address individual IR instructions.
//  - A frame's register file has `frame_slots` entries: the function's SSA
//    registers in [0, num_regs) followed by the literal pool (deduplicated
//    constants and global addresses) in [num_regs, frame_slots). Operand
//    fetch is therefore one unconditional `regs[slot]` for every value kind.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "ir/module.h"

namespace epvf::vm::bc {

// One entry per opcode, in dispatch-table order. Fused superinstructions
// (chosen from the dominant dynamic pairs reported by bench_micro) come last.
#define EPVF_BC_OPCODES(V)                                                     \
  V(kAdd) V(kSub) V(kMul) V(kSDiv) V(kUDiv) V(kSRem) V(kURem)                  \
  V(kFAdd) V(kFSub) V(kFMul) V(kFDiv)                                          \
  V(kAnd) V(kOr) V(kXor) V(kShl) V(kLShr) V(kAShr)                             \
  V(kICmp) V(kFCmp) V(kSelect) V(kPhi)                                         \
  V(kMove) V(kSExt) V(kSIToFP) V(kUIToFP) V(kFPToSI) V(kFPTrunc) V(kFPExt)     \
  V(kAlloca) V(kLoad) V(kStore) V(kGep)                                        \
  V(kBr) V(kCondBr) V(kRet) V(kCall)                                           \
  V(kOutputI64) V(kOutputF64) V(kMalloc) V(kFree) V(kAbortIntr) V(kAssert)     \
  V(kDetect) V(kMath)                                                          \
  V(kCmpBr) V(kGepLoad) V(kGepStore) V(kMulAdd) V(kFMulFAdd) V(kCmpImmBr)

enum class BOpcode : std::uint16_t {
#define EPVF_BC_ENUM(n) n,
  EPVF_BC_OPCODES(EPVF_BC_ENUM)
#undef EPVF_BC_ENUM
      kCount,
};

inline constexpr int kNumBOpcodes = static_cast<int>(BOpcode::kCount);

[[nodiscard]] std::string_view BOpcodeName(BOpcode op);

[[nodiscard]] constexpr bool IsFused(BOpcode op) {
  return op >= BOpcode::kCmpBr && op <= BOpcode::kCmpImmBr;
}

/// No phi group to fill on this branch edge.
inline constexpr std::uint32_t kNoEdge = 0xFFFFFFFFu;

/// One decoded instruction. Field use by opcode:
///  - binary/cmp/select: a,b(,c) operand slots, dst result register; `type`
///    is the result type for arithmetic and the *operand* type for compares
///    (aux = predicate).
///  - casts: a source slot, type2 = source type where semantics need it.
///  - kLoad/kStore: aux = access size; store keeps value in a, address in b.
///  - kGep: imm = element bytes, type2 = index type.
///  - kBr/kCondBr: b/c = target pcs, dst = the branch's own block id (becomes
///    prev_block), imm = phi-edge ids (condbr: true edge in the high word).
///  - kCmpImmBr: compare-against-literal fused with its branch; a = left
///    operand slot, imm = the literal's bits (the pool load is folded away;
///    branch targets/edges stay on the plain kCondBr at pc+1).
///  - kRet: aux = has-value, type = function return type.
///  - kCall: imm = callee function index, a = call_args offset, b = argc,
///    dst = caller result register (kInvalidIndex if none), type = return type.
///  - intrinsics: aux = ir::Intrinsic for kMath.
struct BOp {
  BOpcode op = BOpcode::kRet;
  std::uint8_t aux = 0;
  ir::Type type;
  ir::Type type2;
  std::uint32_t dst = ir::kInvalidIndex;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
  std::uint64_t imm = 0;
};

/// A literal-pool entry. Constants carry their interned bit pattern; global
/// addresses depend on the memory layout (and its jitter), so the executor
/// materializes them per Interpreter instance from the global index.
struct Literal {
  bool is_global = false;
  std::uint64_t payload = 0;  ///< constant bits, or global index

  constexpr bool operator==(const Literal&) const = default;
};

/// Which frame slots feed a block's leading phi group when it is entered
/// from one particular predecessor: the source of the group's phi k is
/// phi_sources[offset + k]. Filling the group as a unit at branch time
/// preserves LLVM's parallel-phi (buffer swap) semantics.
struct PhiEdge {
  std::uint32_t offset = 0;  ///< into FuncCode::phi_sources
  std::uint32_t count = 0;   ///< phi group size of the target block
};

struct FuncCode {
  std::vector<BOp> code;                   ///< 1:1 with IR instructions
  std::vector<std::uint32_t> block_start;  ///< block id -> first pc
  std::vector<std::uint32_t> pc_block;     ///< pc -> block id
  std::vector<std::uint32_t> pc_ip;        ///< pc -> instruction index in block
  std::vector<std::uint32_t> phi_count;    ///< block id -> leading phi group size
  std::vector<Literal> literals;
  std::uint32_t num_regs = 0;
  std::uint32_t frame_slots = 0;  ///< num_regs + literals.size()
  std::vector<PhiEdge> phi_edges;
  std::vector<std::uint32_t> phi_sources;  ///< operand slots, grouped per edge
  std::vector<std::uint32_t> call_args;  ///< operand-slot pool for calls

  [[nodiscard]] std::uint32_t PcOf(std::uint32_t block, std::uint32_t ip) const {
    return block_start[block] + ip;
  }
};

struct Program {
  std::vector<FuncCode> functions;  ///< parallel to module.functions
  std::uint64_t fused_pairs[kNumBOpcodes] = {};  ///< static fusion counts by opcode
};

}  // namespace epvf::vm::bc
