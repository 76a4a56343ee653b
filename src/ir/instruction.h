// IR instructions.
//
// One POD-ish struct covers every opcode; the per-opcode payload (predicates,
// branch targets, callee, GEP element size, alignment) lives in small inline
// fields rather than a class hierarchy so instructions can be copied freely —
// the duplication transform (paper section V) and the parser both build
// instruction vectors wholesale, and the interpreter dispatches on `op`.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/intrinsics.h"
#include "ir/opcode.h"
#include "ir/value.h"

namespace epvf::ir {

inline constexpr std::uint32_t kNoRegister = kInvalidIndex;

struct Instruction {
  Opcode op = Opcode::kRet;
  Type type;                           ///< result type (Void for store/br/ret)
  std::uint32_t result = kNoRegister;  ///< defined register, if any
  std::vector<ValueRef> operands;

  // --- per-opcode payloads -------------------------------------------------
  ICmpPred icmp_pred = ICmpPred::kEq;
  FCmpPred fcmp_pred = FCmpPred::kOeq;

  /// kBr: target = bb_true. kCondBr: operands[0] is the i1 condition.
  std::uint32_t bb_true = kInvalidIndex;
  std::uint32_t bb_false = kInvalidIndex;

  /// kCall: either a function index in the module or an intrinsic.
  bool is_intrinsic = false;
  std::uint32_t callee = kInvalidIndex;  ///< function index when !is_intrinsic
  Intrinsic intrinsic = Intrinsic::kOutputI64;

  /// kAlloca: fixed byte size of the stack slot.
  std::uint64_t alloca_bytes = 0;

  /// kLoad/kStore: required alignment (subject of the misaligned-access trap).
  std::uint32_t align = 1;

  /// kGep: byte size of the addressed element; address = base + size * index.
  std::uint64_t gep_elem_bytes = 0;

  /// kPhi: incoming block ids, parallel to `operands`.
  std::vector<std::uint32_t> phi_blocks;

  bool operator==(const Instruction&) const = default;

  [[nodiscard]] bool DefinesValue() const {
    return result != kNoRegister && !type.IsVoid();
  }

  /// Operand slot holding the memory address for load/store, or -1.
  [[nodiscard]] int AddressOperandSlot() const {
    if (op == Opcode::kLoad) return 0;
    if (op == Opcode::kStore) return 1;  // store <value>, <ptr>
    return -1;
  }
};

}  // namespace epvf::ir
