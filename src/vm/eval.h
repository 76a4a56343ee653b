// Shared per-instruction evaluation semantics.
//
// The executor's careful step and its fast loop (vm/exec_bytecode.cc) must
// agree bit-for-bit on every operation, so that a run's records do not depend
// on which instructions an event window single-stepped; the compositional
// layer's unit replay (epvf/reexec.cc) must reproduce the same values. The
// single source of truth for arithmetic, comparison, cast, GEP, select and
// phi evaluation, intrinsic math, output rounding and trap semantics
// therefore lives here, inline (an out-of-line step costs the instrumented
// golden run measurably), and all three use it.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "ir/instruction.h"
#include "mem/sim_memory.h"
#include "vm/interpreter.h"
#include "vm/value.h"

namespace epvf::vm::detail {

/// Saturating double→signed conversion (fptosi on hardware is UB-ish for out
/// of range values; the simulated platform defines it as saturate, NaN → 0).
[[nodiscard]] inline std::int64_t SafeFpToInt(double d) {
  if (std::isnan(d)) return 0;
  constexpr double kMax = 9.2233720368547758e18;
  if (d >= kMax) return std::numeric_limits<std::int64_t>::max();
  if (d <= -kMax) return std::numeric_limits<std::int64_t>::min();
  return static_cast<std::int64_t>(d);
}

[[nodiscard]] inline bool EvalICmp(ir::ICmpPred pred, ir::Type type, std::uint64_t a,
                                   std::uint64_t b) {
  const std::int64_t sa = SignedOf(type, a);
  const std::int64_t sb = SignedOf(type, b);
  switch (pred) {
    case ir::ICmpPred::kEq: return a == b;
    case ir::ICmpPred::kNe: return a != b;
    case ir::ICmpPred::kSlt: return sa < sb;
    case ir::ICmpPred::kSle: return sa <= sb;
    case ir::ICmpPred::kSgt: return sa > sb;
    case ir::ICmpPred::kSge: return sa >= sb;
    case ir::ICmpPred::kUlt: return a < b;
    case ir::ICmpPred::kUle: return a <= b;
    case ir::ICmpPred::kUgt: return a > b;
    case ir::ICmpPred::kUge: return a >= b;
  }
  return false;
}

[[nodiscard]] inline bool EvalFCmp(ir::FCmpPred pred, ir::Type type, std::uint64_t a,
                                   std::uint64_t b) {
  const double da = type == ir::Type::F32() ? FloatFromBits(a) : DoubleFromBits(a);
  const double db = type == ir::Type::F32() ? FloatFromBits(b) : DoubleFromBits(b);
  switch (pred) {
    case ir::FCmpPred::kOeq: return da == db;
    case ir::FCmpPred::kOne: return da != db && !std::isnan(da) && !std::isnan(db);
    case ir::FCmpPred::kOlt: return da < db;
    case ir::FCmpPred::kOle: return da <= db;
    case ir::FCmpPred::kOgt: return da > db;
    case ir::FCmpPred::kOge: return da >= db;
  }
  return false;
}

/// Integer/float binary evaluation; sets `trap` on arithmetic errors.
[[nodiscard]] inline std::uint64_t EvalBinary(ir::Opcode op, ir::Type type, std::uint64_t a,
                                              std::uint64_t b, TrapKind& trap) {
  const unsigned width = type.BitWidth();
  switch (op) {
    case ir::Opcode::kAdd: return a + b;
    case ir::Opcode::kSub: return a - b;
    case ir::Opcode::kMul: return a * b;
    case ir::Opcode::kUDiv:
      if (b == 0) { trap = TrapKind::kArithmetic; return 0; }
      return a / b;
    case ir::Opcode::kURem:
      if (b == 0) { trap = TrapKind::kArithmetic; return 0; }
      return a % b;
    case ir::Opcode::kSDiv: {
      const std::int64_t sa = SignedOf(type, a);
      const std::int64_t sb = SignedOf(type, b);
      // x86 raises #DE on both divide-by-zero and INT_MIN / -1 overflow.
      if (sb == 0 || (sb == -1 && sa == std::numeric_limits<std::int64_t>::min())) {
        trap = TrapKind::kArithmetic;
        return 0;
      }
      return static_cast<std::uint64_t>(sa / sb);
    }
    case ir::Opcode::kSRem: {
      const std::int64_t sa = SignedOf(type, a);
      const std::int64_t sb = SignedOf(type, b);
      if (sb == 0 || (sb == -1 && sa == std::numeric_limits<std::int64_t>::min())) {
        trap = TrapKind::kArithmetic;
        return 0;
      }
      return static_cast<std::uint64_t>(sa % sb);
    }
    case ir::Opcode::kAnd: return a & b;
    case ir::Opcode::kOr: return a | b;
    case ir::Opcode::kXor: return a ^ b;
    case ir::Opcode::kShl: return b >= width ? 0 : a << b;
    case ir::Opcode::kLShr: return b >= width ? 0 : a >> b;
    case ir::Opcode::kAShr: {
      const std::int64_t sa = SignedOf(type, a);
      if (b >= width) return sa < 0 ? ~std::uint64_t{0} : 0;
      return static_cast<std::uint64_t>(sa >> b);
    }
    case ir::Opcode::kFAdd:
    case ir::Opcode::kFSub:
    case ir::Opcode::kFMul:
    case ir::Opcode::kFDiv: {
      if (type == ir::Type::F32()) {
        const float fa = FloatFromBits(a);
        const float fb = FloatFromBits(b);
        float r = 0;
        switch (op) {
          case ir::Opcode::kFAdd: r = fa + fb; break;
          case ir::Opcode::kFSub: r = fa - fb; break;
          case ir::Opcode::kFMul: r = fa * fb; break;
          default: r = fa / fb; break;  // IEEE: /0 yields inf, no trap
        }
        return BitsFromFloat(r);
      }
      const double da = DoubleFromBits(a);
      const double db = DoubleFromBits(b);
      double r = 0;
      switch (op) {
        case ir::Opcode::kFAdd: r = da + db; break;
        case ir::Opcode::kFSub: r = da - db; break;
        case ir::Opcode::kFMul: r = da * db; break;
        default: r = da / db; break;
      }
      return BitsFromDouble(r);
    }
    default:
      throw std::logic_error("EvalBinary: not a binary opcode");
  }
}

/// A cast's result before canonicalization to `to`: trunc, zext, bitcast,
/// ptrtoint and inttoptr pass the bits through (canonicalizing truncates);
/// the rest convert between `from` (the operand's type) and `to`.
[[nodiscard]] inline std::uint64_t EvalCast(ir::Opcode op, ir::Type from, ir::Type to,
                                            std::uint64_t v) {
  switch (op) {
    case ir::Opcode::kTrunc:
    case ir::Opcode::kZExt:
    case ir::Opcode::kBitCast:
    case ir::Opcode::kPtrToInt:
    case ir::Opcode::kIntToPtr:
      return v;
    case ir::Opcode::kSExt:
      return SignExtendFrom(v, from.BitWidth());
    case ir::Opcode::kSIToFP: {
      const std::int64_t sv = SignedOf(from, v);
      return to == ir::Type::F32() ? BitsFromFloat(static_cast<float>(sv))
                                   : BitsFromDouble(static_cast<double>(sv));
    }
    case ir::Opcode::kUIToFP:
      return to == ir::Type::F32() ? BitsFromFloat(static_cast<float>(v))
                                   : BitsFromDouble(static_cast<double>(v));
    case ir::Opcode::kFPToSI: {
      const double d = from == ir::Type::F32() ? FloatFromBits(v) : DoubleFromBits(v);
      return static_cast<std::uint64_t>(SafeFpToInt(d));
    }
    case ir::Opcode::kFPTrunc:
      return BitsFromFloat(static_cast<float>(DoubleFromBits(v)));
    case ir::Opcode::kFPExt:
      return BitsFromDouble(static_cast<double>(FloatFromBits(v)));
    default:
      throw std::logic_error("EvalCast: not a cast opcode");
  }
}

/// The address a GEP computes: the index is sign-extended from its own type.
[[nodiscard]] inline std::uint64_t EvalGep(std::uint64_t base, std::uint64_t elem_bytes,
                                           ir::Type index_type, std::uint64_t index) {
  return base + elem_bytes * SignExtendFrom(index, index_type.BitWidth());
}

[[nodiscard]] inline std::uint64_t EvalSelect(std::uint64_t cond, std::uint64_t if_true,
                                              std::uint64_t if_false) {
  return (cond & 1) != 0 ? if_true : if_false;
}

/// The value-only instructions — select, phi, every cast and GEP — from
/// their operand values `ops` (a phi reads only its `selected` slot), before
/// canonicalization to inst.type. Operand types come from `fn`.
[[nodiscard]] inline std::uint64_t EvalValueOnly(const ir::Module& module,
                                                 const ir::Function& fn,
                                                 const ir::Instruction& inst,
                                                 const std::uint64_t* ops,
                                                 std::uint32_t selected) {
  switch (inst.op) {
    case ir::Opcode::kSelect:
      return EvalSelect(ops[0], ops[1], ops[2]);
    case ir::Opcode::kPhi:
      return ops[selected];
    case ir::Opcode::kGep:
      return EvalGep(ops[0], inst.gep_elem_bytes, module.TypeOf(fn, inst.operands[1]), ops[1]);
    default:
      return EvalCast(inst.op, module.TypeOf(fn, inst.operands[0]), inst.type, ops[0]);
  }
}

/// What an f64 output intrinsic pushes to the output stream. Programs emit
/// output through printf-style formatting with limited precision ("%.6g"
/// here); SDC detection compares that printed text, so sub-precision
/// floating-point deviations are masked exactly as in the paper's LLFI-based
/// methodology.
[[nodiscard]] inline std::uint64_t RoundOutputF64(std::uint64_t bits) {
  char text[64];
  std::snprintf(text, sizeof text, "%.6g", DoubleFromBits(bits));
  return BitsFromDouble(std::strtod(text, nullptr));
}

[[nodiscard]] inline std::uint64_t EvalIntrinsicMath(ir::Intrinsic which, std::uint64_t a,
                                                     std::uint64_t b) {
  const double x = DoubleFromBits(a);
  const double y = DoubleFromBits(b);
  double r = 0;
  switch (which) {
    case ir::Intrinsic::kSqrt: r = std::sqrt(x); break;
    case ir::Intrinsic::kFabs: r = std::fabs(x); break;
    case ir::Intrinsic::kExp: r = std::exp(x); break;
    case ir::Intrinsic::kLog: r = std::log(x); break;
    case ir::Intrinsic::kPow: r = std::pow(x, y); break;
    case ir::Intrinsic::kFmin: r = std::fmin(x, y); break;
    case ir::Intrinsic::kFmax: r = std::fmax(x, y); break;
    case ir::Intrinsic::kSin: r = std::sin(x); break;
    case ir::Intrinsic::kCos: r = std::cos(x); break;
    case ir::Intrinsic::kFloor: r = std::floor(x); break;
    default: throw std::logic_error("EvalIntrinsicMath: not a math intrinsic");
  }
  return BitsFromDouble(r);
}

[[nodiscard]] inline TrapKind TrapFromMemFault(mem::MemFault fault) {
  switch (fault) {
    case mem::MemFault::kSegFault: return TrapKind::kSegFault;
    case mem::MemFault::kMisaligned: return TrapKind::kMisaligned;
    case mem::MemFault::kNone: return TrapKind::kNone;
  }
  return TrapKind::kNone;
}

}  // namespace epvf::vm::detail
