// Differential semantics fuzz: random arithmetic expressions evaluated both
// by the interpreter and by a host-side C++ oracle must agree bit-for-bit,
// for every integer width and operator class — on the executor's fast loop
// (no sink) and on its careful step (a no-op sink attached) alike. Also covers
// recursion (an interpreter + DDG path no benchmark kernel exercises).
#include <gtest/gtest.h>

#include <functional>
#include <limits>

#include "apps/app.h"
#include <vector>

#include "ddg/ace.h"
#include "ddg/builder.h"
#include "epvf/analysis.h"
#include "ir/builder.h"
#include "support/rng.h"
#include "vm/interpreter.h"
#include "vm/trace.h"
#include "vm/value.h"

namespace epvf {
namespace {

using ir::IRBuilder;
using ir::Module;
using ir::Type;
using ir::ValueRef;

/// Host-side oracle mirroring the platform's defined semantics.
std::uint64_t HostEval(ir::Opcode op, unsigned width, std::uint64_t a, std::uint64_t b,
                       bool* traps) {
  const auto trunc = [width](std::uint64_t v) { return TruncateTo(v, width); };
  const auto sext = [width](std::uint64_t v) {
    return static_cast<std::int64_t>(SignExtendFrom(v, width));
  };
  *traps = false;
  switch (op) {
    case ir::Opcode::kAdd: return trunc(a + b);
    case ir::Opcode::kSub: return trunc(a - b);
    case ir::Opcode::kMul: return trunc(a * b);
    case ir::Opcode::kAnd: return a & b;
    case ir::Opcode::kOr: return a | b;
    case ir::Opcode::kXor: return a ^ b;
    case ir::Opcode::kShl: return b >= width ? 0 : trunc(a << b);
    case ir::Opcode::kLShr: return b >= width ? 0 : a >> b;
    case ir::Opcode::kAShr: {
      if (b >= width) return sext(a) < 0 ? trunc(~std::uint64_t{0}) : 0;
      return trunc(static_cast<std::uint64_t>(sext(a) >> b));
    }
    case ir::Opcode::kUDiv:
      if (b == 0) { *traps = true; return 0; }
      return a / b;
    case ir::Opcode::kURem:
      if (b == 0) { *traps = true; return 0; }
      return a % b;
    case ir::Opcode::kSDiv: {
      const std::int64_t sa = sext(a), sb = sext(b);
      if (sb == 0 || (sb == -1 && sa == std::numeric_limits<std::int64_t>::min())) {
        *traps = true;
        return 0;
      }
      return trunc(static_cast<std::uint64_t>(sa / sb));
    }
    case ir::Opcode::kSRem: {
      const std::int64_t sa = sext(a), sb = sext(b);
      if (sb == 0 || (sb == -1 && sa == std::numeric_limits<std::int64_t>::min())) {
        *traps = true;
        return 0;
      }
      return trunc(static_cast<std::uint64_t>(sa % sb));
    }
    default:
      throw std::logic_error("oracle: unhandled opcode");
  }
}

class ArithmeticDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(ArithmeticDifferential, InterpreterMatchesHostOracle) {
  const unsigned width = GetParam();
  const Type type = Type::Int(static_cast<std::uint8_t>(width));
  const std::vector<ir::Opcode> ops = {
      ir::Opcode::kAdd, ir::Opcode::kSub, ir::Opcode::kMul,  ir::Opcode::kAnd,
      ir::Opcode::kOr,  ir::Opcode::kXor, ir::Opcode::kShl,  ir::Opcode::kLShr,
      ir::Opcode::kAShr, ir::Opcode::kUDiv, ir::Opcode::kURem, ir::Opcode::kSDiv,
      ir::Opcode::kSRem};

  Rng rng(width * 7919);
  for (int trial = 0; trial < 120; ++trial) {
    const ir::Opcode op = ops[rng.Below(ops.size())];
    const std::uint64_t a = TruncateTo(rng.Next(), width);
    // Mix shift-sized and full-range second operands; include 0 and -1.
    std::uint64_t b;
    switch (rng.Below(4)) {
      case 0: b = rng.Below(width + 4); break;
      case 1: b = 0; break;
      case 2: b = LowMask(width); break;  // -1
      default: b = TruncateTo(rng.Next(), width); break;
    }

    Module m;
    IRBuilder builder(m);
    (void)builder.CreateFunction("main", Type::Void(), {});
    // Route the constants through adds so the binary op reads registers.
    const ValueRef ra = builder.Add(builder.ConstInt(type, static_cast<std::int64_t>(a)),
                                    builder.ConstInt(type, 0));
    const ValueRef rb = builder.Add(builder.ConstInt(type, static_cast<std::int64_t>(b)),
                                    builder.ConstInt(type, 0));
    ValueRef result;
    switch (op) {
      case ir::Opcode::kAdd: result = builder.Add(ra, rb); break;
      case ir::Opcode::kSub: result = builder.Sub(ra, rb); break;
      case ir::Opcode::kMul: result = builder.Mul(ra, rb); break;
      case ir::Opcode::kAnd: result = builder.And(ra, rb); break;
      case ir::Opcode::kOr: result = builder.Or(ra, rb); break;
      case ir::Opcode::kXor: result = builder.Xor(ra, rb); break;
      case ir::Opcode::kShl: result = builder.Shl(ra, rb); break;
      case ir::Opcode::kLShr: result = builder.LShr(ra, rb); break;
      case ir::Opcode::kAShr: result = builder.AShr(ra, rb); break;
      case ir::Opcode::kUDiv: result = builder.UDiv(ra, rb); break;
      case ir::Opcode::kURem: result = builder.URem(ra, rb); break;
      case ir::Opcode::kSDiv: result = builder.SDiv(ra, rb); break;
      default: result = builder.SRem(ra, rb); break;
    }
    builder.Output(result);
    builder.RetVoid();

    bool oracle_traps = false;
    const std::uint64_t expected = HostEval(op, width, a, b, &oracle_traps);

    vm::Interpreter fast_interp(m, {});
    const vm::RunResult r = fast_interp.Run();
    vm::NullTraceSink sink;
    vm::Interpreter careful_interp(m, {});
    const vm::RunResult careful = careful_interp.Run("main", &sink);
    EXPECT_EQ(careful.trap, r.trap);
    EXPECT_EQ(careful.instructions_executed, r.instructions_executed);
    EXPECT_EQ(careful.trap_dyn_index, r.trap_dyn_index);
    EXPECT_EQ(careful.trap_addr, r.trap_addr);
    EXPECT_EQ(careful.fault_was_applied, r.fault_was_applied);
    EXPECT_EQ(careful.output, r.output)
        << ir::OpcodeName(op) << " i" << width << " a=" << a << " b=" << b;
    if (oracle_traps) {
      EXPECT_EQ(r.trap, vm::TrapKind::kArithmetic)
          << ir::OpcodeName(op) << " i" << width << " a=" << a << " b=" << b;
    } else {
      ASSERT_TRUE(r.Completed())
          << ir::OpcodeName(op) << " i" << width << " a=" << a << " b=" << b
          << " trapped " << vm::TrapKindName(r.trap);
      // Output is sign-extended to i64 by Output(); compare in that domain.
      EXPECT_EQ(r.output[0], width < 64 ? SignExtendFrom(expected, width) : expected)
          << ir::OpcodeName(op) << " i" << width << " a=" << a << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ArithmeticDifferential, ::testing::Values(8u, 16u, 32u, 64u));

// --- recursion ---------------------------------------------------------------

Module FibModule(int n) {
  Module m;
  IRBuilder b(m);
  const std::uint32_t fib = b.CreateFunction("fib", Type::I64(), {Type::I64()});
  {
    const std::uint32_t base = b.CreateBlock("base");
    const std::uint32_t recurse = b.CreateBlock("recurse");
    b.CondBr(b.ICmp(ir::ICmpPred::kSlt, b.Param(0), b.I64(2)), base, recurse);
    b.SetInsertPoint(base);
    b.Ret(b.Param(0));
    b.SetInsertPoint(recurse);
    const ValueRef f1 = b.Call(fib, {b.Sub(b.Param(0), b.I64(1))});
    const ValueRef f2 = b.Call(fib, {b.Sub(b.Param(0), b.I64(2))});
    b.Ret(b.Add(f1, f2));
  }
  (void)b.CreateFunction("main", Type::Void(), {});
  b.Output(b.Call(fib, {b.I64(n)}));
  b.RetVoid();
  return m;
}

TEST(Recursion, InterpreterComputesFib) {
  const Module m = FibModule(15);
  vm::Interpreter interp(m, {});
  const vm::RunResult r = interp.Run();
  ASSERT_TRUE(r.Completed());
  EXPECT_EQ(r.output[0], 610u);
  EXPECT_EQ(interp.memory().esp(), interp.memory().layout().stack_top);
}

TEST(Recursion, DdgAliasingSurvivesRecursiveFrames) {
  const Module m = FibModule(10);
  const core::Analysis a = core::Analysis::Run(m);
  EXPECT_TRUE(a.golden().Completed());
  EXPECT_GT(a.Pvf(), 0.9) << "every fib register feeds the output or a branch";
  EXPECT_GE(a.Epvf(), 0.0);
  EXPECT_LE(a.Epvf(), a.Pvf());
  // Memory-resource metrics exist (zero memory traffic here).
  EXPECT_EQ(a.MemoryPvf(), 0.0);
}

TEST(Recursion, MemoryResourceMetricsOnRealKernel) {
  const apps::App app = apps::BuildApp("nw", apps::AppConfig{.scale = 0});
  const core::Analysis a = core::Analysis::Run(app.module);
  EXPECT_GT(a.MemoryPvf(), 0.5) << "the DP matrix is almost entirely live";
  EXPECT_LE(a.MemoryEpvf(), a.MemoryPvf());
  EXPECT_GE(a.MemoryEpvf(), 0.0);
}

}  // namespace
}  // namespace epvf
