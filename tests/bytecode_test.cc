// The flat bytecode and its executor (src/vm/bytecode.h, compile.cc,
// exec_bytecode.cc): structural invariants of the compiled program, and the
// executor contract — a sink-free run (the fast loop between events) is
// bit-identical to a sink-attached run (every instruction on the careful
// step) for fault-free runs, injected runs, budget traps, and checkpoint
// resume in both directions.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "apps/app.h"
#include "epvf/analysis.h"
#include "ir/builder.h"
#include "vm/bytecode.h"
#include "vm/compile.h"
#include "vm/fault_plan.h"
#include "vm/interpreter.h"
#include "vm/trace.h"

namespace epvf {
namespace {

void ExpectSameResult(const vm::RunResult& got, const vm::RunResult& want) {
  EXPECT_EQ(got.trap, want.trap);
  EXPECT_EQ(got.instructions_executed, want.instructions_executed);
  EXPECT_EQ(got.trap_dyn_index, want.trap_dyn_index);
  EXPECT_EQ(got.trap_addr, want.trap_addr);
  EXPECT_EQ(got.fault_was_applied, want.fault_was_applied);
  EXPECT_EQ(got.output, want.output);
}

/// Runs `module` on the careful step: an attached sink keeps every
/// instruction there.
vm::RunResult RunCareful(const ir::Module& module, const vm::ExecOptions& exec) {
  vm::NullTraceSink sink;
  vm::Interpreter interp(module, exec);
  return interp.Run("main", &sink);
}

// --- compiled-program structure ----------------------------------------------

TEST(BytecodeCompile, CodeIsOneToOneWithInstructions) {
  for (const char* name : {"mm", "lulesh", "pathfinder"}) {
    const apps::App app = apps::BuildApp(name, apps::AppConfig{.scale = 0});
    const auto program = vm::bc::Compile(app.module);
    ASSERT_NE(program, nullptr);
    ASSERT_EQ(program->functions.size(), app.module.functions.size());

    for (std::size_t fi = 0; fi < app.module.functions.size(); ++fi) {
      const ir::Function& fn = app.module.functions[fi];
      const vm::bc::FuncCode& fc = program->functions[fi];

      // Blocks concatenate in order: pc == block_start[block] + ip, and the
      // pc -> (block, ip) maps invert PcOf exactly.
      std::size_t total = 0;
      ASSERT_EQ(fc.block_start.size(), fn.blocks.size());
      for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
        EXPECT_EQ(fc.block_start[b], total) << name << " fn " << fi << " block " << b;
        total += fn.blocks[b].instructions.size();
      }
      ASSERT_EQ(fc.code.size(), total);
      ASSERT_EQ(fc.pc_block.size(), total);
      ASSERT_EQ(fc.pc_ip.size(), total);
      for (std::uint32_t pc = 0; pc < fc.code.size(); ++pc) {
        EXPECT_EQ(fc.PcOf(fc.pc_block[pc], fc.pc_ip[pc]), pc);
      }
    }
  }
}

TEST(BytecodeCompile, BranchTargetsResolveToBlockStarts) {
  const apps::App app = apps::BuildApp("lulesh", apps::AppConfig{.scale = 0});
  const auto program = vm::bc::Compile(app.module);
  ASSERT_NE(program, nullptr);

  int branches = 0;
  for (std::size_t fi = 0; fi < app.module.functions.size(); ++fi) {
    const ir::Function& fn = app.module.functions[fi];
    const vm::bc::FuncCode& fc = program->functions[fi];
    for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
      for (std::size_t ip = 0; ip < fn.blocks[b].instructions.size(); ++ip) {
        const ir::Instruction& inst = fn.blocks[b].instructions[ip];
        const vm::bc::BOp& op = fc.code[fc.PcOf(static_cast<std::uint32_t>(b),
                                                static_cast<std::uint32_t>(ip))];
        // Fusion only rewrites the *head* of a pair, so a branch's own BOp is
        // always addressable at its IR position with resolved pc targets.
        if (inst.op == ir::Opcode::kBr) {
          EXPECT_EQ(op.op, vm::bc::BOpcode::kBr);
          EXPECT_EQ(op.b, fc.block_start[inst.bb_true]);
          ++branches;
        } else if (inst.op == ir::Opcode::kCondBr) {
          EXPECT_EQ(op.op, vm::bc::BOpcode::kCondBr);
          EXPECT_EQ(op.b, fc.block_start[inst.bb_true]);
          EXPECT_EQ(op.c, fc.block_start[inst.bb_false]);
          ++branches;
        }
      }
    }
  }
  EXPECT_GT(branches, 10);
}

TEST(BytecodeCompile, LiteralPoolIsDedupedAndSlotsAreBounded) {
  const apps::App app = apps::BuildApp("mm", apps::AppConfig{.scale = 0});
  const auto program = vm::bc::Compile(app.module);
  ASSERT_NE(program, nullptr);

  for (std::size_t fi = 0; fi < program->functions.size(); ++fi) {
    const vm::bc::FuncCode& fc = program->functions[fi];
    EXPECT_EQ(fc.frame_slots, fc.num_regs + fc.literals.size());
    EXPECT_GE(fc.num_regs, app.module.functions[fi].registers.size());

    std::set<std::pair<bool, std::uint64_t>> seen;
    for (const vm::bc::Literal& lit : fc.literals) {
      EXPECT_TRUE(seen.emplace(lit.is_global, lit.payload).second)
          << "duplicate literal in fn " << fi;
    }

    // Results land in SSA registers; binary-arithmetic operand slots may name
    // registers or pool entries but never exceed the frame.
    for (const vm::bc::BOp& op : fc.code) {
      if (op.dst != ir::kInvalidIndex && op.op != vm::bc::BOpcode::kBr &&
          op.op != vm::bc::BOpcode::kCondBr) {
        EXPECT_LT(op.dst, fc.num_regs);
      }
      if (op.op <= vm::bc::BOpcode::kAShr) {
        EXPECT_LT(op.a, fc.frame_slots);
        EXPECT_LT(op.b, fc.frame_slots);
      }
    }
  }
}

TEST(BytecodeCompile, FusionFindsTheDominantPairs) {
  const apps::App app = apps::BuildApp("mm", apps::AppConfig{.scale = 0});
  const auto program = vm::bc::Compile(app.module);
  ASSERT_NE(program, nullptr);
  // mm's kernel is literally gep+load / mul+add / fmul+fadd / cmp+br loops.
  using vm::bc::BOpcode;
  EXPECT_GT(program->fused_pairs[static_cast<int>(BOpcode::kGepLoad)], 0u);
  // cmp+br pairs split between the register-operand and folded-literal forms;
  // mm's loop bounds are literals, so the imm form must actually fire.
  EXPECT_GT(program->fused_pairs[static_cast<int>(BOpcode::kCmpBr)] +
                program->fused_pairs[static_cast<int>(BOpcode::kCmpImmBr)],
            0u);
  EXPECT_GT(program->fused_pairs[static_cast<int>(BOpcode::kCmpImmBr)], 0u);
  EXPECT_GT(program->fused_pairs[static_cast<int>(BOpcode::kMulAdd)], 0u);
}

TEST(BytecodeCompile, ThrowsOnAModuleWithoutATerminator) {
  // Every shape the executor cannot represent is a verifier error, so Compile
  // meets one only in an unverified module — and names it.
  ir::Module m;
  ir::IRBuilder b(m);
  (void)b.CreateFunction("main", ir::Type::Void(), {});
  b.Output(b.Add(b.I64(1), b.I64(2)));
  try {
    (void)vm::bc::Compile(m);
    FAIL() << "Compile accepted a block without a terminator";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("terminator"), std::string::npos) << e.what();
  }
}

// --- careful step vs fast loop -------------------------------------------------

TEST(BytecodeTier, FaultFreeRunsAreBitIdentical) {
  for (const char* name : {"mm", "lulesh", "srad", "bfs"}) {
    const apps::App app = apps::BuildApp(name, apps::AppConfig{.scale = 0});
    const vm::RunResult want = RunCareful(app.module, {});

    vm::Interpreter fast_interp(app.module, {});
    const vm::RunResult got = fast_interp.Run();
    SCOPED_TRACE(name);
    ExpectSameResult(got, want);
    EXPECT_TRUE(want.Completed());
  }
}

TEST(BytecodeTier, InjectedRunsAreBitIdentical) {
  const apps::App app = apps::BuildApp("pathfinder", apps::AppConfig{.scale = 0});
  vm::ExecOptions probe;
  vm::Interpreter probe_interp(app.module, probe);
  const std::uint64_t len = probe_interp.Run().instructions_executed;
  ASSERT_GT(len, 64u);

  // Sites across the whole trace, bits across the word: some benign, some
  // crashing, some hitting address arithmetic.
  for (const std::uint64_t dyn : {len / 7, len / 3, len / 2, len - 2}) {
    for (const std::uint8_t bit : {std::uint8_t{0}, std::uint8_t{13}, std::uint8_t{31}}) {
      vm::ExecOptions exec;
      exec.fault = vm::FaultPlan{dyn, 0, bit};
      const vm::RunResult want = RunCareful(app.module, exec);

      vm::Interpreter fast_interp(app.module, exec);
      const vm::RunResult got = fast_interp.Run();
      SCOPED_TRACE("dyn " + std::to_string(dyn) + " bit " + std::to_string(bit));
      ExpectSameResult(got, want);
    }
  }
}

TEST(BytecodeTier, BudgetTrapsAtTheSameInstruction) {
  const apps::App app = apps::BuildApp("mm", apps::AppConfig{.scale = 0});
  vm::ExecOptions probe;
  vm::Interpreter probe_interp(app.module, probe);
  const std::uint64_t len = probe_interp.Run().instructions_executed;

  for (const std::uint64_t budget : {len / 2, len - 1, std::uint64_t{17}}) {
    vm::ExecOptions exec;
    exec.max_instructions = budget;
    const vm::RunResult want = RunCareful(app.module, exec);
    EXPECT_EQ(want.trap, vm::TrapKind::kInstructionLimit);

    vm::Interpreter fast_interp(app.module, exec);
    SCOPED_TRACE("budget " + std::to_string(budget));
    ExpectSameResult(fast_interp.Run(), want);
  }
}

TEST(BytecodeTier, CheckpointsResumeAcrossTiersInBothDirections) {
  const apps::App app = apps::BuildApp("lulesh", apps::AppConfig{.scale = 0});
  vm::ExecOptions probe;
  vm::Interpreter probe_interp(app.module, probe);
  const vm::RunResult golden = probe_interp.Run();
  const std::uint64_t len = golden.instructions_executed;
  const std::vector<std::uint64_t> at = {len / 5, len / 2, (4 * len) / 5};

  // Capture the same sites in both modes; the runs themselves must agree.
  vm::NullTraceSink sink;
  std::vector<vm::Interpreter::Checkpoint> careful_ckpts;
  vm::Interpreter careful_interp(app.module, {});
  ExpectSameResult(careful_interp.RunWithCheckpoints("main", at, careful_ckpts, &sink), golden);

  std::vector<vm::Interpreter::Checkpoint> fast_ckpts;
  vm::Interpreter fast_interp(app.module, {});
  ExpectSameResult(fast_interp.RunWithCheckpoints("main", at, fast_ckpts), golden);

  ASSERT_EQ(careful_ckpts.size(), at.size());
  ASSERT_EQ(fast_ckpts.size(), at.size());

  // Checkpoints hold the executor's one frame format: either mode resumes
  // from either mode's capture with a bit-identical remainder.
  for (std::size_t i = 0; i < at.size(); ++i) {
    SCOPED_TRACE("checkpoint at " + std::to_string(at[i]));
    for (vm::TraceSink* resume_sink : {static_cast<vm::TraceSink*>(&sink),
                                       static_cast<vm::TraceSink*>(nullptr)}) {
      vm::Interpreter from_careful(app.module, {});
      ExpectSameResult(from_careful.ResumeFrom(careful_ckpts[i], resume_sink), golden);
      vm::Interpreter from_fast(app.module, {});
      ExpectSameResult(from_fast.ResumeFrom(fast_ckpts[i], resume_sink), golden);
    }
  }
}

TEST(BytecodeTier, InjectedResumeMatchesInjectedScratchAcrossTiers) {
  const apps::App app = apps::BuildApp("mm", apps::AppConfig{.scale = 0});
  vm::ExecOptions probe;
  vm::Interpreter probe_interp(app.module, probe);
  const std::uint64_t len = probe_interp.Run().instructions_executed;

  std::vector<vm::Interpreter::Checkpoint> ckpts;
  const std::vector<std::uint64_t> at = {len / 3};
  vm::Interpreter capture_interp(app.module, {});
  (void)capture_interp.RunWithCheckpoints("main", at, ckpts);
  ASSERT_EQ(ckpts.size(), 1u);

  // Faults after the checkpoint: careful scratch run vs. fast resume.
  for (const std::uint64_t dyn : {len / 3 + 1, len / 2, len - 3}) {
    for (const std::uint8_t bit : {std::uint8_t{2}, std::uint8_t{30}}) {
      vm::ExecOptions exec;
      exec.fault = vm::FaultPlan{dyn, 0, bit};
      const vm::RunResult want = RunCareful(app.module, exec);

      vm::Interpreter resumed(app.module, exec);
      SCOPED_TRACE("dyn " + std::to_string(dyn) + " bit " + std::to_string(bit));
      ExpectSameResult(resumed.ResumeFrom(ckpts[0]), want);
    }
  }
}

}  // namespace
}  // namespace epvf
