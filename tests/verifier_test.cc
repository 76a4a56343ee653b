// Verifier tests: structural rules, SSA/dominance checking, and the
// dominator/postdominator analyses the activation model relies on.
#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/verifier.h"

namespace epvf::ir {
namespace {

Module DiamondModule(std::uint32_t* blocks_out = nullptr) {
  // entry -> {left, right} -> join -> ret, with a phi at the join.
  Module m;
  IRBuilder b(m);
  (void)b.CreateFunction("f", Type::I32(), {Type::I1()});
  const std::uint32_t entry = b.CurrentBlock();
  const std::uint32_t left = b.CreateBlock("left");
  const std::uint32_t right = b.CreateBlock("right");
  const std::uint32_t join = b.CreateBlock("join");
  b.CondBr(b.Param(0), left, right);
  b.SetInsertPoint(left);
  const ValueRef lv = b.Add(b.I32(1), b.I32(2), "lv");
  b.Br(join);
  b.SetInsertPoint(right);
  const ValueRef rv = b.Add(b.I32(3), b.I32(4), "rv");
  b.Br(join);
  b.SetInsertPoint(join);
  const ValueRef merged = b.Phi(Type::I32(), {{lv, left}, {rv, right}}, "merged");
  b.Ret(merged);
  if (blocks_out != nullptr) {
    blocks_out[0] = entry;
    blocks_out[1] = left;
    blocks_out[2] = right;
    blocks_out[3] = join;
  }
  return m;
}

TEST(Verifier, AcceptsWellFormedDiamond) {
  const Module m = DiamondModule();
  const VerifyResult result = VerifyModule(m);
  EXPECT_TRUE(result.ok()) << result.Summary();
}

TEST(Verifier, RejectsMissingTerminator) {
  Module m;
  IRBuilder b(m);
  (void)b.CreateFunction("f", Type::Void(), {});
  (void)b.Add(b.I32(1), b.I32(1));
  // no terminator appended
  const VerifyResult result = VerifyModule(m);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.Summary().find("terminator"), std::string::npos);
}

TEST(Verifier, RejectsUseNotDominatedByDef) {
  Module m = DiamondModule();
  // Move the phi aside and make 'join' return 'lv' (defined only on the left
  // path) — a classic dominance violation.
  Function& fn = m.functions[0];
  BasicBlock& join = fn.blocks[3];
  const std::uint32_t lv_reg = fn.blocks[1].instructions[0].result;
  join.instructions.clear();
  Instruction ret;
  ret.op = Opcode::kRet;
  ret.operands = {ValueRef::Reg(lv_reg)};
  join.instructions.push_back(ret);
  const VerifyResult result = VerifyModule(m);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.Summary().find("dominated"), std::string::npos);
}

TEST(Verifier, RejectsDoubleDefinition) {
  Module m = DiamondModule();
  Function& fn = m.functions[0];
  // Duplicate the left block's add so the same register is defined twice.
  fn.blocks[1].instructions.insert(fn.blocks[1].instructions.begin(),
                                   fn.blocks[1].instructions[0]);
  const VerifyResult result = VerifyModule(m);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.Summary().find("SSA"), std::string::npos);
}

TEST(Verifier, RejectsPhiWithWrongPredecessors) {
  Module m = DiamondModule();
  Function& fn = m.functions[0];
  Instruction& phi = fn.blocks[3].instructions[0];
  phi.phi_blocks[0] = 0;  // entry is not a predecessor of join
  const VerifyResult result = VerifyModule(m);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.Summary().find("predecessors"), std::string::npos);
}

TEST(Verifier, RejectsPhiInEntryBlock) {
  // A back edge makes the latch a CFG predecessor of the entry block, so the
  // phi's incoming set matches — but a call enters the block with no edge to
  // select an incoming value from.
  Module m;
  IRBuilder b(m);
  (void)b.CreateFunction("f", Type::Void(), {});
  const std::uint32_t latch = b.CreateBlock("latch");
  const std::uint32_t exit = b.CreateBlock("exit");
  const ValueRef iv = b.Phi(Type::I64(), {{b.I64(1), latch}}, "iv");
  b.CondBr(b.ICmp(ICmpPred::kSlt, iv, b.I64(10)), latch, exit);
  b.SetInsertPoint(latch);
  b.Br(0);
  b.SetInsertPoint(exit);
  b.RetVoid();
  const VerifyResult result = VerifyModule(m);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.Summary().find("phi in the entry block"), std::string::npos)
      << result.Summary();
}

TEST(Verifier, RejectsBadBranchTarget) {
  Module m = DiamondModule();
  m.functions[0].blocks[1].instructions.back().bb_true = 99;
  EXPECT_FALSE(VerifyModule(m).ok());
}

// Range errors: the verifier prints the offending instruction in each
// message, so an index outside its table must print as a marker rather than
// be followed, and the bad operand must not be type-checked. Modules built in
// memory reach these (the parser resolves names, so textual IR cannot).

/// Verifies `m`, expecting a failure whose summary names `error` and prints
/// the out-of-range index as `marker`.
void ExpectRangeError(const Module& m, const std::string& error, const std::string& marker) {
  const VerifyResult result = VerifyModule(m);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.Summary().find(error), std::string::npos) << result.Summary();
  EXPECT_NE(result.Summary().find(marker), std::string::npos) << result.Summary();
}

TEST(Verifier, BadBranchTargetPrintsAMarker) {
  Module m = DiamondModule();
  m.functions[0].blocks[0].instructions.back().bb_false = 99;
  ExpectRangeError(m, "bad branch target", "<bad block 99>");
}

TEST(Verifier, BadConstantIndexPrintsAMarker) {
  Module m = DiamondModule();
  m.functions[0].blocks[1].instructions[0].operands[1] = ValueRef::Const(12345);
  ExpectRangeError(m, "bad constant index", "<bad constant 12345>");
}

TEST(Verifier, BadGlobalIndexPrintsAMarker) {
  Module m = DiamondModule();
  m.functions[0].blocks[1].instructions[0].operands[0] = ValueRef::Global(77);
  ExpectRangeError(m, "bad global index", "@<bad global 77>");
}

TEST(Verifier, OutOfRangeRegisterPrintsAMarker) {
  Module m = DiamondModule();
  m.functions[0].blocks[3].instructions.back().operands[0] = ValueRef::Reg(500);
  ExpectRangeError(m, "use of out-of-range register", "%<bad register 500>");
}

TEST(Verifier, PhiIncomingBlockOutOfRangePrintsAMarker) {
  Module m = DiamondModule();
  m.functions[0].blocks[3].instructions[0].phi_blocks[1] = 64;
  ExpectRangeError(m, "phi incoming block out of range", "<bad block 64>");
}

TEST(Verifier, CallTargetOutOfRangePrintsAMarker) {
  Module m;
  IRBuilder b(m);
  (void)b.CreateFunction("f", Type::Void(), {});
  b.RetVoid();
  Instruction call;
  call.op = Opcode::kCall;
  call.callee = 9;
  call.type = Type::Void();
  std::vector<Instruction>& insts = m.functions[0].blocks[0].instructions;
  insts.insert(insts.begin(), call);
  ExpectRangeError(m, "call target out of range", "@<bad function 9>");
}

TEST(Verifier, RejectsStoreTypeMismatch) {
  Module m;
  IRBuilder b(m);
  (void)b.CreateFunction("f", Type::Void(), {});
  const ValueRef p = b.Alloca(Type::I32(), 1);
  b.Store(b.I32(1), p);
  b.RetVoid();
  // Corrupt the stored value's type after the fact.
  m.functions[0].blocks[0].instructions[1].operands[0] =
      m.InternConstant(MakeIntConstant(Type::I64(), 1));
  EXPECT_FALSE(VerifyModule(m).ok());
}

TEST(Verifier, RejectsRetTypeMismatch) {
  Module m;
  IRBuilder b(m);
  (void)b.CreateFunction("f", Type::I32(), {});
  b.Ret(b.I32(0));
  m.functions[0].blocks[0].instructions.back().operands[0] =
      m.InternConstant(MakeIntConstant(Type::I64(), 0));
  EXPECT_FALSE(VerifyModule(m).ok());
}

TEST(Verifier, VerifyModuleOrThrowThrows) {
  Module m;
  IRBuilder b(m);
  (void)b.CreateFunction("f", Type::Void(), {});
  EXPECT_THROW(VerifyModuleOrThrow(m), std::runtime_error);
}

// --- dominators ----------------------------------------------------------------

TEST(Dominators, DiamondShape) {
  std::uint32_t blocks[4];
  const Module m = DiamondModule(blocks);
  const auto idom = ComputeImmediateDominators(m.functions[0]);
  EXPECT_EQ(idom[blocks[0]], blocks[0]);  // entry dominates itself
  EXPECT_EQ(idom[blocks[1]], blocks[0]);
  EXPECT_EQ(idom[blocks[2]], blocks[0]);
  EXPECT_EQ(idom[blocks[3]], blocks[0]) << "join's idom skips both arms";
}

TEST(Dominators, LoopHeader) {
  Module m;
  IRBuilder b(m);
  (void)b.CreateFunction("f", Type::Void(), {});
  const std::uint32_t entry = b.CurrentBlock();
  const std::uint32_t header = b.CreateBlock("header");
  const std::uint32_t body = b.CreateBlock("body");
  const std::uint32_t exit = b.CreateBlock("exit");
  b.Br(header);
  b.SetInsertPoint(header);
  const ValueRef iv = b.Phi(Type::I64(), {{b.I64(0), entry}}, "iv");
  b.CondBr(b.ICmp(ICmpPred::kSlt, iv, b.I64(10)), body, exit);
  b.SetInsertPoint(body);
  const ValueRef next = b.Add(iv, b.I64(1));
  b.Br(header);
  b.AddPhiIncoming(iv, next, body);
  b.SetInsertPoint(exit);
  b.RetVoid();
  ASSERT_TRUE(VerifyModule(m).ok()) << VerifyModule(m).Summary();

  const auto idom = ComputeImmediateDominators(m.functions[0]);
  EXPECT_EQ(idom[header], entry);
  EXPECT_EQ(idom[body], header);
  EXPECT_EQ(idom[exit], header);

  // --- postdominators for the same CFG ------------------------------------
  const auto ipdom = ComputeImmediatePostDominators(m.functions[0]);
  EXPECT_TRUE(PostDominates(ipdom, exit, header)) << "all paths exit through 'exit'";
  EXPECT_TRUE(PostDominates(ipdom, header, body));
  EXPECT_FALSE(PostDominates(ipdom, body, header))
      << "the loop body is skipped when the trip count is corrupted";
  EXPECT_TRUE(PostDominates(ipdom, header, entry));
  EXPECT_TRUE(PostDominates(ipdom, body, body));
}

TEST(PostDominators, DiamondJoin) {
  std::uint32_t blocks[4];
  const Module m = DiamondModule(blocks);
  const auto ipdom = ComputeImmediatePostDominators(m.functions[0]);
  EXPECT_TRUE(PostDominates(ipdom, blocks[3], blocks[0]));
  EXPECT_TRUE(PostDominates(ipdom, blocks[3], blocks[1]));
  EXPECT_FALSE(PostDominates(ipdom, blocks[1], blocks[0]))
      << "one arm of a diamond never postdominates the split";
}

TEST(Predecessors, Diamond) {
  std::uint32_t blocks[4];
  const Module m = DiamondModule(blocks);
  const auto preds = ComputePredecessors(m.functions[0]);
  EXPECT_TRUE(preds[blocks[0]].empty());
  EXPECT_EQ(preds[blocks[3]].size(), 2u);
}

}  // namespace
}  // namespace epvf::ir
