// DDG construction + ACE analysis tests, including a faithful reconstruction
// of the paper's running example (Figure 3): slicing back from one stored
// output location yields ACE bits = 352 of 416 total, PVF = 0.846.
#include <gtest/gtest.h>

#include <deque>
#include <span>
#include <string>
#include <vector>

#include "apps/app.h"
#include "ddg/ace.h"
#include "ddg/builder.h"
#include "ir/builder.h"
#include "support/rng.h"
#include "vm/interpreter.h"

namespace epvf::ddg {
namespace {

using ir::IRBuilder;
using ir::Module;
using ir::Type;
using ir::ValueRef;

struct Built {
  Module module;
  Graph graph;
  vm::RunResult golden;
};

Graph RunAndBuild(const Module& m, vm::RunResult* golden_out = nullptr) {
  vm::ExecOptions opts;
  opts.record_map_history = true;
  vm::Interpreter interp(m, opts);
  GraphBuilder builder(m);
  const vm::RunResult golden = interp.Run("main", &builder);
  EXPECT_TRUE(golden.Completed());
  if (golden_out != nullptr) *golden_out = golden;
  return builder.Take();
}

TEST(GraphBuilder, OneRegisterNodePerDynamicDef) {
  Module m;
  IRBuilder b(m);
  (void)b.CreateFunction("main", Type::Void(), {});
  const ValueRef x = b.Add(b.I64(1), b.I64(2));
  const ValueRef y = b.Add(x, x);
  b.Output(y);
  b.RetVoid();
  const Graph g = RunAndBuild(m);
  // add, add, output call -> 2 register defs + 2 interned constants.
  EXPECT_EQ(g.NumRegisterNodes(), 2u);
  EXPECT_EQ(g.NumDynInstrs(), 4u);  // add, add, call, ret
  // y's node has two preds, both the same x node (used twice).
  const DynInstr& y_def = g.GetDyn(1);
  const auto preds = g.Preds(y_def.result_node);
  ASSERT_EQ(preds.size(), 2u);
  EXPECT_EQ(preds[0], preds[1]);
}

TEST(GraphBuilder, StoreCreatesMemoryVersionWithVirtualAddressEdge) {
  Module m;
  IRBuilder b(m);
  const auto g_var = b.DeclareGlobal("cell", Type::I64(), 4);
  (void)b.CreateFunction("main", Type::Void(), {});
  const ValueRef idx = b.Add(b.I64(1), b.I64(0), "idx");
  const ValueRef p = b.Gep(b.Global(g_var), idx, "p");
  b.Store(b.I64(99), p);
  b.Output(b.Load(p));
  b.RetVoid();
  const Graph g = RunAndBuild(m);

  ASSERT_EQ(g.accesses().size(), 2u);
  const AccessRecord& store = g.accesses()[0];
  EXPECT_TRUE(store.is_store);
  const AccessRecord& load = g.accesses()[1];
  EXPECT_FALSE(load.is_store);
  EXPECT_EQ(store.addr, load.addr);
  EXPECT_EQ(store.size, 8u);

  // The store's node is a memory version whose virtual pred is the address.
  const DynInstr& store_dyn = g.GetDyn(store.dyn_index);
  const Node& mem = g.GetNode(store_dyn.result_node);
  EXPECT_EQ(mem.kind, NodeKind::kMemory);
  EXPECT_EQ(mem.value, 99u);
  const auto mem_preds = g.Preds(store_dyn.result_node);
  ASSERT_EQ(mem_preds.size(), 2u);
  EXPECT_FALSE(g.PredIsVirtual(store_dyn.result_node, 0)) << "stored value: data edge";
  EXPECT_TRUE(g.PredIsVirtual(store_dyn.result_node, 1)) << "address: virtual edge";

  // The load's result links to that memory version plus a virtual addr edge.
  const DynInstr& load_dyn = g.GetDyn(load.dyn_index);
  const auto load_preds = g.Preds(load_dyn.result_node);
  ASSERT_EQ(load_preds.size(), 2u);
  EXPECT_EQ(load_preds[0], store_dyn.result_node);
  EXPECT_TRUE(g.PredIsVirtual(load_dyn.result_node, 1));
}

TEST(GraphBuilder, PhiLinksOnlySelectedIncoming) {
  Module m;
  IRBuilder b(m);
  (void)b.CreateFunction("main", Type::Void(), {});
  const std::uint32_t entry = b.CurrentBlock();
  const std::uint32_t then_bb = b.CreateBlock("then");
  const std::uint32_t else_bb = b.CreateBlock("else");
  const std::uint32_t join = b.CreateBlock("join");
  const ValueRef cond = b.ICmp(ir::ICmpPred::kEq, b.I64(1), b.I64(1));
  b.CondBr(cond, then_bb, else_bb);
  b.SetInsertPoint(then_bb);
  const ValueRef tv = b.Add(b.I64(10), b.I64(0), "tv");
  b.Br(join);
  b.SetInsertPoint(else_bb);
  const ValueRef ev = b.Add(b.I64(20), b.I64(0), "ev");
  b.Br(join);
  b.SetInsertPoint(join);
  const ValueRef merged = b.Phi(Type::I64(), {{tv, then_bb}, {ev, else_bb}}, "m");
  b.Output(merged);
  b.RetVoid();
  (void)entry;
  const Graph g = RunAndBuild(m);

  // Find the phi's dynamic record.
  for (std::uint32_t dyn = 0; dyn < g.NumDynInstrs(); ++dyn) {
    if (g.InstructionAt(dyn).op != ir::Opcode::kPhi) continue;
    const DynInstr& d = g.GetDyn(dyn);
    EXPECT_EQ(d.selected_operand, 0) << "the taken path was 'then'";
    const auto preds = g.Preds(d.result_node);
    ASSERT_EQ(preds.size(), 1u);
    EXPECT_EQ(g.GetNode(preds[0]).value, 10u);
    return;
  }
  FAIL() << "no phi executed";
}

TEST(GraphBuilder, CallAliasesParamsAndResult) {
  Module m;
  IRBuilder b(m);
  const std::uint32_t callee = b.CreateFunction("sq", Type::I64(), {Type::I64()});
  b.Ret(b.Mul(b.Param(0), b.Param(0)));
  (void)b.CreateFunction("main", Type::Void(), {});
  const ValueRef arg = b.Add(b.I64(3), b.I64(0), "arg");
  const ValueRef r = b.Call(callee, {arg});
  b.Output(r);
  b.RetVoid();
  const Graph g = RunAndBuild(m);
  // Register defs: arg (main), mul (callee). Params/call results alias.
  EXPECT_EQ(g.NumRegisterNodes(), 2u);
  // The mul's operands must both be the caller's arg node.
  for (std::uint32_t dyn = 0; dyn < g.NumDynInstrs(); ++dyn) {
    if (g.InstructionAt(dyn).op != ir::Opcode::kMul) continue;
    const auto nodes = g.OperandNodes(dyn);
    EXPECT_EQ(nodes[0], nodes[1]);
    EXPECT_EQ(g.GetNode(nodes[0]).value, 3u);
    return;
  }
  FAIL() << "no mul executed";
}

TEST(GraphBuilder, CondBrConditionsBecomeControlRoots) {
  Module m;
  IRBuilder b(m);
  (void)b.CreateFunction("main", Type::Void(), {});
  const std::uint32_t next = b.CreateBlock("next");
  const ValueRef cond = b.ICmp(ir::ICmpPred::kEq, b.I64(0), b.I64(0), "c");
  b.CondBr(cond, next, next);
  b.SetInsertPoint(next);
  b.RetVoid();
  const Graph g = RunAndBuild(m);
  ASSERT_EQ(g.control_roots().size(), 1u);
  EXPECT_EQ(g.GetNode(g.control_roots()[0]).width, 1u);
}

TEST(Ace, PaperRunningExampleBitCounts) {
  // Figure 3 of the paper, reconstructed: the backward slice of one stored
  // output location covers registers of widths {32, 64, 32, 32, 64, 64, 64}
  // (= 352 ACE bits) while the trace defines two further dead 32-bit
  // registers (416 total bits), so PVF_used_registers = 352/416 = 0.846.
  Module m;
  IRBuilder b(m);
  const auto g_out = b.DeclareGlobal("out", Type::I32(), 16);
  (void)b.CreateFunction("main", Type::Void(), {});
  const ValueRef c1 = b.Add(b.I32(1), b.I32(2), "c1");        // 32, ACE
  const ValueRef c3 = b.Add(c1, b.I32(4), "c3");              // 32, ACE
  const ValueRef r4 = b.Add(c3, b.I32(5), "r4");              // 32, ACE (stored value)
  const ValueRef r2 = b.Add(b.I64(8), b.I64(9), "r2");        // 64, ACE
  const ValueRef r7 = b.Add(r2, b.I64(1), "r7");              // 64, ACE (index)
  const ValueRef r6 = b.Gep(b.Global(g_out), b.I64(0), "r6"); // 64, ACE (base)
  const ValueRef r5 = b.Gep(r6, r7, "r5");                    // 64, ACE (address)
  b.Store(r4, r5);
  const ValueRef r8 = b.Add(b.I32(7), b.I32(7), "r8");  // 32, dead
  const ValueRef r9 = b.Add(r8, b.I32(6), "r9");        // 32, dead
  b.RetVoid();
  (void)r9;

  const Graph g = RunAndBuild(m);
  ASSERT_EQ(g.accesses().size(), 1u);
  const DynInstr& store_dyn = g.GetDyn(g.accesses()[0].dyn_index);

  // Slice from the stored output location, as the paper does.
  const NodeId roots[] = {store_dyn.result_node};
  const AceResult ace = ComputeAceFromRoots(g, roots);
  EXPECT_EQ(ace.ace_bits, 352u);
  EXPECT_EQ(ace.total_bits, 416u);
  EXPECT_NEAR(ace.Pvf(), 0.846, 0.0005);
  EXPECT_EQ(ace.ace_register_nodes, 7u);
}

TEST(Ace, DeadCodeExcluded) {
  Module m;
  IRBuilder b(m);
  (void)b.CreateFunction("main", Type::Void(), {});
  const ValueRef live = b.Add(b.I64(1), b.I64(1), "live");
  const ValueRef dead = b.Add(b.I64(2), b.I64(2), "dead");
  b.Output(live);
  b.RetVoid();
  (void)dead;
  const Graph g = RunAndBuild(m);
  const AceResult ace = ComputeAce(g);
  EXPECT_EQ(ace.ace_bits, 64u) << "only the live add feeds the output";
  EXPECT_EQ(ace.total_bits, 2 * 64u);
}

TEST(Ace, BackwardSliceRespectsVirtualEdgeFlag) {
  Module m;
  IRBuilder b(m);
  const auto g_var = b.DeclareGlobal("cell", Type::I64(), 2);
  (void)b.CreateFunction("main", Type::Void(), {});
  const ValueRef idx = b.Add(b.I64(1), b.I64(0), "idx");
  const ValueRef p = b.Gep(b.Global(g_var), idx, "p");
  b.Store(b.I64(5), p);
  const ValueRef v = b.Load(p, "v");
  b.Output(v);
  b.RetVoid();
  const Graph g = RunAndBuild(m);
  const DynInstr& load_dyn = g.GetDyn(g.accesses()[1].dyn_index);

  const auto with_virtual = BackwardSlice(g, load_dyn.result_node, true);
  const auto without_virtual = BackwardSlice(g, load_dyn.result_node, false);
  EXPECT_GT(with_virtual.size(), without_virtual.size())
      << "dropping virtual edges must shrink the slice (no addressing chain)";
}

TEST(Ace, SubsetRootsGiveSubsetBits) {
  Module m;
  IRBuilder b(m);
  (void)b.CreateFunction("main", Type::Void(), {});
  const ValueRef a = b.Add(b.I64(1), b.I64(2), "a");
  const ValueRef c = b.Add(b.I64(3), b.I64(4), "c");
  b.Output(a);
  b.Output(c);
  b.RetVoid();
  const Graph g = RunAndBuild(m);
  const auto& roots = g.output_roots();
  ASSERT_EQ(roots.size(), 2u);
  const NodeId first[] = {roots[0]};
  const AceResult partial = ComputeAceFromRoots(g, first);
  const AceResult full = ComputeAce(g);
  EXPECT_LT(partial.ace_bits, full.ace_bits);
  EXPECT_EQ(partial.total_bits, full.total_bits);
  for (NodeId id = 0; id < g.NumNodes(); ++id) {
    if (partial.Contains(id)) {
      EXPECT_TRUE(full.Contains(id));
    }
  }
}

// --- the ACE sweep against the paper's reverse BFS -----------------------------

/// The reference: the reverse breadth-first search the paper describes,
/// from `roots` (repeats and kNoNode skipped).
std::vector<std::uint8_t> ReverseBfs(const Graph& g, std::span<const NodeId> roots) {
  std::vector<std::uint8_t> marked(g.NumNodes(), 0);
  std::deque<NodeId> frontier;
  for (const NodeId root : roots) {
    if (root == kNoNode || marked[root]) continue;
    marked[root] = 1;
    frontier.push_back(root);
  }
  while (!frontier.empty()) {
    const NodeId id = frontier.front();
    frontier.pop_front();
    for (const NodeId pred : g.Preds(id)) {
      if (pred == kNoNode || marked[pred]) continue;
      marked[pred] = 1;
      frontier.push_back(pred);
    }
  }
  return marked;
}

/// `ace` marks exactly the nodes `expected` marks, and its counts are theirs.
void ExpectAceMarks(const Graph& g, const AceResult& ace,
                    const std::vector<std::uint8_t>& expected) {
  ASSERT_EQ(ace.in_ace, expected);
  std::uint64_t nodes = 0;
  std::uint64_t register_nodes = 0;
  std::uint64_t bits = 0;
  for (NodeId id = 0; id < g.NumNodes(); ++id) {
    if (!expected[id]) continue;
    ++nodes;
    if (g.GetNode(id).kind != NodeKind::kRegister) continue;
    ++register_nodes;
    bits += g.GetNode(id).width;
  }
  EXPECT_EQ(ace.ace_node_count, nodes);
  EXPECT_EQ(ace.ace_register_nodes, register_nodes);
  EXPECT_EQ(ace.ace_bits, bits);
  EXPECT_EQ(ace.total_bits, g.TotalRegisterBits());
}

class AceSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(AceSweep, MatchesTheReverseBfsFromEveryRoot) {
  const apps::App app = apps::BuildApp(GetParam(), apps::AppConfig{.scale = 1});
  const Graph g = RunAndBuild(app.module);
  std::vector<NodeId> roots = g.output_roots();
  roots.insert(roots.end(), g.control_roots().begin(), g.control_roots().end());
  ExpectAceMarks(g, ComputeAce(g), ReverseBfs(g, roots));
}

TEST_P(AceSweep, RootSubsetsWithRepeatsAndNoNodeMatchTheReverseBfs) {
  // What ProbeRepetitiveness passes: output roots drawn with replacement, so
  // some repeat, where an output of an untraced value is kNoNode.
  const apps::App app = apps::BuildApp(GetParam(), apps::AppConfig{.scale = 1});
  const Graph g = RunAndBuild(app.module);
  const std::vector<NodeId>& outputs = g.output_roots();
  ASSERT_FALSE(outputs.empty());
  Rng rng(17);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<NodeId> sample(1 + outputs.size() / 4);
    for (NodeId& root : sample) root = outputs[rng.Below(outputs.size())];
    sample.push_back(sample.front());
    sample.insert(sample.begin() + static_cast<std::ptrdiff_t>(sample.size() / 2), kNoNode);
    sample.push_back(kNoNode);
    ExpectAceMarks(g, ComputeAceFromRoots(g, sample), ReverseBfs(g, sample));
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, AceSweep, ::testing::ValuesIn(apps::AppNames()));

TEST(WriterShadow, RecordSpanningPageBoundaryIsVisibleOnBothSides) {
  WriterShadow shadow;
  // A 4-byte write straddling the 4 KiB page boundary: 2 bytes land at the
  // end of page 4, 2 at the start of page 5. The paged-array fast path has to
  // split this into two per-page chunks.
  const std::uint64_t boundary = 5 * WriterShadow::kPageBytes;
  const NodeId writer = 42;
  shadow.Record(boundary - 2, 4, writer);
  EXPECT_EQ(shadow.Lookup(boundary - 3), kNoNode);
  EXPECT_EQ(shadow.Lookup(boundary - 2), writer);
  EXPECT_EQ(shadow.Lookup(boundary - 1), writer);
  EXPECT_EQ(shadow.Lookup(boundary), writer);
  EXPECT_EQ(shadow.Lookup(boundary + 1), writer);
  EXPECT_EQ(shadow.Lookup(boundary + 2), kNoNode);
  // Overwrite one side only; the other page keeps the first writer.
  const NodeId second = 43;
  shadow.Record(boundary, 2, second);
  EXPECT_EQ(shadow.Lookup(boundary - 1), writer);
  EXPECT_EQ(shadow.Lookup(boundary), second);
  EXPECT_EQ(shadow.Lookup(boundary + 1), second);
}

TEST(WriterShadow, RecordSpanningMultipleWholePages) {
  WriterShadow shadow;
  const std::uint64_t base = 7 * WriterShadow::kPageBytes - 1;
  const std::uint64_t size = 2 * WriterShadow::kPageBytes + 2;
  const NodeId writer = 7;
  shadow.Record(base, size, writer);
  EXPECT_EQ(shadow.Lookup(base - 1), kNoNode);
  EXPECT_EQ(shadow.Lookup(base), writer);
  EXPECT_EQ(shadow.Lookup(base + size / 2), writer);
  EXPECT_EQ(shadow.Lookup(base + size - 1), writer);
  EXPECT_EQ(shadow.Lookup(base + size), kNoNode);
}

TEST(GraphBuilder, LoadWithTooManyMemoryVersionsCountsDroppedPreds) {
  // Eight byte-stores write eight distinct memory versions into one i64
  // cell; the i64 load that reads them back can keep only 7 data preds (the
  // 8-slot PredRange reserves one slot for the virtual addressing edge), so
  // exactly one distinct version must be counted as dropped.
  Module m;
  IRBuilder b(m);
  const auto cell = b.DeclareGlobal("cell", Type::I64(), 1);
  (void)b.CreateFunction("main", Type::Void(), {});
  const ValueRef base = b.BitCast(b.Global(cell), Type::I8().Ptr());
  for (int i = 0; i < 8; ++i) {
    const ValueRef p = b.Gep(base, b.I64(i));
    b.Store(b.Trunc(b.I64(10 + i), Type::I8()), p);
  }
  const ValueRef wide = b.BitCast(base, Type::I64().Ptr());
  b.Output(b.Load(wide));
  b.RetVoid();

  const Graph g = RunAndBuild(m);
  EXPECT_EQ(g.dropped_load_preds(), 1u);

  // The load kept 7 distinct data preds plus the virtual addressing edge.
  const AccessRecord& load = g.accesses().back();
  ASSERT_FALSE(load.is_store);
  const DynInstr& load_dyn = g.GetDyn(load.dyn_index);
  EXPECT_EQ(g.Preds(load_dyn.result_node).size(), 8u);
}

TEST(GraphBuilder, LoadWithinPredBudgetDropsNothing) {
  Module m;
  IRBuilder b(m);
  const auto cell = b.DeclareGlobal("cell", Type::I64(), 1);
  (void)b.CreateFunction("main", Type::Void(), {});
  const ValueRef p = b.Gep(b.Global(cell), b.I64(0));
  b.Store(b.I64(5), p);
  b.Output(b.Load(p));
  b.RetVoid();
  const Graph g = RunAndBuild(m);
  EXPECT_EQ(g.dropped_load_preds(), 0u);
}

}  // namespace
}  // namespace epvf::ddg
