// ePVF pipeline tests: headline metrics (Eq. 1-3), sampling estimator, and
// the invariants that make ePVF a meaningful bound.
#include <cstdint>
#include <iterator>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/app.h"
#include "epvf/analysis.h"
#include "epvf/sampling.h"
#include "epvf/walks.h"
#include "ir/builder.h"
#include "ir/verifier.h"
#include "support/bits.h"

namespace epvf::core {
namespace {

using ir::IRBuilder;
using ir::Module;
using ir::Type;
using ir::ValueRef;

TEST(Analysis, ThrowsOnTrappingGoldenRun) {
  Module m;
  IRBuilder b(m);
  (void)b.CreateFunction("main", Type::Void(), {});
  (void)b.CallIntrinsic(ir::Intrinsic::kAbort, {});
  b.RetVoid();
  EXPECT_THROW((void)Analysis::Run(m), std::runtime_error);
}

TEST(Analysis, ThrowsOnMalformedModule) {
  Module m;
  IRBuilder b(m);
  (void)b.CreateFunction("main", Type::Void(), {});
  // no terminator
  EXPECT_THROW((void)Analysis::Run(m), std::runtime_error);
}

class AnalysisInvariants : public ::testing::TestWithParam<std::string> {};

TEST_P(AnalysisInvariants, MetricOrderingHolds) {
  const apps::App app = apps::BuildApp(GetParam(), apps::AppConfig{.scale = 0});
  const Analysis a = Analysis::Run(app.module);

  // Eq. 1/2 ordering: 0 <= ePVF <= PVF <= 1 (crash bits ⊆ ACE bits).
  EXPECT_GE(a.Epvf(), 0.0);
  EXPECT_LE(a.Epvf(), a.Pvf());
  EXPECT_LE(a.Pvf(), 1.0);

  // Same ordering in the use-weighted space, plus the crash estimate fits
  // under the ACE mass.
  EXPECT_LE(a.EpvfUseWeighted(), a.PvfUseWeighted());
  EXPECT_LE(a.CrashRateEstimate(), a.PvfUseWeighted());
  EXPECT_GE(a.CrashRateEstimate(), 0.0);
  EXPECT_NEAR(a.EpvfUseWeighted() + a.CrashRateEstimate(), a.PvfUseWeighted(), 1e-9)
      << "use-space: ACE mass = ePVF mass + crash mass";

  // Crash-bit accounting consistency.
  EXPECT_LE(a.crash_bits().total_crash_bits, a.ace().ace_bits);
}

INSTANTIATE_TEST_SUITE_P(AllApps, AnalysisInvariants, ::testing::ValuesIn(apps::AppNames()),
                         [](const auto& info) { return info.param; });

TEST(Analysis, PerInstructionMetricsAggregateConsistently) {
  const apps::App app = apps::BuildApp("mm", apps::AppConfig{.scale = 0});
  const Analysis a = Analysis::Run(app.module);
  const auto metrics = a.PerInstructionMetrics();
  ASSERT_FALSE(metrics.empty());
  std::uint64_t exec_total = 0;
  for (const InstrMetrics& m : metrics) {
    exec_total += m.exec_count;
    EXPECT_LE(m.crash_bits, m.ace_bits);
    EXPECT_LE(m.ace_bits, m.total_bits);
    EXPECT_GE(m.Epvf(), 0.0);
    EXPECT_LE(m.Epvf(), m.Pvf());
  }
  EXPECT_EQ(exec_total, a.graph().NumDynInstrs())
      << "every dynamic instruction belongs to exactly one static instruction";
}

TEST(Analysis, EpvfDiscriminatesWherePvfSaturates) {
  // The Figure 12 phenomenon: per-instruction PVF clusters at 1, while ePVF
  // spreads out. Check the spread (variance) ordering on a real kernel.
  const apps::App app = apps::BuildApp("nw", apps::AppConfig{.scale = 0});
  const Analysis a = Analysis::Run(app.module);
  const auto metrics = a.PerInstructionMetrics();
  int pvf_at_one = 0;
  int epvf_at_one = 0;
  int counted = 0;
  for (const InstrMetrics& m : metrics) {
    if (m.total_bits == 0) continue;
    ++counted;
    pvf_at_one += m.Pvf() > 0.99;
    epvf_at_one += m.Epvf() > 0.99;
  }
  ASSERT_GT(counted, 10);
  EXPECT_GT(pvf_at_one, counted / 2) << "PVF clusters near 1";
  EXPECT_LT(epvf_at_one, pvf_at_one) << "ePVF has more discriminative power";
}

TEST(Analysis, TimingsArePopulated) {
  const apps::App app = apps::BuildApp("lud", apps::AppConfig{.scale = 0});
  const Analysis a = Analysis::Run(app.module);
  EXPECT_GT(a.timings().TotalSeconds(), 0.0);
  EXPECT_GE(a.timings().trace_and_graph_seconds, 0.0);
  EXPECT_GE(a.timings().crash_model_seconds, 0.0);
}

TEST(Analysis, InstructionBudgetIsHonored) {
  const apps::App app = apps::BuildApp("mm", apps::AppConfig{.scale = 0});
  AnalysisOptions options;
  options.max_instructions = 100;  // far below the kernel's needs
  EXPECT_THROW((void)Analysis::Run(app.module, options), std::runtime_error);
}

// --- activation walks ----------------------------------------------------------

// Reference implementations of the walk and the control oracle in their first
// form: a scan that steps over every use before `from_dyn`, and a fresh
// forward search per query. The library's lower-bound walk and precomputed
// answer table must reproduce them exactly.
class ReferenceOracle {
 public:
  explicit ReferenceOracle(const ir::Module& module) : module_(module) {
    for (const ir::Function& fn : module.functions) {
      ipdom_.push_back(ir::ComputeImmediatePostDominators(fn));
      std::vector<std::vector<StaticUse>> uses(fn.registers.size());
      for (std::uint32_t b = 0; b < fn.blocks.size(); ++b) {
        const auto& insts = fn.blocks[b].instructions;
        for (std::uint32_t i = 0; i < insts.size(); ++i) {
          for (std::size_t slot = 0; slot < insts[i].operands.size(); ++slot) {
            if (!insts[i].operands[slot].IsRegister()) continue;
            uses[insts[i].operands[slot].index].push_back(
                StaticUse{b, i, static_cast<std::uint8_t>(slot)});
          }
        }
      }
      static_uses_.push_back(std::move(uses));
    }
  }

  [[nodiscard]] bool SurvivesToAddress(std::uint32_t function, std::uint32_t block,
                                       std::uint32_t reg) const {
    const ir::Function& fn = module_.functions[function];
    const auto& ipdom = ipdom_[function];
    const auto& uses = static_uses_[function];
    std::vector<std::uint32_t> worklist{reg};
    std::vector<std::uint8_t> seen(fn.registers.size(), 0);
    seen[reg] = 1;
    int budget = 64;
    while (!worklist.empty() && budget-- > 0) {
      const std::uint32_t r = worklist.back();
      worklist.pop_back();
      for (const StaticUse& use : uses[r]) {
        if (!ir::PostDominates(ipdom, use.block, block)) continue;
        const ir::Instruction& inst = fn.blocks[use.block].instructions[use.instr];
        if (inst.AddressOperandSlot() == static_cast<int>(use.slot)) return true;
        if (inst.op == ir::Opcode::kSelect || inst.op == ir::Opcode::kICmp ||
            inst.op == ir::Opcode::kFCmp || inst.op == ir::Opcode::kCondBr) {
          continue;
        }
        if (inst.DefinesValue() && !seen[inst.result]) {
          seen[inst.result] = 1;
          worklist.push_back(inst.result);
        }
      }
    }
    return false;
  }

 private:
  struct StaticUse {
    std::uint32_t block;
    std::uint32_t instr;
    std::uint8_t slot;
  };

  const ir::Module& module_;
  std::vector<std::vector<std::uint32_t>> ipdom_;
  std::vector<std::vector<std::vector<StaticUse>>> static_uses_;
};

template <typename View, typename Oracle>
UseEffect ReferenceFirstEffect(const View& view, const Oracle& control,
                               typename View::NodeRef node, std::uint64_t from_dyn, int depth) {
  const auto [use_begin, use_end] = view.UseRangeOf(node);
  for (auto u = use_begin; u < use_end; ++u) {
    const std::uint64_t dyn = view.UseDyn(u);
    if (dyn < from_dyn) continue;
    const ir::Instruction& inst = view.InstructionAtUse(u);
    if (inst.AddressOperandSlot() == static_cast<int>(view.UseSlot(u))) {
      return UseEffect::kCrash;
    }
    if (inst.op == ir::Opcode::kICmp || inst.op == ir::Opcode::kFCmp ||
        inst.op == ir::Opcode::kCondBr) {
      const std::uint32_t reg = inst.operands[view.UseSlot(u)].index;
      const ir::StaticInstrId sid = view.SidAtUse(u);
      return control.SurvivesToAddress(sid.function, sid.block, reg) ? UseEffect::kCrash
                                                                     : UseEffect::kControl;
    }
    if (view.HasRegisterResult(u)) {
      if (depth <= 0) return UseEffect::kCrash;
      return ReferenceFirstEffect(view, control, view.ResultNode(u), dyn + 1, depth - 1);
    }
  }
  return UseEffect::kOther;
}

/// Answers from the library's table, counting every answer the reference
/// search disagrees with.
struct CheckedOracle {
  const ControlOracle& table;
  const ReferenceOracle& reference;
  mutable std::uint64_t queries = 0;
  mutable std::uint64_t mismatches = 0;

  [[nodiscard]] bool SurvivesToAddress(std::uint32_t function, std::uint32_t block,
                                       std::uint32_t reg) const {
    const bool answer = table.SurvivesToAddress(function, block, reg);
    ++queries;
    if (answer != reference.SurvivesToAddress(function, block, reg)) ++mismatches;
    return answer;
  }
};

struct WalkCase {
  std::string app;
  int jobs;
};

// Names the case in the ctest name instead of gtest's raw-byte dump, which
// holds a heap pointer and changes on every build.
void PrintTo(const WalkCase& c, std::ostream* os) { *os << c.app << " at jobs " << c.jobs; }

class WalkEquivalence : public ::testing::TestWithParam<WalkCase> {};

// Every site the use-weighted pass walks, over the use index built at `jobs`.
TEST_P(WalkEquivalence, MatchesTheLinearScanAtEveryWalkedSite) {
  const auto& [name, jobs] = GetParam();
  const apps::App app = apps::BuildApp(name, apps::AppConfig{.scale = 1});
  AnalysisOptions options;
  options.jobs = jobs;
  const Analysis a = Analysis::Run(app.module, options);
  const ddg::Graph& graph = a.graph();
  const UseIndex uses = BuildUseIndex(graph, jobs);
  const GlobalWalkView view(graph, uses);
  const ControlOracle table(app.module);
  const ReferenceOracle reference(app.module);
  const CheckedOracle checked{table, reference};

  Analysis::UseWeightedBits want;
  std::uint64_t walks = 0;
  std::uint64_t mismatches = 0;
  ForEachUse(graph, 0, static_cast<std::uint32_t>(graph.NumDynInstrs()),
             [&](ddg::NodeId node, std::uint32_t dyn, std::uint8_t slot) {
               const unsigned width = graph.GetNode(node).width;
               want.total += width;
               if (!a.ace().Contains(node)) return;
               want.ace += width;
               const std::uint64_t mask = a.crash_bits().crash_mask[node] & LowMask(width);
               if (mask == 0) return;
               ++walks;
               const UseEffect expected = ReferenceFirstEffect(view, reference, node, dyn, 6);
               const UseEffect got = FirstEffect(view, checked, node, dyn, 6);
               if (got != expected && mismatches++ == 0) {
                 ADD_FAILURE() << "first mismatch: node " << node << " dyn " << dyn << " slot "
                               << int{slot};
               }
               if (expected == UseEffect::kCrash) want.crash += PopCount(mask);
             });
  EXPECT_GT(walks, 0u);
  EXPECT_EQ(mismatches, 0u) << "of " << walks << " walks";
  EXPECT_GT(checked.queries, 0u);
  EXPECT_EQ(checked.mismatches, 0u) << "of " << checked.queries << " oracle queries";

  // The analysis's own parallel pass lands on the same sums.
  const Analysis::UseWeightedBits& got = a.use_weighted_bits();
  EXPECT_EQ(got.total, want.total);
  EXPECT_EQ(got.ace, want.ace);
  EXPECT_EQ(got.crash, want.crash);
}

std::vector<WalkCase> WalkCases() {
  std::vector<WalkCase> cases;
  for (const std::string& app : apps::AppNames()) {
    cases.push_back({app, 1});
    cases.push_back({app, 4});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllApps, WalkEquivalence, ::testing::ValuesIn(WalkCases()),
                         [](const auto& info) {
                           return info.param.app + "_jobs" + std::to_string(info.param.jobs);
                         });

// The table's whole domain: every register operand of every compare and
// conditional branch, asked about its own block.
TEST(WalkOracle, TableMatchesTheSearchOnItsWholeDomain) {
  for (const std::string& name : apps::AppNames()) {
    const apps::App app = apps::BuildApp(name, apps::AppConfig{.scale = 1});
    const ControlOracle table(app.module);
    const ReferenceOracle reference(app.module);
    std::uint64_t questions = 0;
    for (std::uint32_t f = 0; f < app.module.functions.size(); ++f) {
      const ir::Function& fn = app.module.functions[f];
      for (std::uint32_t b = 0; b < fn.blocks.size(); ++b) {
        for (const ir::Instruction& inst : fn.blocks[b].instructions) {
          if (inst.op != ir::Opcode::kICmp && inst.op != ir::Opcode::kFCmp &&
              inst.op != ir::Opcode::kCondBr) {
            continue;
          }
          for (const ir::ValueRef& operand : inst.operands) {
            if (!operand.IsRegister()) continue;
            ++questions;
            EXPECT_EQ(table.SurvivesToAddress(f, b, operand.index),
                      reference.SurvivesToAddress(f, b, operand.index))
                << name << ": " << fn.name << " block " << b << " reg " << operand.index;
          }
        }
      }
    }
    EXPECT_GT(questions, 0u) << name;
    // Anything else is not a question the walk asks.
    EXPECT_THROW((void)table.SurvivesToAddress(0, 0, ir::kNoRegister), std::logic_error);
  }
}

/// A hand-built walk view: per node, its uses in trace order.
class ListView {
 public:
  using NodeRef = std::uint32_t;
  using UseCursor = std::uint32_t;
  static constexpr NodeRef kNone = ~NodeRef{0};

  struct Use {
    std::uint64_t dyn;
    std::uint8_t slot;
    const ir::Instruction* inst;
    NodeRef result = kNone;
  };

  explicit ListView(std::vector<std::vector<Use>> per_node) {
    offsets_.push_back(0);
    for (const auto& node_uses : per_node) {
      uses_.insert(uses_.end(), node_uses.begin(), node_uses.end());
      offsets_.push_back(static_cast<std::uint32_t>(uses_.size()));
    }
  }

  [[nodiscard]] std::pair<UseCursor, UseCursor> UseRangeOf(NodeRef node) const {
    return {offsets_[node], offsets_[node + 1]};
  }
  [[nodiscard]] std::uint64_t UseDyn(UseCursor u) const { return uses_[u].dyn; }
  [[nodiscard]] std::uint8_t UseSlot(UseCursor u) const { return uses_[u].slot; }
  [[nodiscard]] const ir::Instruction& InstructionAtUse(UseCursor u) const {
    return *uses_[u].inst;
  }
  [[nodiscard]] ir::StaticInstrId SidAtUse(UseCursor) const { return {0, 0, 0}; }
  [[nodiscard]] bool HasRegisterResult(UseCursor u) const { return uses_[u].result != kNone; }
  [[nodiscard]] NodeRef ResultNode(UseCursor u) const { return uses_[u].result; }

 private:
  std::vector<std::uint32_t> offsets_;
  std::vector<Use> uses_;
};

ir::Instruction MakeInstruction(ir::Opcode op, std::uint32_t result,
                                std::vector<ValueRef> operands) {
  ir::Instruction inst;
  inst.op = op;
  inst.result = result;
  inst.operands = std::move(operands);
  return inst;
}

struct FixedOracle {
  bool survives = false;
  [[nodiscard]] bool SurvivesToAddress(std::uint32_t, std::uint32_t, std::uint32_t) const {
    return survives;
  }
};

TEST(WalkSearch, StartsAtTheFirstUseAtOrAfterFromDyn) {
  using ir::Opcode;
  const ir::Instruction add =
      MakeInstruction(Opcode::kAdd, 1, {ValueRef::Reg(0), ValueRef::Reg(0)});
  // store %0, %0: slot 0 parks the value, slot 1 addresses memory.
  const ir::Instruction store =
      MakeInstruction(Opcode::kStore, ir::kNoRegister, {ValueRef::Reg(0), ValueRef::Reg(0)});
  const ir::Instruction cmp =
      MakeInstruction(Opcode::kICmp, 2, {ValueRef::Reg(0), ValueRef::Reg(1)});
  // Node 0: a result at dyn 3, one register in both slots of dyn 5, a compare
  // at dyn 8. Node 1 (the add's result): a compare at dyn 4. Node 2: no uses.
  const ListView view({{{3, 0, &add, 1}, {5, 0, &store}, {5, 1, &store}, {8, 0, &cmp}},
                       {{4, 1, &cmp}},
                       {}});
  const FixedOracle control{.survives = false};

  const UseEffect want[] = {
      UseEffect::kControl,  // 0: before the first use, through node 1's compare
      UseEffect::kControl,  // 1
      UseEffect::kControl,  // 2
      UseEffect::kControl,  // 3: on the first use
      UseEffect::kCrash,    // 4: between two uses; both dyn-5 uses survive
      UseEffect::kCrash,    // 5: on the two-slot use
      UseEffect::kControl,  // 6: between two uses
      UseEffect::kControl,  // 7
      UseEffect::kControl,  // 8: on the last use
      UseEffect::kOther,    // 9: after the last use
      UseEffect::kOther,    // 10
  };
  for (std::uint64_t from = 0; from < std::size(want); ++from) {
    EXPECT_EQ(FirstEffect(view, control, 0, from, 6), want[from]) << "from_dyn " << from;
    EXPECT_EQ(FirstEffect(view, control, 0, from, 6),
              ReferenceFirstEffect(view, control, 0, from, 6))
        << "from_dyn " << from;
    EXPECT_EQ(FirstEffect(view, control, 2, from, 6), UseEffect::kOther) << "empty range";
  }
  // The depth limit still treats an unexplored result as reaching memory.
  EXPECT_EQ(FirstEffect(view, control, 0, 0, 0), UseEffect::kCrash);
  EXPECT_EQ(FirstEffect(view, FixedOracle{.survives = true}, 0, 6, 6), UseEffect::kCrash);
}

// --- sampling (section IV-E) -------------------------------------------------

class SamplingAccuracy : public ::testing::TestWithParam<std::string> {};

TEST_P(SamplingAccuracy, TenPercentExtrapolationIsClose) {
  // Figure 11: regular kernels extrapolate well from 10% of the roots.
  const apps::App app = apps::BuildApp(GetParam(), apps::AppConfig{.scale = 0});
  const Analysis a = Analysis::Run(app.module);
  const SamplingEstimate est = EstimateBySampling(a, 0.10);
  EXPECT_GT(est.partial_ace_nodes, 0u);
  EXPECT_LE(est.partial_ace_nodes, est.full_ace_nodes);
  EXPECT_LT(est.AbsoluteError(), 0.15)
      << "extrapolated=" << est.extrapolated_epvf << " full=" << est.full_epvf;
}

INSTANTIATE_TEST_SUITE_P(RegularApps, SamplingAccuracy,
                         ::testing::Values("mm", "hotspot", "pathfinder", "lavaMD"),
                         [](const auto& info) { return info.param; });

TEST(Sampling, FullFractionRecoversExactValue) {
  const apps::App app = apps::BuildApp("mm", apps::AppConfig{.scale = 0});
  const Analysis a = Analysis::Run(app.module);
  const SamplingEstimate est = EstimateBySampling(a, 1.0);
  EXPECT_NEAR(est.extrapolated_epvf, est.full_epvf, 5e-2)
      << "sampling every root must closely recover the full ePVF";
  EXPECT_DOUBLE_EQ(est.effective_fraction, 1.0);
}

TEST(Sampling, LargerFractionsReduceError) {
  const apps::App app = apps::BuildApp("hotspot", apps::AppConfig{.scale = 0});
  const Analysis a = Analysis::Run(app.module);
  const double err_small = EstimateBySampling(a, 0.02).AbsoluteError();
  const double err_large = EstimateBySampling(a, 0.5).AbsoluteError();
  EXPECT_LE(err_large, err_small + 0.05);
}

TEST(Sampling, RepetitivenessProbeIsFiniteAndDeterministic) {
  const apps::App app = apps::BuildApp("lud", apps::AppConfig{.scale = 0});
  const Analysis a = Analysis::Run(app.module);
  const RepetitivenessProbe p1 = ProbeRepetitiveness(a, 0.01, 8, 7);
  const RepetitivenessProbe p2 = ProbeRepetitiveness(a, 0.01, 8, 7);
  EXPECT_EQ(p1.normalized_variance, p2.normalized_variance);
  EXPECT_GE(p1.normalized_variance, 0.0);
  EXPECT_EQ(p1.trials, 8);
}

}  // namespace
}  // namespace epvf::core
