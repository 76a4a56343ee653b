// Differential battery: the compositional pipeline (BuildProgramSlices, the
// graph stitched from its slices, and the monolithic stages run on that
// graph) against the monolithic one, on every app in src/apps/, at --jobs 1
// and --jobs 4. The stitched graph must be the monolithic DDG and every
// headline number bit-identical — the compositional path is a re-expression
// of the same graph, not an approximation of it.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/app.h"
#include "epvf/analysis.h"
#include "epvf/compose.h"
#include "epvf/report.h"
#include "epvf/units.h"

namespace epvf::core {
namespace {

void ExpectStatsEqual(const ReportStats& mono, const ReportStats& comp) {
  EXPECT_EQ(mono.dyn_instructions, comp.dyn_instructions);
  EXPECT_EQ(mono.num_nodes, comp.num_nodes);
  EXPECT_EQ(mono.ace_node_count, comp.ace_node_count);
  EXPECT_EQ(mono.ace_bits, comp.ace_bits);
  EXPECT_EQ(mono.total_bits, comp.total_bits);
  EXPECT_EQ(mono.crash_bits, comp.crash_bits);
  EXPECT_EQ(mono.use_weighted.total, comp.use_weighted.total);
  EXPECT_EQ(mono.use_weighted.ace, comp.use_weighted.ace);
  EXPECT_EQ(mono.use_weighted.crash, comp.use_weighted.crash);
  EXPECT_EQ(mono.mem_total, comp.mem_total);
  EXPECT_EQ(mono.mem_ace, comp.mem_ace);
  EXPECT_EQ(mono.mem_crash, comp.mem_crash);
  for (std::size_t c = 0; c < kNumRegisterClasses; ++c) {
    EXPECT_EQ(mono.structure[c].cls, comp.structure[c].cls) << "class " << c;
    EXPECT_EQ(mono.structure[c].total_bits, comp.structure[c].total_bits) << "class " << c;
    EXPECT_EQ(mono.structure[c].ace_bits, comp.structure[c].ace_bits) << "class " << c;
    EXPECT_EQ(mono.structure[c].crash_bits, comp.structure[c].crash_bits) << "class " << c;
  }
  // The derived ratios follow from the integer fields, but assert them too:
  // they are exactly what the report renders.
  EXPECT_EQ(mono.Pvf(), comp.Pvf());
  EXPECT_EQ(mono.Epvf(), comp.Epvf());
  EXPECT_EQ(mono.CrashRateEstimate(), comp.CrashRateEstimate());
  EXPECT_EQ(mono.MemoryPvf(), comp.MemoryPvf());
  EXPECT_EQ(mono.MemoryEpvf(), comp.MemoryEpvf());
}

struct Case {
  std::string app;
  int jobs;
};

class ComposeDiff : public ::testing::TestWithParam<Case> {};

TEST_P(ComposeDiff, MatchesMonolithicBitForBit) {
  const auto& [name, jobs] = GetParam();
  const apps::App app = apps::BuildApp(name, apps::AppConfig{.scale = 0});
  const Analysis a = Analysis::Run(app.module, AnalysisOptions{.jobs = jobs});
  const ReportStats mono = StatsFromAnalysis(a);

  const ProgramSlices p = BuildProgramSlices(a, PartitionModule(app.module));
  ExpectStatsEqual(mono, ComposeProgram(p));
  ExpectStatsEqual(mono, StatsFromAnalysis(AnalyzeStitched(p, jobs)));
}

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (const std::string& app : apps::AppNames()) {
    cases.push_back({app, 1});
    cases.push_back({app, 4});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllApps, ComposeDiff, ::testing::ValuesIn(AllCases()),
                         [](const auto& info) {
                           return info.param.app + "_jobs" + std::to_string(info.param.jobs);
                         });

/// The node of `stitched` standing for each node of `mono`: unit nodes keep
/// their order, and each constant or global is the node the same operand
/// slot of the same dyn names in `stitched` — the only renumbering allowed.
class NodeMap {
 public:
  NodeMap(const ddg::Graph& mono, const ddg::Graph& stitched) {
    to_stitched_.assign(mono.NumNodes(), ddg::kNoNode);
    std::vector<ddg::NodeId> unit_nodes;
    for (ddg::NodeId id = 0; id < stitched.NumNodes(); ++id) {
      if (stitched.GetNode(id).dyn_index != ddg::kNoDyn) unit_nodes.push_back(id);
    }
    std::size_t next = 0;
    for (ddg::NodeId id = 0; id < mono.NumNodes(); ++id) {
      if (mono.GetNode(id).dyn_index != ddg::kNoDyn && next < unit_nodes.size()) {
        to_stitched_[id] = unit_nodes[next++];
      }
    }
    std::vector<std::uint8_t> taken(stitched.NumNodes(), 0);
    for (std::uint32_t d = 0; d < mono.NumDynInstrs() && d < stitched.NumDynInstrs(); ++d) {
      const auto want = mono.OperandNodes(d);
      const auto got = stitched.OperandNodes(d);
      for (std::size_t i = 0; i < want.size() && i < got.size(); ++i) {
        if (want[i] == ddg::kNoNode || mono.GetNode(want[i]).dyn_index != ddg::kNoDyn) continue;
        ddg::NodeId& mapped = to_stitched_[want[i]];
        if (mapped == got[i]) continue;
        const bool fresh = mapped == ddg::kNoNode && got[i] != ddg::kNoNode && taken[got[i]] == 0;
        if (!fresh) {
          consistent_ = false;
          continue;
        }
        mapped = got[i];
        taken[got[i]] = 1;
      }
    }
  }

  [[nodiscard]] ddg::NodeId operator()(ddg::NodeId mono_id) const {
    return mono_id == ddg::kNoNode ? ddg::kNoNode : to_stitched_[mono_id];
  }
  /// False when one constant or global stands for two, or two for one.
  [[nodiscard]] bool consistent() const { return consistent_; }

 private:
  std::vector<ddg::NodeId> to_stitched_;
  bool consistent_ = true;
};

/// The graph stitched from a cold projection is the DDG Analysis::Run built,
/// node for node up to the numbering of constants and globals: kinds, widths,
/// values, preds with their virtual masks, dyn records, accesses, both root
/// lists, and the stored access bounds are CHECK_BOUNDARY's.
TEST(ComposeDiff, StitchedGraphIsTheMonolithicDdg) {
  for (const std::string& name : apps::AppNames()) {
    SCOPED_TRACE(name);
    const apps::App app = apps::BuildApp(name, apps::AppConfig{.scale = 1});
    const Analysis a = Analysis::Run(app.module);
    const ddg::Graph& mono = a.graph();
    const ProgramSlices p = BuildProgramSlices(a, PartitionModule(app.module));
    const StitchedGraph stitched = StitchGraph(p);
    const ddg::Graph& g = stitched.graph;
    ASSERT_EQ(g.NumNodes(), mono.NumNodes());
    ASSERT_EQ(g.NumDynInstrs(), mono.NumDynInstrs());
    const NodeMap map(mono, g);
    EXPECT_TRUE(map.consistent());

    std::size_t mismatched_nodes = 0;
    for (ddg::NodeId id = 0; id < mono.NumNodes(); ++id) {
      const ddg::Node& want = mono.GetNode(id);
      const ddg::NodeId sid = map(id);
      if (sid == ddg::kNoNode) {
        ++mismatched_nodes;
        continue;
      }
      const ddg::Node& got = g.GetNode(sid);
      const auto want_preds = mono.Preds(id);
      const auto got_preds = g.Preds(sid);
      bool same = got.kind == want.kind && got.width == want.width && got.value == want.value &&
                  got.dyn_index == want.dyn_index && got_preds.size() == want_preds.size();
      for (unsigned i = 0; same && i < want_preds.size(); ++i) {
        same = got_preds[i] == map(want_preds[i]) &&
               g.PredIsVirtual(sid, i) == mono.PredIsVirtual(id, i);
      }
      mismatched_nodes += same ? 0 : 1;
    }
    EXPECT_EQ(mismatched_nodes, 0u);

    std::size_t mismatched_dyns = 0;
    for (std::uint32_t d = 0; d < mono.NumDynInstrs(); ++d) {
      const ddg::DynInstr& want = mono.GetDyn(d);
      const ddg::DynInstr& got = g.GetDyn(d);
      const auto want_ops = mono.OperandNodes(d);
      const auto got_ops = g.OperandNodes(d);
      const auto want_vals = mono.OperandValues(d);
      const auto got_vals = g.OperandValues(d);
      bool same = got.sid == want.sid && got.result_node == map(want.result_node) &&
                  got.selected_operand == want.selected_operand &&
                  got_ops.size() == want_ops.size() &&
                  std::equal(got_vals.begin(), got_vals.end(), want_vals.begin(), want_vals.end());
      for (std::size_t i = 0; same && i < want_ops.size(); ++i) {
        same = got_ops[i] == map(want_ops[i]);
      }
      mismatched_dyns += same ? 0 : 1;
    }
    EXPECT_EQ(mismatched_dyns, 0u);

    ASSERT_EQ(g.accesses().size(), mono.accesses().size());
    ASSERT_EQ(stitched.bounds.size(), mono.accesses().size());
    std::size_t mismatched_accesses = 0;
    for (std::size_t i = 0; i < mono.accesses().size(); ++i) {
      const ddg::AccessRecord& want = mono.accesses()[i];
      const ddg::AccessRecord& got = g.accesses()[i];
      const bool same = got.dyn_index == want.dyn_index && got.addr_node == map(want.addr_node) &&
                        got.addr == want.addr && got.size == want.size &&
                        got.is_store == want.is_store &&
                        stitched.bounds[i] == a.crash_model().CheckBoundary(want);
      mismatched_accesses += same ? 0 : 1;
    }
    EXPECT_EQ(mismatched_accesses, 0u);

    const auto expect_roots = [&](const std::vector<ddg::NodeId>& want,
                                  const std::vector<ddg::NodeId>& got, const char* what) {
      ASSERT_EQ(got.size(), want.size()) << what;
      std::size_t mismatched = 0;
      for (std::size_t i = 0; i < want.size(); ++i) mismatched += got[i] == map(want[i]) ? 0 : 1;
      EXPECT_EQ(mismatched, 0u) << what;
    };
    expect_roots(mono.output_roots(), g.output_roots(), "output roots");
    expect_roots(mono.control_roots(), g.control_roots(), "control roots");
  }
}

// `epvf delta` reads per-unit ePVF and the program statistics; neither may
// depend on the thread count, and the rows must not be vacuous.
TEST(ComposeDiff, PerUnitEpvfAndStatsMatchAcrossJobs) {
  const apps::App app = apps::BuildApp("bfs", apps::AppConfig{.scale = 0});
  const Analysis a = Analysis::Run(app.module);
  const ProgramSlices p = BuildProgramSlices(a, PartitionModule(app.module));
  const std::vector<UnitEpvf> one = PerUnitEpvf(p, 1);
  const std::vector<UnitEpvf> four = PerUnitEpvf(p, 4);
  ASSERT_EQ(one.size(), p.units.size());
  ASSERT_EQ(four.size(), one.size());
  std::size_t nonzero = 0;
  for (std::size_t u = 0; u < one.size(); ++u) {
    EXPECT_EQ(one[u].name, four[u].name);
    EXPECT_EQ(one[u].epvf, four[u].epvf) << one[u].name;
    nonzero += one[u].epvf != 0.0 ? 1 : 0;
  }
  EXPECT_GT(nonzero, 0u);
  ExpectStatsEqual(StatsFromAnalysis(AnalyzeStitched(p, 1)),
                   StatsFromAnalysis(AnalyzeStitched(p, 4)));
}

}  // namespace
}  // namespace epvf::core
