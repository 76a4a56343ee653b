// Memory-resident fault scenario: dwell-interval semantics, purity,
// delayed-error-reporting masking, and record-level determinism of memory
// campaigns across thread counts, checkpoint settings and executor modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "apps/app.h"
#include "epvf/analysis.h"
#include "fi/campaign.h"
#include "fi/injector.h"
#include "fi/memory_scenario.h"
#include "fi/outcome.h"
#include "fi/planner.h"
#include "fi/scenario.h"
#include "ir/builder.h"
#include "vm/interpreter.h"
#include "vm/trace.h"

namespace epvf::fi {
namespace {

using ir::IRBuilder;
using ir::Module;
using ir::Type;
using ir::ValueRef;

TEST(Scenario, ParseAndName) {
  EXPECT_EQ(ParseScenario("register"), Scenario::kRegister);
  EXPECT_EQ(ParseScenario("memory"), Scenario::kMemory);
  EXPECT_FALSE(ParseScenario("cosmic").has_value());
  EXPECT_FALSE(ParseScenario("").has_value());
  EXPECT_EQ(ScenarioName(Scenario::kRegister), "register");
  EXPECT_EQ(ScenarioName(Scenario::kMemory), "memory");
}

/// store A p; store B p (overwrites A); load p (consumes B); store C q
/// (never read) — one example of each interval-closing rule.
TEST(MemorySites, IntervalSemanticsOnAHandBuiltTrace) {
  Module m;
  IRBuilder b(m);
  (void)b.CreateFunction("main", Type::Void(), {});
  const ValueRef p = b.Alloca(Type::I64(), 1, "p");
  const ValueRef q = b.Alloca(Type::I64(), 1, "q");
  b.Store(b.I64(1), p);  // A: overwritten by B before any load
  b.Store(b.I64(2), p);  // B: consumed by the load
  const ValueRef v = b.Load(p, "v");
  b.Store(b.I64(3), q);  // C: still open at trace end
  b.Output(v);
  b.RetVoid();

  const core::Analysis a = core::Analysis::Run(m);
  const std::vector<MemorySite> sites = EnumerateMemorySites(a.graph());
  // Three 8-byte stores, each byte one interval.
  ASSERT_EQ(sites.size(), 24u);

  // Recover the three stores' dynamic indices from the access shadow.
  std::vector<const ddg::AccessRecord*> stores;
  const ddg::AccessRecord* load = nullptr;
  for (const ddg::AccessRecord& access : a.graph().accesses()) {
    if (access.is_store) {
      stores.push_back(&access);
    } else {
      load = &access;
    }
  }
  ASSERT_EQ(stores.size(), 3u);
  ASSERT_NE(load, nullptr);
  const auto trace_end = static_cast<std::uint32_t>(a.graph().NumDynInstrs());

  for (const MemorySite& site : sites) {
    ASSERT_GE(site.Dwell(), 1u);
    EXPECT_EQ(site.WeightBits(), site.Dwell() * 8);
    if (site.writer_dyn == stores[0]->dyn_index) {
      EXPECT_FALSE(site.consumed) << "A is overwritten by B before the load";
      EXPECT_EQ(site.end_dyn, stores[1]->dyn_index);
      EXPECT_EQ(site.addr, stores[0]->addr + site.slot);
    } else if (site.writer_dyn == stores[1]->dyn_index) {
      EXPECT_TRUE(site.consumed) << "B is the value the load reads";
      EXPECT_EQ(site.end_dyn, load->dyn_index);
    } else if (site.writer_dyn == stores[2]->dyn_index) {
      EXPECT_FALSE(site.consumed) << "C is never read";
      EXPECT_EQ(site.end_dyn, trace_end);
    } else {
      FAIL() << "site from an unexpected writer " << site.writer_dyn;
    }
  }
}

TEST(MemorySites, EnumerationIsAPureFunctionOfTheTrace) {
  const apps::App app = apps::BuildApp("mm", apps::AppConfig{.scale = 0});
  // Two fully independent analyses of the same module: the site tables (and
  // hence every dwell weight) must agree element-wise, or campaign plans
  // would fork between processes that each derive their own table.
  const core::Analysis a1 = core::Analysis::Run(app.module);
  const core::Analysis a2 = core::Analysis::Run(app.module);
  const std::vector<MemorySite> s1 = EnumerateMemorySites(a1.graph());
  const std::vector<MemorySite> s2 = EnumerateMemorySites(a2.graph());
  ASSERT_FALSE(s1.empty());
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].addr, s2[i].addr);
    EXPECT_EQ(s1[i].writer_dyn, s2[i].writer_dyn);
    EXPECT_EQ(s1[i].end_dyn, s2[i].end_dyn);
    EXPECT_EQ(s1[i].node, s2[i].node);
    EXPECT_EQ(s1[i].slot, s2[i].slot);
    EXPECT_EQ(s1[i].consumed, s2[i].consumed);
  }
  EXPECT_EQ(MemoryScenario(a1.graph()).TotalWeightBits(),
            MemoryScenario(a2.graph()).TotalWeightBits());
  // The table is canonically ordered, so (writer_dyn, slot) is a usable key.
  EXPECT_TRUE(std::is_sorted(s1.begin(), s1.end(), [](const MemorySite& x, const MemorySite& y) {
    return x.writer_dyn != y.writer_dyn ? x.writer_dyn < y.writer_dyn : x.slot < y.slot;
  }));
}

TEST(MemorySites, FaultSiteKeysRoundTripThroughFind) {
  const apps::App app = apps::BuildApp("mm", apps::AppConfig{.scale = 0});
  const core::Analysis a = core::Analysis::Run(app.module);
  const MemoryScenario scenario(a.graph());
  const std::vector<FaultSite> keys = scenario.FaultSites();
  ASSERT_EQ(keys.size(), scenario.sites().size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(keys[i].width, 8u);
    const MemorySite* found = scenario.Find(keys[i].dyn_index, keys[i].slot);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->addr, scenario.sites()[i].addr);
    EXPECT_EQ(found->writer_dyn, scenario.sites()[i].writer_dyn);
  }
  EXPECT_EQ(scenario.Find(0, 0), nullptr);
}

/// Every injector needed below: memory scenario, zero jitter, table attached.
Injector MakeMemoryInjector(const ir::Module& module, const core::Analysis& a,
                            std::shared_ptr<const MemoryScenario>& scenario_out) {
  InjectorOptions options;
  options.scenario = Scenario::kMemory;
  options.jitter_pages = 0;
  Injector injector(module, a.golden(), options);
  scenario_out = std::make_shared<const MemoryScenario>(a.graph());
  injector.AttachMemoryScenario(scenario_out);
  return injector;
}

TEST(MemoryMasking, OverwrittenBytesAreMaskedWithoutExecution) {
  // nw (not mm): the traceback buffer is written and conditionally re-written,
  // so its trace actually has bytes that die before any consuming load.
  const apps::App app = apps::BuildApp("nw", apps::AppConfig{.scale = 0});
  const core::Analysis a = core::Analysis::Run(app.module);
  std::shared_ptr<const MemoryScenario> scenario;
  Injector injector = MakeMemoryInjector(app.module, a, scenario);

  std::size_t masked = 0;
  for (std::size_t i = 0; i < scenario->sites().size(); ++i) {
    const MemorySite& site = scenario->sites()[i];
    if (site.consumed) continue;
    const Injector::InjectionResult result =
        injector.Inject(scenario->SiteKey(i), static_cast<std::uint8_t>(i % 8));
    EXPECT_EQ(result.outcome, Outcome::kBenign);
    EXPECT_TRUE(result.statically_masked);
    EXPECT_EQ(result.run.instructions_executed, 0u)
        << "a dead flip must not cost an execution";
    masked += 1;
  }
  ASSERT_GT(masked, 0u) << "nw has no overwritten-before-load bytes — pick another module";
}

TEST(MemoryMasking, OverwrittenFlipIsGenuinelyBenignWhenExecutedAnyway) {
  // The short-circuit claims the execution would be benign; spot-check the
  // claim by actually running the VM with the flip, sink-free (the fast loop
  // between events) and with a sink attached (the careful step throughout).
  const apps::App app = apps::BuildApp("nw", apps::AppConfig{.scale = 0});
  const core::Analysis a = core::Analysis::Run(app.module);
  const MemoryScenario scenario(a.graph());

  std::size_t checked = 0;
  for (const MemorySite& site : scenario.sites()) {
    if (site.consumed || checked >= 6) continue;
    vm::NullTraceSink sink;
    for (vm::TraceSink* attached : {static_cast<vm::TraceSink*>(&sink),
                                    static_cast<vm::TraceSink*>(nullptr)}) {
      vm::ExecOptions exec;
      exec.fault = vm::FaultPlan{site.writer_dyn + 1, 0, static_cast<std::uint8_t>(checked % 8), 1};
      exec.fault->kind = vm::FaultKind::kMemory;
      exec.fault->addr = site.addr;
      vm::Interpreter interp(app.module, exec);
      const vm::RunResult run = interp.Run("main", attached);
      EXPECT_TRUE(run.fault_was_applied);
      EXPECT_TRUE(run.Completed());
      EXPECT_EQ(run.output, a.golden().output)
          << "flip at " << site.addr << " was supposed to be dead";
    }
    checked += 1;
  }
  ASSERT_GT(checked, 0u);
}

TEST(MemoryMasking, ConsumedSitesRequireExecutionAndSomeAreLive) {
  const apps::App app = apps::BuildApp("mm", apps::AppConfig{.scale = 0});
  const core::Analysis a = core::Analysis::Run(app.module);
  std::shared_ptr<const MemoryScenario> scenario;
  Injector injector = MakeMemoryInjector(app.module, a, scenario);

  std::size_t executed = 0;
  std::size_t non_benign = 0;
  for (std::size_t i = 0; i < scenario->sites().size() && executed < 40; ++i) {
    if (!scenario->sites()[i].consumed) continue;
    const Injector::InjectionResult result = injector.Inject(scenario->SiteKey(i), 3);
    EXPECT_FALSE(result.statically_masked);
    executed += 1;
    if (result.outcome != Outcome::kBenign) non_benign += 1;
  }
  ASSERT_GT(executed, 0u);
  EXPECT_GT(non_benign, 0u) << "flipping bit 3 of consumed bytes never mattered — suspicious";
}

/// (site, bit, outcome) triples for the record-stream comparisons.
std::vector<std::uint64_t> RecordFingerprint(const CampaignStats& stats) {
  std::vector<std::uint64_t> fp;
  fp.reserve(stats.records.size());
  for (const FaultRecord& r : stats.records) {
    fp.push_back((static_cast<std::uint64_t>(r.site.dyn_index) << 32) |
                 (static_cast<std::uint64_t>(r.site.slot) << 16) |
                 (static_cast<std::uint64_t>(r.bit) << 8) |
                 static_cast<std::uint64_t>(r.outcome));
  }
  return fp;
}

CampaignOptions MemoryCampaign(int threads, std::uint32_t checkpoints) {
  CampaignOptions options;
  options.num_runs = 60;
  options.seed = 9;
  options.num_threads = threads;
  options.injector.scenario = Scenario::kMemory;
  options.injector.jitter_pages = 0;
  options.injector.checkpoints = checkpoints;
  return options;
}

TEST(MemoryCampaignDeterminism, RecordsAreIdenticalAcrossJobsEnginesAndCheckpoints) {
  const apps::App app = apps::BuildApp("mm", apps::AppConfig{.scale = 0});
  const core::Analysis a = core::Analysis::Run(app.module);

  const CampaignStats baseline =
      RunCampaign(app.module, a.graph(), a.golden(), MemoryCampaign(1, 0));
  ASSERT_EQ(baseline.records.size(), 60u);
  const std::vector<std::uint64_t> expected = RecordFingerprint(baseline);

  const CampaignStats threaded =
      RunCampaign(app.module, a.graph(), a.golden(), MemoryCampaign(4, 0));
  EXPECT_EQ(RecordFingerprint(threaded), expected) << "--jobs must not move a record";
  // The static-mask count is a function of the drawn plan, never of the
  // execution configuration.
  EXPECT_EQ(threaded.perf.statically_masked_runs, baseline.perf.statically_masked_runs);

  for (const std::uint32_t checkpoints : {4u, kMaxCheckpoints}) {
    const CampaignStats checkpointed =
        RunCampaign(app.module, a.graph(), a.golden(), MemoryCampaign(2, checkpoints));
    EXPECT_EQ(checkpointed.perf.checkpoints, checkpoints);
    EXPECT_GT(checkpointed.perf.checkpointed_runs, 0u);
    EXPECT_EQ(RecordFingerprint(checkpointed), expected)
        << "checkpoint suffix-replay must not move a record (" << checkpoints << " snapshots)";
    EXPECT_EQ(checkpointed.perf.statically_masked_runs, baseline.perf.statically_masked_runs);
  }

  // Every executed record matches its flip re-run with a sink attached (the
  // careful step throughout) and classified afresh.
  const MemoryScenario scenario(a.graph());
  vm::ExecOptions careful;
  careful.max_instructions = std::max<std::uint64_t>(a.golden().instructions_executed * 10, 10'000);
  for (const FaultRecord& r : baseline.records) {
    const MemorySite* site = scenario.Find(r.site.dyn_index, r.site.slot);
    ASSERT_NE(site, nullptr);
    if (!site->consumed) continue;  // statically masked: never executed
    careful.fault = vm::FaultPlan{r.site.dyn_index, r.site.slot, r.bit, 1};
    careful.fault->kind = vm::FaultKind::kMemory;
    careful.fault->addr = site->addr;
    vm::NullTraceSink sink;
    vm::Interpreter interp(app.module, careful);
    EXPECT_EQ(Classify(interp.Run("main", &sink), a.golden()), r.outcome)
        << "memory site " << site->addr << " bit " << int{r.bit};
  }
}

TEST(MemoryPlanner, DwellStrataCoverTheSitePopulation) {
  const apps::App app = apps::BuildApp("mm", apps::AppConfig{.scale = 0});
  const core::Analysis a = core::Analysis::Run(app.module);
  std::shared_ptr<const MemoryScenario> scenario;
  Injector injector = MakeMemoryInjector(app.module, a, scenario);

  CampaignPlanner planner(a.graph(), a.ace(), a.crash_bits(), injector, 9,
                          StratifiedOptions{});
  ASSERT_FALSE(planner.strata().size() == 0);
  double weight_sum = 0.0;
  std::size_t site_sum = 0;
  for (const StratumState& stratum : planner.strata()) {
    EXPECT_EQ(stratum.name.rfind("mem/", 0), 0u) << stratum.name;
    weight_sum += stratum.weight;
    site_sum += stratum.sites.size();
  }
  EXPECT_NEAR(weight_sum, 1.0, 1e-9);
  EXPECT_EQ(site_sum, scenario->sites().size())
      << "strata must partition the memory-site table";
  EXPECT_EQ(planner.sites().size(), scenario->sites().size());

  // A round draws valid memory sites only (every key resolves in the table).
  std::vector<PlannedInjection> queue = planner.BeginRound();
  ASSERT_FALSE(queue.empty());
  for (const PlannedInjection& run : queue) {
    EXPECT_NE(scenario->Find(run.site.dyn_index, run.site.slot), nullptr);
    EXPECT_LT(run.bit, 8u);
    EXPECT_TRUE(run.jitter.IsZero());
  }
}

TEST(MemoryInjectorContract, MisuseIsRejectedLoudly) {
  const apps::App app = apps::BuildApp("mm", apps::AppConfig{.scale = 0});
  const core::Analysis a = core::Analysis::Run(app.module);

  InjectorOptions jittered;
  jittered.scenario = Scenario::kMemory;
  jittered.jitter_pages = 2;
  EXPECT_THROW(Injector(app.module, a.golden(), jittered), std::invalid_argument)
      << "memory sites are absolute addresses — jitter would relocate them";

  InjectorOptions plain;
  Injector register_injector(app.module, a.golden(), plain);
  EXPECT_THROW(
      register_injector.AttachMemoryScenario(std::make_shared<const MemoryScenario>(a.graph())),
      std::logic_error);

  std::shared_ptr<const MemoryScenario> scenario;
  Injector injector = MakeMemoryInjector(app.module, a, scenario);
  FaultSite bogus;
  bogus.dyn_index = 0;  // no memory site encodes writer_dyn + 1 == 0
  bogus.slot = 0;
  bogus.width = 8;
  EXPECT_THROW((void)injector.Inject(bogus, 0), std::invalid_argument);
  EXPECT_THROW((void)injector.Inject(scenario->SiteKey(0), 8), std::invalid_argument)
      << "memory sites are one byte wide";
}

}  // namespace
}  // namespace epvf::fi
