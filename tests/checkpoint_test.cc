// Checkpoint/replay fault injection: copy-on-write memory snapshots, resumable
// interpreter state, and the campaign fast path. The load-bearing invariant
// everywhere: a run resumed from a checkpoint is bit-identical to the same run
// executed from scratch — for every site, bit, seed, and thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/app.h"
#include "ddg/ace.h"
#include "epvf/analysis.h"
#include "fi/campaign.h"
#include "fi/outcome.h"
#include "ir/parser.h"
#include "mem/sim_memory.h"
#include "vm/interpreter.h"
#include "vm/trace.h"

namespace epvf {
namespace {

// --- mem::SimMemory copy-on-write snapshots ---------------------------------

TEST(MemSnapshot, RestoreRoundTripsState) {
  mem::SimMemory memory;
  const std::uint64_t addr = memory.AllocateData(64);
  memory.StoreScalar(addr, 8, 0x1122334455667788ull);
  memory.SetEsp(memory.stack_top() - 256);

  const mem::MemSnapshot snap = memory.TakeSnapshot();
  const std::uint64_t version_at_snap = memory.map().version();

  // Mutate everything the snapshot covers.
  memory.StoreScalar(addr, 8, 0xDEADBEEFull);
  memory.Malloc(4096 * 8);  // bumps brk + map version
  memory.SetEsp(memory.stack_top() - 4096);

  memory.RestoreSnapshot(snap);
  EXPECT_EQ(memory.LoadScalar(addr, 8), 0x1122334455667788ull);
  EXPECT_EQ(memory.map().version(), version_at_snap);
  EXPECT_EQ(memory.esp(), memory.stack_top() - 256);
}

TEST(MemSnapshot, CopyOnWriteIsolatesSnapshotFromLaterWrites) {
  mem::SimMemory memory;
  const std::uint64_t addr = memory.AllocateData(16);
  memory.StoreScalar(addr, 4, 0xAAAAAAAAull);
  const mem::MemSnapshot snap = memory.TakeSnapshot();

  // Writing through the live memory must clone the shared page, not mutate
  // the snapshot's view of it.
  memory.StoreScalar(addr, 4, 0xBBBBBBBBull);
  EXPECT_EQ(memory.LoadScalar(addr, 4), 0xBBBBBBBBull);

  mem::SimMemory restored;
  restored.RestoreSnapshot(snap);
  EXPECT_EQ(restored.LoadScalar(addr, 4), 0xAAAAAAAAull);

  // Two memories restored from one snapshot stay independent of each other.
  mem::SimMemory sibling;
  sibling.RestoreSnapshot(snap);
  restored.StoreScalar(addr, 4, 0xCCCCCCCCull);
  EXPECT_EQ(sibling.LoadScalar(addr, 4), 0xAAAAAAAAull);
}

TEST(MemSnapshot, PageCachedWritableIsStillClonedAfterASnapshot) {
  // Checked stores cache the page as writable while this memory owns it
  // alone. The snapshot shares the page, so the next checked store must
  // clone it rather than write through the cached translation.
  mem::SimMemory memory;
  const std::uint64_t addr = memory.Malloc(64);
  ASSERT_EQ(memory.CheckAccess(addr, 8), mem::MemFault::kNone);
  memory.StoreScalar(addr, 8, 0x1111111111111111ull);
  ASSERT_EQ(memory.CheckAccess(addr, 8), mem::MemFault::kNone);
  memory.StoreScalar(addr, 8, 0x2222222222222222ull);
  const mem::MemSnapshot snap = memory.TakeSnapshot();

  ASSERT_EQ(memory.CheckAccess(addr, 8), mem::MemFault::kNone);
  memory.StoreScalar(addr, 8, 0x3333333333333333ull);
  EXPECT_EQ(memory.pages_cloned(), 1u);
  EXPECT_EQ(memory.LoadScalar(addr, 8), 0x3333333333333333ull);

  mem::SimMemory sibling;
  sibling.RestoreSnapshot(snap);
  ASSERT_EQ(sibling.CheckAccess(addr, 8), mem::MemFault::kNone);
  EXPECT_EQ(sibling.LoadScalar(addr, 8), 0x2222222222222222ull)
      << "the store after the snapshot wrote into the shared page";
}

TEST(MemSnapshot, RestoreForgetsCachedPages) {
  // A memory that cached pages and then restores a snapshot must read the
  // snapshot's bytes, and must fault on a page the snapshot never mapped.
  mem::SimMemory memory;
  const std::uint64_t addr = memory.Malloc(64);
  ASSERT_EQ(memory.CheckAccess(addr, 8), mem::MemFault::kNone);
  memory.StoreScalar(addr, 8, 0xAAAAAAAAAAAAAAAAull);
  const std::uint64_t heap_end = memory.map().FindKind(mem::SegmentKind::kHeap)->end;
  const mem::MemSnapshot old_snap = memory.TakeSnapshot();

  ASSERT_EQ(memory.CheckAccess(addr, 8), mem::MemFault::kNone);
  memory.StoreScalar(addr, 8, 0xBBBBBBBBBBBBBBBBull);  // clones; the TLB caches the clone
  (void)memory.Malloc(8 * 4096);
  const std::uint64_t grown = heap_end + 4096;
  ASSERT_EQ(memory.CheckAccess(grown, 8), mem::MemFault::kNone);
  // Keep the clone alive, so a stale translation would read it, not freed memory.
  const mem::MemSnapshot new_snap = memory.TakeSnapshot();

  memory.RestoreSnapshot(old_snap);
  ASSERT_EQ(memory.CheckAccess(addr, 8), mem::MemFault::kNone);
  EXPECT_EQ(memory.LoadScalar(addr, 8), 0xAAAAAAAAAAAAAAAAull);
  EXPECT_EQ(memory.CheckAccess(grown, 8), mem::MemFault::kSegFault)
      << "a page mapped after the snapshot still answered from the TLB";
}

TEST(MemSnapshot, RejectedWhileRecordingHistory) {
  mem::SimMemory memory;
  memory.RecordHistory(true);
  EXPECT_THROW((void)memory.TakeSnapshot(), std::logic_error);
}

TEST(MemSnapshot, RejectsLayoutMismatch) {
  mem::SimMemory plain;
  const mem::MemSnapshot snap = plain.TakeSnapshot();
  mem::LayoutJitter jitter;
  jitter.data_shift_pages = 2;
  mem::SimMemory jittered(mem::MemoryLayout{}, jitter);
  EXPECT_THROW(jittered.RestoreSnapshot(snap), std::invalid_argument);
}

// --- vm::Interpreter checkpoint + resume ------------------------------------

TEST(InterpreterCheckpoint, ResumeMatchesFromScratch) {
  const apps::App app = apps::BuildApp("mm", apps::AppConfig{.scale = 0});
  vm::ExecOptions exec;
  vm::Interpreter golden_interp(app.module, exec);
  const vm::RunResult golden = golden_interp.Run();
  ASSERT_TRUE(golden.Completed());
  const std::uint64_t len = golden.instructions_executed;
  ASSERT_GT(len, 16u);

  const std::vector<std::uint64_t> at = {len / 4, len / 2, (3 * len) / 4};
  std::vector<vm::Interpreter::Checkpoint> checkpoints;
  vm::Interpreter ckpt_interp(app.module, exec);
  const vm::RunResult replay = ckpt_interp.RunWithCheckpoints("main", at, checkpoints);
  EXPECT_EQ(replay.instructions_executed, golden.instructions_executed);
  EXPECT_EQ(replay.output, golden.output);
  ASSERT_EQ(checkpoints.size(), at.size());

  for (const vm::Interpreter::Checkpoint& ckpt : checkpoints) {
    vm::Interpreter resumed_interp(app.module, exec);
    const vm::RunResult resumed = resumed_interp.ResumeFrom(ckpt);
    // Absolute dyn accounting: a resumed run reports the same totals as the
    // full run, not suffix-relative ones.
    EXPECT_EQ(resumed.instructions_executed, golden.instructions_executed)
        << "checkpoint at " << ckpt.dyn_index;
    EXPECT_EQ(resumed.output, golden.output) << "checkpoint at " << ckpt.dyn_index;
    EXPECT_EQ(resumed.trap, golden.trap);
  }
}

TEST(InterpreterCheckpoint, CheckpointsPastTraceEndAreIgnored) {
  const apps::App app = apps::BuildApp("lud", apps::AppConfig{.scale = 0});
  vm::ExecOptions exec;
  vm::Interpreter golden_interp(app.module, exec);
  const vm::RunResult golden = golden_interp.Run();
  const std::uint64_t len = golden.instructions_executed;

  const std::vector<std::uint64_t> at = {len / 2, len * 2, len * 3};
  std::vector<vm::Interpreter::Checkpoint> checkpoints;
  vm::Interpreter interp(app.module, exec);
  const vm::RunResult replay = interp.RunWithCheckpoints("main", at, checkpoints);
  EXPECT_TRUE(replay.Completed());
  EXPECT_EQ(checkpoints.size(), 1u);
}

// --- fi::Injector fast path ---------------------------------------------------

TEST(InjectorCheckpoint, InjectionsBitIdenticalWithAndWithoutCheckpoints) {
  const apps::App app = apps::BuildApp("pathfinder", apps::AppConfig{.scale = 0});
  const core::Analysis a = core::Analysis::Run(app.module);
  const std::vector<fi::FaultSite> sites = fi::EnumerateFaultSites(a.graph());
  ASSERT_FALSE(sites.empty());

  fi::InjectorOptions options;
  fi::Injector scratch(app.module, a.golden(), options);
  fi::Injector fast(app.module, a.golden(), options);
  const std::vector<std::uint64_t> at = fi::CheckpointSites(a.TraceLength(), 4);
  ASSERT_EQ(fast.BuildCheckpoints(at), 4u);

  const mem::LayoutJitter no_jitter;
  // A spread of sites across the trace, including ones before the first
  // checkpoint (which must fall back to full execution).
  for (std::size_t i = 0; i < sites.size(); i += sites.size() / 23 + 1) {
    const fi::FaultSite& site = sites[i];
    for (const std::uint8_t bit : {std::uint8_t{0}, static_cast<std::uint8_t>(site.width - 1)}) {
      const auto want = scratch.Inject(site, bit, no_jitter);
      const auto got = fast.Inject(site, bit, no_jitter);
      EXPECT_EQ(got.outcome, want.outcome) << "site " << site.dyn_index << " bit " << int{bit};
      EXPECT_EQ(got.run.trap, want.run.trap);
      EXPECT_EQ(got.run.instructions_executed, want.run.instructions_executed);
      EXPECT_EQ(got.run.trap_dyn_index, want.run.trap_dyn_index);
      EXPECT_EQ(got.run.output, want.run.output);
      EXPECT_EQ(got.run.fault_was_applied, want.run.fault_was_applied);
      EXPECT_EQ(want.resumed_from, 0u);
      if (site.dyn_index >= at.front()) {
        EXPECT_GT(got.resumed_from, 0u) << "site " << site.dyn_index;
        EXPECT_LE(got.resumed_from, site.dyn_index);
      }
    }
  }
}

TEST(InjectorCheckpoint, JitteredRunsBypassTheFastPath) {
  const apps::App app = apps::BuildApp("mm", apps::AppConfig{.scale = 0});
  const core::Analysis a = core::Analysis::Run(app.module);
  const std::vector<fi::FaultSite> sites = fi::EnumerateFaultSites(a.graph());
  fi::InjectorOptions options;
  options.jitter_pages = 2;
  fi::Injector injector(app.module, a.golden(), options);
  ASSERT_GT(injector.BuildCheckpoints(fi::CheckpointSites(a.TraceLength(), 4)), 0u);

  mem::LayoutJitter jitter;
  jitter.heap_shift_pages = 1;
  const fi::FaultSite& late_site = sites.back();
  const auto result = injector.Inject(late_site, 0, jitter);
  EXPECT_EQ(result.resumed_from, 0u);  // diverges from instruction zero
}

// --- fi::RunCampaign equivalence ----------------------------------------------

TEST(CampaignCheckpoint, RecordsBitIdenticalAcrossAppsJobsAndJitter) {
  for (const char* name : {"mm", "pathfinder", "lud"}) {
    const apps::App app = apps::BuildApp(name, apps::AppConfig{.scale = 0});
    const core::Analysis a = core::Analysis::Run(app.module);

    for (const std::uint32_t jitter_pages : {0u, 2u}) {
      fi::CampaignOptions options;
      options.num_runs = 36;
      options.seed = 13;
      options.injector.jitter_pages = jitter_pages;
      options.num_threads = 1;
      options.injector.checkpoints = 0;  // from-scratch baseline
      const fi::CampaignStats baseline =
          fi::RunCampaign(app.module, a.graph(), a.golden(), options);
      EXPECT_EQ(baseline.perf.checkpoints, 0u);
      EXPECT_EQ(baseline.perf.checkpointed_runs, 0u);

      for (const int threads : {1, 2, 8}) {
        options.num_threads = threads;
        options.injector.checkpoints = 8;
        const fi::CampaignStats fast =
            fi::RunCampaign(app.module, a.graph(), a.golden(), options);
        EXPECT_EQ(fast.counts, baseline.counts)
            << name << " jitter=" << jitter_pages << " threads=" << threads;
        ASSERT_EQ(fast.records.size(), baseline.records.size());
        for (std::size_t i = 0; i < fast.records.size(); ++i) {
          EXPECT_EQ(fast.records[i].site.dyn_index, baseline.records[i].site.dyn_index);
          EXPECT_EQ(fast.records[i].site.slot, baseline.records[i].site.slot);
          EXPECT_EQ(fast.records[i].bit, baseline.records[i].bit);
          EXPECT_EQ(fast.records[i].outcome, baseline.records[i].outcome)
              << name << " run " << i << " jitter=" << jitter_pages
              << " threads=" << threads;
        }
        if (jitter_pages == 0) {
          EXPECT_EQ(fast.perf.checkpoints, 8u);
          EXPECT_EQ(fast.perf.checkpointed_runs + fast.perf.full_runs, fast.Total());
        } else {
          // Jittered campaigns never checkpoint: every run diverges from
          // instruction zero.
          EXPECT_EQ(fast.perf.checkpoints, 0u);
          EXPECT_EQ(fast.perf.checkpointed_runs, 0u);
        }
      }
    }
  }
}

TEST(CampaignCheckpoint, RecordsBitIdenticalAcrossExecutionTiers) {
  // Injected runs and checkpoint replays carry no sink, so the executor runs
  // them on its fast loop between events. At every checkpoint density the
  // campaign must reproduce the from-scratch campaign record for record, and
  // every record must match its injection re-run with a sink attached (every
  // instruction on the careful step) and classified afresh.
  const apps::App app = apps::BuildApp("pathfinder", apps::AppConfig{.scale = 0});
  const core::Analysis a = core::Analysis::Run(app.module);

  fi::CampaignOptions options;
  options.num_runs = 36;
  options.seed = 13;
  options.injector.jitter_pages = 0;
  options.num_threads = 1;
  options.injector.checkpoints = 0;  // from-scratch baseline
  const fi::CampaignStats baseline =
      fi::RunCampaign(app.module, a.graph(), a.golden(), options);

  vm::ExecOptions careful;
  careful.max_instructions = std::max<std::uint64_t>(a.golden().instructions_executed * 10, 10'000);
  for (const fi::FaultRecord& r : baseline.records) {
    careful.fault = vm::FaultPlan{r.site.dyn_index, r.site.slot, r.bit};
    vm::NullTraceSink sink;
    vm::Interpreter interp(app.module, careful);
    EXPECT_EQ(fi::Classify(interp.Run("main", &sink), a.golden()), r.outcome)
        << "site " << r.site.dyn_index << " slot " << int{r.site.slot} << " bit " << int{r.bit};
  }

  for (const std::uint32_t checkpoints : {4u, 64u}) {
    options.injector.checkpoints = checkpoints;
    const fi::CampaignStats got = fi::RunCampaign(app.module, a.graph(), a.golden(), options);
    EXPECT_EQ(got.counts, baseline.counts) << "ckpts=" << checkpoints;
    EXPECT_EQ(got.perf.checkpoints, checkpoints);
    ASSERT_EQ(got.records.size(), baseline.records.size());
    for (std::size_t i = 0; i < got.records.size(); ++i) {
      EXPECT_EQ(got.records[i].site.dyn_index, baseline.records[i].site.dyn_index);
      EXPECT_EQ(got.records[i].site.slot, baseline.records[i].site.slot);
      EXPECT_EQ(got.records[i].bit, baseline.records[i].bit);
      EXPECT_EQ(got.records[i].outcome, baseline.records[i].outcome)
          << "ckpts=" << checkpoints << " run " << i;
    }
  }
}

/// A straight loop whose golden run is far shorter than kMaxCheckpoints
/// dynamic instructions, with a load and a store per iteration.
constexpr const char* kShortLoop = R"(func @main() -> void {
entry:
  %buf.0 = call @!malloc(8:i64) : i8*
  %slot.1 = bitcast %buf.0 : i64*
  br loop
loop:
  %i.2 = phi [0:i64, entry], [%next.6, loop] : i64
  %acc.3 = phi [1:i64, entry], [%acc.5, loop] : i64
  store %acc.3, %slot.1 align 8
  %v.4 = load %slot.1 align 8 : i64
  %acc.5 = mul %v.4, 3:i64 : i64
  %next.6 = add %i.2, 1:i64 : i64
  %more.7 = icmp slt %next.6, 12:i64 : i1
  condbr %more.7, loop, done
done:
  call @!output_i64(%acc.5)
  ret
}
)";

TEST(CampaignCheckpoint, CountPastTheTraceCapsAtOneSnapshotPerInstruction) {
  const ir::Module module = ir::ParseModuleOrThrow(kShortLoop);
  const core::Analysis a = core::Analysis::Run(module);
  ASSERT_LT(a.TraceLength(), std::uint64_t{fi::kMaxCheckpoints});
  fi::CampaignOptions options;
  options.num_runs = 40;
  options.seed = 5;
  options.injector.jitter_pages = 0;
  options.injector.checkpoints = 0;  // from-scratch baseline
  const fi::CampaignStats baseline = fi::RunCampaign(module, a.graph(), a.golden(), options);
  ASSERT_EQ(baseline.Total(), 40u);
  EXPECT_EQ(baseline.perf.full_runs, 40u);

  options.injector.checkpoints = fi::kMaxCheckpoints;
  const fi::CampaignStats stats = fi::RunCampaign(module, a.graph(), a.golden(), options);
  EXPECT_EQ(stats.perf.checkpoints, a.TraceLength() - 1);
  EXPECT_EQ(stats.counts, baseline.counts);
  ASSERT_EQ(stats.records.size(), baseline.records.size());
  std::uint64_t past_the_first_instruction = 0;
  for (std::size_t i = 0; i < stats.records.size(); ++i) {
    EXPECT_EQ(stats.records[i].site.dyn_index, baseline.records[i].site.dyn_index);
    EXPECT_EQ(stats.records[i].bit, baseline.records[i].bit);
    EXPECT_EQ(stats.records[i].outcome, baseline.records[i].outcome) << "run " << i;
    if (stats.records[i].site.dyn_index > 0) ++past_the_first_instruction;
  }
  // Every instruction but the first has its own snapshot.
  EXPECT_EQ(stats.perf.checkpointed_runs, past_the_first_instruction);
  EXPECT_EQ(stats.perf.checkpointed_runs + stats.perf.full_runs, 40u);
}

// --- checkpoint-site policy ---------------------------------------------------

TEST(CheckpointPolicy, SitesAreEvenlySpacedAndCapped) {
  // Site k of n over a trace of L instructions is floor(k * L / (n + 1)).
  EXPECT_EQ(fi::CheckpointSites(1000, 3), (std::vector<std::uint64_t>{250, 500, 750}));
  EXPECT_EQ(fi::CheckpointSites(1'000'000, 1), (std::vector<std::uint64_t>{500'000}));
  for (const std::uint64_t count : {64u, 1024u}) {
    const std::vector<std::uint64_t> sites = fi::CheckpointSites(1'000'000, count);
    ASSERT_EQ(sites.size(), count);
    for (std::uint64_t k = 1; k <= count; ++k) {
      EXPECT_EQ(sites[k - 1], k * 1'000'000 / (count + 1)) << "count " << count << " k " << k;
    }
  }
  // The memory backstop: never more than kMaxCheckpoints, however many are
  // asked for.
  EXPECT_EQ(fi::CheckpointSites(10'000'000, 5000), fi::CheckpointSites(10'000'000, 1024));
  EXPECT_EQ(fi::CheckpointSites(10'000'000, 5000).size(), std::size_t{fi::kMaxCheckpoints});
}

TEST(CheckpointPolicy, CountAtOrPastTheTraceLengthGivesOneSitePerInstruction) {
  // Site 0 would resume from where a from-scratch run starts, and repeats
  // would snapshot one state twice: both are dropped.
  std::vector<std::uint64_t> every(9);
  std::iota(every.begin(), every.end(), std::uint64_t{1});
  EXPECT_EQ(fi::CheckpointSites(10, 9), every);
  EXPECT_EQ(fi::CheckpointSites(10, 10), every);
  EXPECT_EQ(fi::CheckpointSites(10, 1000), every);
  EXPECT_EQ(fi::CheckpointSites(2, 5), (std::vector<std::uint64_t>{1}));
}

TEST(CheckpointPolicy, ShortTracesAndACountOfZeroGiveNoSites) {
  EXPECT_TRUE(fi::CheckpointSites(0, 64).empty());
  EXPECT_TRUE(fi::CheckpointSites(1, 64).empty());
  EXPECT_TRUE(fi::CheckpointSites(1, 1024).empty());
  EXPECT_TRUE(fi::CheckpointSites(1'000'000, 0).empty());
}

TEST(CheckpointPolicy, ResolveCountRefusesNegativesAndCountsPastTheLimit) {
  ASSERT_EQ(fi::kMaxCheckpoints, 1024u);
  EXPECT_EQ(fi::ResolveCheckpointCount(0), 0u);
  EXPECT_EQ(fi::ResolveCheckpointCount(64), 64u);
  EXPECT_EQ(fi::ResolveCheckpointCount(1024), 1024u);
  try {
    (void)fi::ResolveCheckpointCount(1025);
    FAIL() << "--checkpoints 1025 was accepted";
  } catch (const std::out_of_range& error) {
    EXPECT_NE(std::string(error.what()).find("limit of 1024"), std::string::npos)
        << error.what();
  }
  try {
    (void)fi::ResolveCheckpointCount(-1);
    FAIL() << "--checkpoints -1 was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("--checkpoints -1"), std::string::npos)
        << error.what();
  }
}

// --- ddg::SliceVisited (epoch-stamped visited buffer) ------------------------

TEST(SliceVisited, ReusedBufferMatchesFreshAllocations) {
  const apps::App app = apps::BuildApp("pathfinder", apps::AppConfig{.scale = 0});
  const core::Analysis a = core::Analysis::Run(app.module);
  const ddg::Graph& graph = a.graph();
  ddg::SliceVisited visited;
  int compared = 0;
  for (ddg::NodeId id = 0; id < graph.NumNodes() && compared < 50;
       id += static_cast<ddg::NodeId>(graph.NumNodes() / 50 + 1), ++compared) {
    const auto fresh = ddg::BackwardSlice(graph, id, true);
    const auto reused = ddg::BackwardSlice(graph, id, true, &visited);
    EXPECT_EQ(fresh, reused) << "node " << id;
    const auto fresh_data = ddg::BackwardSlice(graph, id, false);
    const auto reused_data = ddg::BackwardSlice(graph, id, false, &visited);
    EXPECT_EQ(fresh_data, reused_data) << "node " << id;
  }
  EXPECT_GT(compared, 10);
}

}  // namespace
}  // namespace epvf
