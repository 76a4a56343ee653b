#include "fi/campaign.h"

#include <algorithm>
#include <memory>

#include "fi/memory_scenario.h"
#include "fi/planner.h"
#include "obs/timing.h"

namespace epvf::fi {

std::uint64_t CampaignStats::Total() const {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  return total;
}

double CampaignStats::Rate(Outcome outcome) const {
  const std::uint64_t total = Total();
  return total == 0 ? 0.0
                    : static_cast<double>(Count(outcome)) / static_cast<double>(total);
}

ProportionCI CampaignStats::CI(Outcome outcome) const {
  return BinomialCI95(Count(outcome), Total());
}

std::uint64_t CampaignStats::CrashCount() const {
  return Count(Outcome::kCrashSegFault) + Count(Outcome::kCrashAbort) +
         Count(Outcome::kCrashMisaligned) + Count(Outcome::kCrashArithmetic);
}

double CampaignStats::CrashRate() const {
  const std::uint64_t total = Total();
  return total == 0 ? 0.0 : static_cast<double>(CrashCount()) / static_cast<double>(total);
}

ProportionCI CampaignStats::CrashCI() const { return BinomialCI95(CrashCount(), Total()); }

double CampaignStats::CrashShare(Outcome crash_class) const {
  const std::uint64_t crashes = CrashCount();
  return crashes == 0
             ? 0.0
             : static_cast<double>(Count(crash_class)) / static_cast<double>(crashes);
}

std::uint64_t ResolveCheckpointInterval(std::int64_t checkpoint_interval,
                                        std::uint64_t trace_length) {
  if (checkpoint_interval > 0) return static_cast<std::uint64_t>(checkpoint_interval);
  if (checkpoint_interval < 0) return 0;
  // Auto policy: ~32 snapshots spread over the trace. Below ~4k instructions
  // per segment the prefix a snapshot spares is too small to beat the cost of
  // the extra replay plus the snapshot copies, so short traces opt out.
  constexpr std::uint64_t kAutoCheckpointTarget = 32;
  constexpr std::uint64_t kMinAutoInterval = 4096;
  const std::uint64_t interval = trace_length / (kAutoCheckpointTarget + 1);
  return interval < kMinAutoInterval ? 0 : interval;
}

std::vector<std::uint64_t> CheckpointSites(std::uint64_t trace_length, std::uint64_t interval) {
  std::vector<std::uint64_t> sites;
  if (interval == 0 || trace_length == 0) return sites;
  // Memory backstop: never more than 1024 snapshots, however small the
  // requested spacing.
  constexpr std::uint64_t kMaxCheckpoints = 1024;
  if (trace_length / interval > kMaxCheckpoints) {
    interval = (trace_length + kMaxCheckpoints - 1) / kMaxCheckpoints;
  }
  for (std::uint64_t at = interval; at < trace_length; at += interval) {
    sites.push_back(at);
  }
  return sites;
}

void CampaignPerf::Add(const CampaignPerf& other) {
  checkpoints += other.checkpoints;
  checkpointed_runs += other.checkpointed_runs;
  full_runs += other.full_runs;
  skipped_instructions += other.skipped_instructions;
  statically_masked_runs += other.statically_masked_runs;
  checkpoint_seconds += other.checkpoint_seconds;
  inject_seconds += other.inject_seconds;
  resumed_records += other.resumed_records;
  persist_seconds += other.persist_seconds;
  cache_load_seconds += other.cache_load_seconds;
  cache_store_seconds += other.cache_store_seconds;
}

void PrepareCheckpoints(Injector& injector, const CampaignOptions& options, CampaignPerf& perf) {
  // Suffix-replay fast path: one extra golden replay drops evenly spaced
  // checkpoints, and each zero-jitter injection then executes only the trace
  // suffix from the nearest checkpoint at or before its site. Jittered
  // campaigns skip it entirely — every run diverges from instruction zero.
  if (options.injector.jitter_pages != 0 || injector.NumCheckpoints() > 0) return;
  const std::uint64_t length = injector.golden().instructions_executed;
  const std::uint64_t interval = ResolveCheckpointInterval(options.checkpoint_interval, length);
  if (interval == 0) return;
  double seconds = 0;
  {
    const obs::TimedSection timed("injection", "checkpoint-build", "campaign.checkpoint_build.us",
                                  &seconds);
    perf.checkpoints += injector.BuildCheckpoints(CheckpointSites(length, interval));
  }
  perf.checkpoint_seconds += seconds;
}

obs::ProgressReporter::Options CampaignProgressOptions(std::uint64_t total) {
  obs::ProgressReporter::Options options;
  options.label = "campaign";
  options.total = total;
  options.categories.reserve(kNumOutcomes);
  for (int o = 0; o < kNumOutcomes; ++o) {
    options.categories.emplace_back(OutcomeName(static_cast<Outcome>(o)));
  }
  return options;
}

CampaignStats RunCampaign(const ir::Module& module, const ddg::Graph& graph,
                          const vm::RunResult& golden, const CampaignOptions& options) {
  const obs::TraceSpan campaign_span("injection", "campaign");
  Injector injector(module, golden, options.injector);
  if (options.injector.scenario == Scenario::kMemory) {
    injector.AttachMemoryScenario(std::make_shared<MemoryScenario>(graph));
  }
  CampaignPlanner planner(graph, injector, options.seed,
                          static_cast<std::uint32_t>(std::max(0, options.num_runs)));
  CampaignPerf perf;
  if (!planner.Done()) {
    const std::vector<PlannedInjection> queue = planner.BeginRound();
    PrepareCheckpoints(injector, options, perf);
    // Periodic visibility into a long campaign: a reporter thread prints
    // runs/sec + outcome tallies + ETA to stderr (only when stderr is a
    // terminal or EPVF_PROGRESS=1 — stdout never changes).
    obs::ProgressReporter::Options progress_options = CampaignProgressOptions(queue.size());
    progress_options.enable = options.progress_enable;
    obs::ProgressReporter progress(std::move(progress_options));
    ExecuteOptions exec;
    exec.num_threads = options.num_threads;
    exec.progress = &progress;
    const ExecuteResult result = ExecutePlannedRuns(injector, queue, exec);
    progress.Finish();
    planner.CommitRound(result.records);
    perf.Add(result.perf);
  }
  CampaignStats stats = planner.Stats();
  stats.perf = perf;
  return stats;
}

}  // namespace epvf::fi
