#include "fi/campaign.h"

#include <algorithm>
#include <memory>

#include "fi/memory_scenario.h"
#include "fi/planner.h"
#include "obs/trace.h"

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
  if (planner.Done()) return planner.Stats();
  const std::vector<PlannedInjection> queue = planner.BeginRound();
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
  CampaignStats stats = planner.Stats();
  stats.perf = result.perf;
  return stats;
}

}  // namespace epvf::fi
