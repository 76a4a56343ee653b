// Campaign throughput across checkpoint/replay settings.
//
// Every injected run is bit-identical to the golden run up to its injection
// site, so a campaign that snapshots the golden run and executes only the
// suffix of each injection skips (on average) half the trace per run.
// Injected runs carry no trace sink, so the executor dispatches them on its
// fast loop (src/vm/exec_bytecode.cc) between the fault and checkpoint
// events. This bench measures runs/sec and the speedup vs. from-scratch at
// 0/4/64/auto checkpoints, and cross-checks every repetition of every
// checkpoint setting record for record against the 0-checkpoint campaign
// (exit 1 on a divergence). Each campaign and planner row is timed as its
// fastest of five repetitions: one run of a few tens of milliseconds is at
// the mercy of the host's load. Its JSON lands at the repo root
// (BENCH_injection_throughput.json) so the trajectory is tracked in-repo.
#include <algorithm>
#include <iostream>
#include <limits>

#include "bench/bench_common.h"
#include "support/stopwatch.h"

namespace {

using namespace epvf;

constexpr int kRepetitions = 5;

/// Per-record identity: same sites, same bits, same outcomes, in order.
bool RecordsIdentical(const fi::CampaignStats& a, const fi::CampaignStats& b) {
  if (a.records.size() != b.records.size() || a.counts != b.counts) return false;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    if (a.records[i].outcome != b.records[i].outcome ||
        a.records[i].site.dyn_index != b.records[i].site.dyn_index ||
        a.records[i].bit != b.records[i].bit) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  const bench::ScopedObservability observability;
  bench::BenchJson json("injection_throughput", /*default_to_repo_root=*/true);
  const int runs = bench::FiRuns();
  // -1 = the campaign's auto checkpoint policy (spacing derived from the
  // golden trace length) — the setting the CLI uses by default.
  const int checkpoint_counts[] = {0, 4, 64, -1};

  AsciiTable table({"Benchmark", "trace", "ckpts", "runs/s", "vs scratch", "identical"});
  table.SetTitle("Injection throughput: suffix replay (" + std::to_string(runs) +
                 " runs/campaign, fastest of " + std::to_string(kRepetitions) + ")");

  bool all_identical = true;
  for (const std::string& name :
       {std::string("lulesh"), std::string("lavaMD"), std::string("srad")}) {
    const bench::Prepared p = bench::Prepare(name);
    // Reference for identity and speedup: the from-scratch campaign (the
    // first checkpoint setting).
    fi::CampaignStats baseline;
    double scratch_runs_per_sec = 0;
    for (const int n : checkpoint_counts) {
      fi::CampaignOptions options;
      options.num_runs = runs;
      options.seed = bench::Seed();
      // The fast path only serves jitter-free runs; keep the comparison pure.
      options.injector.jitter_pages = 0;
      options.num_threads = bench::Jobs();
      options.checkpoint_interval = bench::CheckpointIntervalFor(p.analysis, n);
      fi::CampaignStats stats;
      double seconds = std::numeric_limits<double>::infinity();
      bool identical = true;
      for (int rep = 0; rep < kRepetitions; ++rep) {
        Stopwatch watch;
        stats = fi::RunCampaign(p.app.module, p.analysis.graph(), p.analysis.golden(), options);
        seconds = std::min(seconds, watch.ElapsedSeconds());
        if (n == 0 && rep == 0) baseline = stats;
        identical = identical && RecordsIdentical(stats, baseline);
      }
      const double runs_per_sec = seconds > 0 ? runs / seconds : 0;
      if (n == 0) scratch_runs_per_sec = runs_per_sec;
      all_identical = all_identical && identical;
      const double vs_scratch =
          scratch_runs_per_sec > 0 ? runs_per_sec / scratch_runs_per_sec : 0;

      const std::string ckpt_name = n < 0 ? std::string("auto") : std::to_string(n);
      table.AddRow({name, std::to_string(p.analysis.TraceLength()), ckpt_name,
                    AsciiTable::Num(runs_per_sec, 1), AsciiTable::Num(vs_scratch, 2) + "x",
                    identical ? "yes" : "NO"});

      const std::string row = name + "/ckpt" + ckpt_name;
      json.Add(row, "runs_per_sec", runs_per_sec);
      json.Add(row, "speedup_vs_scratch", vs_scratch);
      json.Add(row, "checkpoints", static_cast<double>(stats.perf.checkpoints));
      json.Add(row, "checkpointed_runs", static_cast<double>(stats.perf.checkpointed_runs));
      json.Add(row, "skipped_instructions", static_cast<double>(stats.perf.skipped_instructions));
      json.Add(row, "outcomes_identical", identical ? 1.0 : 0.0);
    }
  }
  table.SetFootnote("'vs scratch' compares to 0 checkpoints; 'identical' checks every record "
                    "(site, bit, outcome) of every repetition against the 0-checkpoint "
                    "campaign");
  table.Print(std::cout);

  // Planner economy: injections the stratified planner spends to hit its CI
  // target, vs the uniform-sampling equivalent at the same per-stratum
  // precision. Tracked in the committed JSON so planner regressions (more
  // rounds, worse allocation) show up in the perf trajectory.
  const double ci_target = bench::EnvDouble("EPVF_CI_TARGET", 0.05);
  AsciiTable econ({"Benchmark", "runs to CI", "rounds", "runs/s", "uniform-equiv", "savings"});
  econ.SetTitle("Stratified planner: injections to CI half-width " +
                AsciiTable::Num(ci_target));
  for (const std::string& name : {std::string("mm"), std::string("lud")}) {
    const bench::Prepared p = bench::Prepare(name);
    double seconds = std::numeric_limits<double>::infinity();
    std::uint64_t total_runs = 0;
    std::uint64_t rounds = 0;
    std::uint64_t uniform = 0;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      fi::Injector injector(p.app.module, p.analysis.golden(), fi::InjectorOptions{});
      fi::StratifiedOptions plan;
      plan.ci_target = ci_target;
      fi::CampaignPlanner planner(p.analysis.graph(), p.analysis.ace(), p.analysis.crash_bits(),
                                  injector, bench::Seed(), plan);
      Stopwatch watch;
      bench::RunPlanToCompletion(planner, injector);
      seconds = std::min(seconds, watch.ElapsedSeconds());
      total_runs = planner.TotalRuns();
      rounds = planner.RoundsCommitted();
      uniform = bench::UniformEquivalentRuns(planner);
    }
    const double total = static_cast<double>(total_runs);
    const double runs_per_sec = seconds > 0 ? total / seconds : 0;
    const double ratio = total > 0 ? static_cast<double>(uniform) / total : 0;

    econ.AddRow({name, std::to_string(total_runs), std::to_string(rounds),
                 AsciiTable::Num(runs_per_sec, 1), std::to_string(uniform),
                 AsciiTable::Num(ratio, 1) + "x"});
    const std::string row = name + "/plan-stratified";
    json.Add(row, "injections_to_ci", total);
    json.Add(row, "rounds", static_cast<double>(rounds));
    json.Add(row, "runs_per_sec", runs_per_sec);
    json.Add(row, "uniform_equivalent_runs", static_cast<double>(uniform));
    json.Add(row, "injections_saved_ratio", ratio);
  }
  econ.SetFootnote("uniform-equiv = injections a uniform sampler needs to close every "
                   "stratum's Wilson CI to the same target (max_h ceil(t_h / W_h))");
  econ.Print(std::cout);
  return all_identical ? 0 : 1;
}
