// Campaign throughput across checkpoint/replay settings.
//
// Every injected run is bit-identical to the golden run up to its injection
// site, so a campaign that snapshots the golden run and executes only the
// suffix of each injection skips (on average) half the trace per run.
// Injected runs carry no trace sink, so the executor dispatches them on its
// fast loop (src/vm/exec_bytecode.cc) between the fault and checkpoint
// events. This bench measures runs/sec and the speedup vs. from-scratch at
// 0/4/64 checkpoints (64 is the default), plus one jittered campaign at the
// CLI's default of 2 pages (always from scratch: jittered runs never
// checkpoint), and cross-checks every repetition of every jitter-free
// setting record for record against the 0-checkpoint campaign, and every
// jittered repetition against the first (exit 1 on a divergence). Each row
// is timed as its fastest of five repetitions, and the settings take turns
// repetition by repetition, so every row sees the same process history
// (heap, caches) and "vs scratch" compares work, not position in the run.
// Its JSON lands at the repo root (BENCH_injection_throughput.json) so the
// trajectory is tracked in-repo.
#include <algorithm>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

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

/// One campaign setting of the throughput table.
struct Setting {
  std::string name;  ///< row suffix
  std::uint32_t checkpoints;
  std::uint32_t jitter_pages;
};

}  // namespace

int main() {
  const bench::ScopedObservability observability;
  bench::BenchJson json("injection_throughput", /*default_to_repo_root=*/true);
  const int runs = bench::FiRuns();
  // The first setting is the from-scratch reference and ckpt64 the default
  // count; the last is the CLI's default jitter, which the checkpoint fast
  // path never serves.
  const std::vector<Setting> settings = {
      {"ckpt0", 0, 0}, {"ckpt4", 4, 0}, {"ckpt64", 64, 0}, {"jitter2", 64, 2}};

  AsciiTable table({"Benchmark", "trace", "setting", "runs/s", "vs scratch", "identical"});
  table.SetTitle("Injection throughput: suffix replay (" + std::to_string(runs) +
                 " runs/campaign, fastest of " + std::to_string(kRepetitions) +
                 ", settings interleaved)");

  bool all_identical = true;
  for (const std::string& name :
       {std::string("lulesh"), std::string("lavaMD"), std::string("srad")}) {
    const bench::Prepared p = bench::Prepare(name);
    const std::size_t n = settings.size();
    std::vector<fi::CampaignOptions> options(n);
    for (std::size_t s = 0; s < n; ++s) {
      options[s].num_runs = runs;
      options[s].seed = bench::Seed();
      options[s].injector.jitter_pages = settings[s].jitter_pages;
      options[s].num_threads = bench::Jobs();
      options[s].injector.checkpoints = settings[s].checkpoints;
    }
    std::vector<double> seconds(n, std::numeric_limits<double>::infinity());
    std::vector<fi::CampaignStats> first(n);
    std::vector<fi::CampaignPerf> perf(n);
    std::vector<bool> identical(n, true);
    for (int rep = 0; rep < kRepetitions; ++rep) {
      for (std::size_t s = 0; s < n; ++s) {
        Stopwatch watch;
        const fi::CampaignStats stats =
            fi::RunCampaign(p.app.module, p.analysis.graph(), p.analysis.golden(), options[s]);
        seconds[s] = std::min(seconds[s], watch.ElapsedSeconds());
        perf[s] = stats.perf;
        if (rep == 0) first[s] = stats;
        // Jitter-free settings must reproduce the from-scratch campaign; the
        // jittered one (other layouts, other outcomes) its own first run.
        const fi::CampaignStats& reference =
            settings[s].jitter_pages == 0 ? first[0] : first[s];
        identical[s] = identical[s] && RecordsIdentical(stats, reference);
      }
    }
    const double scratch_runs_per_sec = seconds[0] > 0 ? runs / seconds[0] : 0;
    for (std::size_t s = 0; s < n; ++s) {
      const double runs_per_sec = seconds[s] > 0 ? runs / seconds[s] : 0;
      const double vs_scratch =
          scratch_runs_per_sec > 0 ? runs_per_sec / scratch_runs_per_sec : 0;
      all_identical = all_identical && identical[s];
      table.AddRow({name, std::to_string(p.analysis.TraceLength()), settings[s].name,
                    AsciiTable::Num(runs_per_sec, 1), AsciiTable::Num(vs_scratch, 2) + "x",
                    identical[s] ? "yes" : "NO"});

      const std::string row = name + "/" + settings[s].name;
      json.Add(row, "runs_per_sec", runs_per_sec);
      json.Add(row, "speedup_vs_scratch", vs_scratch);
      json.Add(row, "checkpoints", static_cast<double>(perf[s].checkpoints));
      json.Add(row, "checkpointed_runs", static_cast<double>(perf[s].checkpointed_runs));
      json.Add(row, "skipped_instructions", static_cast<double>(perf[s].skipped_instructions));
      json.Add(row, "outcomes_identical", identical[s] ? 1.0 : 0.0);
    }
  }
  table.SetFootnote("'vs scratch' compares to 0 checkpoints (ckpt0); 'identical' checks every "
                    "record (site, bit, outcome) of every repetition against the 0-checkpoint "
                    "campaign (jitter2: against its own first repetition)");
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
