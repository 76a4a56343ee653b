// Figure 11 + the section IV-E variance probe: ePVF extrapolated from the
// first 10% of output nodes vs the full analysis, and the normalized variance
// of 1% random subsamples that predicts whether sampling is trustworthy.
//
// Paper result: <1% average extrapolation error for regular applications;
// the variance probe is low for regular apps (lavaMD, particlefilter) and
// high where sampling fails (lud).
//
// The second table turns the sampling question around: instead of sampling
// the *analysis*, sample the *injection campaign*. It runs the stratified
// planner (fi::CampaignPlanner) to its CI target and compares the injections
// it spent against the uniform-sampling equivalent at the same per-stratum
// precision, then checks the stratified composite SDC/crash CIs against a
// dense uniform reference campaign (the ground-truth stand-in — exhaustive
// injection over every trace bit is infeasible even at scale 0). The bench
// exits nonzero if the planner saves less than 5x on any app or a composite
// CI fails to cover the reference, so CI can run it as an acceptance gate.
//
// Extra knobs (on top of bench_common.h's):
//   EPVF_CI_TARGET  planner CI half-width target      (default 0.05)
//   EPVF_REF_RUNS   uniform reference campaign runs   (default 16000)
#include <cmath>
#include <iostream>

#include "bench/bench_common.h"
#include "epvf/sampling.h"

namespace {

/// Planner-vs-uniform economics for one benchmark. Returns false when the
/// savings ratio is under 5x or a stratified CI misses the reference.
bool StratifiedRow(const std::string& name, double ci_target, int ref_runs,
                   epvf::AsciiTable& table) {
  using namespace epvf;
  const bench::Prepared p = bench::Prepare(name);
  fi::Injector injector(p.app.module, p.analysis.golden(), fi::InjectorOptions{});
  fi::StratifiedOptions plan;
  plan.ci_target = ci_target;
  fi::CampaignPlanner planner(p.analysis.graph(), p.analysis.ace(), p.analysis.crash_bits(),
                              injector, bench::Seed(), plan);
  bench::RunPlanToCompletion(planner, injector);

  const std::uint64_t n_strat = planner.TotalRuns();
  const std::uint64_t n_uniform = bench::UniformEquivalentRuns(planner);
  const double ratio =
      n_strat == 0 ? 0.0 : static_cast<double>(n_uniform) / static_cast<double>(n_strat);

  // Ground-truth stand-in: one dense uniform campaign over the same fault
  // space (deterministic layout so the reference shares the planner's
  // population). Coverage check: the two estimates of the same quantity must
  // agree within the sum of their 95% half-widths.
  fi::CampaignOptions ref;
  ref.num_runs = ref_runs;
  ref.seed = bench::Seed();
  ref.injector.jitter_pages = 0;
  ref.num_threads = bench::Jobs();
  ref.injector.checkpoints = bench::Checkpoints();  // the reference is the slow half
  const fi::CampaignStats dense =
      fi::RunCampaign(p.app.module, p.analysis.graph(), p.analysis.golden(), ref);

  const fi::RateEstimate sdc = planner.SdcEstimate();
  const fi::RateEstimate crash = planner.CrashEstimate();
  const ProportionCI ref_sdc = dense.CI(fi::Outcome::kSdc);
  const ProportionCI ref_crash = dense.CrashCI();
  const bool sdc_covered =
      std::fabs(sdc.rate - ref_sdc.rate) <= sdc.half_width + ref_sdc.half_width;
  const bool crash_covered =
      std::fabs(crash.rate - ref_crash.rate) <= crash.half_width + ref_crash.half_width;
  const bool saves = ratio >= 5.0;

  table.AddRow({name, std::to_string(n_strat), std::to_string(planner.RoundsCommitted()),
                std::to_string(planner.strata().size()), std::to_string(n_uniform),
                AsciiTable::Num(ratio, 1) + "x",
                AsciiTable::Num(sdc.rate) + " +- " + AsciiTable::Num(sdc.half_width),
                AsciiTable::Num(ref_sdc.rate) + " +- " + AsciiTable::Num(ref_sdc.half_width),
                (sdc_covered && crash_covered) ? "yes" : "NO"});
  if (!saves) {
    std::cerr << "FAIL " << name << ": stratified saves only " << ratio
              << "x over uniform (need >= 5x)\n";
  }
  if (!sdc_covered || !crash_covered) {
    std::cerr << "FAIL " << name << ": stratified CI does not cover the uniform reference ("
              << (sdc_covered ? "crash" : "SDC") << ")\n";
  }
  return saves && sdc_covered && crash_covered;
}

}  // namespace

int main() {
  using namespace epvf;
  AsciiTable table({"Benchmark", "extrapolated ePVF (10%)", "full ePVF", "|error|",
                    "partial ACE nodes", "1% norm. variance"});
  table.SetTitle("Figure 11 — ACE-graph sampling (10% of output roots)");
  double err_sum = 0;
  int n = 0;
  for (const std::string& name : bench::TableIVApps()) {
    const bench::Prepared p = bench::Prepare(name);
    const core::SamplingEstimate est = core::EstimateBySampling(p.analysis, 0.10);
    const core::RepetitivenessProbe probe =
        core::ProbeRepetitiveness(p.analysis, 0.01, 8, bench::Seed());
    err_sum += est.AbsoluteError();
    ++n;
    table.AddRow({name, AsciiTable::Num(est.extrapolated_epvf), AsciiTable::Num(est.full_epvf),
                  AsciiTable::Num(est.AbsoluteError()), std::to_string(est.partial_ace_nodes),
                  AsciiTable::Num(probe.normalized_variance, 4)});
  }
  table.SetFootnote("paper: <1% average error for regular apps; high-variance apps are the "
                    "ones where sampling should not be trusted. ours avg |error|: " +
                    AsciiTable::Num(err_sum / n, 4));
  table.Print(std::cout);

  const double ci_target = bench::EnvDouble("EPVF_CI_TARGET", 0.05);
  const int ref_runs = bench::EnvInt("EPVF_REF_RUNS", 16000);
  AsciiTable strat({"Benchmark", "stratified runs", "rounds", "strata", "uniform-equiv",
                    "savings", "stratified SDC", "reference SDC", "CI covers ref"});
  strat.SetTitle("Stratified planner vs uniform sampling (CI target " +
                 AsciiTable::Num(ci_target) + ")");
  bool ok = true;
  for (const std::string& name : {std::string("mm"), std::string("lud")}) {
    ok = StratifiedRow(name, ci_target, ref_runs, strat) && ok;
  }
  strat.SetFootnote("uniform-equiv = injections uniform sampling needs for the same "
                    "per-stratum Wilson half-width (max_h ceil(t_h / W_h)); reference = " +
                    std::to_string(ref_runs) +
                    "-run uniform campaign. gates: savings >= 5x, composite SDC/crash CIs "
                    "cover the reference.");
  strat.Print(std::cout);
  return ok ? 0 : 1;
}
