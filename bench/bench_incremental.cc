// Incremental re-analysis throughput: after editing one kernel, replaying
// the dirty unit against the resident compositional state vs. re-running the
// whole-program pipeline.
//
// The compositional layer's value proposition is that an edit-analyze loop
// pays for the edit, not the program: one unit replays, its neighbours'
// summaries are reused, and the recomposed numbers are bit-identical to a
// from-scratch run. This bench measures that directly — whole-program wall
// time on the edited module, incremental wall time for the same answer,
// speedup, and an identity cross-check — and gates on the edit loop being
// >= 10x faster than the rebuild on lulesh (the largest app in the suite).
// Each side is timed as its fastest of five repetitions, every repetition on
// freshly built state.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>

#include "bench/bench_common.h"
#include "epvf/compose.h"
#include "epvf/mutate.h"
#include "epvf/reexec.h"
#include "epvf/report.h"
#include "epvf/units.h"
#include "support/stopwatch.h"
#include "support/table.h"

namespace {

constexpr int kRepetitions = 5;

bool SameStats(const epvf::core::ReportStats& a, const epvf::core::ReportStats& b) {
  return a.dyn_instructions == b.dyn_instructions && a.num_nodes == b.num_nodes &&
         a.ace_bits == b.ace_bits && a.crash_bits == b.crash_bits &&
         a.total_bits == b.total_bits && a.mem_ace == b.mem_ace &&
         a.mem_crash == b.mem_crash && a.mem_total == b.mem_total;
}

}  // namespace

int main() {
  using namespace epvf;

  bench::ScopedObservability obs;
  bench::BenchJson json("incremental", /*default_to_repo_root=*/true);

  const int jobs = bench::Jobs();
  AsciiTable table({"Benchmark", "whole (ms)", "incr (ms)", "speedup", "units", "replayed",
                    "identical"});
  table.SetTitle("Incremental re-analysis after a single-kernel edit");

  bool gate_ok = true;
  for (const std::string& name :
       {std::string("lulesh"), std::string("hotspot"), std::string("nw")}) {
    const apps::App app = apps::BuildApp(name, apps::AppConfig{.scale = bench::Scale()});
    const core::AnalysisOptions options = bench::DefaultAnalysisOptions();

    // One boundary-preserving edit to one kernel (guaranteed fast path).
    ir::Module mutated = app.module;
    auto m = core::MutateAnywhere(mutated, core::PartitionModule(app.module),
                                  core::MutationKind::kRenameRegister, 1);
    if (!m.has_value()) {
      m = core::MutateAnywhere(mutated, core::PartitionModule(app.module),
                               core::MutationKind::kSwapIndependent, 1);
    }
    if (!m.has_value()) {
      std::fprintf(stderr, "bench_incremental: no mutation site in %s\n", name.c_str());
      return 1;
    }

    // Each side's time is its fastest of kRepetitions: one sample of a few
    // milliseconds is at the mercy of the host's load.
    double incr_ms = std::numeric_limits<double>::infinity();
    double whole_ms = std::numeric_limits<double>::infinity();
    bool identical = true;
    std::size_t units_total = 0;
    core::IncrementalOutcome outcome;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      // The resident state an editor session would already hold, built
      // afresh for every repetition: the previous repetition's replay left
      // its state describing the edited module.
      const core::Analysis base = core::Analysis::Run(app.module, options);
      core::ProgramSlices p =
          core::BuildProgramSlices(base, core::PartitionModule(app.module));
      units_total = p.units.size();

      Stopwatch incr_watch;
      outcome = core::ReanalyzeIncremental(p, mutated, jobs);
      incr_ms = std::min(incr_ms, incr_watch.ElapsedMillis());
      if (!outcome.used_fast_path) {
        std::fprintf(stderr,
                     "bench_incremental: %s fell back (%s) on a boundary-preserving edit\n",
                     name.c_str(), std::string(core::FallbackReasonName(outcome.fallback)).c_str());
        return 1;
      }

      // What re-analyzing from scratch pays for the same edited module: the
      // golden run plus every unit's slice and the report statistics — the
      // state ReanalyzeIncremental leaves resident after its fast path.
      Stopwatch whole_watch;
      const core::Analysis fresh = core::Analysis::Run(mutated, options);
      [[maybe_unused]] const core::ProgramSlices scratch =
          core::BuildProgramSlices(fresh, core::PartitionModule(mutated));
      whole_ms = std::min(whole_ms, whole_watch.ElapsedMillis());

      identical = identical &&
                  SameStats(core::StatsFromAnalysis(fresh), core::ComposeProgram(p));
    }

    const double speedup = incr_ms > 0 ? whole_ms / incr_ms : 0;
    const bool app_ok = identical && (name != "lulesh" || speedup >= 10.0);
    gate_ok = gate_ok && app_ok;

    table.AddRow({name + (app_ok ? "" : " [FAIL]"), AsciiTable::Num(whole_ms, 1),
                  AsciiTable::Num(incr_ms, 2), AsciiTable::Num(speedup, 1) + "x",
                  std::to_string(units_total), std::to_string(outcome.units_replayed),
                  identical ? "yes" : "NO"});
    json.Add(name, "whole_ms", whole_ms);
    json.Add(name, "incremental_ms", incr_ms);
    json.Add(name, "speedup", speedup);
    json.Add(name, "units_total", static_cast<double>(units_total));
    json.Add(name, "units_replayed", static_cast<double>(outcome.units_replayed));
    json.Add(name, "identical", identical ? 1.0 : 0.0);
  }

  table.SetFootnote("whole = golden run + per-unit slices and report statistics from scratch "
                    "on the edited module; incr = ReanalyzeIncremental against the resident "
                    "per-unit state, same numbers bit for bit; each the fastest of " +
                    std::to_string(kRepetitions) +
                    " repetitions; gate: lulesh incr >= 10x faster");
  table.Print(std::cout);

  if (!gate_ok) {
    std::fprintf(stderr, "bench_incremental: the >= 10x lulesh speedup gate (or the identity "
                         "cross-check) FAILED\n");
    return 1;
  }
  return 0;
}
