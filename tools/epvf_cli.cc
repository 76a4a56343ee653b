// epvf — command-line driver for the whole toolkit.
//
//   epvf list
//   epvf analyze  <benchmark|file.ir> [--scale N] [--jobs N]
//                                     [--incremental [--cache-dir D] [--no-cache]]
//   epvf inject   <benchmark|file.ir> [--runs N] [--jitter P] [--burst B] [--seed S] [--jobs N]
//                                     [--cache-dir D] [--no-cache]
//   epvf campaign <benchmark|file.ir> [--shards N] [--shard-timeout S] [--shard-retries R]
//                                     [+ every inject flag]
//   epvf sample   <benchmark|file.ir> [--fraction F] [--jobs N]
//   epvf protect  <benchmark>         [--budget PCT] [--rank epvf|hot] [--real] [--jobs N]
//   epvf print    <benchmark|file.ir>
//   epvf cache    stats|clear         [--cache-dir D]
//   epvf metrics  <file.json>
//
// A target is either a bundled benchmark name (see `epvf list`) or a path to
// a textual-IR file (anything containing '.' or '/'). `--jobs 0` (the
// default) uses one worker per hardware core; results are bit-identical at
// every jobs setting.
//
// campaign is inject scaled out across worker *processes*: a supervisor
// runs the campaign plan (uniform or stratified) round by round, splits each
// round's deterministic queue into --shards contiguous slices (env
// EPVF_SHARDS when the flag is absent), runs each slice in its own relaunch
// of this binary (the hidden --worker-shard flag), and merges the slice
// entries into one record stream that is byte-identical to a single-process
// run — including runs where a worker is killed or hangs mid-shard and is
// relaunched (workers resume from their slice's persisted completion mask).
// All supervision diagnostics go to stderr; worker output lands in
// per-shard log files inside the cache directory.
//
// inject and campaign persist their plan (and shard slices) in the on-disk
// artifact store, and analyze --incremental and delta keep per-unit state
// there, when a directory is given via --cache-dir or EPVF_CACHE_DIR
// (--no-cache overrides both); a plain analyze always recomputes and never
// touches the store. analyze and inject accept --trace-out FILE (Chrome
// trace_event JSON of the run's spans; the EPVF_TRACE env var does the same
// for every command) and --metrics-out FILE (obs metrics registry dump,
// pretty-printed by `epvf metrics`). All cache/timing/observability
// diagnostics go to stderr, so stdout is byte-identical between cold and
// warm runs and with tracing on or off.
//
// Daemon mode: `epvf serve <socket>` keeps analyses resident behind a Unix
// socket (epvf-wire-v1, docs/SERVE_PROTOCOL.md); analyze/inject/campaign
// accept --connect <socket> to run on the daemon instead (stdout is
// byte-identical to a local run; progress/diagnostics stream to stderr), and
// status/cancel/shutdown/metrics --connect administer it.
//
// Exit codes: 0 success, 1 runtime error, 2 usage, 3 unknown command,
// 4 unknown flag, 6 daemon busy (retry later).
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/app.h"
#include "epvf/analysis.h"
#include "epvf/compose.h"
#include "epvf/mutate.h"
#include "epvf/reexec.h"
#include "epvf/report.h"
#include "epvf/sampling.h"
#include "epvf/units.h"
#include "fi/campaign.h"
#include "fi/memory_scenario.h"
#include "fi/scenario.h"
#include "fi/supervisor.h"
#include "fi/targeted.h"
#include "ir/printer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/progress.h"
#include "protect/evaluation.h"
#include "protect/transform.h"
#include "serve/client.h"
#include "serve/render.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "store/cache.h"
#include "store/units_store.h"
#include "support/subprocess.h"
#include "support/table.h"
#include "support/thread_pool.h"
#include "vm/interpreter.h"

namespace {

using namespace epvf;

constexpr int kExitUsage = 2;
constexpr int kExitUnknownCommand = 3;
constexpr int kExitUnknownFlag = 4;
/// The daemon rejected the request with kBusy — distinct so scripts can back
/// off and retry instead of treating backpressure as a hard failure.
constexpr int kExitBusy = 6;

struct Options {
  std::string command;
  std::string target;
  std::string target2;  ///< second positional (the new module of `epvf delta`)
  std::map<std::string, std::string> flags;

  [[nodiscard]] int Int(const std::string& name, int fallback) const {
    const auto it = flags.find(name);
    return it == flags.end() ? fallback : std::atoi(it->second.c_str());
  }
  [[nodiscard]] double Double(const std::string& name, double fallback) const {
    const auto it = flags.find(name);
    return it == flags.end() ? fallback : std::atof(it->second.c_str());
  }
  [[nodiscard]] std::string Str(const std::string& name, std::string fallback) const {
    const auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  }

  /// Resolved --scenario value (validated in main).
  fi::Scenario scenario = fi::Scenario::kRegister;
};

/// Flags each command accepts — anything else is rejected with the offending
/// name on stderr and a distinct exit code.
const std::map<std::string, std::set<std::string>>& AllowedFlags() {
  static const std::map<std::string, std::set<std::string>> allowed = {
      {"list", {}},
      {"analyze",
       {"scale", "jobs", "cache-dir", "no-cache", "trace-out", "metrics-out", "connect",
        "priority", "incremental"}},
      {"delta", {"scale", "jobs", "cache-dir", "no-cache"}},
      {"mutate", {"scale", "kind", "seed"}},
      {"inject",
       {"scale", "runs", "jitter", "burst", "seed", "jobs", "checkpoints", "cache-dir",
        "no-cache", "trace-out", "metrics-out", "plan", "ci-target", "max-runs", "connect",
        "priority", "scenario"}},
      // --worker-shard and --plan-round are internal plumbing (the supervisor
      // relaunching this binary for one shard / one planner round), accepted
      // but undocumented.
      {"campaign",
       {"scale", "runs", "jitter", "burst", "seed", "jobs", "checkpoints", "cache-dir",
        "no-cache", "trace-out", "metrics-out", "shards", "shard-timeout", "shard-retries",
        "worker-shard", "plan", "ci-target", "max-runs", "plan-round", "connect", "priority",
        "scenario"}},
      {"sample", {"scale", "fraction", "jobs"}},
      {"protect", {"scale", "budget", "rank", "real", "jobs", "runs"}},
      {"print", {"scale"}},
      {"cache", {"cache-dir"}},
      {"metrics", {"connect"}},
      {"serve", {"cache-dir", "slots", "queue", "retries"}},
      {"status", {"connect"}},
      {"cancel", {"connect"}},
      {"shutdown", {"connect"}},
  };
  return allowed;
}

int Usage() {
  std::fprintf(stderr,
               "usage: epvf <command> [target] [flags]\n"
               "  list                             bundled benchmarks\n"
               "  analyze <target> [--scale N]     PVF/ePVF/crash metrics + structure report\n"
               "          [--incremental]          serve the report from the per-unit cache,\n"
               "                                   recomputing only units whose IR changed\n"
               "                                   (stdout is byte-identical to a full run;\n"
               "                                   needs --cache-dir or EPVF_CACHE_DIR)\n"
               "  delta   <old> <new> [--scale N]  per-unit ePVF movement between two modules\n"
               "  mutate  <target> [--kind K] [--seed S]\n"
               "                                   print the IR with one seeded unit-local\n"
               "                                   mutation applied (K: swap-independent,\n"
               "                                   rename-register, rename-block,\n"
               "                                   tweak-constant) — the incremental-analysis\n"
               "                                   test/CI edit generator\n"
               "  inject  <target> [--runs N] [--jitter P] [--burst B] [--seed S]\n"
               "                   [--checkpoints N] [--plan uniform|stratified]\n"
               "                   [--ci-target W] [--max-runs N]\n"
               "                   [--scenario register|memory]\n"
               "                                   fault-injection campaign + model validation\n"
               "                                   (--plan stratified: the statistical planner\n"
               "                                   stratifies fault sites by instruction class,\n"
               "                                   crash-bit status, and slice depth, allocates\n"
               "                                   rounds Neyman-style, and stops each stratum\n"
               "                                   at CI half-width --ci-target (default 0.05);\n"
               "                                   --max-runs caps total injections, 0 = none;\n"
               "                                   --runs is ignored under the planner)\n"
               "                                   (--checkpoints: suffix-replay snapshots per\n"
               "                                   campaign; -1 = auto, 0 = off; outcomes are\n"
               "                                   identical at every setting; needs --jitter 0,\n"
               "                                   jittered runs always execute from scratch)\n"
               "                                   (--scenario memory: flips land in simulated\n"
               "                                   heap/stack bytes instead of register slots;\n"
               "                                   sites are store-written bytes weighted by\n"
               "                                   write-to-load dwell time, and a byte that is\n"
               "                                   overwritten before any load is benign without\n"
               "                                   execution — delayed error reporting; implies\n"
               "                                   and requires --jitter 0; default: register)\n"
               "                                   (flag precedence: --plan stratified ignores\n"
               "                                   --runs and uses --ci-target/--max-runs;\n"
               "                                   --scenario composes with either plan)\n"
               "  campaign <target> [--shards N] [--shard-timeout S] [--shard-retries R]\n"
               "                   [+ every inject flag]\n"
               "                                   inject sharded across N worker processes\n"
               "                                   (EPVF_SHARDS default; records and statistics\n"
               "                                   are byte-identical to --shards 1, workers\n"
               "                                   that die or hang are relaunched and resume\n"
               "                                   from their shard's completion mask)\n"
               "  sample  <target> [--fraction F]  ACE-graph sampling estimate\n"
               "  protect <benchmark> [--budget PCT] [--rank epvf|hot] [--real]\n"
               "                                   section-V selective duplication\n"
               "  print   <target>                 dump the textual IR\n"
               "  cache   stats|clear              inspect / empty the artifact cache\n"
               "  metrics <file.json>              pretty-print a --metrics-out dump\n"
               "  serve   <socket> [--cache-dir D] [--slots N] [--queue N] [--retries R]\n"
               "                                   resident analysis daemon on a Unix socket\n"
               "                                   (analyses stay in memory across requests;\n"
               "                                   jobs queue up to --queue, then clients get\n"
               "                                   a busy reply with a retry hint)\n"
               "  status   --connect S             daemon queue + running jobs\n"
               "  cancel  <job-id> --connect S     cancel a queued or running daemon job\n"
               "  shutdown --connect S             stop the daemon\n"
               "analyze/inject/campaign accept --connect SOCKET to run on a daemon\n"
               "instead of locally (stdout is byte-identical; --priority N jumps the\n"
               "queue; busy daemons exit 6) and metrics --connect dumps the daemon's\n"
               "live registry\n"
               "a target is a benchmark name or a .ir file path\n"
               "analyze/inject observability: --trace-out FILE writes a Chrome\n"
               "trace_event JSON (chrome://tracing / Perfetto) of the run's spans\n"
               "(EPVF_TRACE=FILE does the same; 0 = off, 1 = epvf-trace.json);\n"
               "--metrics-out FILE dumps the counter/histogram registry as JSON\n"
               "--jobs N picks the analysis/campaign thread count (0 = hardware\n"
               "concurrency, the default); results are identical for any N\n"
               "inject/campaign resume their campaign plan, and analyze --incremental\n"
               "and delta reuse per-unit state, from the cache directory --cache-dir\n"
               "DIR (or the EPVF_CACHE_DIR environment variable) names; a plain\n"
               "analyze always recomputes; --no-cache runs without touching the cache\n");
  return kExitUsage;
}

/// Analysis options shared by every analyzing command: --jobs plumbs into the
/// parallel pipeline stages.
core::AnalysisOptions AnalysisOpts(const Options& options) {
  core::AnalysisOptions opts;
  opts.jobs = options.Int("jobs", 0);
  return opts;
}

/// --cache-dir beats EPVF_CACHE_DIR; --no-cache beats both. Empty = disabled.
std::string ResolveCacheDir(const Options& options) {
  if (options.flags.count("no-cache") != 0) return {};
  const auto it = options.flags.find("cache-dir");
  if (it != options.flags.end()) return it->second;
  const char* env = std::getenv("EPVF_CACHE_DIR");
  return env == nullptr ? std::string() : std::string(env);
}

/// The content-address identity of this invocation's analysis.
store::AnalysisKey MakeAnalysisKey(const Options& options, const ir::Module& module,
                                   const core::AnalysisOptions& opts) {
  return store::MakeAnalysisKey(options.target, options.Int("scale", 1), module, opts);
}

ir::Module LoadTarget(const Options& options) {
  return apps::LoadTarget(options.target, options.Int("scale", 1));
}

int CmdList() {
  AsciiTable table({"benchmark", "domain", "paper LOC"});
  table.SetTitle("bundled benchmarks (paper Table IV + kmeans)");
  for (const std::string& name : apps::AppNames()) {
    const apps::App app = apps::BuildApp(name, apps::AppConfig{.scale = 0});
    table.AddRow({app.name, app.domain, std::to_string(app.paper_loc)});
  }
  table.Print(std::cout);
  return 0;
}

/// `analyze --incremental`: the compositional pipeline against the per-unit
/// cache. Stdout is byte-identical to a plain `analyze` of the same module
/// (the composed stats feed the same renderer); everything about *how* the
/// numbers were obtained — fast path, units replayed, cache hits — is stderr.
int CmdAnalyzeIncremental(const Options& options) {
  const ir::Module module = LoadTarget(options);
  const core::AnalysisOptions opts = AnalysisOpts(options);
  store::ArtifactCache cache(ResolveCacheDir(options));
  if (!cache.enabled()) {
    std::fprintf(stderr,
                 "epvf: --incremental without a cache directory recomputes everything — "
                 "pass --cache-dir or set EPVF_CACHE_DIR to keep per-unit state\n");
  }
  const store::AnalysisKey key = MakeAnalysisKey(options, module, opts);
  const store::IncrementalResult result =
      store::RunAnalysisIncremental(module, opts, key, cache);

  serve::RenderAnalyzeReport(core::ComposeProgram(result.slices), std::cout);

  const store::IncrementalStats& s = result.stats;
  if (s.cold_rebuild) {
    const std::string_view why =
        !cache.enabled() ? "cache disabled"
        : !s.manifest_hit ? "no cached state"
                          : core::FallbackReasonName(s.outcome.fallback);
    std::fprintf(stderr, "incremental: cold rebuild (%.*s) — %u units persisted\n",
                 static_cast<int>(why.size()), why.data(), s.units_total);
  } else {
    std::fprintf(stderr,
                 "incremental: fast path — %u of %u units recomputed, %u served from "
                 "cache, %u rewalked\n",
                 s.unit_misses, s.units_total, s.unit_hits, s.outcome.units_rewalked);
  }
  return 0;
}

int CmdAnalyze(const Options& options) {
  if (options.flags.count("incremental") != 0) return CmdAnalyzeIncremental(options);
  // Recomputing the analysis is cheaper than loading a stored one, so a
  // plain analyze never touches the cache directory.
  const ir::Module module = LoadTarget(options);
  const core::Analysis a = core::Analysis::Run(module, AnalysisOpts(options));

  // The report body is shared with the daemon (serve/render.h) so `analyze
  // --connect` streams the identical stdout bytes.
  serve::RenderAnalyzeReport(a, std::cout);
  // Timing is a diagnostic, not a result: stderr, so stdout is byte-identical
  // across runs and --jobs values.
  std::fprintf(
      stderr,
      "analysis time        : %.1f ms (trace+DDG %.1f, ACE %.1f, crash %.1f, "
      "rate est %.1f) at %u jobs\n",
      a.timings().TotalSeconds() * 1e3, a.timings().trace_and_graph_seconds * 1e3,
      a.timings().ace_seconds * 1e3, a.timings().crash_model_seconds * 1e3,
      a.timings().rate_estimate_seconds * 1e3, a.timings().ace_threads);
  return 0;
}

/// Campaign options shared by inject and campaign — same flags, same
/// defaults, so the two commands print byte-identical reports for the same
/// invocation parameters.
fi::CampaignOptions MakeCampaignOptions(const Options& options, const core::Analysis& a) {
  fi::CampaignOptions campaign;
  campaign.num_runs = options.Int("runs", 500);
  campaign.seed = static_cast<std::uint64_t>(options.Int("seed", 42));
  campaign.injector.scenario = options.scenario;
  // Memory sites are absolute golden-layout addresses, so --scenario memory
  // defaults to zero jitter (an explicit nonzero --jitter is rejected in main).
  const bool memory = options.scenario == fi::Scenario::kMemory;
  campaign.injector.jitter_pages = static_cast<std::uint32_t>(options.Int("jitter", memory ? 0 : 2));
  campaign.injector.burst_length = static_cast<std::uint8_t>(options.Int("burst", 1));
  campaign.num_threads = options.Int("jobs", 0);
  // --checkpoints N = snapshots to spread over the golden trace (N > 0),
  // 0 = fast path off, -1 (default) = auto from the trace length.
  const int checkpoints = options.Int("checkpoints", -1);
  if (checkpoints == 0) {
    campaign.checkpoint_interval = -1;
  } else if (checkpoints > 0) {
    const std::uint64_t interval =
        a.TraceLength() / (static_cast<std::uint64_t>(checkpoints) + 1);
    campaign.checkpoint_interval = static_cast<std::int64_t>(interval < 1 ? 1 : interval);
  }
  return campaign;
}

/// The campaign report both inject and campaign print: outcome table with
/// CIs on stdout plus the model-validation line. Everything else (timings,
/// cache status, shard supervision) is stderr-only diagnostics, so a sharded
/// campaign's stdout is byte-identical to a single-process one.
void PrintCampaignReport(const core::Analysis& a, const fi::CampaignStats& stats) {
  AsciiTable table({"outcome", "count", "rate"});
  table.SetTitle("campaign (" + std::to_string(stats.Total()) + " injections)");
  for (int i = 0; i < fi::kNumOutcomes; ++i) {
    const auto outcome = static_cast<fi::Outcome>(i);
    if (stats.Count(outcome) == 0) continue;
    const auto ci = stats.CI(outcome);
    table.AddRow({std::string(fi::OutcomeName(outcome)), std::to_string(stats.Count(outcome)),
                  AsciiTable::PctCI(ci.rate, ci.half_width)});
  }
  table.Print(std::cout);

  const fi::RecallStats recall = fi::MeasureRecall(stats, a.crash_bits());
  std::printf("model crash estimate %.3f vs measured %.3f | recall %.1f%% (%llu/%llu)\n",
              a.CrashRateEstimate(), stats.CrashRate(), recall.Recall() * 100,
              static_cast<unsigned long long>(recall.predicted),
              static_cast<unsigned long long>(recall.crash_runs));
}

/// Memory-scenario campaigns resolve their FaultSite keys against the
/// dwell-weighted site table, so the injector needs it attached wherever the
/// CLI builds one (the planner and executor only read the injector).
void AttachScenario(fi::Injector& injector, const fi::CampaignOptions& campaign,
                    const core::Analysis& a) {
  if (campaign.injector.scenario != fi::Scenario::kMemory) return;
  injector.AttachMemoryScenario(std::make_shared<const fi::MemoryScenario>(a.graph()));
}

/// --plan uniform|stratified (uniform = the classic fixed-runs campaign).
/// Prints the offending value and returns nullopt on anything else.
std::optional<fi::PlanKind> ResolvePlanKind(const Options& options) {
  const std::string name = options.Str("plan", "uniform");
  const std::optional<fi::PlanKind> kind = fi::ParsePlanKind(name);
  if (!kind.has_value()) {
    std::fprintf(stderr, "epvf: unknown plan '%s' (expected uniform or stratified)\n",
                 name.c_str());
  }
  return kind;
}

/// The campaign this invocation asks for: its analysis identity (default
/// when nothing is cached), campaign options, plan kind and planner options.
store::PlanKey MakePlanKey(const Options& options, const core::Analysis& a,
                           const store::AnalysisKey& analysis_key, fi::PlanKind kind) {
  fi::StratifiedOptions plan;
  plan.ci_target = options.Double("ci-target", 0.05);
  plan.max_runs = static_cast<std::uint32_t>(std::max(0, options.Int("max-runs", 0)));
  return store::PlanKey{store::CampaignKey{analysis_key, MakeCampaignOptions(options, a)}, plan,
                        kind};
}

/// Persistence batch size for plan entries and shard slices
/// (EPVF_PERSIST_EVERY, the knob the crash-tolerance tests turn down).
int ResolvePersistEvery() {
  int persist_every = 64;
  if (const char* env = std::getenv("EPVF_PERSIST_EVERY")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) persist_every = parsed;
  }
  return persist_every;
}

/// The campaign progress line: done/total for a uniform plan (a stratified
/// plan's total is open-ended), republished to EPVF_PROGRESS_FILE when a
/// supervising process (sharded campaign or the serve daemon) names one.
obs::ProgressReporter::Options MakeProgressOptions(const store::PlanKey& plan) {
  const int runs = plan.kind == fi::PlanKind::kUniform ? plan.campaign.options.num_runs : 0;
  obs::ProgressReporter::Options popts =
      fi::CampaignProgressOptions(static_cast<std::uint64_t>(std::max(0, runs)));
  if (const char* progress_file = std::getenv("EPVF_PROGRESS_FILE")) {
    popts.snapshot_path = progress_file;
  }
  return popts;
}

/// The stratified report: the standard outcome table first (so stratified and
/// uniform campaigns diff cleanly), then the per-stratum table and the
/// composite stratum-weighted estimates. All stdout, all deterministic.
void PrintStratifiedReport(const core::Analysis& a, const store::StratifiedResult& result) {
  PrintCampaignReport(a, result.stats);
  AsciiTable table({"stratum", "weight", "runs", "SDC", "crash", "state"});
  table.SetTitle("strata (" + std::to_string(result.rounds) + " rounds, " +
                 std::to_string(result.strata_retired) + "/" +
                 std::to_string(result.strata.size()) + " retired)");
  for (const store::StratumRow& row : result.strata) {
    table.AddRow({row.name, AsciiTable::Num(row.weight), std::to_string(row.runs),
                  AsciiTable::PctCI(row.sdc.rate, row.sdc.half_width),
                  AsciiTable::PctCI(row.crash.rate, row.crash.half_width),
                  row.retired ? "retired@r" + std::to_string(row.retired_round) : "live"});
  }
  table.Print(std::cout);
  std::printf(
      "stratified SDC %.2f%% +-%.2f%% | crash %.2f%% +-%.2f%% (95%% CI, %llu injections)\n",
      result.sdc.rate * 100, result.sdc.half_width * 100, result.crash.rate * 100,
      result.crash.half_width * 100, static_cast<unsigned long long>(result.stats.Total()));
}

/// The end of every campaign command: the cache lines (stderr), the report
/// of the plan's kind (stdout), and the checkpoint fast-path accounting
/// (stderr — it differs between cold, resumed and cached campaigns while the
/// outcomes do not).
void FinishCampaign(const core::Analysis& a, const store::PlanKey& plan,
                    const store::StratifiedResult& result, bool report_cache) {
  const fi::CampaignPerf& perf = result.stats.perf;
  if (report_cache) {
    std::fprintf(stderr, "cache: %s %s (plan, load %.2f ms, store %.2f ms)\n",
                 perf.cache_hit ? "hit" : "miss", store::CacheId(plan).c_str(),
                 perf.cache_load_seconds * 1e3, perf.cache_store_seconds * 1e3);
    if (!perf.cache_hit && result.resumed_runs > 0) {
      std::fprintf(stderr, "cache: resumed %llu completed runs from a prior plan\n",
                   static_cast<unsigned long long>(result.resumed_runs));
    }
  }
  if (plan.kind == fi::PlanKind::kStratified) {
    PrintStratifiedReport(a, result);
  } else {
    PrintCampaignReport(a, result.stats);
  }
  if (perf.checkpoints > 0) {
    std::fprintf(
        stderr,
        "checkpoint fast path : %llu snapshots (built in %.1f ms), %llu/%llu runs resumed, "
        "%.1f Minstr of golden prefix skipped, inject %.1f ms\n",
        static_cast<unsigned long long>(perf.checkpoints), perf.checkpoint_seconds * 1e3,
        static_cast<unsigned long long>(perf.checkpointed_runs),
        static_cast<unsigned long long>(result.stats.Total()),
        static_cast<double>(perf.skipped_instructions) * 1e-6, perf.inject_seconds * 1e3);
  }
}

/// In-process campaign of either plan kind: `epvf inject` and single-shard
/// `epvf campaign` (same code path, same stdout, same cache behaviour).
int RunCampaignInProcess(const Options& options, fi::PlanKind kind) {
  const ir::Module module = LoadTarget(options);
  const core::AnalysisOptions opts = AnalysisOpts(options);
  store::ArtifactCache cache(ResolveCacheDir(options));
  store::AnalysisKey key;
  if (cache.enabled()) key = MakeAnalysisKey(options, module, opts);
  const core::Analysis a = core::Analysis::Run(module, opts);
  const store::PlanKey plan = MakePlanKey(options, a, key, kind);
  fi::Injector injector(module, a.golden(), plan.campaign.options.injector);
  AttachScenario(injector, plan.campaign.options, a);

  obs::ProgressReporter progress(MakeProgressOptions(plan));
  const store::StratifiedResult result =
      store::RunPlannedCampaign(a, injector, plan, cache.enabled() ? &cache : nullptr, nullptr,
                                &progress, ResolvePersistEvery());
  progress.Finish();
  FinishCampaign(a, plan, result, cache.enabled());
  return 0;
}

int CmdInject(const Options& options) {
  const std::optional<fi::PlanKind> kind = ResolvePlanKind(options);
  if (!kind.has_value()) return kExitUsage;
  return RunCampaignInProcess(options, *kind);
}

/// Absolute path of this binary, resolved once in main(): the supervisor
/// relaunches itself as the worker executable, and argv[0] alone is not
/// reliable after a chdir.
std::string g_self_exe;  // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)

/// Atomically claims a once-marker file: true for exactly one claimant across
/// any number of racing worker processes (O_CREAT|O_EXCL). The fault-
/// injection tests use these to make exactly one worker die or stall no
/// matter how shards race.
bool ClaimOnceMarker(const std::string& path) {
  const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) return false;
  ::close(fd);
  return true;
}

/// Worker half of `epvf campaign`: regenerates round --plan-round's queue
/// from the supervisor-persisted plan entry, executes its --worker-shard
/// window against the shared cache directory, and exits. Spawned by the
/// supervisor; never invoked by users directly.
int CmdCampaignWorker(const Options& options) {
  store::ArtifactCache cache(ResolveCacheDir(options));
  if (!cache.enabled()) {
    std::fprintf(stderr, "epvf campaign: --worker-shard requires --cache-dir\n");
    return 1;
  }
  const std::optional<fi::PlanKind> kind = ResolvePlanKind(options);
  if (!kind.has_value()) return kExitUsage;
  const int shard_index = options.Int("worker-shard", 0);
  const int shard_count = options.Int("shards", 1);
  const auto round = static_cast<std::uint32_t>(options.Int("plan-round", 0));

  const ir::Module module = LoadTarget(options);
  const core::AnalysisOptions opts = AnalysisOpts(options);
  const store::AnalysisKey key = MakeAnalysisKey(options, module, opts);
  const core::Analysis a = core::Analysis::Run(module, opts);
  const store::PlanKey plan = MakePlanKey(options, a, key, *kind);
  fi::Injector injector(module, a.golden(), plan.campaign.options.injector);
  AttachScenario(injector, plan.campaign.options, a);

  // Fault-tolerance test hooks: after the first persisted batch, the single
  // worker that claims the marker dies by SIGKILL / wedges until the
  // supervisor's deadline kills it. Inert unless the env vars are set.
  std::function<void(std::uint64_t)> after_persist;
  const char* kill_env = std::getenv("EPVF_TEST_WORKER_KILL_ONCE");
  const char* stall_env = std::getenv("EPVF_TEST_WORKER_STALL_ONCE");
  if (kill_env != nullptr || stall_env != nullptr) {
    const std::string kill_marker = kill_env == nullptr ? "" : kill_env;
    const std::string stall_marker = stall_env == nullptr ? "" : stall_env;
    after_persist = [kill_marker, stall_marker](std::uint64_t) {
      if (!kill_marker.empty() && ClaimOnceMarker(kill_marker)) ::raise(SIGKILL);
      if (!stall_marker.empty() && ClaimOnceMarker(stall_marker)) {
        std::this_thread::sleep_for(std::chrono::seconds(1000));
      }
    };
  }

  // The supervisor set EPVF_PROGRESS_FILE to this shard's snapshot path (and
  // EPVF_PROGRESS=0), so the reporter only publishes counters for it to fold.
  obs::ProgressReporter progress(MakeProgressOptions(plan));
  const std::uint64_t done =
      store::RunPlanRoundShard(a, injector, plan, cache, round, shard_index, shard_count,
                               ResolvePersistEvery(), after_persist, &progress);
  progress.Finish();
  std::fprintf(stderr, "worker shard %d/%d: plan round %u done (%llu runs)\n", shard_index,
               shard_count, round, static_cast<unsigned long long>(done));
  return 0;
}

/// Supervisor half of a sharded campaign of either plan kind. The plan's
/// round loop runs here; each round the plan entry is persisted (the
/// orchestrator does that before calling the executor), --shards workers are
/// spawned with --plan-round so they regenerate the identical round queue
/// and execute disjoint slices of it, and their slice entries are merged —
/// holes from dead or hung workers execute in-process. Records are
/// byte-identical to --shards 1 by construction.
int CmdCampaignSharded(const Options& options, fi::PlanKind kind, int shards) {
  const ir::Module module = LoadTarget(options);
  const core::AnalysisOptions opts = AnalysisOpts(options);
  const std::string user_cache_dir = ResolveCacheDir(options);

  // The slices need a directory every worker can reach. Without a user cache
  // the supervisor fabricates a private one and removes it afterwards —
  // sharding works with or without --cache-dir.
  std::string shard_dir = user_cache_dir;
  const bool private_dir = shard_dir.empty();
  if (private_dir) {
    std::string pattern =
        (std::filesystem::temp_directory_path() / "epvf-campaign-XXXXXX").string();
    char* made = ::mkdtemp(pattern.data());
    if (made == nullptr) {
      std::fprintf(stderr, "epvf campaign: cannot create a temporary shard directory\n");
      return 1;
    }
    shard_dir = made;
  }
  // Held in an optional so a private shard directory can be torn down in the
  // right order: the cache destructor persists its counters into the
  // directory, so it must run before remove_all.
  std::optional<store::ArtifactCache> cache_slot(std::in_place, shard_dir);
  store::ArtifactCache& cache = *cache_slot;
  const store::AnalysisKey key = MakeAnalysisKey(options, module, opts);
  const core::Analysis a = core::Analysis::Run(module, opts);
  const store::PlanKey plan = MakePlanKey(options, a, key, kind);
  const std::string plan_id = store::CacheId(plan);
  fi::Injector injector(module, a.golden(), plan.campaign.options.injector);
  AttachScenario(injector, plan.campaign.options, a);

  // One campaign-wide progress line: workers publish counter snapshots into
  // the shard directory with their own stderr lines muted (EPVF_PROGRESS=0),
  // and this reporter folds them into its own counts.
  std::vector<std::string> progress_files;
  progress_files.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    progress_files.push_back(shard_dir + "/progress-" + std::to_string(i) + ".txt");
  }
  obs::ProgressReporter::Options progress_options = MakeProgressOptions(plan);
  progress_options.aggregate_paths = progress_files;
  obs::ProgressReporter progress(std::move(progress_options));

  // Each worker gets an even slice of the host: a 4-shard campaign on an
  // 8-way machine runs 2 threads per worker unless --jobs says otherwise.
  const int worker_jobs =
      options.flags.count("jobs") != 0
          ? options.Int("jobs", 0)
          : std::max(1, static_cast<int>(ThreadPool::HardwareJobs()) / shards);

  int total_relaunches = 0;
  const store::RoundExecutor executor =
      [&](std::uint32_t round, const std::vector<fi::PlannedInjection>& queue,
          std::span<const fi::FaultRecord>, std::span<const std::uint8_t>) {
        std::vector<std::string> log_files;
        log_files.reserve(static_cast<std::size_t>(shards));
        for (int i = 0; i < shards; ++i) {
          log_files.push_back(shard_dir + "/plan-round" + std::to_string(round) + "-shard-" +
                              std::to_string(i) + "of" + std::to_string(shards) + ".log");
        }
        fi::SupervisorOptions sup;
        sup.shards = shards;
        sup.shard_timeout_seconds = options.Double("shard-timeout", 0.0);
        sup.retries = options.Int("shard-retries", 2);
        sup.command = [&](int shard) {
          SubprocessOptions cmd;
          cmd.argv = {g_self_exe, "campaign", options.target};
          // Forward only the flags the user passed: the worker applies the
          // same defaults.
          for (const char* flag : {"scale", "runs", "jitter", "burst", "seed", "checkpoints",
                                   "plan", "ci-target", "max-runs", "scenario"}) {
            const auto it = options.flags.find(flag);
            if (it == options.flags.end()) continue;
            cmd.argv.push_back(std::string("--") + flag);
            cmd.argv.push_back(it->second);
          }
          cmd.argv.push_back("--jobs");
          cmd.argv.push_back(std::to_string(worker_jobs));
          cmd.argv.push_back("--cache-dir");
          cmd.argv.push_back(shard_dir);
          cmd.argv.push_back("--shards");
          cmd.argv.push_back(std::to_string(shards));
          cmd.argv.push_back("--plan-round");
          cmd.argv.push_back(std::to_string(round));
          cmd.argv.push_back("--worker-shard");
          cmd.argv.push_back(std::to_string(shard));
          // Workers must not inherit the supervisor's trace sink — they would
          // clobber each other's output files.
          cmd.env = {"EPVF_PROGRESS=0",
                     "EPVF_PROGRESS_FILE=" + progress_files[static_cast<std::size_t>(shard)],
                     "EPVF_TRACE=0"};
          cmd.stdout_path = log_files[static_cast<std::size_t>(shard)];
          cmd.stderr_path = log_files[static_cast<std::size_t>(shard)];
          return cmd;
        };
        sup.on_event = [](const std::string& message) {
          std::fprintf(stderr, "campaign: %s\n", message.c_str());
        };
        const fi::SupervisorResult sup_result = fi::RunShardSupervisor(sup);
        total_relaunches += sup_result.TotalRelaunches();

        // The workers' snapshots give way to the merged records: the adopted
        // runs tick this reporter as the holes execute in-process.
        std::error_code ec;
        for (const std::string& path : progress_files) std::filesystem::remove(path, ec);
        const fi::ExecuteResult merged =
            store::LoadPlanRoundShards(cache, plan_id, round, shards, queue);
        fi::ExecuteOptions exec;
        exec.num_threads = options.Int("jobs", 0);
        exec.resume_records = merged.records;
        exec.resume_completed = merged.completed;
        exec.progress = &progress;
        fi::CampaignPerf checkpoints;
        if (std::find(merged.completed.begin(), merged.completed.end(), 0) !=
            merged.completed.end()) {
          fi::PrepareCheckpoints(injector, plan.campaign.options, checkpoints);
        }
        fi::ExecuteResult full = fi::ExecutePlannedRuns(injector, queue, exec);
        full.perf.Add(checkpoints);
        std::fprintf(stderr,
                     "campaign: round %u: %zu runs, %llu merged from %d shard(s), %llu "
                     "executed in-process\n",
                     round, queue.size(),
                     static_cast<unsigned long long>(full.perf.resumed_records), shards,
                     static_cast<unsigned long long>(queue.size() - full.perf.resumed_records));
        store::RemovePlanRoundShards(cache, plan_id, round, shards);
        for (int i = 0; i < shards; ++i) {
          const fi::ShardOutcome& shard = sup_result.shards[static_cast<std::size_t>(i)];
          if (shard.succeeded) {
            std::filesystem::remove(log_files[static_cast<std::size_t>(i)], ec);
          } else {
            std::fprintf(stderr,
                         "campaign: round %u shard %d failed after %d launch(es) (%s) — its "
                         "runs executed in-process; log: %s\n",
                         round, i, shard.launches, shard.last_status.Describe().c_str(),
                         log_files[static_cast<std::size_t>(i)].c_str());
          }
        }
        return full;
      };

  const store::StratifiedResult result = store::RunPlannedCampaign(
      a, injector, plan, &cache, executor, &progress, ResolvePersistEvery());
  progress.Finish();
  std::fprintf(stderr,
               "campaign: %s plan %s: %u round(s) on %d shard(s), %d relaunch(es), %llu run(s) "
               "resumed from the plan entry\n",
               std::string(fi::PlanKindName(kind)).c_str(), plan_id.c_str(), result.rounds,
               shards, total_relaunches, static_cast<unsigned long long>(result.resumed_runs));
  FinishCampaign(a, plan, result, !private_dir);

  if (private_dir) {
    cache_slot.reset();
    std::filesystem::remove_all(shard_dir);
  }
  // Shard failures are not campaign failures: the holes they left executed
  // in-process, so the results above are complete and correct — the failures
  // were already reported on stderr.
  return 0;
}

int CmdCampaign(const Options& options) {
  if (options.flags.count("worker-shard") != 0) return CmdCampaignWorker(options);

  const std::optional<fi::PlanKind> kind = ResolvePlanKind(options);
  if (!kind.has_value()) return kExitUsage;

  // --shards beats EPVF_SHARDS; never more shards than runs (round sizes are
  // planner-chosen under --plan stratified, so the clamp only applies to the
  // uniform fixed-runs campaign), never fewer than one.
  int shards = options.Int("shards", 0);
  if (shards <= 0) {
    const char* env = std::getenv("EPVF_SHARDS");
    shards = env == nullptr ? 1 : std::atoi(env);
  }
  const int num_runs = options.Int("runs", 500);
  if (shards < 1) shards = 1;
  if (*kind == fi::PlanKind::kUniform && shards > num_runs) shards = num_runs > 0 ? num_runs : 1;

  // A single shard runs in-process and is literally `epvf inject`.
  if (shards == 1) return RunCampaignInProcess(options, *kind);
  return CmdCampaignSharded(options, *kind, shards);
}

int CmdSample(const Options& options) {
  const ir::Module module = LoadTarget(options);
  const core::Analysis a = core::Analysis::Run(module, AnalysisOpts(options));
  const double fraction = options.Double("fraction", 0.10);
  const core::SamplingEstimate est = core::EstimateBySampling(a, fraction);
  const core::RepetitivenessProbe probe = core::ProbeRepetitiveness(a, 0.01, 8, 7);
  std::printf("sampled ePVF (%.0f%% of output roots): %.4f\n", fraction * 100,
              est.extrapolated_epvf);
  std::printf("full ePVF                        : %.4f (|error| %.4f)\n", est.full_epvf,
              est.AbsoluteError());
  std::printf("1%%-subsample normalized variance : %.4f %s\n", probe.normalized_variance,
              probe.normalized_variance < 0.02 ? "(regular: sampling trustworthy)"
                                               : "(irregular: prefer the full analysis)");
  return 0;
}

int CmdProtect(const Options& options) {
  apps::AppConfig config;
  config.scale = options.Int("scale", 1);
  const apps::App app = apps::BuildApp(options.target, config);
  const core::Analysis a = core::Analysis::Run(app.module, AnalysisOpts(options));
  const auto metrics = a.PerInstructionMetrics();

  const std::string rank = options.Str("rank", "epvf");
  const auto ranking =
      rank == "hot" ? protect::RankByHotPath(metrics) : protect::RankByEpvf(metrics);
  protect::PlanOptions plan_options;
  plan_options.overhead_budget = options.Int("budget", 24) / 100.0;
  const protect::ProtectionPlan plan =
      protect::BuildDuplicationPlan(a, ranking, plan_options);

  fi::CampaignOptions campaign;
  campaign.num_runs = options.Int("runs", 500);
  campaign.injector.jitter_pages = 2;
  campaign.num_threads = options.Int("jobs", 0);
  const fi::CampaignStats baseline = fi::RunCampaign(app.module, a.graph(), a.golden(), campaign);
  const protect::ProtectedRates modeled = protect::EvaluateProtection(baseline, plan);

  std::printf("ranking %s, budget %.0f%%: %zu instructions chosen, modeled overhead %.1f%%\n",
              rank.c_str(), plan_options.overhead_budget * 100, plan.chosen.size(),
              plan.overhead * 100);
  std::printf("SDC rate: %.1f%% unprotected -> %.1f%% modeled\n",
              baseline.Rate(fi::Outcome::kSdc) * 100, modeled.SdcRate() * 100);

  if (options.flags.count("real") != 0) {
    const protect::TransformResult transformed =
        protect::ApplyDuplication(app.module, plan.chosen);
    const core::Analysis real_analysis =
        core::Analysis::Run(transformed.module, AnalysisOpts(options));
    const fi::CampaignStats real = fi::RunCampaign(
        transformed.module, real_analysis.graph(), real_analysis.golden(), campaign);
    std::printf("real transform: %llu checks, SDC %.1f%%, detected %.1f%%, overhead %.1f%%\n",
                static_cast<unsigned long long>(transformed.stats.protected_instructions),
                real.Rate(fi::Outcome::kSdc) * 100, real.Rate(fi::Outcome::kDetected) * 100,
                (static_cast<double>(real_analysis.golden().instructions_executed) /
                     static_cast<double>(a.golden().instructions_executed) -
                 1.0) *
                    100);
  }
  return 0;
}

int CmdPrint(const Options& options) {
  const ir::Module module = LoadTarget(options);
  std::fputs(ir::PrintModule(module).c_str(), stdout);
  return 0;
}

/// Fixed-precision ePVF formatting for the delta report (AsciiTable::Num is
/// for wide-range values; ePVF lives in [0, 1] and diffs need stable width).
std::string Ep(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

std::string EpSigned(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%+.6f", v);
  return buf;
}

/// `epvf delta <old> <new>`: per-unit ePVF movement between two modules.
/// Units are matched by name; "edited" marks units whose IR fingerprint
/// moved (the edit itself), so unchanged-but-shifted units (boundary or walk
/// effects of a neighbour's edit) are distinguishable from edited ones.
int CmdDelta(const Options& options) {
  const int scale = options.Int("scale", 1);
  const core::AnalysisOptions opts = AnalysisOpts(options);
  store::ArtifactCache cache(ResolveCacheDir(options));

  struct State {
    ir::Module module;
    core::ProgramSlices slices;
  };
  // Each side runs through the incremental pipeline: with a cache directory a
  // repeated delta (or one against an already-analyzed module) is warm.
  const auto analyze = [&](const std::string& target) {
    auto state = std::make_unique<State>();
    state->module = apps::LoadTarget(target, scale);
    const store::AnalysisKey key = store::MakeAnalysisKey(target, scale, state->module, opts);
    state->slices =
        std::move(store::RunAnalysisIncremental(state->module, opts, key, cache).slices);
    return state;
  };
  const auto old_state = analyze(options.target);
  const auto new_state = analyze(options.target2);

  struct OldRow {
    double epvf = 0.0;
    std::uint64_t fingerprint = 0;
  };
  std::map<std::string, OldRow> old_rows;
  const std::vector<core::UnitEpvf> old_units = core::PerUnitEpvf(old_state->slices);
  for (std::size_t u = 0; u < old_units.size(); ++u) {
    old_rows[old_units[u].name] = {old_units[u].epvf,
                                   old_state->slices.partition.units[u].ir_fingerprint};
  }

  AsciiTable table({"unit", "old ePVF", "new ePVF", "delta", "note"});
  table.SetTitle("per-unit ePVF delta");
  const std::vector<core::UnitEpvf> new_units = core::PerUnitEpvf(new_state->slices);
  for (std::size_t u = 0; u < new_units.size(); ++u) {
    const core::UnitEpvf& row = new_units[u];
    const auto it = old_rows.find(row.name);
    if (it == old_rows.end()) {
      table.AddRow({row.name, "-", Ep(row.epvf), "-", "added"});
      continue;
    }
    const OldRow& old = it->second;
    const bool edited =
        old.fingerprint != new_state->slices.partition.units[u].ir_fingerprint;
    table.AddRow({row.name, Ep(old.epvf), Ep(row.epvf), EpSigned(row.epvf - old.epvf),
                  edited ? "edited" : ""});
    old_rows.erase(it);
  }
  for (const auto& [name, old] : old_rows) {
    table.AddRow({name, Ep(old.epvf), "-", "-", "removed"});
  }
  table.Print(std::cout);

  const auto program_epvf = [](const core::ProgramSlices& p) {
    const core::ReportStats stats = core::ComposeProgram(p);
    return stats.total_bits == 0
               ? 0.0
               : static_cast<double>(stats.ace_bits - stats.crash_bits) /
                     static_cast<double>(stats.total_bits);
  };
  const double before = program_epvf(old_state->slices);
  const double after = program_epvf(new_state->slices);
  std::printf("program ePVF: %s -> %s (%s)\n", Ep(before).c_str(), Ep(after).c_str(),
              EpSigned(after - before).c_str());
  return 0;
}

/// `epvf mutate`: apply one seeded unit-local mutation and print the result —
/// the edit generator behind the incremental test battery and the CI smoke
/// step (CI mutates a kernel, re-analyzes incrementally, and gates on the
/// one-unit-recomputed diagnostics).
int CmdMutate(const Options& options) {
  const std::string kind_name = options.Str("kind", "swap-independent");
  std::optional<core::MutationKind> kind;
  for (const core::MutationKind k :
       {core::MutationKind::kSwapIndependent, core::MutationKind::kRenameRegister,
        core::MutationKind::kRenameBlock, core::MutationKind::kTweakConstant}) {
    if (kind_name == core::MutationKindName(k)) kind = k;
  }
  if (!kind.has_value()) {
    std::fprintf(stderr,
                 "epvf mutate: unknown kind '%s' (expected swap-independent, "
                 "rename-register, rename-block, or tweak-constant)\n",
                 kind_name.c_str());
    return kExitUsage;
  }
  ir::Module module = LoadTarget(options);
  const core::UnitPartition partition = core::PartitionModule(module);
  const auto seed = static_cast<std::uint64_t>(options.Int("seed", 1));
  const std::optional<core::Mutation> m =
      core::MutateAnywhere(module, partition, *kind, seed);
  if (!m.has_value()) {
    std::fprintf(stderr, "epvf mutate: no applicable site for %s in %s\n", kind_name.c_str(),
                 options.target.c_str());
    return 1;
  }
  std::fputs(ir::PrintModule(module).c_str(), stdout);
  std::fprintf(stderr, "mutate: %s (unit %s)\n", m->description.c_str(),
               m->unit_name.c_str());
  return 0;
}

int CmdCache(const Options& options) {
  // For `epvf cache` the target slot carries the subcommand.
  const std::string& sub = options.target;
  if (sub != "stats" && sub != "clear") {
    std::fprintf(stderr, "epvf cache: unknown subcommand '%s' (expected stats or clear)\n",
                 sub.c_str());
    return kExitUsage;
  }
  const std::string dir = ResolveCacheDir(options);
  if (dir.empty()) {
    std::fprintf(stderr,
                 "epvf cache: no cache directory — pass --cache-dir or set EPVF_CACHE_DIR\n");
    return 1;
  }
  // A cache directory that was never populated is an ordinary state, not an
  // error: report it cleanly and succeed without creating the directory as a
  // side effect of what is a read-only query.
  if (!std::filesystem::exists(dir)) {
    if (sub == "clear") {
      std::printf("cache directory %s does not exist — nothing to clear\n", dir.c_str());
    } else {
      std::printf("cache directory      : %s (not yet created)\n", dir.c_str());
      std::printf("entries              : 0 (0 bytes)\n");
      std::printf("hits / misses        : 0 / 0\n");
      std::printf("bytes read / written : 0 / 0\n");
    }
    return 0;
  }
  store::ArtifactCache cache(dir);
  if (!cache.enabled()) return 1;

  if (sub == "clear") {
    const std::size_t removed = cache.Clear();
    std::printf("cleared %zu entries from %s\n", removed, cache.dir().c_str());
    return 0;
  }
  const store::ArtifactCache::DirStats stats = cache.Stats();
  std::printf("cache directory      : %s\n", cache.dir().c_str());
  std::printf("entries              : %llu (%llu bytes)\n",
              static_cast<unsigned long long>(stats.entries),
              static_cast<unsigned long long>(stats.bytes));
  std::printf("hits / misses        : %llu / %llu\n",
              static_cast<unsigned long long>(stats.lifetime.hits),
              static_cast<unsigned long long>(stats.lifetime.misses));
  std::printf("bytes read / written : %llu / %llu\n",
              static_cast<unsigned long long>(stats.lifetime.bytes_read),
              static_cast<unsigned long long>(stats.lifetime.bytes_written));
  // Per-kind breakdown — the per-unit compositional entries (kind "unit")
  // are many and small, so aggregate counts alone hide what the incremental
  // pipeline is doing.
  for (std::size_t slot = 0; slot < store::kNumArtifactKinds; ++slot) {
    const store::ArtifactKind kind = store::kArtifactKinds[slot];
    const store::CacheCounters& life = stats.kind_lifetime[slot];
    if (stats.kind_entries[slot] == 0 && life.hits == 0 && life.misses == 0) continue;
    const std::string_view name = store::ArtifactKindName(kind);
    std::printf("  %-8.*s           : %llu entries (%llu bytes), %llu hits / %llu misses\n",
                static_cast<int>(name.size()), name.data(),
                static_cast<unsigned long long>(stats.kind_entries[slot]),
                static_cast<unsigned long long>(stats.kind_bytes[slot]),
                static_cast<unsigned long long>(life.hits),
                static_cast<unsigned long long>(life.misses));
  }
  return 0;
}

/// Pretty-prints epvf-metrics-v1 JSON text; `origin` names the source in
/// messages (a dump file or a daemon socket). Shared by `epvf metrics FILE`
/// and `epvf metrics --connect SOCKET`.
int PrintMetricsText(const std::string& text, const std::string& origin) {
  const std::optional<obs::MetricsSnapshot> snap = obs::ParseMetricsJson(text);
  if (!snap.has_value()) {
    std::fprintf(stderr, "epvf metrics: %s is not an epvf-metrics-v1 dump\n", origin.c_str());
    return 1;
  }
  if (snap->Empty()) {
    std::printf("no metrics recorded in %s\n", origin.c_str());
    return 0;
  }
  if (!snap->counters.empty() || !snap->gauges.empty()) {
    AsciiTable table({"counter / gauge", "value"});
    table.SetTitle("counters");
    for (const auto& [name, value] : snap->counters) {
      table.AddRow({name, std::to_string(value)});
    }
    for (const auto& [name, value] : snap->gauges) {
      table.AddRow({name, std::to_string(value)});
    }
    table.Print(std::cout);
  }
  if (!snap->histograms.empty()) {
    AsciiTable table({"histogram", "count", "mean", "min", "max"});
    table.SetTitle("histograms (durations in us)");
    for (const auto& [name, h] : snap->histograms) {
      table.AddRow({name, std::to_string(h.count), AsciiTable::Num(h.Mean()),
                    std::to_string(h.min), std::to_string(h.max)});
    }
    table.Print(std::cout);
  }
  return 0;
}

int CmdMetrics(const Options& options) {
  // The target slot carries the metrics-file path.
  std::ifstream in(options.target);
  if (!in) {
    std::fprintf(stderr, "epvf metrics: cannot open %s\n", options.target.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return PrintMetricsText(buffer.str(), options.target);
}

/// --scenario register|memory (register = the classic operand-bit campaign).
/// Prints the offending value and returns nullopt on anything else (the
/// caller exits with the unknown-flag code, as for an unknown flag name).
std::optional<fi::Scenario> ResolveScenario(const Options& options) {
  const std::string name = options.Str("scenario", "register");
  const std::optional<fi::Scenario> scenario = fi::ParseScenario(name);
  if (!scenario.has_value()) {
    std::fprintf(stderr, "epvf: unknown scenario '%s' (expected register or memory)\n",
                 name.c_str());
  }
  return scenario;
}

/// --trace-out beats EPVF_TRACE. Env values: 0 = off, 1 = epvf-trace.json,
/// anything else is the output path. Empty = tracing disabled.
std::string ResolveTraceOut(const Options& options) {
  const auto it = options.flags.find("trace-out");
  if (it != options.flags.end()) return it->second;
  const char* env = std::getenv("EPVF_TRACE");
  if (env == nullptr || std::strcmp(env, "0") == 0) return {};
  if (std::strcmp(env, "1") == 0) return "epvf-trace.json";
  return env;
}

// --- daemon mode -------------------------------------------------------------

/// The serve daemon owned by CmdServe, exposed so the SIGINT/SIGTERM
/// handlers can reach it. RequestStop is one atomic store — async-signal-safe.
serve::Server* g_server = nullptr;  // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)

extern "C" void HandleServeSignal(int) {
  if (g_server != nullptr) g_server->RequestStop();
}

int CmdServe(const Options& options) {
  serve::ServerOptions sopts;
  sopts.socket_path = options.target;
  sopts.cache_dir = ResolveCacheDir(options);
  sopts.slots = options.Int("slots", 1);
  sopts.queue_limit = options.Int("queue", 16);
  sopts.retries = options.Int("retries", 2);
  sopts.exe_path = g_self_exe;
  sopts.on_event = [](const std::string& message) {
    std::fprintf(stderr, "serve: %s\n", message.c_str());
  };
  serve::Server server(std::move(sopts));
  g_server = &server;
  ::signal(SIGINT, HandleServeSignal);
  ::signal(SIGTERM, HandleServeSignal);
  if (!server.Start()) {
    g_server = nullptr;
    return 1;
  }
  std::fprintf(stderr, "serve: listening on %s (cache %s)\n", server.socket_path().c_str(),
               server.cache_dir().c_str());
  server.Wait();
  std::fprintf(stderr, "serve: shutting down\n");
  server.Stop();
  g_server = nullptr;
  return 0;
}

/// Opens the --connect socket or explains why not.
std::optional<serve::ServeClient> ConnectOrComplain(const Options& options) {
  const std::string socket_path = options.Str("connect", "");
  std::optional<serve::ServeClient> client = serve::ServeClient::Connect(socket_path);
  if (!client.has_value()) {
    std::fprintf(stderr, "epvf: cannot connect to daemon socket '%s' (is `epvf serve` running?)\n",
                 socket_path.c_str());
  }
  return client;
}

/// analyze/inject/campaign with --connect: forward the invocation to the
/// daemon and relay its streams — kStdout to stdout (byte-identical to a
/// local run), kStderr to stderr, kProgress as one-line done/total updates.
int CmdClientRun(const Options& options) {
  std::optional<serve::ServeClient> client = ConnectOrComplain(options);
  if (!client.has_value()) return 1;

  serve::RunRequest request;
  request.priority = static_cast<std::uint32_t>(std::max(0, options.Int("priority", 0)));
  request.args = {options.command, options.target};
  for (const auto& [flag, value] : options.flags) {
    if (flag == "connect" || flag == "priority") continue;
    if (flag == "cache-dir" || flag == "no-cache" || flag == "trace-out" ||
        flag == "metrics-out") {
      // The daemon owns its cache directory and observability sinks; silently
      // honoring these would point them at the wrong process's filesystem.
      std::fprintf(stderr, "epvf: --%s is ignored with --connect\n", flag.c_str());
      continue;
    }
    request.args.push_back("--" + flag);
    request.args.push_back(value);
  }

  const serve::ServeClient::RunResult result = client->Run(
      request,
      [](std::string_view bytes) { std::fwrite(bytes.data(), 1, bytes.size(), stdout); },
      [](std::string_view bytes) { std::fwrite(bytes.data(), 1, bytes.size(), stderr); },
      [](std::string_view bytes) {
        if (const std::optional<obs::ProgressSnapshot> snap = obs::ParseProgressSnapshot(bytes)) {
          std::fprintf(stderr, "progress: %llu/%llu\n",
                       static_cast<unsigned long long>(snap->done),
                       static_cast<unsigned long long>(snap->total));
        }
      });
  std::fflush(stdout);

  if (!result.transport_ok) {
    std::fprintf(stderr, "epvf: connection to the daemon broke before the job finished\n");
    return 1;
  }
  if (result.error.has_value()) {
    if (result.error->code == serve::ErrorCode::kBusy) {
      std::fprintf(stderr, "epvf: daemon busy: %s — retry in %u ms\n",
                   result.error->message.c_str(), result.error->retry_after_ms);
      return kExitBusy;
    }
    std::fprintf(stderr, "epvf: daemon error: %s\n", result.error->message.c_str());
    return 1;
  }
  return static_cast<int>(result.exit_code);
}

int CmdStatus(const Options& options) {
  std::optional<serve::ServeClient> client = ConnectOrComplain(options);
  if (!client.has_value()) return 1;
  const std::optional<std::string> report = client->Status();
  if (!report.has_value()) {
    std::fprintf(stderr, "epvf: status request failed\n");
    return 1;
  }
  std::fputs(report->c_str(), stdout);
  return 0;
}

int CmdMetricsConnect(const Options& options) {
  std::optional<serve::ServeClient> client = ConnectOrComplain(options);
  if (!client.has_value()) return 1;
  const std::optional<std::string> json = client->Metrics();
  if (!json.has_value()) {
    std::fprintf(stderr, "epvf: metrics request failed\n");
    return 1;
  }
  return PrintMetricsText(*json, "daemon " + options.Str("connect", ""));
}

int CmdCancel(const Options& options) {
  std::optional<serve::ServeClient> client = ConnectOrComplain(options);
  if (!client.has_value()) return 1;
  // The target slot carries the job id (from the submitting client's ack or
  // `epvf status`).
  char* end = nullptr;
  const std::uint64_t job_id = std::strtoull(options.target.c_str(), &end, 10);
  if (end == options.target.c_str() || *end != '\0') {
    std::fprintf(stderr, "epvf cancel: '%s' is not a job id\n", options.target.c_str());
    return kExitUsage;
  }
  serve::ErrorReply error;
  if (!client->Cancel(job_id, &error)) {
    std::fprintf(stderr, "epvf cancel: %s\n",
                 error.message.empty() ? "request failed" : error.message.c_str());
    return 1;
  }
  std::fprintf(stderr, "cancelled job %llu\n", static_cast<unsigned long long>(job_id));
  return 0;
}

int CmdShutdown(const Options& options) {
  std::optional<serve::ServeClient> client = ConnectOrComplain(options);
  if (!client.has_value()) return 1;
  if (!client->Shutdown()) {
    std::fprintf(stderr, "epvf shutdown: request failed\n");
    return 1;
  }
  std::fprintf(stderr, "daemon acknowledged shutdown\n");
  return 0;
}

int Dispatch(const Options& options) {
  if (options.command == "list") return CmdList();
  const bool connected = options.flags.count("connect") != 0;
  // The admin commands take their socket from --connect, not the target slot.
  if (options.command == "status") return connected ? CmdStatus(options) : Usage();
  if (options.command == "shutdown") return connected ? CmdShutdown(options) : Usage();
  if (options.command == "metrics" && connected) return CmdMetricsConnect(options);
  if (options.target.empty()) return Usage();
  if (options.command == "serve") return CmdServe(options);
  if (options.command == "cancel") return connected ? CmdCancel(options) : Usage();
  if (connected && (options.command == "analyze" || options.command == "inject" ||
                    options.command == "campaign")) {
    return CmdClientRun(options);
  }
  if (options.command == "analyze") return CmdAnalyze(options);
  if (options.command == "delta") {
    return options.target2.empty() ? Usage() : CmdDelta(options);
  }
  if (options.command == "mutate") return CmdMutate(options);
  if (options.command == "inject") return CmdInject(options);
  if (options.command == "campaign") return CmdCampaign(options);
  if (options.command == "sample") return CmdSample(options);
  if (options.command == "protect") return CmdProtect(options);
  if (options.command == "print") return CmdPrint(options);
  if (options.command == "cache") return CmdCache(options);
  if (options.command == "metrics") return CmdMetrics(options);
  return Usage();
}

/// Trace/metrics export runs after the command finishes (successfully or
/// not): the buffers are quiescent by then, and a failed run's partial trace
/// is exactly what one wants when debugging the failure.
void ExportObservability(const std::string& trace_out, const std::string& metrics_out) {
  if (!trace_out.empty() && obs::WriteChromeTrace(trace_out)) {
    std::fprintf(stderr, "trace: wrote %s (load in chrome://tracing or Perfetto)\n",
                 trace_out.c_str());
    const std::uint64_t dropped = obs::DroppedTraceEvents();
    if (dropped > 0) {
      std::fprintf(stderr, "trace: ring buffers overflowed — oldest %llu events dropped\n",
                   static_cast<unsigned long long>(dropped));
    }
  }
  if (!metrics_out.empty() && obs::MetricsRegistry::Global().WriteJsonFile(metrics_out)) {
    std::fprintf(stderr, "metrics: wrote %s (inspect with `epvf metrics %s`)\n",
                 metrics_out.c_str(), metrics_out.c_str());
  }
}

/// Whether the argument after a flag is that flag's value rather than the
/// next flag: anything not starting with '-', and negative numbers
/// (`--checkpoints -1`).
bool IsFlagValue(const char* arg) {
  return arg[0] != '-' || std::isdigit(static_cast<unsigned char>(arg[1])) != 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  // Resolve this binary's path up front: the campaign supervisor re-execs it
  // as the shard worker. /proc/self/exe is exact on Linux; argv[0] is the
  // fallback elsewhere.
  {
    char self[4096];
    const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
    if (n > 0) {
      self[n] = '\0';
      g_self_exe = self;
    } else {
      g_self_exe = argv[0];
    }
  }
  Options options;
  options.command = argv[1];

  const auto& allowed = AllowedFlags();
  const auto allowed_it = allowed.find(options.command);
  if (allowed_it == allowed.end()) {
    std::fprintf(stderr, "epvf: unknown command '%s' (run `epvf` for usage)\n",
                 options.command.c_str());
    return kExitUnknownCommand;
  }

  int cursor = 2;
  if (cursor < argc && argv[cursor][0] != '-') options.target = argv[cursor++];
  // delta compares two modules: <old> <new>.
  if (options.command == "delta" && cursor < argc && argv[cursor][0] != '-') {
    options.target2 = argv[cursor++];
  }
  for (; cursor < argc; ++cursor) {
    std::string flag = argv[cursor];
    if (flag.rfind("--", 0) != 0) {
      std::fprintf(stderr, "epvf: unexpected argument '%s'\n", flag.c_str());
      return kExitUsage;
    }
    flag = flag.substr(2);
    if (allowed_it->second.count(flag) == 0) {
      std::fprintf(stderr, "epvf: unknown flag '--%s' for command '%s'\n", flag.c_str(),
                   options.command.c_str());
      return kExitUnknownFlag;
    }
    if (cursor + 1 < argc && IsFlagValue(argv[cursor + 1])) {
      options.flags[flag] = argv[++cursor];
    } else {
      options.flags[flag] = "1";
    }
  }

  const std::optional<fi::Scenario> scenario = ResolveScenario(options);
  if (!scenario.has_value()) return kExitUnknownFlag;
  options.scenario = *scenario;
  if (options.scenario == fi::Scenario::kMemory && options.Int("jitter", 0) != 0) {
    std::fprintf(stderr,
                 "epvf: --scenario memory requires --jitter 0 (memory sites are absolute "
                 "addresses of the golden layout)\n");
    return kExitUsage;
  }

  const std::string trace_out = ResolveTraceOut(options);
  const std::string metrics_out = options.Str("metrics-out", "");
  if (!trace_out.empty()) obs::SetTracingEnabled(true);

  int exit_code = 1;
  try {
    exit_code = Dispatch(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "epvf: %s\n", error.what());
  }
  ExportObservability(trace_out, metrics_out);
  return exit_code;
}
