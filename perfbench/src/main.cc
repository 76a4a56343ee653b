// perfbench — the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload analyze|campaign|edit-loop --seed N --seconds S
//             --trace 0|1 --reference FILE --tmp-dir DIR [--size full|tiny]
//             [--trace-out FILE] [--commit ID] [--write-reference]
//
// Sets the workload up several times (set-up time is the median), then runs
// whole passes of its closed loop until S seconds have gone by. Untraced runs
// report the end-to-end metrics; traced runs record spans around every layer
// call, run the lulesh scale sweep, and report the per-layer metrics. The last
// stdout line is the result object; exit code 0 means every operation matched
// its reference, 1 a correctness failure, 2 a usage error or a refused build.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.h"
#include "metrics.h"
#include "reference.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// Set-up runs at least kMinSetups times, and more (up to kMaxSetups) until
/// kMinSetupSeconds have accumulated, so a short set-up still gets a steady
/// median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 1000;
constexpr double kMinSetupSeconds = 3;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload analyze|campaign|edit-loop --seed N --seconds S "
               "--trace 0|1 --reference FILE --tmp-dir DIR [--size full|tiny] "
               "[--trace-out FILE] [--commit ID] [--write-reference]\n",
               why);
  return 2;
}

std::string Json(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    if (out.size() > 1) out += ", ";
    out += Json(name) + ": {\"value\": " + Num(metric.value) + ", \"unit\": " +
           Json(metric.unit) + "}";
  }
  return out + "}";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// The lulesh scale sweep behind the `<layer>.scale_exp` metrics: the
/// analysis called layer by layer at each scale, a few repetitions each.
void RunScaleSweep(Env& env) {
  const bool full = env.config.size == Size::kFull;
  const std::vector<int> scales = full ? std::vector<int>{1, 4, 16, 32} : std::vector<int>{1, 2};
  const int reps = full ? 3 : 1;
  const epvf::core::AnalysisOptions options = AnalysisOpts(env.config);
  for (std::size_t si = 0; si < scales.size(); ++si) {
    for (int rep = 0; rep < reps; ++rep) {
      env.tracer.SetPhase("sweep", static_cast<int>(si) * reps + rep);
      Scope op(env.tracer, "bench.sweep_op");
      op.Arg("scale_index", static_cast<double>(si));
      const auto module = BuildModule(env.tracer, "lulesh", scales[si], 0xC0FFEE);
      const epvf::core::Analysis a = AnalyzeByLayers(env.tracer, *module, options, true, nullptr);
      (void)WalkAndReport(env.tracer, a);
    }
  }
}

int Run(const Config& config) {
#ifdef EPVF_SANITIZE_BUILD
  std::fprintf(stderr, "perfbench: refusing to report timings from a sanitizer build "
                       "(EPVF_SANITIZE); rebuild without it\n");
  return 2;
#endif
  std::unique_ptr<Workload> workload;
  if (config.workload == "analyze") workload = MakeAnalyzeWorkload(config);
  if (config.workload == "campaign") workload = MakeCampaignWorkload(config);
  if (config.workload == "edit-loop") workload = MakeEditLoopWorkload(config);
  if (workload == nullptr) return Usage(("unknown workload '" + config.workload + "'").c_str());

  References refs(config.reference_path, config.write_reference);
  if (!refs.loaded() && !config.write_reference) {
    std::fprintf(stderr, "perfbench: cannot read reference file %s\n",
                 config.reference_path.c_str());
    return 1;
  }
  Tracer tracer;
  Outcome outcome;
  Env env{config, tracer, refs, outcome};

  const std::map<std::string, std::string> context = {
      {"workload", config.workload},
      {"seed", std::to_string(config.seed)},
      {"seed_set", std::to_string(config.SeedSet())},
      {"size", config.size == Size::kFull ? "full" : "tiny"},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"jobs", std::to_string(config.jobs)},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"compiler", Compiler()},
      {"commit", config.commit},
      {"trace", config.trace ? "1" : "0"},
  };

  std::vector<double> setup_seconds;
  std::vector<OpSample> ops;
  try {
    tracer.SetEnabled(config.trace);
    double setup_total = 0;
    for (int rep = 0;
         rep < kMinSetups || (setup_total < kMinSetupSeconds && rep < kMaxSetups); ++rep) {
      tracer.SetPhase("setup", rep);
      const auto start = std::chrono::steady_clock::now();
      workload->Setup(env);
      setup_seconds.push_back(MsSince(start) / 1e3);
      setup_total += setup_seconds.back();
    }
    const auto loop_start = std::chrono::steady_clock::now();
    int iteration = 0;
    do {
      // Traced runs alternate untraced and traced passes: the untraced ones
      // are the baseline of the tracing overhead, taken under the same
      // conditions (the first, cold pass lands on the untraced side).
      tracer.SetEnabled(config.trace && iteration % 2 == 1);
      tracer.SetPhase("loop", iteration);
      workload->RunIteration(env, iteration++, ops);
    } while (MsSince(loop_start) < config.seconds * 1e3 || (config.trace && iteration < 2));
    if (config.trace) {
      tracer.SetEnabled(true);
      RunScaleSweep(env);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s workload aborted: %s\n", config.workload.c_str(),
                 e.what());
    outcome.Record(false);
  }
  workload.reset();  // removes the workload's scratch state

  if (config.write_reference && !refs.Save()) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", config.reference_path.c_str());
    return 1;
  }
  if (config.trace && !config.trace_out.empty() &&
      !tracer.WriteChromeTrace(config.trace_out, context)) {
    std::fprintf(stderr, "perfbench: cannot write trace %s\n", config.trace_out.c_str());
  }

  const double failed_share =
      outcome.attempted == 0 ? 1.0
                             : static_cast<double>(outcome.failed) /
                                   static_cast<double>(outcome.attempted);
  // Human-readable detail first (stderr), then context and the workload's
  // own views on stdout, then the result object as the last line.
  std::string setups;
  for (const double v : setup_seconds) setups += " " + std::to_string(static_cast<int>(v * 1e3));
  std::fprintf(stderr, "  %-28s n=%-4zu (ms) |%s\n", "setup", setup_seconds.size(),
               setups.c_str());
  std::map<std::string, std::vector<double>> by_kind;
  for (const OpSample& op : ops) by_kind[op.kind].push_back(op.ms);
  for (const auto& [kind, values] : by_kind) {
    std::string passes;
    for (const double v : values) passes += " " + std::to_string(static_cast<int>(v));
    std::fprintf(stderr, "  %-28s n=%-4zu typical %10.2f ms |%s\n", kind.c_str(),
                 values.size(), TypicalMs(values), passes.c_str());
  }
  std::string context_json = "{";
  for (const auto& [key, value] : context) {
    context_json += (context_json.size() > 1 ? ", " : "") + Json(key) + ": " + Json(value);
  }
  std::printf("{\"context\": %s}\n", (context_json + "}").c_str());
  if (!config.trace) std::printf("{\"views\": %s}\n", MetricsJson(WorkloadViews(ops)).c_str());

  const Metrics metrics = config.trace ? LayerMetrics(tracer, ops, failed_share)
                                       : EndToEndMetrics(setup_seconds, ops);
  const bool correct = outcome.failed == 0 && outcome.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed), MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Config config;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--write-reference") {
      config.write_reference = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty() && value[0] != '-';
      if (!have_seed) return Usage("--seed must be a non-negative integer");
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && config.seconds >= 0;
      if (!have_seconds) return Usage("--seconds must be a non-negative number");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace must be 0 or 1");
      config.trace = value == "1";
      have_trace = true;
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") return Usage("--size must be full or tiny");
      config.size = value == "full" ? Size::kFull : Size::kTiny;
    } else if (flag == "--reference") {
      config.reference_path = value;
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else if (flag == "--tmp-dir") {
      config.tmp_dir = value;
    } else if (flag == "--commit") {
      config.commit = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  if (config.reference_path.empty() || config.tmp_dir.empty()) {
    return Usage("--reference and --tmp-dir are required");
  }
  return Run(config);
}
