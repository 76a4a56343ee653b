// Shared plumbing for the reproduction benches.
//
// Every bench binary regenerates one table or figure from the paper on
// stdout. Knobs come from the environment so `for b in build/bench/*; do $b;
// done` runs with sane defaults:
//   EPVF_SCALE        benchmark size knob           (default 1)
//   EPVF_FI_RUNS      injections per campaign       (default 400)
//   EPVF_JITTER_PAGES per-run layout jitter (pages) (default 2 — the paper's
//                     environment nondeterminism; 0 = deterministic)
//   EPVF_SEED         campaign seed                 (default 42)
//   EPVF_JOBS         analysis/campaign threads     (default 0 = hw cores;
//                     results identical at every setting)
//   EPVF_CHECKPOINTS  golden-run snapshots per campaign (default 64, the
//                     library's; 0 = off, at most 1024; outcomes are
//                     bit-identical at every count — jittered campaigns
//                     never checkpoint)
//   EPVF_BENCH_JSON   when set, each bench also writes BENCH_<name>.json
//                     (machine-readable metrics; value = output directory,
//                     "1" = current directory) so perf is trackable across
//                     commits; benches whose JSON is committed at the repo
//                     root write there by default even when unset
//   EPVF_TRACE        0 = tracing off (default), 1 = write epvf-trace.json,
//                     anything else = the trace path; benches that declare a
//                     ScopedObservability export a Chrome trace_event JSON of
//                     their pipeline spans on exit
//   EPVF_METRICS_OUT  when set, dump the obs metrics registry (counters +
//                     stage histograms) to this path on exit
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/app.h"
#include "epvf/analysis.h"
#include "fi/campaign.h"
#include "fi/planner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/atomic_file.h"
#include "support/table.h"

namespace epvf::bench {

/// Env-driven observability for a bench run: EPVF_TRACE enables span tracing
/// for the scope's lifetime and writes the Chrome trace on destruction;
/// EPVF_METRICS_OUT dumps the metrics registry alongside. Declare one at the
/// top of main — with neither variable set this is a no-op, so the measured
/// numbers stay untouched by default.
class ScopedObservability {
 public:
  ScopedObservability() {
    const char* trace = std::getenv("EPVF_TRACE");
    if (trace != nullptr && std::string(trace) != "0") {
      trace_path_ = std::string(trace) == "1" ? "epvf-trace.json" : trace;
      obs::SetTracingEnabled(true);
    }
    const char* metrics = std::getenv("EPVF_METRICS_OUT");
    if (metrics != nullptr && metrics[0] != '\0') metrics_path_ = metrics;
  }
  ScopedObservability(const ScopedObservability&) = delete;
  ScopedObservability& operator=(const ScopedObservability&) = delete;
  ~ScopedObservability() {
    if (!trace_path_.empty() && obs::WriteChromeTrace(trace_path_)) {
      std::fprintf(stderr, "trace: wrote %s\n", trace_path_.c_str());
    }
    if (!metrics_path_.empty() &&
        obs::MetricsRegistry::Global().WriteJsonFile(metrics_path_)) {
      std::fprintf(stderr, "metrics: wrote %s\n", metrics_path_.c_str());
    }
  }

 private:
  std::string trace_path_;
  std::string metrics_path_;
};

inline int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : std::atoi(value);
}

inline double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : std::atof(value);
}

inline int Scale() { return EnvInt("EPVF_SCALE", 1); }
inline int FiRuns() { return EnvInt("EPVF_FI_RUNS", 400); }
inline int JitterPages() { return EnvInt("EPVF_JITTER_PAGES", 2); }
inline std::uint64_t Seed() { return static_cast<std::uint64_t>(EnvInt("EPVF_SEED", 42)); }
inline int Jobs() { return EnvInt("EPVF_JOBS", 0); }
inline std::uint32_t Checkpoints() {
  return fi::ResolveCheckpointCount(EnvInt("EPVF_CHECKPOINTS", fi::kDefaultCheckpoints));
}

/// Analysis options every bench shares: the EPVF_JOBS knob plumbs into the
/// parallel pipeline stages (results are thread-count-invariant).
inline core::AnalysisOptions DefaultAnalysisOptions() {
  core::AnalysisOptions options;
  options.jobs = Jobs();
  return options;
}

/// Machine-readable companion to the ASCII tables. Collects flat
/// (row, metric, value) measurements and, when EPVF_BENCH_JSON is set,
/// writes them to BENCH_<name>.json on destruction:
///   {"bench":"<name>","rows":[{"row":"mm","metric":"total_ms","value":1.5},...]}
/// Benches whose JSON is tracked in-repo pass `default_to_repo_root = true`:
/// with EPVF_BENCH_JSON unset they still publish to the source tree root
/// (EPVF_REPO_ROOT, baked in by bench/CMakeLists.txt) so the committed
/// BENCH_*.json trajectory regenerates by just running the binary.
class BenchJson {
 public:
  explicit BenchJson(std::string name, bool default_to_repo_root = false)
      : name_(std::move(name)), default_to_repo_root_(default_to_repo_root) {}
  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;
  ~BenchJson() { Write(); }

  void Add(const std::string& row, const std::string& metric, double value) {
    rows_.emplace_back(row, metric, value);
  }

  void Write() {
    if (written_) return;
    written_ = true;
    const char* dir = std::getenv("EPVF_BENCH_JSON");
    std::string base;
    if (dir != nullptr && dir[0] != '\0') {
      base = std::string(dir) == "1" ? "." : std::string(dir);
    }
#ifdef EPVF_REPO_ROOT
    else if (default_to_repo_root_) {
      base = EPVF_REPO_ROOT;
    }
#endif
    if (base.empty()) return;
    const std::string path = base + "/BENCH_" + name_ + ".json";
    std::string json = "{\"bench\":\"" + Escape(name_) + "\",\"rows\":[";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const auto& [row, metric, value] = rows_[i];
      char num[64];
      std::snprintf(num, sizeof(num), "%.17g", value);
      if (i != 0) json += ',';
      json += "{\"row\":\"" + Escape(row) + "\",\"metric\":\"" + Escape(metric) +
              "\",\"value\":" + num + "}";
    }
    json += "]}\n";
    // Atomic publish: a crashed or concurrent bench never leaves a
    // half-written JSON file behind for the perf tracker to choke on.
    if (!AtomicWriteFile(path, json)) {
      std::fprintf(stderr, "BenchJson: cannot write %s\n", path.c_str());
    }
  }

 private:
  static std::string Escape(const std::string& raw) {
    std::string out;
    out.reserve(raw.size());
    for (const char c : raw) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
    }
    return out;
  }

  std::string name_;
  bool default_to_repo_root_ = false;
  std::vector<std::tuple<std::string, std::string, double>> rows_;
  bool written_ = false;
};

/// The paper's Table IV suite (ten benchmarks).
inline std::vector<std::string> TableIVApps() {
  return {"lulesh", "particlefilter", "srad",       "nw",  "hotspot",
          "lavaMD", "bfs",            "pathfinder", "lud", "mm"};
}

/// The Table II crash-frequency study set (kmeans instead of lavaMD).
inline std::vector<std::string> TableIIApps() {
  return {"hotspot", "bfs",        "kmeans", "nw", "pathfinder",
          "lud",     "srad",       "mm",     "particlefilter", "lulesh"};
}

/// The five SDC-prone benchmarks of the section V case study.
inline std::vector<std::string> CaseStudyApps() {
  return {"mm", "pathfinder", "hotspot", "lud", "nw"};
}

/// An app plus its completed analysis. The analysis holds pointers into the
/// app's module, so both are constructed in place (guaranteed elision keeps
/// the addresses stable) and the struct is neither copied nor moved after.
struct Prepared {
  apps::App app;
  core::Analysis analysis;

  explicit Prepared(const std::string& name)
      : app(apps::BuildApp(name, apps::AppConfig{.scale = Scale()})),
        analysis(core::Analysis::Run(app.module, DefaultAnalysisOptions())) {}

  Prepared(const Prepared&) = delete;
  Prepared& operator=(const Prepared&) = delete;
};

inline Prepared Prepare(const std::string& name) { return Prepared(name); }

/// Drives a stratified planner to completion on the shared thread pool:
/// BeginRound / ExecutePlannedRuns / CommitRound until every stratum retires
/// (or the max_runs cap trips).
inline void RunPlanToCompletion(fi::CampaignPlanner& planner, fi::Injector& injector) {
  while (!planner.Done()) {
    const std::vector<fi::PlannedInjection> queue = planner.BeginRound();
    fi::ExecuteOptions eo;
    eo.num_threads = Jobs();
    planner.CommitRound(fi::ExecutePlannedRuns(injector, queue, eo).records);
  }
}

/// Smallest trial count t with WilsonHalfWidth95(rate * t, t) <= target.
/// The half-width is monotone decreasing in t at fixed rate, so doubling
/// followed by binary search finds the exact threshold.
inline std::uint64_t SmallestTrialsForHalfWidth(double rate, double target) {
  std::uint64_t lo = 1, hi = 1;
  while (WilsonHalfWidth95(rate * static_cast<double>(hi), static_cast<double>(hi)) > target) {
    lo = hi + 1;
    hi *= 2;
  }
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (WilsonHalfWidth95(rate * static_cast<double>(mid), static_cast<double>(mid)) <= target) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return hi;
}

/// Injections a *uniform* sampler would need to match the planner's
/// per-stratum precision. Uniform sampling lands in stratum h with
/// probability W_h (its bit-weight), so driving every stratum's Wilson
/// half-width to the planner's ci_target takes
///   n_u = max_h ceil(t_h / W_h)
/// where t_h is the smallest trial count that closes stratum h at its
/// observed SDC and crash rates. This is the apples-to-apples denominator
/// for the planner's injection savings: same precision contract, no planner.
inline std::uint64_t UniformEquivalentRuns(const fi::CampaignPlanner& planner) {
  const double target = planner.options().ci_target;
  std::uint64_t worst = 0;
  for (std::size_t h = 0; h < planner.strata().size(); ++h) {
    const fi::StratumState& s = planner.strata()[h];
    if (s.weight <= 0.0) continue;
    const std::uint64_t trials =
        std::max(SmallestTrialsForHalfWidth(planner.StratumSdc(h).rate, target),
                 SmallestTrialsForHalfWidth(planner.StratumCrash(h).rate, target));
    const double runs = std::ceil(static_cast<double>(trials) / s.weight);
    worst = std::max(worst, static_cast<std::uint64_t>(runs));
  }
  return worst;
}

inline fi::CampaignStats Campaign(const Prepared& p, int runs = 0) {
  fi::CampaignOptions options;
  options.num_runs = runs > 0 ? runs : FiRuns();
  options.seed = Seed();
  options.injector.jitter_pages = static_cast<std::uint32_t>(JitterPages());
  options.num_threads = Jobs();
  options.injector.checkpoints = Checkpoints();
  return fi::RunCampaign(p.app.module, p.analysis.graph(), p.analysis.golden(), options);
}

}  // namespace epvf::bench
