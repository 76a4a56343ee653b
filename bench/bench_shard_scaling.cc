// Multi-process shard scaling of `epvf campaign`.
//
// Measures the wall-clock of the same fault-injection campaign run through
// the real CLI binary at 1, 2 and 4 worker processes (--jobs 1 each, so the
// scaling measured is the process decomposition, not the in-process thread
// pool), and verifies the headline invariant while at it: the merged
// campaign plan entry must be byte-identical at every shard count. The
// acceptance bar from the sharding work is >= 2x at 4 shards on lulesh.
//
// Knobs: EPVF_SCALE, EPVF_FI_RUNS, EPVF_SEED, EPVF_JITTER_PAGES (via the
// common env plumbing) and EPVF_SHARD_BENCH_APP (default lulesh). The epvf
// binary path is baked in at build time (EPVF_CLI_PATH).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "support/stopwatch.h"
#include "support/table.h"
#include "support/thread_pool.h"

namespace {

namespace fs = std::filesystem;

using epvf::AsciiTable;
using epvf::Stopwatch;

std::string BenchApp() {
  const char* app = std::getenv("EPVF_SHARD_BENCH_APP");
  return app == nullptr || app[0] == '\0' ? "lulesh" : app;
}

/// Runs a CLI invocation with stdout/stderr discarded; exits the bench on
/// failure (a broken campaign makes every number below meaningless).
void RunOrDie(const std::string& args) {
  const std::string command = std::string(EPVF_CLI_PATH) + " " + args + " >/dev/null 2>&1";
  const int status = std::system(command.c_str());
  if (status != 0) {
    std::fprintf(stderr, "bench_shard_scaling: `epvf %s` failed (status %d)\n", args.c_str(),
                 status);
    std::exit(1);
  }
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The one merged campaign plan entry inside `dir` (shard slices are
/// removed by the merge, so exactly one *.plan.epvfa remains).
std::string MergedArtifactBytes(const std::string& dir) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".plan.epvfa") != std::string::npos &&
        name.find("-shard-") == std::string::npos) {
      return ReadFileOrEmpty(entry.path().string());
    }
  }
  return {};
}

}  // namespace

int main() {
  epvf::bench::ScopedObservability observability;
  epvf::bench::BenchJson json("shard_scaling");

  const std::string app = BenchApp();
  const int runs = epvf::bench::FiRuns();
  const std::string common_flags =
      app + " --scale " + std::to_string(epvf::bench::Scale()) + " --runs " +
      std::to_string(runs) + " --seed " + std::to_string(epvf::bench::Seed()) + " --jitter " +
      std::to_string(epvf::bench::JitterPages()) + " --jobs 1";

  const unsigned cores = epvf::ThreadPool::HardwareJobs();
  std::printf(
      "shard scaling: %s, %d injections, worker --jobs 1 (process scaling only), "
      "%u hardware core(s)\n",
      app.c_str(), runs, cores);
  if (cores < 4) {
    std::printf("note: speedup is bounded by min(shards, cores) — on this host at most %ux\n",
                cores);
  }
  json.Add("host", "cores", static_cast<double>(cores));

  AsciiTable table({"shards", "seconds", "speedup", "identical"});
  table.SetTitle("epvf campaign --shards N (merged artifact diffed against --shards 1)");

  double base_seconds = 0;
  std::string base_artifact;
  for (const int shards : {1, 2, 4}) {
    // A fresh cache directory per shard count: nothing warm may leak between
    // configurations except the untimed analysis artifact below.
    std::string dir_template =
        (fs::temp_directory_path() / "epvf-bench-shard-XXXXXX").string();
    char* dir = mkdtemp(dir_template.data());
    if (dir == nullptr) {
      std::fprintf(stderr, "bench_shard_scaling: mkdtemp failed\n");
      return 1;
    }
    // Warm the analysis untimed — the bench measures campaign execution, and
    // a merged-campaign cache hit is impossible (the plan entry does not
    // exist yet in a fresh directory).
    RunOrDie("analyze " + app + " --scale " + std::to_string(epvf::bench::Scale()) +
             " --cache-dir " + dir);

    Stopwatch watch;
    RunOrDie("campaign " + common_flags + " --shards " + std::to_string(shards) +
             " --cache-dir " + dir);
    const double seconds = watch.ElapsedSeconds();

    const std::string artifact = MergedArtifactBytes(dir);
    bool identical = !artifact.empty();
    if (shards == 1) {
      base_seconds = seconds;
      base_artifact = artifact;
    } else {
      identical = identical && artifact == base_artifact;
    }
    if (!identical) {
      std::fprintf(stderr,
                   "bench_shard_scaling: merged artifact at %d shards diverged from the "
                   "single-process artifact\n",
                   shards);
      return 1;
    }
    const double speedup = seconds > 0 ? base_seconds / seconds : 0;

    char seconds_text[32];
    std::snprintf(seconds_text, sizeof(seconds_text), "%.2f", seconds);
    char speedup_text[32];
    std::snprintf(speedup_text, sizeof(speedup_text), "%.2fx", speedup);
    table.AddRow({std::to_string(shards), seconds_text, speedup_text, "yes"});

    json.Add(std::to_string(shards), "seconds", seconds);
    json.Add(std::to_string(shards), "speedup", speedup);

    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  table.Print(std::cout);
  return 0;
}
