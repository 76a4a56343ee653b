// End-to-end tests of the epvf binary: golden-diffed stdout for the stable
// report surfaces (analyze, inject, cache stats), exit-code contracts, the
// cache subcommands on a missing/empty directory, and the observability
// flags (--trace-out / --metrics-out) added with the obs layer.
//
// Each test forks the real binary (path baked in via EPVF_CLI_PATH), so this
// is the one suite that exercises flag parsing, dispatch and report printing
// exactly as a user sees them; only the serve metric inventory runs its
// daemons in process, to read their metrics. Set EPVF_UPDATE_GOLDENS=1 to
// regenerate the golden files after an intentional output change.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace {

namespace fs = std::filesystem;

struct CliResult {
  std::string stdout_text;
  std::string stderr_text;  ///< filled by RunCliStderr only
  int exit_code = -1;
};

/// Runs `epvf <args> <redirect>` and returns what reaches the pipe. `env`
/// prepends NAME=VALUE assignments to the invocation.
CliResult RunCliRedirected(const std::string& args, const std::string& env,
                           const char* redirect) {
  const std::string command = (env.empty() ? std::string() : "env " + env + " ") +
                              std::string(EPVF_CLI_PATH) + " " + args + redirect;
  CliResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    result.stdout_text.append(buffer, n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

/// Runs `epvf <args>` capturing stdout; stderr is diagnostics-only and
/// discarded.
CliResult RunCli(const std::string& args, const std::string& env = {}) {
  return RunCliRedirected(args, env, " 2>/dev/null");
}

/// Runs `epvf <args>` capturing the diagnostics on stderr; stdout is
/// discarded.
CliResult RunCliStderr(const std::string& args) {
  CliResult result = RunCliRedirected(args, {}, " 2>&1 >/dev/null");
  result.stderr_text = std::move(result.stdout_text);
  result.stdout_text.clear();
  return result;
}

/// A throwaway directory, removed (with contents) on scope exit.
struct TempDir {
  std::string path;

  TempDir() {
    std::string tmpl = (fs::temp_directory_path() / "epvf_cli_XXXXXX").string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    char* made = mkdtemp(buf.data());
    EXPECT_NE(made, nullptr);
    path = made == nullptr ? std::string() : std::string(made);
  }
  ~TempDir() {
    if (path.empty()) return;
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Replaces every occurrence of `from` in `text` with `to` — used to strip
/// run-specific paths before a golden comparison.
std::string ReplaceAll(std::string text, const std::string& from, const std::string& to) {
  for (std::size_t pos = 0; (pos = text.find(from, pos)) != std::string::npos;
       pos += to.size()) {
    text.replace(pos, from.size(), to);
  }
  return text;
}

/// Diffs `actual` against tests/golden/<name>; EPVF_UPDATE_GOLDENS=1 rewrites
/// the golden instead of failing.
void ExpectMatchesGolden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(EPVF_GOLDEN_DIR) + "/" + name;
  const char* update = std::getenv("EPVF_UPDATE_GOLDENS");
  if (update != nullptr && update[0] == '1') {
    std::ofstream out(path, std::ios::trunc);
    out << actual;
    ASSERT_TRUE(static_cast<bool>(out)) << "cannot update golden " << path;
    return;
  }
  const std::string expected = ReadFileOrEmpty(path);
  ASSERT_FALSE(expected.empty()) << "missing golden file " << path
                                 << " (run with EPVF_UPDATE_GOLDENS=1 to create it)";
  EXPECT_EQ(actual, expected) << "stdout diverged from golden " << name
                              << "; if intentional, rerun with EPVF_UPDATE_GOLDENS=1";
}

// --- exit codes --------------------------------------------------------------

TEST(CliExitCodes, NoArgumentsIsUsage) { EXPECT_EQ(RunCli("").exit_code, 2); }

TEST(CliExitCodes, UnknownCommandIsThree) {
  const CliResult r = RunCli("frobnicate");
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_TRUE(r.stdout_text.empty());  // the complaint goes to stderr
}

TEST(CliExitCodes, UnknownFlagIsFour) {
  EXPECT_EQ(RunCli("analyze mm --bogus-flag").exit_code, 4);
  EXPECT_EQ(RunCli("inject mm --fraction 0.5").exit_code, 4);  // wrong command's flag
}

TEST(CliExitCodes, CacheUnknownSubcommandIsUsage) {
  EXPECT_EQ(RunCli("cache purge").exit_code, 2);
}

TEST(CliExitCodes, MissingTargetFileIsRuntimeError) {
  EXPECT_EQ(RunCli("analyze /nonexistent/path.ir").exit_code, 1);
}

// --- golden stdout -----------------------------------------------------------

TEST(CliGolden, AnalyzeMm) {
  const CliResult r = RunCli("analyze mm --scale 0 --no-cache");
  ASSERT_EQ(r.exit_code, 0);
  ExpectMatchesGolden("analyze_mm.txt", r.stdout_text);
}

TEST(CliGolden, InjectMmFixedSeed) {
  const CliResult r = RunCli("inject mm --scale 0 --runs 40 --seed 7 --no-cache");
  ASSERT_EQ(r.exit_code, 0);
  ExpectMatchesGolden("inject_mm.txt", r.stdout_text);
}

// --- incremental analysis & delta --------------------------------------------

/// Writes `text` to `path`, replacing whatever was there.
void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  ASSERT_TRUE(static_cast<bool>(out)) << "cannot write " << path;
}

TEST(CliGolden, IncrementalAnalyzeColdAndWarmMatchThePlainAnalyzeGolden) {
  // --incremental is a performance knob, not a report variant: both the cold
  // (persisting) and warm (all units served from cache) runs must print the
  // exact bytes of a plain analyze.
  TempDir tmp;
  const std::string flags = "analyze mm --scale 0 --incremental --cache-dir " + tmp.path;
  const CliResult cold = RunCli(flags);
  const CliResult warm = RunCli(flags);
  ASSERT_EQ(cold.exit_code, 0);
  ASSERT_EQ(warm.exit_code, 0);
  EXPECT_EQ(warm.stdout_text, cold.stdout_text);
  ExpectMatchesGolden("analyze_mm.txt", cold.stdout_text);
  ExpectMatchesGolden("analyze_mm.txt", warm.stdout_text);
}

TEST(CliGolden, DeltaAfterSingleKernelEdit) {
  // print → mutate → delta is the seeded, fully deterministic edit loop; the
  // delta table (unit rows, the `edited` marker, the program summary line)
  // contains no paths, so it goldens cleanly.
  TempDir tmp;
  const std::string old_path = tmp.path + "/old.ir";
  const std::string new_path = tmp.path + "/new.ir";
  const CliResult printed = RunCli("print lulesh --scale 1");
  ASSERT_EQ(printed.exit_code, 0);
  WriteFile(old_path, printed.stdout_text);
  const CliResult mutated = RunCli("mutate " + old_path + " --kind tweak-constant --seed 1");
  ASSERT_EQ(mutated.exit_code, 0);
  WriteFile(new_path, mutated.stdout_text);

  const CliResult r = RunCli("delta " + old_path + " " + new_path + " --no-cache");
  ASSERT_EQ(r.exit_code, 0);
  ExpectMatchesGolden("delta_lulesh_tweak.txt", r.stdout_text);
  EXPECT_NE(r.stdout_text.find("edited"), std::string::npos);

  // With a cache directory the same delta is served warm — same bytes.
  const std::string cache = tmp.path + "/cache";
  const CliResult cold = RunCli("delta " + old_path + " " + new_path + " --cache-dir " + cache);
  const CliResult warm = RunCli("delta " + old_path + " " + new_path + " --cache-dir " + cache);
  ASSERT_EQ(cold.exit_code, 0);
  ASSERT_EQ(warm.exit_code, 0);
  EXPECT_EQ(cold.stdout_text, r.stdout_text);
  EXPECT_EQ(warm.stdout_text, r.stdout_text);
}

TEST(CliExitCodes, DeltaAndMutateContracts) {
  EXPECT_EQ(RunCli("delta mm").exit_code, 2);                    // needs two modules
  EXPECT_EQ(RunCli("mutate mm --kind bogus").exit_code, 2);      // unknown mutation kind
  EXPECT_EQ(RunCli("delta mm mm --seed 1").exit_code, 4);        // wrong command's flag
  EXPECT_EQ(RunCli("mutate mm --runs 5").exit_code, 4);          // wrong command's flag
}

TEST(CliGolden, CacheStatsOnMissingDir) {
  TempDir tmp;
  const std::string missing = tmp.path + "/never-created";
  const CliResult r = RunCli("cache stats --cache-dir " + missing);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_FALSE(fs::exists(missing)) << "a stats query must not create the directory";
  ExpectMatchesGolden("cache_stats_missing.txt",
                      ReplaceAll(r.stdout_text, missing, "<DIR>"));
}

// --- campaign ----------------------------------------------------------------

TEST(CliCampaign, SingleShardMatchesTheInjectGolden) {
  // campaign is inject scaled across processes: with the same parameters its
  // stdout must be byte-for-byte the inject report, so it shares the golden.
  const CliResult r = RunCli("campaign mm --scale 0 --runs 40 --seed 7 --shards 1 --no-cache");
  ASSERT_EQ(r.exit_code, 0);
  ExpectMatchesGolden("inject_mm.txt", r.stdout_text);
}

TEST(CliCampaign, ShardedStdoutIsByteIdenticalToSingleShard) {
  const CliResult one = RunCli("campaign mm --scale 0 --runs 40 --seed 7 --shards 1");
  const CliResult three = RunCli("campaign mm --scale 0 --runs 40 --seed 7 --shards 3");
  ASSERT_EQ(one.exit_code, 0);
  ASSERT_EQ(three.exit_code, 0);
  EXPECT_EQ(three.stdout_text, one.stdout_text);
  ExpectMatchesGolden("inject_mm.txt", three.stdout_text);
}

TEST(CliCampaign, EnvVarPicksTheShardCount) {
  const CliResult flagged = RunCli("campaign mm --scale 0 --runs 40 --seed 7 --shards 2");
  const CliResult env = RunCli("campaign mm --scale 0 --runs 40 --seed 7", "EPVF_SHARDS=2");
  ASSERT_EQ(flagged.exit_code, 0);
  ASSERT_EQ(env.exit_code, 0);
  EXPECT_EQ(env.stdout_text, flagged.stdout_text);
}

TEST(CliCampaign, ShardsPastTheLimitExitFourBeforeAnyWorkerStarts) {
  // --runs 1 clamps an accepted count to one in-process shard, so neither
  // case can start a worker process.
  EXPECT_EQ(RunCli("campaign mm --scale 0 --runs 1 --seed 7 --shards 64 --no-cache").exit_code, 0);
  EXPECT_EQ(RunCli("campaign mm --scale 0 --runs 1 --seed 7 --shards 65 --no-cache").exit_code, 4);
  EXPECT_EQ(RunCli("campaign mm --scale 0 --runs 1 --seed 7 --no-cache", "EPVF_SHARDS=65")
                .exit_code,
            4);
  EXPECT_EQ(RunCli("campaign mm --scale 0 --plan stratified --shards 65 --no-cache").exit_code,
            4);
}

TEST(CliCampaign, CheckpointsFlagIsRangeCheckedAndForwardedToWorkers) {
  // A negative number must parse as the flag's value, so the refusal names
  // --checkpoints instead of calling -1 a stray argument.
  const CliResult negative =
      RunCliStderr("inject mm --scale 0 --runs 8 --no-cache --checkpoints -1");
  EXPECT_EQ(negative.exit_code, 2);
  EXPECT_NE(negative.stderr_text.find("--checkpoints -1"), std::string::npos)
      << negative.stderr_text;
  EXPECT_EQ(negative.stderr_text.find("unexpected argument"), std::string::npos)
      << negative.stderr_text;
  const CliResult past =
      RunCliStderr("inject mm --scale 0 --runs 8 --no-cache --checkpoints 1025");
  EXPECT_EQ(past.exit_code, 4);
  EXPECT_NE(past.stderr_text.find("limit of 1024"), std::string::npos) << past.stderr_text;

  // The default is 64 snapshots, spelled out or not.
  const CliResult fallback = RunCli("inject mm --scale 0 --runs 8 --no-cache");
  const CliResult explicit_default =
      RunCli("inject mm --scale 0 --runs 8 --no-cache --checkpoints 64");
  ASSERT_EQ(fallback.exit_code, 0);
  ASSERT_EQ(explicit_default.exit_code, 0);
  EXPECT_EQ(explicit_default.stdout_text, fallback.stdout_text);

  // The supervisor forwards the flag to its workers verbatim.
  const CliResult sharded =
      RunCli("campaign mm --scale 0 --runs 40 --seed 7 --shards 2 --checkpoints 4");
  ASSERT_EQ(sharded.exit_code, 0);
  ExpectMatchesGolden("inject_mm.txt", sharded.stdout_text);
}

TEST(CliCampaign, CheckpointsBuildsExactlyTheRequestedSnapshots) {
  const CliResult r = RunCliStderr(
      "inject lulesh --scale 0 --runs 8 --jitter 0 --checkpoints 64 --no-cache");
  ASSERT_EQ(r.exit_code, 0);
  EXPECT_NE(r.stderr_text.find("checkpoint fast path : 64 snapshots"), std::string::npos)
      << r.stderr_text;
}

TEST(CliCampaign, ExitCodeContractsMatchTheOtherCommands) {
  EXPECT_EQ(RunCli("campaign").exit_code, 2);                      // no target
  EXPECT_EQ(RunCli("campaign mm --bogus-flag").exit_code, 4);      // unknown flag
  EXPECT_EQ(RunCli("campaign mm --fraction 0.5").exit_code, 4);    // wrong command's flag
  EXPECT_EQ(RunCli("campaign mm --worker-shard 0 --no-cache").exit_code, 1);
}

TEST(CliCampaign, DiagnosticsStayOffStdout) {
  // The merge/supervision summary is stderr-only; stdout is the report.
  const CliResult r = RunCli("campaign mm --scale 0 --runs 40 --seed 7 --shards 2");
  ASSERT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.stdout_text.find("shard"), std::string::npos);
  EXPECT_EQ(r.stdout_text.find("merged"), std::string::npos);
  EXPECT_EQ(r.stdout_text.find("cache:"), std::string::npos);
}

// --- the retired execution-tier selection ------------------------------------

TEST(CliEngine, UnknownEngineIsFour) {
  // The vm has one execution semantics, so there is no tier to pick: the
  // engine flag is an unknown flag on every command that took it, and the
  // engine environment variable is ignored. Both names are spelled in pieces
  // so that a search for the retired names finds only their removal.
  const std::string flag = std::string(" --") + "engine tree";
  const std::string env = std::string("EPVF_") + "ENGINE=warp";
  for (const char* command : {"analyze", "inject", "campaign"}) {
    EXPECT_EQ(RunCli(std::string(command) + " mm --scale 0 --no-cache" + flag).exit_code, 4)
        << command;
  }
  const std::string inject = "inject mm --scale 0 --runs 4 --seed 7 --no-cache";
  const CliResult plain = RunCli(inject);
  const CliResult with_env = RunCli(inject, env);
  ASSERT_EQ(plain.exit_code, 0);
  ASSERT_EQ(with_env.exit_code, 0);
  EXPECT_EQ(with_env.stdout_text, plain.stdout_text);
}

/// The merged campaign's plan entry bytes inside `dir` (shard slices are
/// removed by a successful merge, leaving exactly one *.plan.epvfa).
std::string MergedCampaignArtifact(const std::string& dir) {
  std::string found;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().find(".plan.epvfa") == std::string::npos) continue;
    EXPECT_TRUE(found.empty()) << "more than one merged plan entry in " << dir;
    found = ReadFileOrEmpty(entry.path().string());
  }
  EXPECT_FALSE(found.empty()) << "no merged plan entry in " << dir;
  return found;
}

TEST(CliEngine, WorkerRelaunchKeepsTheBytecodeTierIdentical) {
  // A killed-and-relaunched worker re-runs its shard; the recovered campaign
  // still matches the single-shard report byte for byte.
  TempDir baseline_dir;
  TempDir faulty_dir;
  TempDir scratch;
  const CliResult one =
      RunCli("campaign mm --scale 0 --runs 40 --seed 7 --shards 1 --cache-dir " +
             baseline_dir.path);
  const CliResult recovered = RunCli(
      "campaign mm --scale 0 --runs 40 --seed 7 --shards 2 --cache-dir " +
          faulty_dir.path,
      "EPVF_PERSIST_EVERY=4 EPVF_TEST_WORKER_KILL_ONCE=" + scratch.path + "/kill.marker");
  ASSERT_EQ(one.exit_code, 0);
  ASSERT_EQ(recovered.exit_code, 0);
  EXPECT_TRUE(fs::exists(scratch.path + "/kill.marker")) << "the kill hook never fired";
  EXPECT_EQ(recovered.stdout_text, one.stdout_text);
  EXPECT_EQ(MergedCampaignArtifact(faulty_dir.path), MergedCampaignArtifact(baseline_dir.path));
}

// --- fault scenario selection (--scenario register|memory) -------------------

TEST(CliScenario, UnknownScenarioIsFour) {
  EXPECT_EQ(RunCli("inject mm --scenario cosmic").exit_code, 4);
  EXPECT_EQ(RunCli("campaign mm --scenario cosmic").exit_code, 4);
}

TEST(CliScenario, MemoryRejectsExplicitJitter) {
  // Memory sites are absolute golden-layout addresses; jitter would relocate
  // them, so asking for both is a usage error, not a silent override.
  EXPECT_EQ(RunCli("inject mm --scenario memory --jitter 2").exit_code, 2);
  EXPECT_EQ(RunCli("inject mm --scenario memory --jitter 0 --runs 4 --scale 0 --no-cache")
                .exit_code,
            0);
}

TEST(CliScenario, RegisterFlagMatchesTheDefaultGolden) {
  // --scenario register is the long-standing default spelled out: stdout must
  // be byte-for-byte the plain inject golden.
  const CliResult r =
      RunCli("inject mm --scale 0 --runs 40 --seed 7 --no-cache --scenario register");
  ASSERT_EQ(r.exit_code, 0);
  ExpectMatchesGolden("inject_mm.txt", r.stdout_text);
}

TEST(CliScenario, InjectLuleshMemoryGolden) {
  const CliResult r =
      RunCli("inject lulesh --scale 0 --runs 60 --seed 7 --no-cache --scenario memory");
  ASSERT_EQ(r.exit_code, 0);
  ExpectMatchesGolden("inject_lulesh_memory.txt", r.stdout_text);
}

TEST(CliScenario, MemoryDiagnosticsStayOffStdout) {
  // Scenario plumbing adds stderr diagnostics only; the stdout report shape
  // is shared with the register scenario.
  const CliResult r = RunCli("inject mm --scale 0 --runs 40 --seed 7 --no-cache "
                             "--scenario memory --checkpoints 3");
  ASSERT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.stdout_text.find("cache:"), std::string::npos);
  EXPECT_EQ(r.stdout_text.find("scenario"), std::string::npos);
  EXPECT_EQ(r.stdout_text.find("checkpoint"), std::string::npos);
  EXPECT_NE(r.stdout_text.find("campaign (40 injections)"), std::string::npos);
}

TEST(CliScenario, ShardedMemoryCampaignIsByteIdenticalIncludingTheArtifact) {
  // The tentpole identity contract at the process level: a sharded memory
  // campaign must produce the same stdout AND the same merged record artifact
  // as a single shard (the records carry the scenario byte, so a mismatch in
  // either direction would fork the artifact bytes).
  TempDir one_dir;
  TempDir three_dir;
  const std::string args = "campaign mm --scale 0 --runs 40 --seed 7 --scenario memory";
  const CliResult one = RunCli(args + " --shards 1 --cache-dir " + one_dir.path);
  const CliResult three = RunCli(args + " --shards 3 --cache-dir " + three_dir.path);
  ASSERT_EQ(one.exit_code, 0);
  ASSERT_EQ(three.exit_code, 0);
  EXPECT_EQ(three.stdout_text, one.stdout_text);
  EXPECT_EQ(MergedCampaignArtifact(three_dir.path), MergedCampaignArtifact(one_dir.path));
}

TEST(CliScenario, MemoryAndRegisterCampaignsAreCachedSeparately) {
  // Same target, runs, and seed — only the scenario differs. The cache must
  // key them apart (scenario is part of the canonical campaign key), so the
  // second run is a miss that produces different outcome counts, not a bogus
  // hit that replays register records as memory ones.
  TempDir tmp;
  const std::string base = "inject mm --scale 0 --runs 40 --seed 7 --cache-dir " + tmp.path;
  const CliResult reg = RunCli(base);
  const CliResult mem = RunCli(base + " --scenario memory");
  ASSERT_EQ(reg.exit_code, 0);
  ASSERT_EQ(mem.exit_code, 0);
  EXPECT_NE(mem.stdout_text, reg.stdout_text);
  // Warm repeats of each stay byte-identical to their own cold run.
  EXPECT_EQ(RunCli(base).stdout_text, reg.stdout_text);
  EXPECT_EQ(RunCli(base + " --scenario memory").stdout_text, mem.stdout_text);
}

// --- cache subcommands on a missing/empty directory (regression) -------------

TEST(CliCache, ClearOnMissingDirSucceedsWithoutCreatingIt) {
  TempDir tmp;
  const std::string missing = tmp.path + "/never-created";
  const CliResult r = RunCli("cache clear --cache-dir " + missing);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.stdout_text.find("nothing to clear"), std::string::npos);
  EXPECT_FALSE(fs::exists(missing));
}

TEST(CliCache, StatsOnEmptyDirReportsZeroEntries) {
  TempDir tmp;
  const CliResult r = RunCli("cache stats --cache-dir " + tmp.path);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.stdout_text.find("entries              : 0"), std::string::npos);
}

TEST(CliCache, RetiredAnalysisEntriesAreNeverReadAndClearRemovesThem) {
  // A directory an older format left behind: an entry of a kind no reader
  // claims any more, as the retired whole-analysis entries are (junk bytes
  // here, so a reader would have to reject it), and a counter file with
  // analysis rows. Every command still succeeds on it, none touches the
  // entry, and `cache clear` removes it.
  TempDir tmp;
  const std::string dir = tmp.path + "/cache";
  fs::create_directories(dir);
  const std::string retired = dir + "/0123456789abcdef.retired.epvfa";
  WriteFile(retired, "not an artifact");
  WriteFile(dir + "/cache_stats.txt",
            "hits 3\nmisses 1\nbytes_read 30\nbytes_written 10\nhits.analysis 3\n"
            "misses.analysis 1\nbytes_read.analysis 30\nbytes_written.analysis 10\n");
  const std::string flags = " --scale 0 --cache-dir " + dir;

  // A plain analyze neither reads nor writes the cache directory.
  ASSERT_EQ(RunCli("analyze mm" + flags).exit_code, 0);
  EXPECT_EQ(std::distance(fs::directory_iterator(dir), fs::directory_iterator()), 2);
  EXPECT_EQ(RunCli("analyze mm --incremental" + flags).exit_code, 0);
  EXPECT_EQ(RunCli("inject mm --runs 12 --seed 3" + flags).exit_code, 0);
  EXPECT_EQ(RunCli("campaign mm --runs 12 --seed 3 --shards 2" + flags).exit_code, 0);
  const CliResult stats = RunCli("cache stats --cache-dir " + dir);
  EXPECT_EQ(stats.exit_code, 0);
  EXPECT_EQ(stats.stdout_text.find("  analysis"), std::string::npos) << stats.stdout_text;
  EXPECT_NE(stats.stdout_text.find("  plan"), std::string::npos) << stats.stdout_text;
  EXPECT_EQ(ReadFileOrEmpty(retired), "not an artifact");

  const CliResult clear = RunCli("cache clear --cache-dir " + dir);
  EXPECT_EQ(clear.exit_code, 0);
  EXPECT_FALSE(fs::exists(retired));
  EXPECT_TRUE(fs::is_empty(dir));
}

TEST(CliCache, ClearOnEmptyDirReportsZeroCleared) {
  TempDir tmp;
  const CliResult r = RunCli("cache clear --cache-dir " + tmp.path);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.stdout_text.find("cleared 0 entries"), std::string::npos);
}

// --- observability flags -----------------------------------------------------

TEST(CliObservability, TraceOutCoversThePipeline) {
  TempDir tmp;
  const std::string trace = tmp.path + "/trace.json";
  const CliResult r = RunCli("inject mm --scale 0 --runs 20 --no-cache --trace-out " + trace);
  ASSERT_EQ(r.exit_code, 0);
  const std::string json = ReadFileOrEmpty(trace);
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // The acceptance bar: spans from at least five distinct pipeline layers.
  for (const char* cat : {"parse", "ddg", "ace", "crash-model", "vm", "injection"}) {
    EXPECT_NE(json.find("\"cat\":\"" + std::string(cat) + "\""), std::string::npos)
        << "missing span category " << cat;
  }
}

TEST(CliObservability, IncrementalTraceShowsTheCompositionalStages) {
  // A cold `analyze --incremental` projects the analysis onto units; an
  // edited re-analyze assembles the stored units, replays the edited one,
  // and recomposes the statistics over the stitched graph: each stage is a
  // span of its own.
  TempDir tmp;
  const std::string module = tmp.path + "/k.ir";
  const CliResult printed = RunCli("print lulesh --scale 1");
  ASSERT_EQ(printed.exit_code, 0);
  WriteFile(module, printed.stdout_text);
  const std::string flags = " --incremental --cache-dir " + tmp.path + "/cache --trace-out ";
  ASSERT_EQ(RunCli("analyze " + module + flags + tmp.path + "/cold.json").exit_code, 0);
  const CliResult mutated = RunCli("mutate " + module + " --kind tweak-constant --seed 1");
  ASSERT_EQ(mutated.exit_code, 0);
  WriteFile(module, mutated.stdout_text);
  ASSERT_EQ(RunCli("analyze " + module + flags + tmp.path + "/edit.json").exit_code, 0);

  const auto span = [](const std::string& cat, const std::string& name) {
    return "\"cat\":\"" + cat + "\",\"name\":\"" + name + "\"";
  };
  const std::string cold = ReadFileOrEmpty(tmp.path + "/cold.json");
  EXPECT_NE(cold.find(span("compose", "build-slices")), std::string::npos);
  EXPECT_EQ(cold.find(span("compose", "recompose")), std::string::npos)
      << "a cold run keeps the analysis's statistics";
  const std::string edit = ReadFileOrEmpty(tmp.path + "/edit.json");
  EXPECT_NE(edit.find(span("store", "assemble-units")), std::string::npos);
  for (const char* name : {"replay-unit", "recompose"}) {
    EXPECT_NE(edit.find(span("compose", name)), std::string::npos) << "edited run: " << name;
  }
  EXPECT_EQ(edit.find(span("compose", "build-slices")), std::string::npos)
      << "the edit took the cold path";
}

TEST(CliObservability, EnvVarEnablesTracingToNamedFile) {
  TempDir tmp;
  const std::string trace = tmp.path + "/env-trace.json";
  const CliResult r = RunCli("analyze mm --scale 0 --no-cache", "EPVF_TRACE=" + trace);
  ASSERT_EQ(r.exit_code, 0);
  EXPECT_NE(ReadFileOrEmpty(trace).find("\"ph\":\"X\""), std::string::npos);
}

TEST(CliObservability, MetricsOutRoundTripsThroughMetricsCommand) {
  TempDir tmp;
  const std::string metrics = tmp.path + "/metrics.json";
  ASSERT_EQ(RunCli("analyze mm --scale 0 --no-cache --metrics-out " + metrics).exit_code, 0);
  const CliResult pretty = RunCli("metrics " + metrics);
  EXPECT_EQ(pretty.exit_code, 0);
  EXPECT_NE(pretty.stdout_text.find("analysis.runs"), std::string::npos);
  EXPECT_NE(pretty.stdout_text.find("analysis.ace.us"), std::string::npos);
}

bool HasAnyPrefix(const std::string& name, const std::vector<std::string>& prefixes) {
  return std::any_of(prefixes.begin(), prefixes.end(),
                     [&](const std::string& prefix) { return name.rfind(prefix, 0) == 0; });
}

/// The backticked metric names in docs/OBSERVABILITY.md under `prefixes`.
std::vector<std::string> DocumentedMetrics(const std::vector<std::string>& prefixes) {
  const std::string doc = ReadFileOrEmpty(std::string(EPVF_DOCS_DIR) + "/OBSERVABILITY.md");
  std::vector<std::string> names;
  for (std::size_t at = doc.find('`'); at != std::string::npos; at = doc.find('`', at + 1)) {
    const std::size_t end =
        doc.find_first_not_of("abcdefghijklmnopqrstuvwxyz0123456789_.<>-", at + 1);
    if (end == std::string::npos || doc[end] != '`') continue;
    const std::string name = doc.substr(at + 1, end - at - 1);
    if (HasAnyPrefix(name, prefixes)) names.push_back(name);
  }
  return names;
}

/// Every counter, gauge and histogram name under `prefixes` that the
/// --metrics-out dumps at `paths` register.
std::set<std::string> RegisteredMetrics(const std::vector<std::string>& paths,
                                        const std::vector<std::string>& prefixes) {
  std::set<std::string> registered;
  for (const std::string& path : paths) {
    const std::optional<epvf::obs::MetricsSnapshot> snap =
        epvf::obs::ParseMetricsJson(ReadFileOrEmpty(path));
    EXPECT_TRUE(snap.has_value()) << path;
    if (!snap.has_value()) continue;
    const auto add = [&](const std::string& metric) {
      if (HasAnyPrefix(metric, prefixes)) registered.insert(metric);
    };
    for (const auto& entry : snap->counters) add(entry.first);
    for (const auto& entry : snap->gauges) add(entry.first);
    for (const auto& entry : snap->histograms) add(entry.first);
  }
  return registered;
}

/// Whether `metric` is an instance of the documented name `documented`, where
/// a `<placeholder>` segment stands for any one dot-free segment.
bool IsInstanceOf(const std::string& metric, const std::string& documented) {
  std::istringstream have(metric);
  std::istringstream want(documented);
  std::string a;
  std::string b;
  while (true) {
    const bool more = static_cast<bool>(std::getline(have, a, '.'));
    if (more != static_cast<bool>(std::getline(want, b, '.'))) return false;
    if (!more) return true;
    const bool placeholder = b.size() > 2 && b.front() == '<' && b.back() == '>';
    if (a != b && !(placeholder && !a.empty())) return false;
  }
}

/// Both directions of an inventory check: every registered name is an
/// instance of a documented one, and every documented name outside
/// `register_on_event` (prefixes of names registered only as their event
/// happens) is registered by some run.
void ExpectInventoryMatchesTheDocs(const std::set<std::string>& registered,
                                   const std::vector<std::string>& documented,
                                   const std::vector<std::string>& register_on_event = {}) {
  ASSERT_FALSE(documented.empty()) << "no metrics documented under the checked prefixes";
  for (const std::string& metric : registered) {
    EXPECT_TRUE(std::any_of(documented.begin(), documented.end(),
                            [&](const std::string& d) { return IsInstanceOf(metric, d); }))
        << metric << " is registered but not documented in docs/OBSERVABILITY.md";
  }
  for (const std::string& d : documented) {
    if (HasAnyPrefix(d, register_on_event)) continue;
    EXPECT_TRUE(std::any_of(registered.begin(), registered.end(),
                            [&](const std::string& metric) { return IsInstanceOf(metric, d); }))
        << d << " is documented but none of the runs registers it";
  }
}

TEST(CliObservability, CampaignMetricInventoryMatchesTheDocs) {
  // Both plan kinds, with the store and the checkpoint fast path engaged so
  // every engine metric registers; the registered and the documented
  // campaign.* / planner.* names must then agree in both directions.
  TempDir tmp;
  ASSERT_EQ(RunCli("inject lulesh --scale 0 --runs 30 --seed 7 --jitter 0 --checkpoints 4 "
                   "--cache-dir " + tmp.path + "/cache --metrics-out " + tmp.path +
                   "/uniform.json")
                .exit_code,
            0);
  ASSERT_EQ(RunCli("inject mm --scale 0 --plan stratified --ci-target 0.2 --no-cache "
                   "--metrics-out " + tmp.path + "/stratified.json")
                .exit_code,
            0);
  const std::vector<std::string> prefixes = {"campaign.", "planner."};
  const std::set<std::string> registered =
      RegisteredMetrics({tmp.path + "/uniform.json", tmp.path + "/stratified.json"}, prefixes);

  // The shard supervisor's counters register only as their events happen (a
  // launch, a relaunch, a timeout), so the reverse check covers the engine.
  ExpectInventoryMatchesTheDocs(registered, DocumentedMetrics(prefixes),
                                {"campaign.shard.", "campaign.supervisor."});
}

TEST(CliObservability, StoreAndAnalysisMetricInventoryMatchesTheDocs) {
  // An analysis, a cold campaign (plan miss and write) and the same campaign
  // warm (plan hit and read) between them register every analysis.* and
  // store.* metric; the registered and the documented names must agree in
  // both directions.
  TempDir tmp;
  ASSERT_EQ(RunCli("analyze mm --scale 0 --no-cache --metrics-out " + tmp.path + "/analyze.json")
                .exit_code,
            0);
  const std::string inject =
      "inject mm --scale 0 --runs 12 --seed 3 --cache-dir " + tmp.path + "/cache --metrics-out ";
  ASSERT_EQ(RunCli(inject + tmp.path + "/cold.json").exit_code, 0);
  ASSERT_EQ(RunCli(inject + tmp.path + "/warm.json").exit_code, 0);
  const std::vector<std::string> prefixes = {"analysis.", "store."};
  const std::set<std::string> registered = RegisteredMetrics(
      {tmp.path + "/analyze.json", tmp.path + "/cold.json", tmp.path + "/warm.json"}, prefixes);

  ExpectInventoryMatchesTheDocs(registered, DocumentedMetrics(prefixes));
}

TEST(CliObservability, VmAndScenarioMetricInventoryMatchesTheDocs) {
  // An analysis (a bytecode compile and the golden run) and a memory-scenario
  // campaign (site enumeration and injected runs) between them register
  // every vm.* and scenario.* metric; the registered and the documented names
  // must agree in both directions.
  TempDir tmp;
  ASSERT_EQ(RunCli("analyze mm --scale 0 --no-cache --metrics-out " + tmp.path + "/analyze.json")
                .exit_code,
            0);
  ASSERT_EQ(RunCli("inject mm --scale 0 --runs 12 --seed 3 --scenario memory --no-cache "
                   "--metrics-out " + tmp.path + "/memory.json")
                .exit_code,
            0);
  const std::vector<std::string> prefixes = {"vm.", "scenario."};
  const std::set<std::string> registered =
      RegisteredMetrics({tmp.path + "/analyze.json", tmp.path + "/memory.json"}, prefixes);
  ExpectInventoryMatchesTheDocs(registered, DocumentedMetrics(prefixes));
}

/// A raw connection to a daemon socket, for frames a ServeClient never
/// sends; -1 on failure.
int RawConnect(const std::string& socket_path) {
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof addr.sun_path - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(CliObservability, ServeMetricInventoryMatchesTheDocs) {
  // The daemons run in this process, so their serve.* metrics land in this
  // process's registry, and each registers when its event first happens.
  // Between them the two daemons see every request type, a busy rejection, a
  // malformed frame, a cancelled job, and plain and incremental analyzes (an
  // incremental rebuild, a warm replay and a fallback); the registered and
  // documented serve.* names must then agree in both directions.
  using epvf::serve::FrameType;
  TempDir tmp;
  const std::string tag = std::to_string(::getpid());
  epvf::serve::ServerOptions busy_options;
  busy_options.socket_path = "/tmp/epvf-inv-busy-" + tag + ".sock";
  busy_options.exe_path = EPVF_CLI_PATH;
  busy_options.queue_limit = 0;  // every admission is over the bound
  epvf::serve::Server busy(busy_options);
  ASSERT_TRUE(busy.Start());
  {
    std::optional<epvf::serve::ServeClient> client =
        epvf::serve::ServeClient::Connect(busy_options.socket_path);
    ASSERT_TRUE(client.has_value());
    epvf::serve::RunRequest request;
    request.args = {"analyze", "mm", "--scale", "0"};
    const auto result = client->Run(request, nullptr, nullptr, nullptr);
    ASSERT_TRUE(result.error.has_value());
    EXPECT_EQ(result.error->code, epvf::serve::ErrorCode::kBusy);
  }
  busy.Stop();

  epvf::serve::ServerOptions options;
  options.socket_path = "/tmp/epvf-inv-" + tag + ".sock";
  options.exe_path = EPVF_CLI_PATH;
  options.cache_dir = tmp.path + "/daemon-cache";
  epvf::serve::Server server(options);
  ASSERT_TRUE(server.Start());
  std::optional<epvf::serve::ServeClient> client =
      epvf::serve::ServeClient::Connect(options.socket_path);
  ASSERT_TRUE(client.has_value());
  const auto run = [&](std::vector<std::string> args) {
    epvf::serve::RunRequest request;
    request.args = std::move(args);
    const auto result = client->Run(request, nullptr, nullptr, nullptr);
    EXPECT_TRUE(result.transport_ok && !result.error.has_value()) << request.args[0];
  };

  // Plain analyzes: a resident miss, then a hit.
  run({"analyze", "mm", "--scale", "0"});
  run({"analyze", "mm", "--scale", "0"});
  // Incremental analyzes of a file: a rebuild, a warm replay, and an edit the
  // replay cannot contain (the scale moves every global's size) — a fallback.
  const std::string module_path = tmp.path + "/kernel.ir";
  const auto save_module = [&](int scale) {
    std::ofstream(module_path) << RunCli("print mm --scale " + std::to_string(scale)).stdout_text;
  };
  save_module(0);
  run({"analyze", module_path, "--incremental", "1"});
  run({"analyze", module_path, "--incremental", "1"});
  save_module(1);
  run({"analyze", module_path, "--incremental", "1"});

  // A malformed frame.
  {
    const int fd = RawConnect(options.socket_path);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::send(fd, "NOPEnopeNOPEnope", 16, 0), 16);
    epvf::serve::Frame frame;
    (void)epvf::serve::ReadFrame(fd, &frame);
    ::close(fd);
  }
  // A long campaign, cancelled while it runs.
  {
    const int fd = RawConnect(options.socket_path);
    ASSERT_GE(fd, 0);
    epvf::serve::RunRequest slow;
    slow.args = {"inject", "mm", "--runs", "5000", "--seed", "7"};
    ASSERT_TRUE(epvf::serve::WriteFrame(fd, FrameType::kRun, epvf::serve::EncodeRunRequest(slow)));
    epvf::serve::Frame frame;
    ASSERT_EQ(epvf::serve::ReadFrame(fd, &frame), epvf::serve::ReadStatus::kOk);
    ASSERT_EQ(frame.type, FrameType::kAck);
    const std::uint64_t id = epvf::serve::DecodeU64(frame.payload).value_or(0);
    ASSERT_TRUE(client->Cancel(id));
    do {
      ASSERT_EQ(epvf::serve::ReadFrame(fd, &frame), epvf::serve::ReadStatus::kOk);
    } while (frame.type == FrameType::kProgress || frame.type == FrameType::kStdout ||
             frame.type == FrameType::kStderr);
    ::close(fd);
  }
  ASSERT_TRUE(client->Status().has_value());
  const std::optional<std::string> json = client->Metrics();
  ASSERT_TRUE(json.has_value());
  server.Stop();

  const std::string dump = tmp.path + "/serve.json";
  std::ofstream(dump) << *json;
  const std::vector<std::string> prefixes = {"serve."};
  ExpectInventoryMatchesTheDocs(RegisteredMetrics({dump}, prefixes),
                                DocumentedMetrics(prefixes));
}

TEST(CliObservability, MetricsCommandRejectsGarbage) {
  TempDir tmp;
  const std::string bogus = tmp.path + "/bogus.json";
  std::ofstream(bogus) << "{\"schema\":\"wrong\"}";
  EXPECT_EQ(RunCli("metrics " + bogus).exit_code, 1);
  EXPECT_EQ(RunCli("metrics " + tmp.path + "/missing.json").exit_code, 1);
}

TEST(CliObservability, StdoutIsByteIdenticalWithAndWithoutTracing) {
  TempDir tmp;
  const CliResult plain = RunCli("inject mm --scale 0 --runs 20 --seed 3 --no-cache");
  const CliResult traced =
      RunCli("inject mm --scale 0 --runs 20 --seed 3 --no-cache --trace-out " + tmp.path + "/t.json");
  ASSERT_EQ(plain.exit_code, 0);
  ASSERT_EQ(traced.exit_code, 0);
  EXPECT_EQ(plain.stdout_text, traced.stdout_text);
}

}  // namespace
