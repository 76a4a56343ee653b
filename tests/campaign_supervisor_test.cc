// Crash-tolerance tests for the sharded-campaign machinery, at two levels.
//
// Unit level: RunShardSupervisor drives /bin/sh stand-ins through the
// interesting lifecycles — clean success, die-then-succeed (a marker file
// makes the first attempt fail), a hang killed by the per-shard deadline,
// and retry exhaustion — and the Subprocess wrapper's status reporting.
//
// End-to-end level: the real `epvf campaign` binary (EPVF_CLI_PATH) with the
// EPVF_TEST_WORKER_KILL_ONCE / EPVF_TEST_WORKER_STALL_ONCE hooks, asserting
// that a SIGKILLed worker and a wedged worker are relaunched, resume from
// their slice's persisted completion mask, and that the merged campaign is
// byte-identical — stdout and the merged plan entry — to an undisturbed run.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fi/supervisor.h"
#include "support/subprocess.h"

namespace epvf::fi {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  std::string path;

  TempDir() {
    std::string tmpl = (fs::temp_directory_path() / "epvf_sup_XXXXXX").string();
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

SubprocessOptions ShellCommand(const std::string& script) {
  SubprocessOptions options;
  options.argv = {"/bin/sh", "-c", script};
  return options;
}

// --- Subprocess --------------------------------------------------------------

TEST(Subprocess, ReportsExitCodeAndSignalDistinctly) {
  auto ok = Subprocess::Spawn(ShellCommand("exit 0"));
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->Wait().Success());

  auto fail = Subprocess::Spawn(ShellCommand("exit 3"));
  ASSERT_TRUE(fail.has_value());
  const ExitStatus failed = fail->Wait();
  EXPECT_TRUE(failed.exited);
  EXPECT_EQ(failed.code, 3);
  EXPECT_EQ(failed.Describe(), "exit 3");

  auto hung = Subprocess::Spawn(ShellCommand("exec sleep 1000"));
  ASSERT_TRUE(hung.has_value());
  EXPECT_FALSE(hung->Poll().has_value()) << "a sleeping child must not report an exit";
  hung->Kill();
  const ExitStatus killed = hung->Wait();
  EXPECT_FALSE(killed.exited);
  EXPECT_EQ(killed.signal, 9);
  EXPECT_EQ(killed.Describe(), "signal 9");
}

TEST(Subprocess, ExecFailureSurfacesAsExit127) {
  SubprocessOptions options;
  options.argv = {"/nonexistent/binary-that-cannot-exec"};
  auto child = Subprocess::Spawn(options);
  ASSERT_TRUE(child.has_value());
  const ExitStatus status = child->Wait();
  EXPECT_TRUE(status.exited);
  EXPECT_EQ(status.code, 127);
}

TEST(Subprocess, RedirectsStdoutAndStderrIntoOneFile) {
  TempDir tmp;
  const std::string log = tmp.path + "/worker.log";
  SubprocessOptions options = ShellCommand("echo out; echo err 1>&2");
  options.stdout_path = log;
  options.stderr_path = log;
  auto child = Subprocess::Spawn(options);
  ASSERT_TRUE(child.has_value());
  EXPECT_TRUE(child->Wait().Success());
  const std::string text = ReadFileOrEmpty(log);
  EXPECT_NE(text.find("out"), std::string::npos);
  EXPECT_NE(text.find("err"), std::string::npos);
}

TEST(Subprocess, ExtraEnvironmentReachesTheChild) {
  TempDir tmp;
  const std::string out = tmp.path + "/env.txt";
  SubprocessOptions options = ShellCommand("printf %s \"$EPVF_SUP_TEST_TOKEN\"");
  options.env = {"EPVF_SUP_TEST_TOKEN=sharded"};
  options.stdout_path = out;
  auto child = Subprocess::Spawn(options);
  ASSERT_TRUE(child.has_value());
  EXPECT_TRUE(child->Wait().Success());
  EXPECT_EQ(ReadFileOrEmpty(out), "sharded");
}

// --- RunShardSupervisor ------------------------------------------------------

SupervisorOptions FastSupervisor(int shards) {
  SupervisorOptions options;
  options.shards = shards;
  options.backoff_initial_seconds = 0.01;
  options.backoff_max_seconds = 0.05;
  options.poll_interval_seconds = 0.005;
  return options;
}

TEST(ShardSupervisor, AllShardsSucceedFirstTry) {
  SupervisorOptions options = FastSupervisor(3);
  options.command = [](int) { return ShellCommand("exit 0"); };
  const SupervisorResult result = RunShardSupervisor(options);
  ASSERT_EQ(result.shards.size(), 3u);
  EXPECT_TRUE(result.AllSucceeded());
  EXPECT_EQ(result.TotalRelaunches(), 0);
  for (const ShardOutcome& shard : result.shards) EXPECT_EQ(shard.launches, 1);
}

TEST(ShardSupervisor, DeadWorkerIsRelaunchedAndSucceeds) {
  TempDir tmp;
  // First attempt creates the marker and dies; the relaunch sees it and
  // succeeds — the shape of a worker resuming after a crash.
  const std::string marker = tmp.path + "/attempted";
  SupervisorOptions options = FastSupervisor(1);
  options.command = [&](int) {
    return ShellCommand("if [ -e " + marker + " ]; then exit 0; else touch " + marker +
                        "; exit 1; fi");
  };
  std::vector<std::string> events;
  options.on_event = [&](const std::string& message) { events.push_back(message); };
  const SupervisorResult result = RunShardSupervisor(options);
  EXPECT_TRUE(result.AllSucceeded());
  EXPECT_EQ(result.shards[0].launches, 2);
  EXPECT_EQ(result.TotalRelaunches(), 1);
  bool saw_death = false;
  bool saw_relaunch = false;
  for (const std::string& event : events) {
    saw_death = saw_death || event.find("exit 1") != std::string::npos;
    saw_relaunch = saw_relaunch || event.find("relaunch") != std::string::npos;
  }
  EXPECT_TRUE(saw_death);
  EXPECT_TRUE(saw_relaunch);
}

TEST(ShardSupervisor, HungWorkerIsKilledAtTheDeadlineAndRetried) {
  TempDir tmp;
  const std::string marker = tmp.path + "/attempted";
  SupervisorOptions options = FastSupervisor(1);
  options.shard_timeout_seconds = 0.2;
  // `exec` so the kill hits the sleeper itself — a forked sleep would
  // outlive its shell and keep the test harness's output pipe open.
  options.command = [&](int) {
    return ShellCommand("if [ -e " + marker + " ]; then exit 0; else touch " + marker +
                        "; exec sleep 1000; fi");
  };
  const SupervisorResult result = RunShardSupervisor(options);
  EXPECT_TRUE(result.AllSucceeded());
  EXPECT_EQ(result.shards[0].launches, 2);
  EXPECT_EQ(result.shards[0].timeouts, 1);
  EXPECT_LT(result.wall_seconds, 30.0) << "the deadline must fire long before sleep ends";
}

TEST(ShardSupervisor, RetryBudgetExhaustionIsReportedNotLoopedForever) {
  SupervisorOptions options = FastSupervisor(2);
  options.retries = 2;
  options.command = [](int shard) {
    // Shard 0 always dies; shard 1 is fine.
    return ShellCommand(shard == 0 ? "exit 9" : "exit 0");
  };
  const SupervisorResult result = RunShardSupervisor(options);
  EXPECT_FALSE(result.AllSucceeded());
  EXPECT_FALSE(result.shards[0].succeeded);
  EXPECT_EQ(result.shards[0].launches, 3) << "retries + 1 attempts, then give up";
  EXPECT_TRUE(result.shards[0].last_status.exited);
  EXPECT_EQ(result.shards[0].last_status.code, 9);
  EXPECT_TRUE(result.shards[1].succeeded);
}

TEST(ShardSupervisor, RejectsMissingCommandBuilder) {
  SupervisorOptions options = FastSupervisor(1);
  EXPECT_THROW((void)RunShardSupervisor(options), std::invalid_argument);
}

// --- end-to-end fault tolerance through the real binary ----------------------

struct CliResult {
  std::string stdout_text;
  int exit_code = -1;
};

CliResult RunCli(const std::string& args, const std::string& env = {}) {
  const std::string command = (env.empty() ? std::string() : "env " + env + " ") +
                              std::string(EPVF_CLI_PATH) + " " + args + " 2>/dev/null";
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

/// Captures the supervisor's stderr into a file — the relaunch/timeout
/// diagnostics live there, stdout stays the report.
CliResult RunCliStderr(const std::string& args, const std::string& env,
                       const std::string& stderr_path) {
  const std::string command = (env.empty() ? std::string() : "env " + env + " ") +
                              std::string(EPVF_CLI_PATH) + " " + args + " 2>" + stderr_path;
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

constexpr const char* kCampaignArgs = "campaign mm --scale 0 --runs 36 --seed 5 --jobs 1";

/// The merged campaign's plan entry bytes inside `dir` (exactly one
/// *.plan.epvfa, and no shard slice left behind after a successful merge).
std::string MergedArtifactBytes(const std::string& dir) {
  std::string found;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.find("-shard-"), std::string::npos)
        << "shard slice " << name << " must be removed after the merge";
    if (name.find(".plan.epvfa") == std::string::npos) continue;
    EXPECT_TRUE(found.empty()) << "more than one merged plan entry in " << dir;
    found = ReadFileOrEmpty(entry.path().string());
  }
  EXPECT_FALSE(found.empty()) << "no merged plan entry in " << dir;
  return found;
}

TEST(CampaignFaultTolerance, KilledWorkerResumesAndTheMergeIsByteIdentical) {
  TempDir baseline_dir;
  TempDir faulty_dir;
  TempDir scratch;

  const CliResult baseline = RunCli(std::string(kCampaignArgs) +
                                    " --shards 3 --cache-dir " + baseline_dir.path);
  ASSERT_EQ(baseline.exit_code, 0);

  // Small persist batches so the killed worker has progress to resume from;
  // the once-marker guarantees exactly one worker dies no matter how the
  // three race.
  const std::string stderr_path = scratch.path + "/kill.stderr";
  const CliResult faulty = RunCliStderr(
      std::string(kCampaignArgs) + " --shards 3 --cache-dir " + faulty_dir.path,
      "EPVF_PERSIST_EVERY=4 EPVF_TEST_WORKER_KILL_ONCE=" + scratch.path + "/kill.marker",
      stderr_path);
  ASSERT_EQ(faulty.exit_code, 0);

  EXPECT_EQ(faulty.stdout_text, baseline.stdout_text)
      << "a killed worker must not change the campaign report";
  EXPECT_EQ(MergedArtifactBytes(faulty_dir.path), MergedArtifactBytes(baseline_dir.path))
      << "the merged artifact must be byte-identical despite the SIGKILL";

  EXPECT_TRUE(fs::exists(scratch.path + "/kill.marker")) << "the kill hook never fired";
  const std::string diagnostics = ReadFileOrEmpty(stderr_path);
  EXPECT_NE(diagnostics.find("signal 9"), std::string::npos) << diagnostics;
  EXPECT_NE(diagnostics.find("relaunch"), std::string::npos) << diagnostics;
}

TEST(CampaignFaultTolerance, WedgedWorkerIsKilledByTheDeadlineAndResumed) {
  TempDir baseline_dir;
  TempDir faulty_dir;
  TempDir scratch;

  const CliResult baseline = RunCli(std::string(kCampaignArgs) +
                                    " --shards 3 --cache-dir " + baseline_dir.path);
  ASSERT_EQ(baseline.exit_code, 0);

  const std::string stderr_path = scratch.path + "/stall.stderr";
  const CliResult faulty = RunCliStderr(
      std::string(kCampaignArgs) + " --shards 3 --shard-timeout 2 --cache-dir " +
          faulty_dir.path,
      "EPVF_PERSIST_EVERY=4 EPVF_TEST_WORKER_STALL_ONCE=" + scratch.path + "/stall.marker",
      stderr_path);
  ASSERT_EQ(faulty.exit_code, 0);

  EXPECT_EQ(faulty.stdout_text, baseline.stdout_text)
      << "a wedged worker must not change the campaign report";
  EXPECT_EQ(MergedArtifactBytes(faulty_dir.path), MergedArtifactBytes(baseline_dir.path))
      << "the merged artifact must be byte-identical despite the hang";

  EXPECT_TRUE(fs::exists(scratch.path + "/stall.marker")) << "the stall hook never fired";
  const std::string diagnostics = ReadFileOrEmpty(stderr_path);
  EXPECT_NE(diagnostics.find("hung"), std::string::npos) << diagnostics;
  EXPECT_NE(diagnostics.find("relaunch"), std::string::npos) << diagnostics;
}

/// Pids of the live `epvf campaign` workers whose command line names
/// `cache_dir` (zombies count as ended).
std::vector<pid_t> LiveWorkers(const std::string& cache_dir) {
  std::vector<pid_t> pids;
  for (const auto& entry : fs::directory_iterator("/proc")) {
    const std::string name = entry.path().filename().string();
    if (name.find_first_not_of("0123456789") != std::string::npos) continue;
    const std::string cmdline = ReadFileOrEmpty(entry.path().string() + "/cmdline");
    if (cmdline.find("--worker-shard") == std::string::npos ||
        cmdline.find(cache_dir) == std::string::npos) {
      continue;
    }
    const std::string stat = ReadFileOrEmpty(entry.path().string() + "/stat");
    const std::size_t close = stat.rfind(')');
    if (close != std::string::npos && close + 2 < stat.size() && stat[close + 2] == 'Z') continue;
    pids.push_back(static_cast<pid_t>(std::stol(name)));
  }
  return pids;
}

TEST(CampaignFaultTolerance, WorkersDieWithAnInterruptedSupervisor) {
  // Workers run in their own process groups, so a terminal's Ctrl-C reaches
  // the supervisor alone; its death must still take every worker with it.
  TempDir cache_dir;
  TempDir scratch;
  SubprocessOptions command;
  command.argv = {EPVF_CLI_PATH, "campaign", "mm",       "--scale",     "0",
                  "--runs",      "36",       "--seed",   "5",           "--jobs",
                  "1",           "--shards", "3",        "--cache-dir", cache_dir.path};
  command.env = {"EPVF_PERSIST_EVERY=4",
                 "EPVF_TEST_WORKER_STALL_ONCE=" + scratch.path + "/stall.marker"};
  command.stdout_path = scratch.path + "/supervisor.log";
  command.stderr_path = command.stdout_path;
  std::optional<Subprocess> supervisor = Subprocess::Spawn(command);
  ASSERT_TRUE(supervisor.has_value());

  // Wait for a worker to wedge, then interrupt its supervisor the way a
  // terminal does: SIGINT to the supervisor's process group.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!fs::exists(scratch.path + "/stall.marker") &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(fs::exists(scratch.path + "/stall.marker")) << "no worker ever stalled";
  EXPECT_FALSE(LiveWorkers(cache_dir.path).empty()) << "the stalled worker is not running";
  supervisor->Kill(SIGINT);
  const ExitStatus status = supervisor->Wait();
  EXPECT_FALSE(status.exited);
  EXPECT_EQ(status.signal, SIGINT);

  std::vector<pid_t> survivors = LiveWorkers(cache_dir.path);
  for (int i = 0; i < 500 && !survivors.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    survivors = LiveWorkers(cache_dir.path);
  }
  EXPECT_TRUE(survivors.empty()) << survivors.size() << " worker(s) outlived the supervisor";
  for (const pid_t pid : survivors) ::kill(pid, SIGKILL);
}

}  // namespace
}  // namespace epvf::fi
