// Child-process spawning with non-blocking reaping — the supervisor layer
// under sharded campaigns.
//
// A sharded campaign runs each shard in its own worker process, and the
// supervisor must observe three distinct endings: a clean exit, a death (a
// nonzero exit or a signal like SIGKILL from the OOM killer), and a hang
// (no progress until a deadline passes). Subprocess wraps the POSIX
// fork/execve/waitpid triple behind that contract: Spawn never blocks, Poll
// reaps without waiting, and Kill + Wait tear a wedged child down — the
// child runs in its own process group, which Kill signals as a whole, and it
// is SIGKILLed if the spawning thread dies first. Extra
// environment variables and stdout/stderr redirection cover the worker
// plumbing (per-shard log files, progress-snapshot paths) without touching
// the parent's streams.
#pragma once

#include <sys/types.h>

#include <optional>
#include <string>
#include <vector>

namespace epvf {

/// How a child ended.
struct ExitStatus {
  bool exited = false;  ///< true = normal exit (code), false = killed by signal
  int code = -1;        ///< exit code when `exited`
  int signal = 0;       ///< terminating signal when `!exited`

  [[nodiscard]] bool Success() const { return exited && code == 0; }
  /// "exit 3" or "signal 9" — for diagnostics.
  [[nodiscard]] std::string Describe() const;
};

struct SubprocessOptions {
  std::vector<std::string> argv;  ///< argv[0] is the executable path
  /// Extra NAME=VALUE pairs appended to the parent's environment (later
  /// entries win over inherited ones for most libcs' getenv).
  std::vector<std::string> env;
  /// Redirection targets (created/truncated). Empty = inherit the parent's
  /// stream. Both may name the same file (they then share one descriptor,
  /// so writes interleave without clobbering).
  std::string stdout_path;
  std::string stderr_path;
};

class Subprocess {
 public:
  /// Forks and execs. std::nullopt (after a logged warning) if the fork or a
  /// redirection file fails; an exec failure surfaces as exit code 127 from
  /// Poll/Wait.
  [[nodiscard]] static std::optional<Subprocess> Spawn(const SubprocessOptions& options);

  Subprocess(Subprocess&& other) noexcept;
  Subprocess& operator=(Subprocess&& other) noexcept;
  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;
  /// An unreaped child is killed and reaped — destruction never leaks a
  /// zombie or leaves a stray worker running.
  ~Subprocess();

  /// Non-blocking reap: std::nullopt while the child runs, the final status
  /// once it ended (idempotent afterwards).
  [[nodiscard]] std::optional<ExitStatus> Poll();

  /// Poll with a real readiness wait: blocks until the child ends or
  /// `timeout_seconds` elapse, whichever comes first, then reaps like Poll.
  /// Uses pidfd_open + poll(2) so the wait ends the instant the child exits
  /// (no sleep quantum); on kernels without pidfd support it degrades to a
  /// bounded sleep-poll loop. timeout_seconds <= 0 behaves like Poll().
  [[nodiscard]] std::optional<ExitStatus> PollWithDeadline(double timeout_seconds);

  /// Waits until at least one of `children` is ready to reap or the timeout
  /// elapses. Returns the index of a ready child (its Poll will not return
  /// nullopt), or -1 on timeout / when every child is already reaped. Null
  /// and already-reaped entries are skipped — callers can pass their full
  /// roster each round. One poll(2) over pidfds; same sleep-poll fallback.
  [[nodiscard]] static int WaitAnyReady(const std::vector<Subprocess*>& children,
                                        double timeout_seconds);

  /// Blocks until the child ends.
  ExitStatus Wait();

  /// Sends `signal` (default SIGKILL) to the child's process group — the
  /// child and every process it spawned. The child still must be reaped via
  /// Poll/Wait. No-op after the child was reaped.
  void Kill(int signal = 9);

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] bool reaped() const { return status_.has_value(); }

 private:
  Subprocess() = default;

  pid_t pid_ = -1;
  std::optional<ExitStatus> status_;
};

}  // namespace epvf
