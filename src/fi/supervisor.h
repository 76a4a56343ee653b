// Crash-tolerant supervisor for sharded campaign workers.
//
// The supervisor turns N shard commands into N worker processes and babysits
// them to completion: a worker that dies (nonzero exit, SIGKILL, OOM) or
// hangs (no exit before its per-shard deadline) is killed if needed and
// relaunched with exponential backoff, up to a bounded number of launches.
// Relaunched workers are expected to resume from their slice's persisted
// completion mask — the supervisor itself is oblivious to what the workers
// compute; it only manages their lifecycle. Shards that exhaust their
// launch budget are reported failed; the caller decides whether to execute
// the leftover work itself (the campaign merge does exactly that).
//
// The loop is single-threaded: it polls children with non-blocking reaps on
// a short interval, which keeps the implementation free of SIGCHLD handler
// subtleties and makes the timeout bookkeeping trivial to reason about.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "support/subprocess.h"

namespace epvf::fi {

struct SupervisorOptions {
  int shards = 1;
  /// Seconds a single worker attempt may run before it is declared hung,
  /// killed, and relaunched. 0 = no deadline.
  double shard_timeout_seconds = 0;
  /// Relaunches allowed per shard after its first attempt; total attempts
  /// per shard = retries + 1.
  int retries = 2;
  /// Exponential-backoff delay before relaunch k: initial * 2^(k-1), capped.
  double backoff_initial_seconds = 0.25;
  double backoff_max_seconds = 8.0;
  /// Upper bound on one wait round. The loop blocks in a real readiness
  /// wait (`Subprocess::WaitAnyReady`) and wakes the instant a worker exits;
  /// this interval only bounds how late a timeout, backoff expiry, on_poll
  /// tick, or cancellation is noticed.
  double poll_interval_seconds = 0.02;

  /// argv for shard i's worker (argv[0] = executable path). Required.
  std::function<SubprocessOptions(int shard)> command;
  /// Optional lifecycle log sink (launch / death / timeout / give-up),
  /// invoked from the supervising thread. Messages are one line, no newline.
  std::function<void(const std::string& message)> on_event;
  /// Optional cooperative cancellation: checked once per loop round. When it
  /// returns true every running worker is killed and reaped, remaining work
  /// is abandoned, and the result carries cancelled = true. Workers persist
  /// their completion masks incrementally, so a cancelled campaign resumes.
  std::function<bool()> cancelled;
  /// Optional per-round callback (after reaping, before the wait) — the
  /// serve layer pumps progress snapshots to clients from here.
  std::function<void()> on_poll;
};

struct ShardOutcome {
  int launches = 0;        ///< attempts actually started
  int timeouts = 0;        ///< attempts killed for blowing the deadline
  bool succeeded = false;  ///< some attempt exited 0
  ExitStatus last_status;  ///< how the final attempt ended
};

struct SupervisorResult {
  std::vector<ShardOutcome> shards;
  double wall_seconds = 0;
  bool cancelled = false;  ///< the `cancelled` predicate ended the run early

  [[nodiscard]] bool AllSucceeded() const;
  [[nodiscard]] int TotalRelaunches() const;
};

/// Runs every shard to success or launch-budget exhaustion. Workers run
/// concurrently; the call returns when no shard is running or pending.
[[nodiscard]] SupervisorResult RunShardSupervisor(const SupervisorOptions& options);

}  // namespace epvf::fi
