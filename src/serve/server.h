// epvfd — the resident analysis daemon behind `epvf serve`.
//
// A Server listens on a Unix-domain socket, speaks epvf-wire-v1 (wire.h,
// docs/SERVE_PROTOCOL.md), and turns the one-shot CLI into a service: parsed
// ir modules and their core::Analysis results stay resident in memory across
// requests, so a warm `analyze` request skips parse + golden run + DDG
// entirely, and every job shares one artifact-store cache directory, where
// campaign plans and per-unit incremental state persist.
//
// Execution model:
//   - `analyze` runs in-process against the resident map and renders its
//     report through the same code as the local CLI (serve/render.h), so the
//     reply's stdout bytes are identical to a local run.
//   - `inject` / `campaign` re-exec the epvf binary as a supervised worker
//     (fi::RunShardSupervisor with one shard): a worker that dies is
//     relaunched and resumes from the shared cache's completion masks, so
//     daemon jobs keep the PR-5 crash-tolerance story. The worker's progress
//     snapshots are pumped to the client as kProgress frames while it runs;
//     its stdout/stderr are streamed back afterwards, then kDone.
//
// Scheduling: one bounded queue feeds `slots` executor threads. Admission
// past the bound is rejected with kError/kBusy + retry_after_ms
// (backpressure, never an unbounded queue). Among queued jobs the highest
// priority wins; ties rotate round-robin across client connections (one
// chatty client cannot starve the rest), FIFO within a client. Cancellation
// removes a queued job or kills a running job's worker; a client that
// disconnects implicitly cancels its jobs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace epvf::serve {

struct ServerOptions {
  std::string socket_path;
  /// Artifact-store directory shared by in-process incremental analyses and
  /// worker processes. Empty = a private mkdtemp directory, removed on Stop.
  std::string cache_dir;
  /// Executor threads — jobs running concurrently (this container has one
  /// core, so the default is serial).
  int slots = 1;
  /// Queued-job bound; admissions beyond it get kError/kBusy.
  int queue_limit = 16;
  /// Worker relaunch budget per inject/campaign job.
  int retries = 2;
  /// Cadence of kProgress frames while a worker runs.
  double progress_interval_seconds = 0.25;
  /// SO_SNDTIMEO on accepted sockets: a client that stops reading fails its
  /// next frame after this bound and is latched closed, so a hostile peer
  /// can stall only its own connection, never a daemon thread.
  int send_timeout_seconds = 10;
  /// The epvf binary to re-exec for inject/campaign workers.
  std::string exe_path;
  /// Optional one-line diagnostics sink (connection lifecycle, job events).
  std::function<void(const std::string& message)> on_event;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  /// Stops (see Stop) if still running.
  ~Server();

  /// Binds the socket and starts the accept/executor threads. False (with a
  /// message via on_event) when the socket or cache directory cannot be set
  /// up.
  [[nodiscard]] bool Start();

  /// Blocks until a kShutdown request or RequestStop. Does not tear down —
  /// call Stop afterwards (the split keeps Stop off the reader threads,
  /// which Stop joins).
  void Wait();

  /// Async-signal-safe shutdown trigger: unblocks Wait. Safe from a signal
  /// handler (one atomic store).
  void RequestStop();

  /// Full teardown: closes the socket, fails queued jobs with
  /// kShuttingDown, kills running workers (their partial state stays in the
  /// cache, so resubmitted campaigns resume), joins every thread, removes a
  /// private cache directory. Idempotent.
  void Stop();

  [[nodiscard]] const std::string& cache_dir() const;
  [[nodiscard]] const std::string& socket_path() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace epvf::serve
