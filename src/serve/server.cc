#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "apps/app.h"
#include "epvf/analysis.h"
#include "epvf/compose.h"
#include "epvf/reexec.h"
#include "fi/supervisor.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "serve/render.h"
#include "serve/wire.h"
#include "store/cache.h"
#include "store/units_store.h"
#include "support/subprocess.h"

namespace epvf::serve {

namespace {

/// One accepted socket. Job threads and the reader thread both write frames,
/// so every send serializes on the write mutex; a failed send (including one
/// that hits the socket's bounded send timeout — a peer that stops reading)
/// latches the connection closed. The fd is owned by the write mutex too:
/// Close() nulls it under the lock, so no send can race a close or write to
/// a recycled descriptor number.
struct Connection {
  int fd = -1;  ///< −1 once closed; mutated only under write_mutex
  std::uint64_t id = 0;
  std::mutex write_mutex;
  std::atomic<bool> open{true};

  /// Send with write_mutex already held (see HandleRun's admission ack).
  bool SendLocked(FrameType type, std::string_view payload) {
    if (fd < 0 || !open.load(std::memory_order_relaxed)) return false;
    if (!WriteFrame(fd, type, payload)) {
      open.store(false, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  bool Send(FrameType type, std::string_view payload) {
    const std::lock_guard<std::mutex> lock(write_mutex);
    return SendLocked(type, payload);
  }

  void Close() {
    open.store(false);
    const std::lock_guard<std::mutex> lock(write_mutex);
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }

  bool SendError(ErrorCode code, std::string message, std::uint32_t retry_after_ms = 0) {
    return Send(FrameType::kError, EncodeErrorReply(ErrorReply{
                                       .code = code,
                                       .retry_after_ms = retry_after_ms,
                                       .message = std::move(message)}));
  }
};

struct Job {
  std::uint64_t id = 0;
  std::uint32_t priority = 0;
  std::shared_ptr<Connection> conn;
  std::vector<std::string> args;  ///< {command, target, --flag, value, ...}
  std::atomic<bool> cancel{false};
  bool running = false;  ///< under the scheduler mutex
};

/// How an executed job ended; ExecutorLoop turns this into exactly one
/// counter increment (completed or cancelled) after the job finishes.
enum class JobOutcome { kCompleted, kCancelled };

/// An executed job's outcome and its terminal frame (kDone or kError), which
/// Execute returns unsent: ExecutorLoop counts the job first, so a client
/// that has seen its job end finds it in status and metrics.
struct JobEnd {
  JobOutcome outcome = JobOutcome::kCompleted;
  FrameType type = FrameType::kDone;
  std::string payload;

  static JobEnd Done(std::uint64_t exit_code) {
    return JobEnd{.outcome = JobOutcome::kCompleted,
                  .type = FrameType::kDone,
                  .payload = EncodeU64(exit_code)};
  }
  static JobEnd Error(ErrorCode code, std::string message) {
    return JobEnd{.outcome = code == ErrorCode::kCancelled ? JobOutcome::kCancelled
                                                           : JobOutcome::kCompleted,
                  .type = FrameType::kError,
                  .payload = EncodeErrorReply(ErrorReply{
                      .code = code, .retry_after_ms = 0, .message = std::move(message)})};
  }
};

/// A target keeps its latest module and analysis resident; the analysis
/// holds pointers into the module, so the module lives at a stable address in
/// the same entry. Construction runs the analysis — with guaranteed elision
/// the result is built in place, never moved. Executors render a shared entry
/// concurrently; the first render fills the analysis's cached walk sums (a
/// fill that is safe under concurrent readers), outside resident_mutex.
struct Resident {
  std::unique_ptr<ir::Module> module;
  std::uint64_t fingerprint = 0;  ///< store::ModuleFingerprint of `module`
  core::Analysis analysis;

  Resident(std::unique_ptr<ir::Module> owned, std::uint64_t module_fingerprint,
           const core::AnalysisOptions& opts)
      : module(std::move(owned)),
        fingerprint(module_fingerprint),
        analysis(core::Analysis::Run(*module, opts)) {}
};

/// The resident compositional state behind `analyze --incremental`: the
/// latest analyzed module plus its per-unit slices, kept warm across
/// requests so an edited module usually costs one unit replay instead of a
/// whole-program run. The slices hold pointers into `module`, which
/// therefore lives at a stable address in the same entry.
struct ResidentUnits {
  std::unique_ptr<ir::Module> module;
  core::ProgramSlices slices;
};

/// Per-command flag vocabulary the daemon accepts. Cache, observability, and
/// client plumbing flags are deliberately absent: the daemon owns the cache
/// directory and its own sinks, and a request carrying them is malformed.
const std::map<std::string, std::set<std::string>>& WorkerFlags() {
  static const std::map<std::string, std::set<std::string>> allowed = {
      {"analyze", {"scale", "jobs", "incremental"}},
      {"inject",
       {"scale", "runs", "jitter", "burst", "seed", "jobs", "checkpoints", "plan", "ci-target",
        "max-runs", "scenario"}},
      {"campaign",
       {"scale", "runs", "jitter", "burst", "seed", "jobs", "checkpoints", "plan", "ci-target",
        "max-runs", "shards", "shard-timeout", "shard-retries", "scenario"}},
  };
  return allowed;
}

std::string JoinArgs(const std::vector<std::string>& args) {
  std::string out;
  for (const std::string& arg : args) {
    if (!out.empty()) out += ' ';
    out += arg;
  }
  return out;
}

std::string ReadFileText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

}  // namespace

struct Server::Impl {
  explicit Impl(ServerOptions opts) : options(std::move(opts)) {}

  ServerOptions options;
  std::string cache_dir;
  bool private_cache_dir = false;
  std::string jobs_dir;
  int listen_fd = -1;
  std::optional<store::ArtifactCache> cache;

  std::atomic<bool> stop{false};
  std::atomic<bool> stop_requested{false};
  bool started = false;
  bool stopped = false;

  std::thread accept_thread;
  std::vector<std::thread> executors;

  std::mutex conn_mutex;
  std::vector<std::shared_ptr<Connection>> connections;
  std::vector<std::thread> readers;
  std::uint64_t next_client_id = 1;

  // Scheduler state — everything below sched_mutex.
  std::mutex sched_mutex;
  std::condition_variable sched_cv;
  std::deque<std::shared_ptr<Job>> queue;
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs;  ///< queued + running, by id
  std::uint64_t next_job_id = 1;
  std::uint64_t last_client_served = 0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t rejected = 0;

  // Resident analyses keyed by store::CacheId(ManifestKey) — target, scale
  // and options, not the module fingerprint — so each target holds one entry,
  // which an edit of its .ir file replaces. Executors render from their own
  // reference, so a replacement never frees an analysis being rendered.
  std::mutex resident_mutex;
  std::map<std::string, std::shared_ptr<const Resident>> resident;

  // Resident compositional states keyed by store::CacheId(ManifestKey) — the
  // module fingerprint is deliberately absent from that key, so an edited .ir
  // target lands on its *existing* entry and replays incrementally against it.
  std::mutex units_mutex;
  std::map<std::string, std::unique_ptr<ResidentUnits>> resident_units;

  void Emit(const std::string& message) {
    if (options.on_event) options.on_event(message);
  }

  // --- request admission (reader threads) ---------------------------------

  void HandleRun(const std::shared_ptr<Connection>& conn, const Frame& frame) {
    obs::GetCounter("serve.requests.run").Add();
    const std::optional<RunRequest> request = DecodeRunRequest(frame.payload);
    if (!request.has_value()) {
      conn->SendError(ErrorCode::kBadRequest, "malformed run payload");
      return;
    }
    if (request->args.size() < 2 || request->args[1].empty() || request->args[1][0] == '-') {
      conn->SendError(ErrorCode::kBadRequest, "run needs a command and a target");
      return;
    }
    const auto allowed = WorkerFlags().find(request->args[0]);
    if (allowed == WorkerFlags().end()) {
      conn->SendError(ErrorCode::kBadRequest, "unsupported command '" + request->args[0] + "'");
      return;
    }
    for (std::size_t i = 2; i < request->args.size(); i += 2) {
      const std::string& flag = request->args[i];
      if (flag.rfind("--", 0) != 0 || allowed->second.count(flag.substr(2)) == 0) {
        conn->SendError(ErrorCode::kBadRequest,
                        "flag '" + flag + "' is not accepted for '" + request->args[0] +
                            "' over the wire");
        return;
      }
      if (i + 1 >= request->args.size()) {
        conn->SendError(ErrorCode::kBadRequest, "flag '" + flag + "' is missing its value");
        return;
      }
    }

    auto job = std::make_shared<Job>();
    job->priority = request->priority;
    job->conn = conn;
    job->args = request->args;
    std::optional<ErrorReply> reject;
    {
      // Ack-before-results ordering without a socket write under sched_mutex:
      // the connection's write lock is held across admission, sched_mutex is
      // released, and only then is the ack written. Executors serialize their
      // result frames on the same write lock, so none can precede the ack —
      // and a peer that stops reading stalls only its own connection, never
      // the scheduler. Lock order is write_mutex → sched_mutex everywhere.
      const std::lock_guard<std::mutex> write_lock(conn->write_mutex);
      {
        const std::lock_guard<std::mutex> lock(sched_mutex);
        if (stop.load()) {
          reject = ErrorReply{.code = ErrorCode::kShuttingDown,
                              .retry_after_ms = 0,
                              .message = "daemon is shutting down"};
        } else if (queue.size() >= static_cast<std::size_t>(options.queue_limit)) {
          // Backpressure: reject with a hint proportional to the backlog so a
          // polite client's retries spread out as the queue deepens.
          rejected += 1;
          obs::GetCounter("serve.rejected.busy").Add();
          reject = ErrorReply{
              .code = ErrorCode::kBusy,
              .retry_after_ms = static_cast<std::uint32_t>(100 * (1 + queue.size())),
              .message = "queue full (" + std::to_string(queue.size()) + " jobs)"};
        } else {
          job->id = next_job_id++;
          queue.push_back(job);
          jobs[job->id] = job;
        }
      }
      if (reject.has_value()) {
        conn->SendLocked(FrameType::kError, EncodeErrorReply(*reject));
        return;
      }
      // A failed ack latches the connection closed; the orphan sweep in
      // PickJobLocked reaps the job instead of running it for nobody.
      conn->SendLocked(FrameType::kAck, EncodeU64(job->id));
    }
    sched_cv.notify_one();
  }

  void HandleCancel(const std::shared_ptr<Connection>& conn, const Frame& frame) {
    obs::GetCounter("serve.requests.cancel").Add();
    const std::optional<std::uint64_t> id = DecodeU64(frame.payload);
    if (!id.has_value()) {
      conn->SendError(ErrorCode::kBadRequest, "malformed cancel payload");
      return;
    }
    bool found = false;
    std::shared_ptr<Job> victim;  // keeps the Job alive past the map erase
    {
      const std::lock_guard<std::mutex> lock(sched_mutex);
      const auto it = jobs.find(*id);
      if (it != jobs.end()) {
        found = true;
        const std::shared_ptr<Job> job = it->second;
        job->cancel.store(true);
        // A queued job dies right here; a running one is reaped by its
        // executor once the supervisor observes the flag and kills the
        // worker (the executor sends the terminal kError to the owner).
        if (!job->running) {
          DropQueuedLocked(job);
          victim = job;
        }
      }
    }
    if (victim != nullptr) SendJobError(*victim, ErrorCode::kCancelled);
    if (found) {
      conn->Send(FrameType::kDone, EncodeU64(0));
    } else {
      conn->SendError(ErrorCode::kUnknownJob, "no job " + std::to_string(*id));
    }
  }

  void HandleStatus(const std::shared_ptr<Connection>& conn) {
    obs::GetCounter("serve.requests.status").Add();
    std::ostringstream out;
    {
      const std::lock_guard<std::mutex> lock(sched_mutex);
      out << "serve: " << options.socket_path << "\n"
          << "slots " << options.slots << " | queued " << queue.size() << "/"
          << options.queue_limit << " | completed " << completed << " | cancelled " << cancelled
          << " | rejected " << rejected << "\n";
      for (const auto& [id, job] : jobs) {
        out << "job " << id << " " << (job->running ? "running" : "queued") << " priority "
            << job->priority << " client " << job->conn->id << " | " << JoinArgs(job->args)
            << "\n";
      }
    }
    conn->Send(FrameType::kStatusReport, out.str());
  }

  void HandleMetrics(const std::shared_ptr<Connection>& conn) {
    obs::GetCounter("serve.requests.metrics").Add();
    conn->Send(FrameType::kMetricsReport, obs::MetricsRegistry::Global().ToJson());
  }

  void HandleShutdown(const std::shared_ptr<Connection>& conn) {
    Emit("shutdown requested by client " + std::to_string(conn->id));
    conn->Send(FrameType::kDone, EncodeU64(0));
    stop_requested.store(true);
    sched_cv.notify_all();
  }

  // --- connection lifecycle -----------------------------------------------

  void ReaderLoop(const std::shared_ptr<Connection>& conn) {
    while (!stop.load()) {
      Frame frame;
      const ReadStatus status = ReadFrame(conn->fd, &frame);
      if (status == ReadStatus::kClosed) break;
      if (status != ReadStatus::kOk) {
        // Malformed framing: name the violation in an error frame (best
        // effort — the peer may already be gone) and drop the connection.
        // The daemon itself never crashes on hostile bytes.
        obs::GetCounter("serve.protocol_errors").Add();
        Emit("client " + std::to_string(conn->id) + ": " + std::string(ReadStatusName(status)));
        if (status != ReadStatus::kIoError) {
          conn->SendError(ErrorCode::kBadRequest, std::string(ReadStatusName(status)));
        }
        break;
      }
      switch (frame.type) {
        case FrameType::kRun: HandleRun(conn, frame); break;
        case FrameType::kCancel: HandleCancel(conn, frame); break;
        case FrameType::kStatus: HandleStatus(conn); break;
        case FrameType::kMetrics: HandleMetrics(conn); break;
        case FrameType::kShutdown: HandleShutdown(conn); break;
        default:
          obs::GetCounter("serve.protocol_errors").Add();
          conn->SendError(ErrorCode::kBadRequest,
                          "unknown frame type " +
                              std::to_string(static_cast<std::uint32_t>(frame.type)));
          break;
      }
    }
    conn->open.store(false);
    // A vanished client implicitly cancels its outstanding jobs: there is
    // nobody left to stream results to.
    {
      const std::lock_guard<std::mutex> lock(sched_mutex);
      for (auto& [id, job] : jobs) {
        if (job->conn == conn) job->cancel.store(true);
      }
    }
    // Close under the write mutex (inside Close): an executor mid-Send on
    // this fd finishes or times out first, so the descriptor number can
    // never be recycled under a concurrent WriteFrame.
    conn->Close();
  }

  void AcceptLoop() {
    while (!stop.load()) {
      struct pollfd pfd = {.fd = listen_fd, .events = POLLIN, .revents = 0};
      const int r = ::poll(&pfd, 1, 100);
      if (r <= 0) continue;
      const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
      if (fd < 0) continue;
      // Bounded sends: a peer that stops reading makes its next send fail
      // after the timeout (WriteFrame treats EAGAIN as fatal), latching that
      // one connection closed instead of wedging whichever thread holds its
      // write mutex forever.
      struct timeval send_timeout;
      send_timeout.tv_sec = static_cast<time_t>(options.send_timeout_seconds);
      send_timeout.tv_usec = 0;
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout, sizeof send_timeout);
      auto conn = std::make_shared<Connection>();
      conn->fd = fd;
      {
        const std::lock_guard<std::mutex> lock(conn_mutex);
        conn->id = next_client_id++;
        connections.push_back(conn);
        readers.emplace_back([this, conn] { ReaderLoop(conn); });
      }
      obs::GetCounter("serve.connections").Add();
    }
  }

  // --- scheduling (executor threads) --------------------------------------

  /// Forgets a still-queued job and counts it cancelled. Caller holds
  /// sched_mutex, keeps its own shared_ptr (erasing here drops the queue's
  /// and the map's references), and sends the terminal error via SendJobError
  /// only after releasing the lock — the scheduler never blocks on a socket.
  void DropQueuedLocked(const std::shared_ptr<Job>& job) {
    for (auto it = queue.begin(); it != queue.end(); ++it) {
      if ((*it)->id != job->id) continue;
      queue.erase(it);
      break;
    }
    jobs.erase(job->id);
    cancelled += 1;
    obs::GetCounter("serve.jobs.cancelled").Add();
  }

  /// The terminal error frame for a job that never ran. Caller must NOT hold
  /// sched_mutex (the send can block on a slow peer until the send timeout).
  static void SendJobError(const Job& job, ErrorCode code) {
    if (!job.conn->open.load()) return;
    job.conn->SendError(code, "job " + std::to_string(job.id) + " " +
                                  (code == ErrorCode::kCancelled ? "cancelled" : "dropped"));
  }

  /// Highest priority wins; ties rotate round-robin across clients (FIFO
  /// within a client, the queue is in admission order). Cancelled and
  /// orphaned jobs are dropped into `dead` for the caller to fail once the
  /// lock is released. Caller holds sched_mutex.
  std::shared_ptr<Job> PickJobLocked(std::vector<std::shared_ptr<Job>>* dead) {
    for (auto it = queue.begin(); it != queue.end();) {
      if ((*it)->cancel.load() || !(*it)->conn->open.load()) {
        std::shared_ptr<Job> job = *it;
        it = queue.erase(it);
        jobs.erase(job->id);
        cancelled += 1;
        obs::GetCounter("serve.jobs.cancelled").Add();
        dead->push_back(std::move(job));
        continue;
      }
      ++it;
    }
    if (queue.empty()) return nullptr;

    std::uint32_t best = 0;
    for (const auto& job : queue) best = std::max(best, job->priority);
    std::map<std::uint64_t, std::size_t> earliest;  // client id -> queue index
    for (std::size_t i = 0; i < queue.size(); ++i) {
      if (queue[i]->priority != best) continue;
      earliest.emplace(queue[i]->conn->id, i);  // first hit = earliest (FIFO order)
    }
    auto pick = earliest.upper_bound(last_client_served);
    if (pick == earliest.end()) pick = earliest.begin();
    last_client_served = pick->first;
    std::shared_ptr<Job> job = queue[pick->second];
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(pick->second));
    job->running = true;
    return job;
  }

  void ExecutorLoop() {
    while (true) {
      std::shared_ptr<Job> job;
      std::vector<std::shared_ptr<Job>> dead;
      {
        std::unique_lock<std::mutex> lock(sched_mutex);
        sched_cv.wait(lock, [this] { return stop.load() || !queue.empty(); });
        if (stop.load()) break;
        job = PickJobLocked(&dead);
      }
      for (const std::shared_ptr<Job>& d : dead) SendJobError(*d, ErrorCode::kCancelled);
      if (job == nullptr) continue;
      const JobEnd end = Execute(*job);
      // All completion accounting lands here, after the job finished and
      // before its terminal frame goes out: a concurrent status request never
      // sees a half-updated counter, each executed job increments exactly one
      // of completed/cancelled, and a client that has read the terminal frame
      // finds the job counted. The frame is sent after sched_mutex is
      // released, like every other send.
      {
        const std::lock_guard<std::mutex> lock(sched_mutex);
        jobs.erase(job->id);
        if (end.outcome == JobOutcome::kCancelled) {
          cancelled += 1;
        } else {
          completed += 1;
        }
      }
      obs::GetCounter(end.outcome == JobOutcome::kCancelled ? "serve.jobs.cancelled"
                                                            : "serve.jobs.completed")
          .Add();
      job->conn->Send(end.type, end.payload);
    }
  }

  // --- job execution ------------------------------------------------------

  static std::string FlagValue(const std::vector<std::string>& args, const std::string& flag,
                               const std::string& fallback) {
    for (std::size_t i = 2; i + 1 < args.size(); i += 2) {
      if (args[i] == "--" + flag) return args[i + 1];
    }
    return fallback;
  }

  /// The resident analysis of (target, scale), built on first use and
  /// rebuilt when the target's module changed. Throws on an unknown
  /// benchmark / unreadable file, like the CLI's loader.
  std::shared_ptr<const Resident> EnsureResident(const std::string& target, int scale,
                                                 int jobs, bool* hit) {
    auto module = std::make_unique<ir::Module>(apps::LoadTarget(target, scale));
    core::AnalysisOptions opts;
    opts.jobs = jobs;
    const store::AnalysisKey key = store::MakeAnalysisKey(target, scale, *module, opts);

    const std::lock_guard<std::mutex> lock(resident_mutex);
    std::shared_ptr<const Resident>& slot = resident[store::CacheId(store::ManifestKey{key})];
    *hit = slot != nullptr && slot->fingerprint == key.module_fingerprint;
    obs::GetCounter(*hit ? "serve.analyze.resident_hits" : "serve.analyze.resident_misses")
        .Add();
    if (!*hit) {
      slot = std::make_shared<const Resident>(std::move(module), key.module_fingerprint, opts);
    }
    return slot;
  }

  /// Runs `job`, streaming its output frames, and returns its terminal
  /// frame unsent (JobEnd).
  JobEnd Execute(Job& job) {
    if (job.cancel.load() || !job.conn->open.load()) return CancelledEnd(job);
    if (job.args[0] == "analyze") return ExecuteAnalyze(job);
    return ExecuteWorker(job);
  }

  static JobEnd CancelledEnd(const Job& job) {
    return JobEnd::Error(ErrorCode::kCancelled, "job " + std::to_string(job.id) + " cancelled");
  }

  JobEnd ExecuteAnalyze(Job& job) {
    const int scale = std::atoi(FlagValue(job.args, "scale", "1").c_str());
    const int jobs_flag = std::atoi(FlagValue(job.args, "jobs", "0").c_str());
    if (FlagValue(job.args, "incremental", "0") != "0") {
      return ExecuteAnalyzeIncremental(job, scale, jobs_flag);
    }
    try {
      bool hit = false;
      const auto start = std::chrono::steady_clock::now();
      const std::shared_ptr<const Resident> entry =
          EnsureResident(job.args[1], scale, jobs_flag, &hit);
      std::ostringstream out;
      RenderAnalyzeReport(entry->analysis, out);
      const double ms =
          std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
              .count();
      char note[160];
      std::snprintf(note, sizeof note, "serve: analysis %s (%s, %.2f ms)\n",
                    job.args[1].c_str(), hit ? "resident" : "computed", ms);
      job.conn->Send(FrameType::kStdout, out.str());
      job.conn->Send(FrameType::kStderr, note);
      return JobEnd::Done(0);
    } catch (const std::exception& error) {
      return JobEnd::Error(ErrorCode::kBadRequest, error.what());
    }
  }

  /// `analyze --incremental` on the daemon: re-analyze against the resident
  /// unit map. An unchanged or one-unit-edited module is served by replay
  /// against the in-memory state (no parse-to-pipeline round trip); any
  /// fallback rebuilds through the per-unit disk cache. Stdout is rendered
  /// from the composed stats, so it is byte-identical to a local
  /// `epvf analyze --incremental` — and to a plain `epvf analyze`.
  JobEnd ExecuteAnalyzeIncremental(Job& job, int scale, int jobs_flag) {
    try {
      const auto start = std::chrono::steady_clock::now();
      auto module = std::make_unique<ir::Module>(apps::LoadTarget(job.args[1], scale));
      core::AnalysisOptions opts;
      opts.jobs = jobs_flag;
      const store::AnalysisKey key = store::MakeAnalysisKey(job.args[1], scale, *module, opts);
      const std::string id = store::CacheId(store::ManifestKey{key});

      const std::lock_guard<std::mutex> lock(units_mutex);
      std::unique_ptr<ResidentUnits>& slot = resident_units[id];
      const char* mode = "cold";
      std::uint32_t replayed = 0;
      std::uint32_t total = 0;
      if (slot != nullptr) {
        const core::IncrementalOutcome outcome =
            core::ReanalyzeIncremental(slot->slices, *module, jobs_flag);
        total = outcome.units_total;
        if (outcome.used_fast_path) {
          // The slices now describe the new module — adopt it (the old one
          // dies with the swap; unchanged units never referenced it by
          // pointer, only the slices' module field does).
          slot->module = std::move(module);
          replayed = outcome.units_replayed;
          mode = replayed == 0 ? "resident warm" : "resident replay";
          obs::GetCounter("serve.analyze.incremental_fast_path").Add();
          // Keep the disk cache tracking the resident state, so a daemon
          // restart (or a local CLI against the same cache) starts warm.
          store::PersistCompositionalState(slot->slices, *slot->module, key, *cache);
        } else {
          obs::GetCounter("serve.analyze.incremental_fallbacks").Add();
          slot = nullptr;  // stale state — rebuild below
        }
      }
      if (slot == nullptr) {
        auto entry = std::make_unique<ResidentUnits>();
        entry->module = std::move(module);
        store::IncrementalResult result =
            store::RunAnalysisIncremental(*entry->module, opts, key, *cache);
        entry->slices = std::move(result.slices);
        total = result.stats.units_total;
        replayed = result.stats.unit_misses;
        if (!result.stats.cold_rebuild) mode = "disk cache";
        obs::GetCounter("serve.analyze.incremental_rebuilds").Add();
        slot = std::move(entry);
      }

      std::ostringstream out;
      RenderAnalyzeReport(core::ComposeProgram(slot->slices), out);
      const double ms =
          std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
              .count();
      char note[200];
      std::snprintf(note, sizeof note,
                    "serve: incremental analysis %s (%s, %u of %u units recomputed, %.2f ms)\n",
                    job.args[1].c_str(), mode, replayed, total, ms);
      job.conn->Send(FrameType::kStdout, out.str());
      job.conn->Send(FrameType::kStderr, note);
      return JobEnd::Done(0);
    } catch (const std::exception& error) {
      return JobEnd::Error(ErrorCode::kBadRequest, error.what());
    }
  }

  JobEnd ExecuteWorker(Job& job) {
    // The worker runs its own analysis (recomputing is cheaper than loading
    // a stored one), so only the target is checked here: a bad one fails
    // cheaply instead of through worker relaunch exhaustion.
    try {
      const int scale = std::atoi(FlagValue(job.args, "scale", "1").c_str());
      (void)apps::LoadTarget(job.args[1], scale);
    } catch (const std::exception& error) {
      return JobEnd::Error(ErrorCode::kBadRequest, error.what());
    }

    const std::string base = jobs_dir + "/job-" + std::to_string(job.id);
    const std::string out_path = base + ".out";
    const std::string err_path = base + ".err";
    const std::string progress_path = base + ".progress";

    fi::SupervisorOptions sup;
    sup.shards = 1;
    sup.retries = options.retries;
    sup.command = [&](int) {
      SubprocessOptions cmd;
      cmd.argv.push_back(options.exe_path);
      for (const std::string& arg : job.args) cmd.argv.push_back(arg);
      cmd.argv.push_back("--cache-dir");
      cmd.argv.push_back(cache_dir);
      cmd.env = {"EPVF_PROGRESS=0", "EPVF_PROGRESS_FILE=" + progress_path, "EPVF_TRACE=0",
                 "EPVF_CACHE_DIR="};
      cmd.stdout_path = out_path;
      cmd.stderr_path = err_path;
      return cmd;
    };
    sup.on_event = [&](const std::string& message) {
      Emit("job " + std::to_string(job.id) + ": " + message);
    };
    sup.cancelled = [&] { return stop.load() || job.cancel.load(); };

    // Progress pump: forward the worker's epvf-progress-v1 snapshots as
    // kProgress frames whenever the published file changes.
    std::string last_progress;
    auto last_pump = std::chrono::steady_clock::now();
    sup.on_poll = [&] {
      const auto now = std::chrono::steady_clock::now();
      if (std::chrono::duration<double>(now - last_pump).count() <
          options.progress_interval_seconds) {
        return;
      }
      last_pump = now;
      std::string text = ReadFileText(progress_path);
      if (text.empty() || text == last_progress) return;
      if (!obs::ParseProgressSnapshot(text).has_value()) return;
      last_progress = std::move(text);
      job.conn->Send(FrameType::kProgress, last_progress);
    };

    const fi::SupervisorResult result = fi::RunShardSupervisor(sup);
    JobEnd end = CancelledEnd(job);
    if (!result.cancelled) {
      const fi::ShardOutcome& outcome = result.shards[0];
      const std::string out_text = ReadFileText(out_path);
      const std::string err_text = ReadFileText(err_path);
      if (!out_text.empty()) job.conn->Send(FrameType::kStdout, out_text);
      if (!err_text.empty()) job.conn->Send(FrameType::kStderr, err_text);
      end = JobEnd::Done(
          outcome.succeeded ? 0 : (outcome.last_status.exited ? outcome.last_status.code : 1));
    }
    std::error_code ec;
    for (const std::string& path : {out_path, err_path, progress_path}) {
      std::filesystem::remove(path, ec);
    }
    return end;
  }
};

Server::Server(ServerOptions options) : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() { Stop(); }

const std::string& Server::cache_dir() const { return impl_->cache_dir; }
const std::string& Server::socket_path() const { return impl_->options.socket_path; }

bool Server::Start() {
  Impl& im = *impl_;
  if (im.started) return false;

  im.cache_dir = im.options.cache_dir;
  if (im.cache_dir.empty()) {
    std::string pattern = (std::filesystem::temp_directory_path() / "epvf-serve-XXXXXX").string();
    char* made = ::mkdtemp(pattern.data());
    if (made == nullptr) {
      im.Emit("cannot create a private cache directory");
      return false;
    }
    im.cache_dir = made;
    im.private_cache_dir = true;
  }
  {
    std::string pattern =
        (std::filesystem::temp_directory_path() / "epvf-serve-jobs-XXXXXX").string();
    char* made = ::mkdtemp(pattern.data());
    if (made == nullptr) {
      im.Emit("cannot create a job spool directory");
      return false;
    }
    im.jobs_dir = made;
  }
  im.cache.emplace(im.cache_dir);
  if (!im.cache->enabled()) {
    im.Emit("cache directory " + im.cache_dir + " is unusable");
    return false;
  }

  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  if (im.options.socket_path.size() >= sizeof addr.sun_path) {
    im.Emit("socket path too long: " + im.options.socket_path);
    return false;
  }
  std::strncpy(addr.sun_path, im.options.socket_path.c_str(), sizeof addr.sun_path - 1);

  im.listen_fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (im.listen_fd < 0) {
    im.Emit("cannot create socket");
    return false;
  }
  ::unlink(im.options.socket_path.c_str());
  if (::bind(im.listen_fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(im.listen_fd, 64) != 0) {
    im.Emit("cannot bind " + im.options.socket_path + ": " + std::strerror(errno));
    ::close(im.listen_fd);
    im.listen_fd = -1;
    return false;
  }

  im.started = true;
  im.accept_thread = std::thread([&im] { im.AcceptLoop(); });
  const int slots = std::max(1, im.options.slots);
  im.executors.reserve(static_cast<std::size_t>(slots));
  for (int i = 0; i < slots; ++i) {
    im.executors.emplace_back([&im] { im.ExecutorLoop(); });
  }
  return true;
}

void Server::Wait() {
  Impl& im = *impl_;
  // Polling wait (100 ms) so RequestStop stays async-signal-safe: a SIGTERM
  // handler only does one atomic store, never touches a mutex or cv.
  while (!im.stop_requested.load() && !im.stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

void Server::RequestStop() { impl_->stop_requested.store(true); }

void Server::Stop() {
  Impl& im = *impl_;
  if (!im.started || im.stopped) return;
  im.stopped = true;
  im.stop.store(true);
  im.stop_requested.store(true);

  // Fail everything still queued; running jobs see the stop flag through
  // their supervisor's cancelled predicate and wind down. The terminal
  // errors go out after sched_mutex is released, like every other send.
  std::vector<std::shared_ptr<Job>> dropped;
  {
    const std::lock_guard<std::mutex> lock(im.sched_mutex);
    while (!im.queue.empty()) {
      std::shared_ptr<Job> job = im.queue.front();
      im.DropQueuedLocked(job);
      dropped.push_back(std::move(job));
    }
  }
  for (const std::shared_ptr<Job>& job : dropped) {
    Impl::SendJobError(*job, ErrorCode::kShuttingDown);
  }
  im.sched_cv.notify_all();
  for (std::thread& t : im.executors) t.join();
  im.executors.clear();

  if (im.accept_thread.joinable()) im.accept_thread.join();
  if (im.listen_fd >= 0) {
    ::close(im.listen_fd);
    im.listen_fd = -1;
  }
  ::unlink(im.options.socket_path.c_str());

  {
    const std::lock_guard<std::mutex> lock(im.conn_mutex);
    for (const auto& conn : im.connections) {
      // Under the write mutex so the fd cannot be closed (and its number
      // recycled) between the check and the shutdown. This wakes readers
      // blocked in recv; any send in flight fails and latches the
      // connection, bounded by the socket send timeout.
      const std::lock_guard<std::mutex> write_lock(conn->write_mutex);
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  for (std::thread& t : im.readers) t.join();
  {
    const std::lock_guard<std::mutex> lock(im.conn_mutex);
    im.readers.clear();
    im.connections.clear();
  }

  // The cache destructor persists its lifetime counters into the directory,
  // so it must run before a private directory is removed.
  im.cache.reset();
  std::error_code ec;
  if (im.private_cache_dir) std::filesystem::remove_all(im.cache_dir, ec);
  if (!im.jobs_dir.empty()) std::filesystem::remove_all(im.jobs_dir, ec);
  im.Emit("stopped");
}

}  // namespace epvf::serve
