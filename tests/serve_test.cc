// epvf-wire-v1 / serve-daemon tests, at three levels:
//
//  - Wire level: frame and payload codecs round-trip over a socketpair, and
//    every malformed-header class (bad magic, bad version, oversized length,
//    truncation) maps to its distinct ReadStatus.
//  - Protocol fuzz against an in-process Server: hostile raw bytes on the
//    socket — garbage headers, truncated frames, oversized lengths, unknown
//    frame types, undecodable payloads — each earn an error reply (best
//    effort) and never take the daemon down; a well-formed request afterwards
//    proves liveness. Rides the sanitizer CI job like the other fuzz suites.
//  - End to end through the real binary (EPVF_CLI_PATH): `epvf serve` as a
//    subprocess, `analyze`/`inject --connect` stdout diffed byte-for-byte
//    against local runs, plus status/cancel/shutdown and the busy
//    (backpressure) exit code.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "store/serializer.h"
#include "support/subprocess.h"

namespace epvf::serve {
namespace {

// --- wire codecs -------------------------------------------------------------

struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0) {
      a = fds[0];
      b = fds[1];
    }
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

TEST(Wire, FrameRoundTripsOverASocket) {
  SocketPair pair;
  ASSERT_GE(pair.a, 0);
  const std::string payload = "hello epvf";
  ASSERT_TRUE(WriteFrame(pair.a, FrameType::kStdout, payload));
  Frame frame;
  ASSERT_EQ(ReadFrame(pair.b, &frame), ReadStatus::kOk);
  EXPECT_EQ(frame.type, FrameType::kStdout);
  EXPECT_EQ(frame.payload, payload);
}

TEST(Wire, EmptyPayloadAndCleanCloseAreDistinct) {
  SocketPair pair;
  ASSERT_TRUE(WriteFrame(pair.a, FrameType::kStatus, {}));
  Frame frame;
  ASSERT_EQ(ReadFrame(pair.b, &frame), ReadStatus::kOk);
  EXPECT_TRUE(frame.payload.empty());
  ::close(pair.a);
  pair.a = -1;
  EXPECT_EQ(ReadFrame(pair.b, &frame), ReadStatus::kClosed);
}

TEST(Wire, BadMagicBadVersionOversizedAndTruncatedAreToldApart) {
  {
    SocketPair pair;
    const char junk[16] = "XXXXXXXXXXXXXXX";
    ASSERT_EQ(::send(pair.a, junk, sizeof junk, 0), static_cast<ssize_t>(sizeof junk));
    Frame frame;
    EXPECT_EQ(ReadFrame(pair.b, &frame), ReadStatus::kBadMagic);
  }
  {
    SocketPair pair;
    store::ByteWriter header;
    header.U32(kWireMagic);
    header.U32(kWireVersion + 7);
    header.U32(1);
    header.U32(0);
    ASSERT_EQ(::send(pair.a, header.bytes().data(), header.bytes().size(), 0), 16);
    Frame frame;
    EXPECT_EQ(ReadFrame(pair.b, &frame), ReadStatus::kBadVersion);
  }
  {
    SocketPair pair;
    store::ByteWriter header;
    header.U32(kWireMagic);
    header.U32(kWireVersion);
    header.U32(1);
    header.U32(kMaxFramePayload + 1);
    ASSERT_EQ(::send(pair.a, header.bytes().data(), header.bytes().size(), 0), 16);
    Frame frame;
    EXPECT_EQ(ReadFrame(pair.b, &frame), ReadStatus::kOversized);
  }
  {
    // Header promises 100 payload bytes, peer hangs up after 3.
    SocketPair pair;
    store::ByteWriter header;
    header.U32(kWireMagic);
    header.U32(kWireVersion);
    header.U32(static_cast<std::uint32_t>(FrameType::kRun));
    header.U32(100);
    std::string bytes = header.bytes() + "abc";
    ASSERT_EQ(::send(pair.a, bytes.data(), bytes.size(), 0), static_cast<ssize_t>(bytes.size()));
    ::close(pair.a);
    pair.a = -1;
    Frame frame;
    EXPECT_EQ(ReadFrame(pair.b, &frame), ReadStatus::kTruncated);
  }
  {
    // EOF mid-header is truncation too, not a clean close.
    SocketPair pair;
    ASSERT_EQ(::send(pair.a, "EPVW", 4, 0), 4);
    ::close(pair.a);
    pair.a = -1;
    Frame frame;
    EXPECT_EQ(ReadFrame(pair.b, &frame), ReadStatus::kTruncated);
  }
}

TEST(Wire, RunRequestRoundTripsAndRejectsGarbage) {
  RunRequest request;
  request.priority = 3;
  request.args = {"inject", "mm", "--runs", "40"};
  const std::optional<RunRequest> back = DecodeRunRequest(EncodeRunRequest(request));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->priority, 3u);
  EXPECT_EQ(back->args, request.args);

  EXPECT_FALSE(DecodeRunRequest("").has_value());
  EXPECT_FALSE(DecodeRunRequest("garbage").has_value());
  // A hostile count field far beyond the actual bytes must not allocate.
  store::ByteWriter hostile;
  hostile.U32(0);
  hostile.U32(0x40000000u);
  EXPECT_FALSE(DecodeRunRequest(hostile.bytes()).has_value());
  // Trailing bytes after a valid encoding are a framing bug, not padding.
  EXPECT_FALSE(DecodeRunRequest(EncodeRunRequest(request) + "x").has_value());
}

TEST(Wire, ErrorReplyAndU64RoundTrip) {
  ErrorReply reply;
  reply.code = ErrorCode::kBusy;
  reply.retry_after_ms = 450;
  reply.message = "queue full";
  const std::optional<ErrorReply> back = DecodeErrorReply(EncodeErrorReply(reply));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->code, ErrorCode::kBusy);
  EXPECT_EQ(back->retry_after_ms, 450u);
  EXPECT_EQ(back->message, "queue full");

  EXPECT_EQ(DecodeU64(EncodeU64(0xDEADBEEFu)).value_or(0), 0xDEADBEEFu);
  EXPECT_FALSE(DecodeU64("short").has_value());
}

// --- protocol fuzz against a live server -------------------------------------

/// Short unique socket path (AF_UNIX caps sun_path at ~107 bytes, so the
/// usual deep test tmpdirs are off the table).
std::string TestSocketPath(const char* tag) {
  return "/tmp/epvf-" + std::string(tag) + "-" + std::to_string(::getpid()) + ".sock";
}

ServerOptions InProcessOptions(const std::string& socket_path) {
  ServerOptions options;
  options.socket_path = socket_path;
  options.exe_path = EPVF_CLI_PATH;
  return options;
}

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

/// The daemon still answers a status request — the liveness probe after every
/// hostile connection.
void ExpectAlive(const std::string& socket_path) {
  std::optional<ServeClient> client = ServeClient::Connect(socket_path);
  ASSERT_TRUE(client.has_value());
  EXPECT_TRUE(client->Status().has_value());
}

TEST(ServeFuzz, HostileBytesGetErrorRepliesNeverACrash) {
  const std::string socket_path = TestSocketPath("fuzz");
  Server server(InProcessOptions(socket_path));
  ASSERT_TRUE(server.Start());

  // Bad magic: expect a best-effort kError reply, then the connection drops.
  {
    const int fd = RawConnect(socket_path);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::send(fd, "NOPEnopeNOPEnope", 16, 0), 16);
    Frame frame;
    ASSERT_EQ(ReadFrame(fd, &frame), ReadStatus::kOk);
    EXPECT_EQ(frame.type, FrameType::kError);
    const std::optional<ErrorReply> reply = DecodeErrorReply(frame.payload);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->code, ErrorCode::kBadRequest);
    ::close(fd);
  }
  ExpectAlive(socket_path);

  // Unsupported version and oversized length, same contract.
  for (const bool oversized : {false, true}) {
    const int fd = RawConnect(socket_path);
    ASSERT_GE(fd, 0);
    store::ByteWriter header;
    header.U32(kWireMagic);
    header.U32(oversized ? kWireVersion : 99u);
    header.U32(static_cast<std::uint32_t>(FrameType::kStatus));
    header.U32(oversized ? kMaxFramePayload + 1 : 0u);
    ASSERT_EQ(::send(fd, header.bytes().data(), header.bytes().size(), 0), 16);
    Frame frame;
    ASSERT_EQ(ReadFrame(fd, &frame), ReadStatus::kOk);
    EXPECT_EQ(frame.type, FrameType::kError);
    ::close(fd);
    ExpectAlive(socket_path);
  }

  // Truncated frames: partial header, and a payload cut short. No reply owed;
  // the daemon just must survive.
  for (const int cut : {1, 4, 9, 15}) {
    const int fd = RawConnect(socket_path);
    ASSERT_GE(fd, 0);
    store::ByteWriter header;
    header.U32(kWireMagic);
    header.U32(kWireVersion);
    header.U32(static_cast<std::uint32_t>(FrameType::kRun));
    header.U32(64);
    ASSERT_EQ(::send(fd, header.bytes().data(), static_cast<std::size_t>(cut), 0), cut);
    ::close(fd);
  }
  ExpectAlive(socket_path);

  // Unknown frame type within a valid header: error reply, connection stays
  // usable (additive forward compatibility).
  {
    const int fd = RawConnect(socket_path);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(WriteFrame(fd, static_cast<FrameType>(42), "??"));
    Frame frame;
    ASSERT_EQ(ReadFrame(fd, &frame), ReadStatus::kOk);
    EXPECT_EQ(frame.type, FrameType::kError);
    // Same connection, now a well-formed request.
    ASSERT_TRUE(WriteFrame(fd, FrameType::kStatus, {}));
    ASSERT_EQ(ReadFrame(fd, &frame), ReadStatus::kOk);
    EXPECT_EQ(frame.type, FrameType::kStatusReport);
    ::close(fd);
  }

  // Undecodable kRun payloads and rejected commands/flags.
  {
    std::optional<ServeClient> client = ServeClient::Connect(socket_path);
    ASSERT_TRUE(client.has_value());
    const int fd = RawConnect(socket_path);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(WriteFrame(fd, FrameType::kRun, "not a run request"));
    Frame frame;
    ASSERT_EQ(ReadFrame(fd, &frame), ReadStatus::kOk);
    EXPECT_EQ(frame.type, FrameType::kError);
    ::close(fd);

    for (const std::vector<std::string>& args :
         {std::vector<std::string>{"print", "mm"},
          std::vector<std::string>{"analyze"},
          std::vector<std::string>{"analyze", "--scale"},
          std::vector<std::string>{"inject", "mm", "--cache-dir", "/tmp/x"},
          std::vector<std::string>{"inject", "mm", "--connect", "/tmp/x"}}) {
      RunRequest request;
      request.args = args;
      const ServeClient::RunResult result = client->Run(request, nullptr, nullptr, nullptr);
      ASSERT_TRUE(result.transport_ok);
      ASSERT_TRUE(result.error.has_value());
      EXPECT_EQ(result.error->code, ErrorCode::kBadRequest);
    }
  }
  ExpectAlive(socket_path);

  server.Stop();
  EXPECT_FALSE(std::filesystem::exists(socket_path));
}

TEST(Serve, BackpressureRejectsWithRetryHintAtQueueLimitZero) {
  const std::string socket_path = TestSocketPath("busy");
  ServerOptions options = InProcessOptions(socket_path);
  options.queue_limit = 0;  // every admission is over the bound
  Server server(std::move(options));
  ASSERT_TRUE(server.Start());

  std::optional<ServeClient> client = ServeClient::Connect(socket_path);
  ASSERT_TRUE(client.has_value());
  RunRequest request;
  request.args = {"analyze", "mm", "--scale", "0"};
  const ServeClient::RunResult result = client->Run(request, nullptr, nullptr, nullptr);
  ASSERT_TRUE(result.transport_ok);
  ASSERT_TRUE(result.error.has_value());
  EXPECT_EQ(result.error->code, ErrorCode::kBusy);
  EXPECT_GT(result.error->retry_after_ms, 0u);
  server.Stop();
}

TEST(Serve, CancelOfQueuedJobsAndVanishedClientsNeverTouchFreedJobs) {
  const std::string socket_path = TestSocketPath("cancelq");
  Server server(InProcessOptions(socket_path));
  ASSERT_TRUE(server.Start());

  // A slow inject occupies the (single) executor slot so later jobs park in
  // the queue.
  const int slow = RawConnect(socket_path);
  ASSERT_GE(slow, 0);
  RunRequest slow_request;
  slow_request.args = {"inject", "mm", "--runs", "5000", "--seed", "7"};
  ASSERT_TRUE(WriteFrame(slow, FrameType::kRun, EncodeRunRequest(slow_request)));
  Frame frame;
  ASSERT_EQ(ReadFrame(slow, &frame), ReadStatus::kOk);
  ASSERT_EQ(frame.type, FrameType::kAck);
  const std::uint64_t slow_id = DecodeU64(frame.payload).value_or(0);
  ASSERT_GT(slow_id, 0u);
  {
    std::optional<ServeClient> probe = ServeClient::Connect(socket_path);
    ASSERT_TRUE(probe.has_value());
    bool running = false;
    for (int i = 0; i < 100 && !running; ++i) {
      const std::optional<std::string> status = probe->Status();
      ASSERT_TRUE(status.has_value());
      running = status->find("job " + std::to_string(slow_id) + " running") != std::string::npos;
      if (!running) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ASSERT_TRUE(running);
  }

  // One queued job to cancel explicitly: its terminal error is sent after the
  // queue and job-map references are erased, which once read freed memory
  // (the use-after-free regression this test pins under the sanitizer job).
  const int queued = RawConnect(socket_path);
  ASSERT_GE(queued, 0);
  RunRequest queued_request;
  queued_request.args = {"analyze", "mm", "--scale", "1"};
  ASSERT_TRUE(WriteFrame(queued, FrameType::kRun, EncodeRunRequest(queued_request)));
  ASSERT_EQ(ReadFrame(queued, &frame), ReadStatus::kOk);
  ASSERT_EQ(frame.type, FrameType::kAck);
  const std::uint64_t queued_id = DecodeU64(frame.payload).value_or(0);
  ASSERT_GT(queued_id, 0u);

  // Another queued job whose client vanishes: the executor's orphan sweep
  // walks the same drop-then-notify path.
  {
    const int vanishing = RawConnect(socket_path);
    ASSERT_GE(vanishing, 0);
    ASSERT_TRUE(WriteFrame(vanishing, FrameType::kRun, EncodeRunRequest(queued_request)));
    ASSERT_EQ(ReadFrame(vanishing, &frame), ReadStatus::kOk);
    ASSERT_EQ(frame.type, FrameType::kAck);
    ::close(vanishing);
  }

  std::optional<ServeClient> canceller = ServeClient::Connect(socket_path);
  ASSERT_TRUE(canceller.has_value());
  ErrorReply cancel_error;
  EXPECT_TRUE(canceller->Cancel(queued_id, &cancel_error));
  ASSERT_EQ(ReadFrame(queued, &frame), ReadStatus::kOk);
  ASSERT_EQ(frame.type, FrameType::kError);
  const std::optional<ErrorReply> reply = DecodeErrorReply(frame.payload);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->code, ErrorCode::kCancelled);

  // The slow job goes the running-cancel path (supervisor kills the worker);
  // progress frames may precede its terminal frame.
  EXPECT_TRUE(canceller->Cancel(slow_id, nullptr));
  do {
    ASSERT_EQ(ReadFrame(slow, &frame), ReadStatus::kOk);
  } while (frame.type == FrameType::kProgress);
  EXPECT_TRUE(frame.type == FrameType::kError || frame.type == FrameType::kDone);
  ::close(slow);
  ::close(queued);

  // The daemon is still healthy and no counter underflowed into a wrapped
  // uint64 (the old completed/cancelled rebalance race).
  const std::optional<std::string> status = canceller->Status();
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->find("18446744073709551615"), std::string::npos);
  server.Stop();
}

TEST(Serve, ResidentAnalyzeStreamsIdenticalBytesAndCancelKnowsUnknownJobs) {
  const std::string socket_path = TestSocketPath("resident");
  Server server(InProcessOptions(socket_path));
  ASSERT_TRUE(server.Start());

  std::optional<ServeClient> client = ServeClient::Connect(socket_path);
  ASSERT_TRUE(client.has_value());
  RunRequest request;
  request.args = {"analyze", "mm", "--scale", "1"};

  std::string first;
  std::string second;
  for (std::string* out : {&first, &second}) {
    const ServeClient::RunResult result = client->Run(
        request, [out](std::string_view bytes) { out->append(bytes); }, nullptr, nullptr);
    ASSERT_TRUE(result.transport_ok);
    ASSERT_FALSE(result.error.has_value());
    EXPECT_EQ(result.exit_code, 0u);
    EXPECT_GT(result.job_id, 0u);
  }
  EXPECT_FALSE(first.empty());
  // Cold (computed) and warm (resident) replies carry identical stdout bytes.
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("ePVF (Eq. 2)"), std::string::npos);

  ErrorReply error;
  EXPECT_FALSE(client->Cancel(123456, &error));
  EXPECT_EQ(error.code, ErrorCode::kUnknownJob);

  const std::optional<std::string> metrics = client->Metrics();
  ASSERT_TRUE(metrics.has_value());
  EXPECT_NE(metrics->find("serve.analyze.resident_hits"), std::string::npos);

  server.Stop();
}

/// Counter `name` in an epvf-metrics-v1 dump; 0 while it is unregistered.
std::uint64_t CounterValue(const std::string& json, const std::string& name) {
  const std::optional<obs::MetricsSnapshot> snapshot = obs::ParseMetricsJson(json);
  EXPECT_TRUE(snapshot.has_value());
  if (!snapshot.has_value()) return 0;
  for (const auto& [counter, value] : snapshot->counters) {
    if (counter == name) return value;
  }
  return 0;
}

/// The `| completed N | cancelled M |` counts of a status report.
std::pair<std::uint64_t, std::uint64_t> StatusCounts(const std::string& status) {
  unsigned long long completed = 0;
  unsigned long long cancelled = 0;
  const std::size_t at = status.find("| completed ");
  if (at == std::string::npos ||
      std::sscanf(status.c_str() + at, "| completed %llu | cancelled %llu", &completed,
                  &cancelled) != 2) {
    ADD_FAILURE() << "no job counts in\n" << status;
  }
  return {completed, cancelled};
}

TEST(Serve, AJobIsCountedBeforeItsTerminalFrameGoesOut) {
  // A client that has read its job's terminal frame — kDone, or the
  // kCancelled error of a job cancelled while it runs — must find the job
  // gone from the status report's job list and counted in its totals and in
  // the serve.jobs.* metrics. Several clients run short campaigns and cancel
  // long ones at once, on as many executor slots, so an executor that
  // counted only after sending would often lose the race; worker jobs widen
  // that window further (the executor removes their spool files in between).
  // Every terminal frame any client has read before it asks must be counted.
  constexpr int kClients = 3;
  constexpr int kRounds = 4;
  const std::string socket_path = TestSocketPath("account");
  ServerOptions options = InProcessOptions(socket_path);
  options.slots = kClients;
  Server server(std::move(options));
  ASSERT_TRUE(server.Start());

  // The metrics registry is process-wide, so its counters are read as deltas.
  std::uint64_t completed_base = 0;
  std::uint64_t cancelled_base = 0;
  {
    std::optional<ServeClient> probe = ServeClient::Connect(socket_path);
    ASSERT_TRUE(probe.has_value());
    const std::optional<std::string> metrics = probe->Metrics();
    ASSERT_TRUE(metrics.has_value());
    completed_base = CounterValue(*metrics, "serve.jobs.completed");
    cancelled_base = CounterValue(*metrics, "serve.jobs.cancelled");
  }
  std::atomic<std::uint64_t> seen_completed{0};
  std::atomic<std::uint64_t> seen_cancelled{0};
  const auto expect_counted = [&](ServeClient& client, std::uint64_t job_id,
                                  const std::string& context) {
    const std::uint64_t completed = seen_completed.load();
    const std::uint64_t cancelled = seen_cancelled.load();
    const std::optional<std::string> status = client.Status();
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->find("job " + std::to_string(job_id) + " "), std::string::npos)
        << context << "\n" << *status;
    const auto [status_completed, status_cancelled] = StatusCounts(*status);
    EXPECT_GE(status_completed, completed) << context << "\n" << *status;
    EXPECT_GE(status_cancelled, cancelled) << context << "\n" << *status;
    const std::optional<std::string> metrics = client.Metrics();
    ASSERT_TRUE(metrics.has_value());
    EXPECT_GE(CounterValue(*metrics, "serve.jobs.completed"), completed_base + completed)
        << context;
    EXPECT_GE(CounterValue(*metrics, "serve.jobs.cancelled"), cancelled_base + cancelled)
        << context;
  };

  const auto client_loop = [&](int c) {
    std::optional<ServeClient> client = ServeClient::Connect(socket_path);
    ASSERT_TRUE(client.has_value());
    for (int round = 1; round <= kRounds; ++round) {
      const std::string context =
          "client " + std::to_string(c) + ", round " + std::to_string(round);
      RunRequest quick;
      quick.args = {"inject",  "mm", "--scale", "0", "--runs", "4",
                    "--seed", std::to_string(c * kRounds + round)};
      const ServeClient::RunResult result = client->Run(quick, nullptr, nullptr, nullptr);
      ASSERT_TRUE(result.transport_ok) << context;
      ASSERT_FALSE(result.error.has_value()) << context;
      seen_completed.fetch_add(1);
      expect_counted(*client, result.job_id, context + ", after a completed job");

      const int fd = RawConnect(socket_path);
      ASSERT_GE(fd, 0);
      RunRequest slow;
      slow.args = {"inject", "mm", "--runs", "5000", "--seed", "7"};
      ASSERT_TRUE(WriteFrame(fd, FrameType::kRun, EncodeRunRequest(slow)));
      Frame frame;
      ASSERT_EQ(ReadFrame(fd, &frame), ReadStatus::kOk);
      ASSERT_EQ(frame.type, FrameType::kAck);
      const std::uint64_t slow_id = DecodeU64(frame.payload).value_or(0);
      const std::string running = "job " + std::to_string(slow_id) + " running";
      bool started = false;
      for (int i = 0; i < 500 && !started; ++i) {
        const std::optional<std::string> status = client->Status();
        ASSERT_TRUE(status.has_value());
        started = status->find(running) != std::string::npos;
        if (!started) std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      ASSERT_TRUE(started) << context;
      ASSERT_TRUE(client->Cancel(slow_id)) << context;
      do {
        ASSERT_EQ(ReadFrame(fd, &frame), ReadStatus::kOk);
      } while (frame.type == FrameType::kProgress);
      ::close(fd);
      ASSERT_EQ(frame.type, FrameType::kError) << context;
      seen_cancelled.fetch_add(1);
      expect_counted(*client, slow_id, context + ", after a cancelled job");
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client_loop, c);
  for (std::thread& t : clients) t.join();
  server.Stop();
}

// --- end to end through the real binary --------------------------------------

struct CliResult {
  std::string stdout_text;
  int exit_code = -1;
};

CliResult RunCli(const std::string& args) {
  const std::string command = std::string(EPVF_CLI_PATH) + " " + args + " 2>/dev/null";
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

/// `epvf serve` as a child process, torn down (shutdown request, then kill as
/// a backstop) when the fixture leaves scope.
class ServeDaemon {
 public:
  explicit ServeDaemon(std::string socket_path, std::vector<std::string> extra_args = {})
      : socket_path_(std::move(socket_path)) {
    SubprocessOptions options;
    options.argv = {EPVF_CLI_PATH, "serve", socket_path_};
    for (std::string& arg : extra_args) options.argv.push_back(std::move(arg));
    options.stderr_path = socket_path_ + ".log";
    child_ = Subprocess::Spawn(options);
  }

  ~ServeDaemon() {
    if (child_.has_value() && !child_->reaped()) {
      if (std::optional<ServeClient> client = ServeClient::Connect(socket_path_)) {
        (void)client->Shutdown();
      }
      if (!child_->PollWithDeadline(5.0).has_value()) child_->Kill();
      (void)child_->Wait();
    }
    std::error_code ec;
    std::filesystem::remove(socket_path_ + ".log", ec);
  }

  [[nodiscard]] bool WaitForSocket() const {
    for (int i = 0; i < 100; ++i) {
      struct stat st {};
      if (::stat(socket_path_.c_str(), &st) == 0 && S_ISSOCK(st.st_mode)) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    return false;
  }

  [[nodiscard]] bool ok() const { return child_.has_value(); }
  [[nodiscard]] const std::string& socket_path() const { return socket_path_; }

 private:
  std::string socket_path_;
  std::optional<Subprocess> child_;
};

/// A scratch directory, removed with its contents on scope exit.
struct ScratchDir {
  std::string path;
  ScratchDir() {
    std::string tmpl = (std::filesystem::temp_directory_path() / "epvf_serve_XXXXXX").string();
    if (mkdtemp(tmpl.data()) != nullptr) path = tmpl;
  }
  ~ScratchDir() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
};

/// Replaces `path` with `text` in one rename, the way an editor saves, so a
/// concurrent reader sees the old file or the new one, never a partial one.
void SaveAtomically(const std::string& path, const std::string& text) {
  const std::string temp = path + ".saving";
  {
    std::ofstream out(temp, std::ios::trunc);
    out << text;
  }
  std::filesystem::rename(temp, path);
}

/// One plain analyze over the wire: its stdout and its stderr note.
struct AnalyzeReply {
  bool ok = false;
  std::string out;
  std::string note;
};

AnalyzeReply ConnectedAnalyze(const std::string& socket_path, const std::string& target) {
  AnalyzeReply reply;
  std::optional<ServeClient> client = ServeClient::Connect(socket_path);
  if (!client.has_value()) return reply;
  RunRequest request;
  request.args = {"analyze", target};
  const ServeClient::RunResult result = client->Run(
      request, [&reply](std::string_view bytes) { reply.out.append(bytes); },
      [&reply](std::string_view bytes) { reply.note.append(bytes); }, nullptr);
  reply.ok = result.transport_ok && !result.error.has_value() && result.exit_code == 0;
  return reply;
}

TEST(Serve, AnEditedTargetReplacesItsResidentAnalysis) {
  // One resident analysis per target: serving v1, then v2, then v1 again of
  // one path computes all three (the v2 request replaced v1's entry), and
  // only an unchanged repeat is resident. Each reply matches a local run.
  ScratchDir tmp;
  ASSERT_FALSE(tmp.path.empty());
  const std::string v1 = RunCli("print mm --scale 0").stdout_text;
  const std::string v2 = RunCli("print mm --scale 1").stdout_text;
  ASSERT_FALSE(v1.empty());
  ASSERT_NE(v1, v2);
  const std::string path = tmp.path + "/kernel.ir";
  std::map<std::string, std::string> local;
  for (const std::string* text : {&v1, &v2}) {
    SaveAtomically(path, *text);
    const CliResult run = RunCli("analyze " + path + " --no-cache");
    ASSERT_EQ(run.exit_code, 0);
    local[*text] = run.stdout_text;
  }
  ASSERT_NE(local[v1], local[v2]);

  const std::string socket_path = TestSocketPath("replace");
  Server server(InProcessOptions(socket_path));
  ASSERT_TRUE(server.Start());
  const std::pair<const std::string*, const char*> steps[] = {
      {&v1, "computed"}, {&v2, "computed"}, {&v1, "computed"}, {&v1, "resident"}};
  for (const auto& [text, mode] : steps) {
    SaveAtomically(path, *text);
    const AnalyzeReply reply = ConnectedAnalyze(socket_path, path);
    ASSERT_TRUE(reply.ok);
    EXPECT_EQ(reply.out, local[*text]);
    EXPECT_NE(reply.note.find(std::string("(") + mode + ","), std::string::npos) << reply.note;
  }
  server.Stop();
}

TEST(Serve, ReplacingAResidentAnalysisNeverFreesOneBeingRendered) {
  // Two executor slots serve the same path while its file flips between two
  // versions, so one request replaces the entry another may still be
  // rendering. Every reply must be one version's exact stdout; the
  // ThreadSanitizer job runs this for races on the resident map.
  ScratchDir tmp;
  ASSERT_FALSE(tmp.path.empty());
  const std::string v1 = RunCli("print mm --scale 0").stdout_text;
  const std::string v2 = RunCli("print pathfinder --scale 0").stdout_text;
  ASSERT_FALSE(v1.empty());
  ASSERT_FALSE(v2.empty());
  const std::string path = tmp.path + "/kernel.ir";
  std::set<std::string> expected;
  for (const std::string* text : {&v1, &v2}) {
    SaveAtomically(path, *text);
    const CliResult run = RunCli("analyze " + path + " --no-cache");
    ASSERT_EQ(run.exit_code, 0);
    expected.insert(run.stdout_text);
  }
  ASSERT_EQ(expected.size(), 2u);

  const std::string socket_path = TestSocketPath("replace2");
  ServerOptions options = InProcessOptions(socket_path);
  options.slots = 2;
  Server server(std::move(options));
  ASSERT_TRUE(server.Start());
  constexpr int kRequestsPerClient = 6;
  std::vector<AnalyzeReply> replies(2 * kRequestsPerClient);
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        replies[c * kRequestsPerClient + i] = ConnectedAnalyze(socket_path, path);
      }
    });
  }
  for (int i = 0; i < 4 * kRequestsPerClient; ++i) {
    SaveAtomically(path, i % 2 == 0 ? v2 : v1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (std::thread& t : clients) t.join();
  for (const AnalyzeReply& reply : replies) {
    ASSERT_TRUE(reply.ok);
    EXPECT_EQ(expected.count(reply.out), 1u) << reply.out;
  }
  server.Stop();
}

TEST(ServeEndToEnd, ConnectedIncrementalAnalyzeTracksEditsByteForByte) {
  // A scratch directory for the module file and the daemon's cache, and a
  // helper to (re)write the module the way an editor would.
  std::string tmpl = (std::filesystem::temp_directory_path() / "epvf_serve_XXXXXX").string();
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  char* made = mkdtemp(buf.data());
  ASSERT_NE(made, nullptr);
  const std::string tmp(made);
  const auto write_module = [](const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::trunc);
    out << text;
    ASSERT_TRUE(static_cast<bool>(out));
  };

  const std::string socket_path = TestSocketPath("incr");
  ServeDaemon daemon(socket_path, {"--cache-dir", tmp + "/daemon-cache"});
  ASSERT_TRUE(daemon.ok());
  ASSERT_TRUE(daemon.WaitForSocket());

  // Materialize lulesh as an editable file — incremental analysis keys the
  // cached state by target path, so the edit must happen in place.
  const std::string module_path = tmp + "/kernel.ir";
  const CliResult printed = RunCli("print lulesh --scale 1");
  ASSERT_EQ(printed.exit_code, 0);
  write_module(module_path, printed.stdout_text);

  // Cold: the daemon builds and persists the compositional state; stdout must
  // already match a local from-scratch analysis byte for byte.
  const CliResult local_cold = RunCli("analyze " + module_path + " --no-cache");
  const CliResult remote_cold =
      RunCli("analyze " + module_path + " --incremental --connect " + socket_path);
  ASSERT_EQ(local_cold.exit_code, 0);
  ASSERT_EQ(remote_cold.exit_code, 0);
  EXPECT_EQ(remote_cold.stdout_text, local_cold.stdout_text);

  // Edit one constant in one kernel. This mutation changes the report, so a
  // daemon serving stale resident state would be caught below.
  const CliResult mutated =
      RunCli("mutate " + module_path + " --kind tweak-constant --seed 1");
  ASSERT_EQ(mutated.exit_code, 0);
  write_module(module_path, mutated.stdout_text);

  const CliResult local_edited = RunCli("analyze " + module_path + " --no-cache");
  ASSERT_EQ(local_edited.exit_code, 0);
  ASSERT_NE(local_edited.stdout_text, local_cold.stdout_text)
      << "the mutation was supposed to move the report";

  // Warm: the daemon replays the edit against its resident unit map; the
  // reply must match the local from-scratch analysis of the edited module.
  const CliResult remote_warm =
      RunCli("analyze " + module_path + " --incremental --connect " + socket_path);
  ASSERT_EQ(remote_warm.exit_code, 0);
  EXPECT_EQ(remote_warm.stdout_text, local_edited.stdout_text);

  // And the local incremental CLI (own cache, cold) agrees byte for byte with
  // the connected path.
  const CliResult local_incremental = RunCli("analyze " + module_path +
                                             " --incremental --cache-dir " + tmp + "/cli-cache");
  ASSERT_EQ(local_incremental.exit_code, 0);
  EXPECT_EQ(local_incremental.stdout_text, remote_warm.stdout_text);

  // Unchanged repeat: served from the resident state, still identical.
  const CliResult remote_repeat =
      RunCli("analyze " + module_path + " --incremental --connect " + socket_path);
  ASSERT_EQ(remote_repeat.exit_code, 0);
  EXPECT_EQ(remote_repeat.stdout_text, local_edited.stdout_text);

  std::error_code ec;
  std::filesystem::remove_all(tmp, ec);
}

TEST(ServeEndToEnd, ConnectedAnalyzeAndInjectMatchLocalStdoutByteForByte) {
  const std::string socket_path = TestSocketPath("e2e");
  ServeDaemon daemon(socket_path);
  ASSERT_TRUE(daemon.ok());
  ASSERT_TRUE(daemon.WaitForSocket());

  const CliResult local_analyze = RunCli("analyze mm --scale 1 --no-cache");
  const CliResult remote_analyze = RunCli("analyze mm --scale 1 --connect " + socket_path);
  ASSERT_EQ(local_analyze.exit_code, 0);
  ASSERT_EQ(remote_analyze.exit_code, 0);
  EXPECT_EQ(remote_analyze.stdout_text, local_analyze.stdout_text);

  const std::string inject_args = "inject mm --scale 1 --runs 24 --seed 9 --jobs 1";
  const CliResult local_inject = RunCli(inject_args + " --no-cache");
  const CliResult remote_inject = RunCli(inject_args + " --connect " + socket_path);
  ASSERT_EQ(local_inject.exit_code, 0);
  ASSERT_EQ(remote_inject.exit_code, 0);
  EXPECT_EQ(remote_inject.stdout_text, local_inject.stdout_text);

  // The memory-resident scenario rides the same wire: the daemon accepts
  // --scenario and its stdout matches a local memory campaign byte for byte.
  const std::string memory_args =
      "inject mm --scale 1 --runs 24 --seed 9 --jobs 1 --scenario memory";
  const CliResult local_memory = RunCli(memory_args + " --no-cache");
  const CliResult remote_memory = RunCli(memory_args + " --connect " + socket_path);
  ASSERT_EQ(local_memory.exit_code, 0);
  ASSERT_EQ(remote_memory.exit_code, 0);
  EXPECT_EQ(remote_memory.stdout_text, local_memory.stdout_text);
  EXPECT_NE(local_memory.stdout_text, local_inject.stdout_text)
      << "the two scenarios were supposed to produce different outcome mixes";

  // status reports over the CLI too, and names the daemon socket.
  const CliResult status = RunCli("status --connect " + socket_path);
  EXPECT_EQ(status.exit_code, 0);
  EXPECT_NE(status.stdout_text.find(socket_path), std::string::npos);

  // A target the daemon cannot load is a clean error, not a daemon death.
  const CliResult bad = RunCli("analyze no-such-benchmark --connect " + socket_path);
  EXPECT_EQ(bad.exit_code, 1);
  const CliResult after = RunCli("analyze mm --scale 1 --connect " + socket_path);
  EXPECT_EQ(after.exit_code, 0);
  EXPECT_EQ(after.stdout_text, local_analyze.stdout_text);
}

}  // namespace
}  // namespace epvf::serve
