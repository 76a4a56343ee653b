#include "obs/progress.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/metrics.h"

namespace epvf::obs {

namespace {

bool ResolveEnabled(int enable) {
  if (enable == 0) return false;
  if (enable > 0) return true;
  const char* env = std::getenv("EPVF_PROGRESS");
  if (env != nullptr) return env[0] != '0';
  return isatty(STDERR_FILENO) == 1;
}

constexpr std::string_view kSnapshotSchema = "epvf-progress-v1";

/// Temp + rename publish, self-contained because obs sits below support (the
/// store's AtomicWriteFile lives up there). Snapshots are advisory telemetry,
/// so the fsync is skipped: a lost snapshot costs one stale heartbeat line.
bool PublishFile(const std::string& path, const std::string& data) {
  const std::string temp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const char* cursor = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, cursor, left);
    if (n <= 0) {
      ::close(fd);
      ::unlink(temp.c_str());
      return false;
    }
    cursor += n;
    left -= static_cast<std::size_t>(n);
  }
  ::close(fd);
  if (::rename(temp.c_str(), path.c_str()) != 0) {
    ::unlink(temp.c_str());
    return false;
  }
  return true;
}

}  // namespace

std::optional<ProgressSnapshot> ParseProgressSnapshot(std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string schema;
  in >> schema;
  if (schema != kSnapshotSchema) return std::nullopt;
  ProgressSnapshot snap;
  std::string name;
  while (in >> name) {
    if (name == "done") {
      in >> snap.done;
    } else if (name == "total") {
      in >> snap.total;
    } else if (name == "cat") {
      std::uint64_t value = 0;
      in >> value;
      snap.category_counts.push_back(value);
    } else {
      break;  // unknown field from a future writer — keep what parsed
    }
  }
  return snap;
}

std::string FormatProgressSnapshot(const ProgressSnapshot& snapshot) {
  std::ostringstream out;
  out << kSnapshotSchema << "\ndone " << snapshot.done << "\ntotal " << snapshot.total << '\n';
  for (const std::uint64_t count : snapshot.category_counts) out << "cat " << count << '\n';
  return std::move(out).str();
}

std::optional<ProgressSnapshot> ReadProgressSnapshot(const std::string& path) {
  std::ifstream file(path);
  if (!file) return std::nullopt;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return ParseProgressSnapshot(std::move(buffer).str());
}

ProgressReporter::ProgressReporter(Options options)
    : options_(std::move(options)),
      enabled_(ResolveEnabled(options_.enable)),
      tty_(isatty(STDERR_FILENO) == 1),
      start_(std::chrono::steady_clock::now()) {
  category_counts_.reserve(options_.categories.size());
  for (std::size_t i = 0; i < options_.categories.size(); ++i) {
    category_counts_.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
  }
  // The loop thread runs for the stderr line, the snapshot file, or both —
  // a muted worker still has to publish for its supervisor.
  if (!enabled_ && options_.snapshot_path.empty()) return;
  thread_ = std::thread([this] { ReportLoop(); });
}

ProgressReporter::~ProgressReporter() { Finish(); }

void ProgressReporter::Tick(std::size_t category, std::uint64_t delta) {
  done_.fetch_add(delta, std::memory_order_relaxed);
  if (category < category_counts_.size()) {
    category_counts_[category]->fetch_add(delta, std::memory_order_relaxed);
  }
}

void ProgressReporter::Finish() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (finished_) return;
    finished_ = true;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  PublishSnapshot();
  if (enabled_) PrintLine(/*final_line=*/true);
}

void ProgressReporter::SetPhase(std::string phase) {
  const std::lock_guard<std::mutex> lock(phase_mutex_);
  phase_ = std::move(phase);
}

ProgressSnapshot ProgressReporter::Aggregate() const {
  ProgressSnapshot snap;
  snap.done = done_.load(std::memory_order_relaxed);
  snap.total = options_.total;
  snap.category_counts.reserve(category_counts_.size());
  for (const auto& count : category_counts_) {
    snap.category_counts.push_back(count->load(std::memory_order_relaxed));
  }
  for (const std::string& path : options_.aggregate_paths) {
    const std::optional<ProgressSnapshot> other = ReadProgressSnapshot(path);
    if (!other.has_value()) continue;
    snap.done += other->done;
    for (std::size_t i = 0;
         i < other->category_counts.size() && i < snap.category_counts.size(); ++i) {
      snap.category_counts[i] += other->category_counts[i];
    }
  }
  return snap;
}

void ProgressReporter::PublishSnapshot() const {
  if (options_.snapshot_path.empty()) return;
  PublishFile(options_.snapshot_path, FormatProgressSnapshot(Aggregate()));
}

std::string ProgressReporter::StatusLine() const {
  const ProgressSnapshot snap = Aggregate();
  const std::uint64_t done = snap.done;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  const double rate = elapsed > 0 ? static_cast<double>(done) / elapsed : 0.0;

  std::string phase;
  {
    const std::lock_guard<std::mutex> lock(phase_mutex_);
    phase = phase_;
  }

  char head[256];
  if (!phase.empty()) {
    // An application phase replaces done/total and suppresses the ETA — a
    // planner-driven campaign has no meaningful fixed total.
    std::snprintf(head, sizeof head, "[%s] %llu done %.0f/s | %s", options_.label.c_str(),
                  static_cast<unsigned long long>(done), rate, phase.c_str());
  } else if (options_.total > 0) {
    const double pct =
        100.0 * static_cast<double>(done) / static_cast<double>(options_.total);
    std::snprintf(head, sizeof head, "[%s] %llu/%llu (%.1f%%) %.0f/s",
                  options_.label.c_str(), static_cast<unsigned long long>(done),
                  static_cast<unsigned long long>(options_.total), pct, rate);
  } else {
    std::snprintf(head, sizeof head, "[%s] %llu done %.0f/s", options_.label.c_str(),
                  static_cast<unsigned long long>(done), rate);
  }
  std::string line = head;

  if (phase.empty() && options_.total > 0 && rate > 0 && done < options_.total) {
    const double eta = static_cast<double>(options_.total - done) / rate;
    char buf[48];
    if (eta >= 90) {
      std::snprintf(buf, sizeof buf, " ETA %.1f min", eta / 60);
    } else {
      std::snprintf(buf, sizeof buf, " ETA %.0f s", eta);
    }
    line += buf;
  }

  bool first = true;
  for (std::size_t i = 0; i < snap.category_counts.size(); ++i) {
    const std::uint64_t n = snap.category_counts[i];
    if (n == 0) continue;
    line += first ? " | " : " ";
    first = false;
    line += options_.categories[i] + " " + std::to_string(n);
  }

  // The artifact cache records into the global registry; surface its hit
  // count so a resumed/warm campaign is visible as such.
  const std::uint64_t hits = GetCounter("store.cache.hits").Value();
  if (hits > 0) line += " | cache hits " + std::to_string(hits);
  return line;
}

void ProgressReporter::PrintLine(bool final_line) {
  const std::string line = StatusLine();
  if (tty_) {
    // Overwrite in place on a terminal; the final line is left standing.
    std::fprintf(stderr, "\r\033[2K%s%s", line.c_str(), final_line ? "\n" : "");
  } else {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
  std::fflush(stderr);
}

void ProgressReporter::ReportLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto interval = std::chrono::duration<double>(options_.interval_seconds);
  while (!cv_.wait_for(lock, interval, [this] { return stop_; })) {
    lock.unlock();
    PublishSnapshot();
    if (enabled_) PrintLine(/*final_line=*/false);
    lock.lock();
  }
}

}  // namespace epvf::obs
