// Periodic progress reporter for long-running campaigns and analyses.
//
// A multi-hour injection campaign used to be a black box between its first
// and last line of output. The reporter opens a small window into it: a
// background thread wakes on an interval and prints completed/total,
// instantaneous rate, an ETA, per-category outcome tallies, and the artifact
// cache's hit counter to stderr. Workers tick lock-free atomics; the
// reporting thread does all the formatting, so the hot path stays unmeasured.
//
// Output discipline: everything goes to stderr (stdout stays byte-identical
// with or without progress, the same contract the cache diagnostics follow).
// Enabled when stderr is a terminal; EPVF_PROGRESS=1 forces it on for
// redirected runs (plain newline-terminated lines), EPVF_PROGRESS=0 forces
// it off.
//
// Multi-process aggregation: a sharded campaign runs one reporter per worker
// process, and N interleaved per-process lines are useless. Instead each
// worker publishes its raw counters to a snapshot file (snapshot_path,
// atomically replaced each interval) with its stderr line muted, and the
// supervisor's reporter folds every worker snapshot (aggregate_paths) into
// its own counts — one campaign-wide done/total/ETA line.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace epvf::obs {

/// The counters one reporter publishes for another process to aggregate.
struct ProgressSnapshot {
  std::uint64_t done = 0;
  std::uint64_t total = 0;
  std::vector<std::uint64_t> category_counts;
};

/// Parses epvf-progress-v1 snapshot text ("epvf-progress-v1\ndone N\n...");
/// std::nullopt when the text is not a snapshot. The in-memory counterpart of
/// ReadProgressSnapshot — the serve layer parses frames it already holds.
[[nodiscard]] std::optional<ProgressSnapshot> ParseProgressSnapshot(std::string_view text);

/// Renders a snapshot back to epvf-progress-v1 text (the exact bytes a
/// reporter publishes to its snapshot file).
[[nodiscard]] std::string FormatProgressSnapshot(const ProgressSnapshot& snapshot);

/// Parses an epvf-progress-v1 snapshot file; std::nullopt when the file is
/// absent or not a snapshot (a torn read is impossible — snapshots are
/// published via temp-file + rename).
[[nodiscard]] std::optional<ProgressSnapshot> ReadProgressSnapshot(const std::string& path);

class ProgressReporter {
 public:
  struct Options {
    std::string label;         ///< printed as the line prefix, e.g. "inject"
    std::uint64_t total = 0;   ///< expected Tick count (0 = unknown, no ETA)
    /// Names of the per-category tallies shown on the line (e.g. outcome
    /// class names). Tick(category) indexes into this list.
    std::vector<std::string> categories;
    double interval_seconds = 1.0;
    /// -1 = auto (EPVF_PROGRESS env var, else whether stderr is a tty),
    /// 0 = force off, 1 = force on. Gates the stderr line only; snapshot
    /// publication runs whenever snapshot_path is set.
    int enable = -1;
    /// When nonempty, the reporter atomically writes a ProgressSnapshot of
    /// its own counters to this file each interval and on Finish.
    std::string snapshot_path;
    /// Snapshot files of other processes' reporters; their done and
    /// category counts are folded into this reporter's line/snapshot.
    /// Missing or not-yet-written files count zero.
    std::vector<std::string> aggregate_paths;
  };

  explicit ProgressReporter(Options options);
  ProgressReporter(const ProgressReporter&) = delete;
  ProgressReporter& operator=(const ProgressReporter&) = delete;
  /// Finishes (prints the final line) if Finish was not already called.
  ~ProgressReporter();

  /// Records one completed unit, attributed to `category` when the reporter
  /// was configured with category names. Lock-free; callable from any thread.
  void Tick(std::size_t category = 0, std::uint64_t delta = 1);

  /// Stops the reporting thread and prints one final summary line.
  void Finish();

  /// Replaces the done/total head and ETA with an application-set status —
  /// for open-ended work like the stratified campaign planner, whose
  /// remaining-run count shrinks between rounds and whose "round r, strata
  /// live/total, widest CI" line is the honest progress signal. Thread-safe;
  /// an empty string restores the default head.
  void SetPhase(std::string phase);

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// The line the reporter would print now (no trailing newline). Exposed so
  /// tests can exercise the formatting without a terminal.
  [[nodiscard]] std::string StatusLine() const;

 private:
  void ReportLoop();
  void PrintLine(bool final_line);
  void PublishSnapshot() const;
  /// done + per-category counts, own ticks folded with every aggregate file.
  [[nodiscard]] ProgressSnapshot Aggregate() const;

  Options options_;
  bool enabled_ = false;
  /// Whether stderr was a terminal at construction. The `\r\033[2K` rewrite
  /// is decided once, here: a reporter forced on with EPVF_PROGRESS=1 while
  /// stderr is a pipe (the daemon's socket-streaming case) must emit plain
  /// newline-terminated lines even if stderr is later re-pointed at a tty —
  /// per-call isatty checks made that racy.
  bool tty_ = false;
  std::chrono::steady_clock::time_point start_;
  std::atomic<std::uint64_t> done_{0};
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> category_counts_;

  mutable std::mutex phase_mutex_;
  std::string phase_;

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool finished_ = false;
  std::thread thread_;
};

}  // namespace epvf::obs
