// Shared plumbing of the repository benchmark: run configuration, the
// outside-in span recorder, per-operation samples and the workload interface.
//
// The benchmark drives the library through the same public entry points the
// CLI calls. Untraced runs time whole operations only; traced runs call each
// layer's public functions one by one, each wrapped in a span recorded here
// (never inside the library), and derive the per-layer metrics from those
// spans afterwards.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "epvf/analysis.h"
#include "epvf/report.h"

namespace perfbench {

/// Input size: `full` is the measured benchmark, `tiny` the smoke-test size.
enum class Size { kFull, kTiny };

/// Workload seeds map onto this many shipped input sets; seed n uses set
/// n mod kSeedSets, whose reference outputs live in reference/<size>.ref.
inline constexpr std::uint64_t kSeedSets = 16;

/// Library pool threads. One: on a few shared cores, every extra thread of a
/// fork-join stage multiplies the chance that someone else's load stalls the
/// join, and the measured spread with it.
inline constexpr int kJobs = 1;

struct Config {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  Size size = Size::kFull;
  int jobs = kJobs;
  std::string reference_path;  ///< reference file to check against
  bool write_reference = false;  ///< append this run's outputs instead of checking
  std::string trace_out;       ///< Chrome trace_event JSON (traced runs)
  std::string tmp_dir;         ///< scratch space (edit-loop artifact cache)
  std::string commit;          ///< source identity recorded with the result

  [[nodiscard]] std::uint64_t SeedSet() const { return seed % kSeedSets; }
};

/// splitmix64: derives independent sub-seeds from one workload seed.
[[nodiscard]] std::uint64_t Mix(std::uint64_t x);

// --- spans -------------------------------------------------------------------

struct Span {
  std::string name;  ///< "<layer>.<what>", e.g. "ddg.ace"
  std::string phase; ///< "setup", "loop" or "sweep"
  int iteration = 0; ///< set-up repetition, loop iteration or sweep index
  int parent = -1;   ///< index of the enclosing span, -1 at top level
  double start_us = 0;
  double end_us = 0;
  std::map<std::string, double> args;

  [[nodiscard]] double Ms() const { return (end_us - start_us) / 1e3; }
  [[nodiscard]] std::string Layer() const { return name.substr(0, name.find('.')); }
  [[nodiscard]] double Arg(const std::string& key) const {
    const auto it = args.find(key);
    return it == args.end() ? 0.0 : it->second;
  }
};

/// In-memory span store. Spans are recorded only while enabled, kept until
/// the process ends, and written once as Chrome trace_event JSON.
class Tracer {
 public:
  void SetEnabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  void SetPhase(std::string phase, int iteration) {
    phase_ = std::move(phase);
    iteration_ = iteration;
  }
  void SetIteration(int iteration) { iteration_ = iteration; }

  /// Opens a span; returns its index, or -1 when disabled.
  int Begin(const std::string& name);
  void End(int id);
  void SetArg(int id, const std::string& key, double value);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Duration minus the time covered by direct children, per span.
  [[nodiscard]] std::vector<double> SelfMs() const;
  /// Writes every span as a Chrome "X" event (ts/dur in µs) plus `metadata`
  /// as the trace's otherData. Returns false on I/O failure.
  bool WriteChromeTrace(const std::string& path,
                        const std::map<std::string, std::string>& metadata) const;

 private:
  [[nodiscard]] double NowUs() const;

  bool enabled_ = false;
  std::string phase_ = "setup";
  int iteration_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
};

/// RAII span. A no-op when the tracer is disabled.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name) : tracer_(tracer), id_(tracer.Begin(name)) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() { tracer_.End(id_); }
  void Arg(const std::string& key, double value) { tracer_.SetArg(id_, key, value); }

 private:
  Tracer& tracer_;
  int id_;
};

// --- workloads -----------------------------------------------------------------

/// One closed-loop operation: an analysis, a campaign or an edit.
struct OpSample {
  std::string kind;   ///< e.g. "analyze.mm.s8", "uniform.lulesh.s1", "edit.nw"
  double ms = 0;      ///< wall time of the operation
  double minstr = 0;  ///< golden dynamic instructions it processed, in millions
  double injections = 0;  ///< campaigns: injections classified
  bool traced = false;
  double traced_extra_ms = 0;  ///< benchmark-added probe work inside `ms`
};

/// Counts operations and their failures (exceptions or reference mismatches).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

class References;

struct Env {
  const Config& config;
  Tracer& tracer;
  References& refs;
  Outcome& outcome;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the workload's inputs from the seed, discarding earlier state.
  /// Called several times; only the last set-up is measured against.
  virtual void Setup(Env& env) = 0;
  /// One pass of the closed loop (a fixed mix, so every pass weighs the same
  /// operations). Appends one sample per operation.
  virtual void RunIteration(Env& env, int iteration, std::vector<OpSample>& ops) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> MakeAnalyzeWorkload(const Config& config);
[[nodiscard]] std::unique_ptr<Workload> MakeCampaignWorkload(const Config& config);
[[nodiscard]] std::unique_ptr<Workload> MakeEditLoopWorkload(const Config& config);

// --- shared analysis helpers -------------------------------------------------

[[nodiscard]] epvf::core::AnalysisOptions AnalysisOpts(const Config& config);

/// Builds and verifies a bundled app inside an `ir.build` span.
[[nodiscard]] std::unique_ptr<epvf::ir::Module> BuildModule(Tracer& tracer,
                                                            const std::string& app, int scale,
                                                            std::uint64_t input_seed);

/// The analysis pipeline called layer by layer: golden-run probe (optional,
/// `vm.golden_run`), `ddg.trace_and_graph`, `ddg.ace`, `crash.propagate`, and
/// the Analysis rebuilt from those artifacts. Spans are recorded when the
/// tracer is enabled. `probe_ms` receives the probe's wall time.
[[nodiscard]] epvf::core::Analysis AnalyzeByLayers(Tracer& tracer, const epvf::ir::Module& module,
                                                   const epvf::core::AnalysisOptions& options,
                                                   bool probe, double* probe_ms);

/// Activation walks (`epvf.walks`) then the report inputs (`epvf.report`).
[[nodiscard]] epvf::core::ReportStats WalkAndReport(Tracer& tracer,
                                                    const epvf::core::Analysis& analysis);

/// Canonical one-line rendering of the report statistics (the reference format).
[[nodiscard]] std::string StatsLine(const epvf::core::ReportStats& stats);

/// Milliseconds since `start`.
[[nodiscard]] double MsSince(std::chrono::steady_clock::time_point start);

}  // namespace perfbench
