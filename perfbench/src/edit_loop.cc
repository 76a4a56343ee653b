// `edit-loop`: an editor session. A seeded sequence of unit-local edits
// (all four core::MutateAnywhere kinds) lands on lulesh, hotspot and nw; each
// edit is printed to IR text and taken from that text to a recomposed report:
// parse + verify, store::RunAnalysisIncremental against an artifact cache in
// the run's scratch directory, core::ComposeProgram. The only workload where
// IR parsing, store reads *and* writes, and compose/replay carry the load.
//
// Correctness: outside the timed region, a sampled share of edits (every
// edit in traced runs) is re-analyzed from scratch with core::Analysis::Run
// and must match the recomposed statistics bit for bit.
#include <algorithm>
#include <array>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <set>
#include <utility>

#include "apps/app.h"
#include "bench.h"
#include "epvf/compose.h"
#include "epvf/mutate.h"
#include "epvf/units.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "reference.h"
#include "store/units_store.h"

namespace perfbench {

namespace {

using namespace epvf;

constexpr const char* kApps[] = {"lulesh", "hotspot", "nw"};
constexpr std::array<core::MutationKind, 4> kKinds = {
    core::MutationKind::kSwapIndependent, core::MutationKind::kRenameRegister,
    core::MutationKind::kRenameBlock, core::MutationKind::kTweakConstant};
/// Untraced runs cross-check every kCheckEvery-th edit against a fresh run.
constexpr std::uint64_t kCheckEvery = 4;

struct AppState {
  std::string app;
  std::unique_ptr<ir::Module> base;  ///< the unedited module every edit starts from
  store::AnalysisKey key;
  std::string manifest_path;       ///< the app's latest-state pointer in the store
  std::string base_manifest_copy;  ///< that pointer as set-up left it (outside the store)
};

class EditLoopWorkload final : public Workload {
 public:
  explicit EditLoopWorkload(const Config& config)
      : scale_(config.size == Size::kFull ? 2 : 1) {}

  ~EditLoopWorkload() override {
    cache_.reset();
    if (!work_dir_.empty()) std::filesystem::remove_all(work_dir_);
  }

  void Setup(Env& env) override {
    // Every set-up starts from an empty cache, so each one pays the same
    // cold analysis + full persist.
    cache_.reset();
    if (!work_dir_.empty()) std::filesystem::remove_all(work_dir_);
    work_dir_ = env.config.tmp_dir + "/edit-" + std::to_string(setups_++);
    const std::string cache_dir = work_dir_ + "/store";
    cache_ = std::make_unique<store::ArtifactCache>(cache_dir);
    const core::AnalysisOptions options = AnalysisOpts(env.config);
    apps_.clear();
    for (const char* app : kApps) {
      AppState state;
      state.app = app;
      state.base = BuildModule(env.tracer, app, scale_, apps::AppConfig{}.seed);
      state.key.app = app;
      state.key.config = "scale=" + std::to_string(scale_);
      state.key.module_fingerprint = store::ModuleFingerprint(*state.base);
      state.key.options = options;
      {
        Scope span(env.tracer, "store.run_incremental");
        (void)store::RunAnalysisIncremental(*state.base, options, state.key, *cache_);
      }
      state.manifest_path = cache_->EntryPath(store::CacheId(store::ManifestKey{state.key}),
                                              store::ArtifactKind::kUnitManifest);
      state.base_manifest_copy = work_dir_ + "/base-" + state.app + ".manifest";
      std::filesystem::copy_file(state.manifest_path, state.base_manifest_copy);
      apps_.push_back(std::move(state));
    }
    base_entries_.clear();
    for (const auto& entry : std::filesystem::directory_iterator(cache_dir)) {
      base_entries_.insert(entry.path().string());
    }
    edits_ = 0;
  }

  /// One pass = every (app, kind) pair once, in a seeded order.
  void RunIteration(Env& env, int iteration, std::vector<OpSample>& ops) override {
    std::vector<std::pair<std::size_t, std::size_t>> order;
    for (std::size_t a = 0; a < apps_.size(); ++a) {
      for (std::size_t k = 0; k < kKinds.size(); ++k) order.emplace_back(a, k);
    }
    std::uint64_t rng = Mix(env.config.seed ^ Mix(static_cast<std::uint64_t>(iteration)));
    for (std::size_t i = order.size(); i > 1; --i) {
      rng = Mix(rng);
      std::swap(order[i - 1], order[rng % i]);
    }
    for (const auto& [a, k] : order) Edit(env, apps_[a], a, k, ops);
  }

 private:
  void Edit(Env& env, AppState& state, std::size_t app_index, std::size_t kind_index,
            std::vector<OpSample>& ops) {
    const std::uint64_t edit = edits_++;
    env.tracer.SetIteration(static_cast<int>(edit));
    const core::AnalysisOptions options = AnalysisOpts(env.config);
    bool ok = false;
    try {
      // Every edit starts from the unedited module and the store exactly as
      // set-up left it, so repeating an edit repeats its work (a unit entry an
      // earlier edit wrote would otherwise turn its write into a hit).
      // Chaining edits instead trips a library defect: after a tweak-constant
      // edit, a later fast-path edit recomposes one DDG node fewer than a
      // fresh analysis. The edit itself is the user's work, not the tool's:
      // untimed.
      RestoreStore(state);
      ir::Module edited = *state.base;
      const core::UnitPartition partition = core::PartitionModule(edited);
      // The site depends on (app, kind) only; the workload seed orders the
      // edits. An edit's cost depends on the unit it lands in (a register
      // rename in one hotspot unit costs twice one in another), so
      // seed-chosen sites would make different seeds measure different work.
      // Every pass repeats the same twelve edits, so each kind's samples
      // also share one fast-path or fallback outcome.
      const std::uint64_t mutation_seed = Mix(app_index * kKinds.size() + kind_index);
      std::optional<core::Mutation> mutation;
      for (std::size_t t = 0; t < kKinds.size() && !mutation.has_value(); ++t) {
        mutation = core::MutateAnywhere(edited, partition, kKinds[(kind_index + t) % kKinds.size()],
                                        mutation_seed);
      }
      if (!mutation.has_value()) throw std::runtime_error("no mutation site in " + state.app);
      const std::string text = ir::PrintModule(edited);

      OpSample sample{.kind = "edit." + state.app + "." +
                                 std::string(core::MutationKindName(kKinds[kind_index])),
                       .traced = env.tracer.enabled()};
      const auto start = std::chrono::steady_clock::now();
      std::unique_ptr<ir::Module> next;
      store::IncrementalResult result;
      core::ReportStats stats;
      {
        Scope op(env.tracer, "bench.edit_op");
        {
          Scope span(env.tracer, "ir.parse");
          next = std::make_unique<ir::Module>(ir::ParseModuleOrThrow(text));
          ir::VerifyModuleOrThrow(*next);
        }
        {
          Scope span(env.tracer, "store.fingerprint");
          state.key.module_fingerprint = store::ModuleFingerprint(*next);
        }
        const store::CacheCounters before = cache_->session_counters();
        {
          Scope span(env.tracer, "store.run_incremental");
          result = store::RunAnalysisIncremental(*next, options, state.key, *cache_);
          const store::CacheCounters& after = cache_->session_counters();
          span.Arg("fast_path", result.stats.outcome.used_fast_path ? 1 : 0);
          span.Arg("cold_rebuild", result.stats.cold_rebuild ? 1 : 0);
          span.Arg("unit_hits", result.stats.unit_hits);
          span.Arg("units_total", result.stats.units_total);
          span.Arg("bytes_written", static_cast<double>(after.bytes_written - before.bytes_written));
          span.Arg("bytes_read", static_cast<double>(after.bytes_read - before.bytes_read));
        }
        Scope span(env.tracer, "epvf.compose");
        stats = core::ComposeProgram(result.slices);
      }
      sample.ms = MsSince(start);
      sample.minstr = static_cast<double>(stats.dyn_instructions) / 1e6;

      std::string expected;
      if (env.tracer.enabled()) {
        // The plain full analysis of the same edited module: the identity
        // check, and the denominator of the incremental-vs-full ratio.
        Scope span(env.tracer, "bench.full_analysis");
        span.Arg("edit_ms", sample.ms);
        const core::Analysis fresh = AnalyzeByLayers(env.tracer, *next, options, true, nullptr);
        expected = StatsLine(WalkAndReport(env.tracer, fresh));
      } else if (edit % kCheckEvery == 0) {
        expected = StatsLine(core::StatsFromAnalysis(core::Analysis::Run(*next, options)));
      }
      const std::string got = StatsLine(stats);
      ok = expected.empty() || expected == got;
      if (!ok) {
        std::fprintf(stderr,
                     "perfbench: edit %llu (%s on %s) recomposed stats differ from a fresh "
                     "analysis\n  fresh      %s\n  recomposed %s\n",
                     static_cast<unsigned long long>(edit), mutation->description.c_str(),
                     state.app.c_str(), expected.c_str(), got.c_str());
      }
      if (ok) ops.push_back(std::move(sample));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: edit %llu on %s failed: %s\n",
                   static_cast<unsigned long long>(edit), state.app.c_str(), e.what());
    }
    env.outcome.Record(ok);
  }

  /// Drops every store entry written since set-up and puts back `state`'s
  /// set-up manifest (other apps' manifests are put back before their edits).
  void RestoreStore(const AppState& state) {
    std::vector<std::filesystem::path> added;
    for (const auto& entry : std::filesystem::directory_iterator(work_dir_ + "/store")) {
      if (base_entries_.count(entry.path().string()) == 0) added.push_back(entry.path());
    }
    for (const auto& path : added) std::filesystem::remove(path);
    std::filesystem::copy_file(state.base_manifest_copy, state.manifest_path,
                               std::filesystem::copy_options::overwrite_existing);
  }

  int scale_;
  std::vector<AppState> apps_;
  std::unique_ptr<store::ArtifactCache> cache_;
  std::string work_dir_;
  std::set<std::string> base_entries_;  ///< store files right after set-up
  int setups_ = 0;
  std::uint64_t edits_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeEditLoopWorkload(const Config& config) {
  return std::make_unique<EditLoopWorkload>(config);
}

}  // namespace perfbench
