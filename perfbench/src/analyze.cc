// `analyze`: cold, uncached analyses taken to the full report — the paper's
// product. mm and lud spend most of their time in the activation walks;
// hotspot and pathfinder in the golden trace, DDG build, ACE and crash
// propagation. The workload seed picks the apps' input data.
#include <cstdio>
#include <exception>
#include <span>

#include "apps/app.h"
#include "bench.h"
#include "reference.h"

namespace perfbench {

namespace {

using namespace epvf;

struct AppSpec {
  const char* app;
  int scale;
};

// A one-core pass takes about 2 s, so a run holds many passes. Operation
// times order mm < hotspot < lud < pathfinder, so the median and the slowest
// operation are trace-bound: when other tenants of a shared host load its
// caches, the walks' scattered reads slow first and most (lud by about 30%
// while pathfinder held steady).
constexpr AppSpec kFullApps[] = {{"mm", 3}, {"lud", 4}, {"hotspot", 4}, {"pathfinder", 16}};
constexpr AppSpec kTinyApps[] = {{"mm", 1}, {"lud", 1}, {"hotspot", 1}, {"pathfinder", 2}};

class AnalyzeWorkload final : public Workload {
 public:
  explicit AnalyzeWorkload(const Config& config) {
    for (const AppSpec& spec : config.size == Size::kFull ? std::span(kFullApps)
                                                          : std::span(kTinyApps)) {
      specs_.push_back(spec);
    }
  }

  void Setup(Env& env) override {
    // Seed set 0 is the apps' default input; the others derive from it.
    const std::uint64_t set = env.config.SeedSet();
    const std::uint64_t input_seed = set == 0 ? apps::AppConfig{}.seed : Mix(set);
    modules_.clear();
    for (const AppSpec& spec : specs_) {
      modules_.push_back(BuildModule(env.tracer, spec.app, spec.scale, input_seed));
    }
    // A warm-up analysis of the largest app grows the heap and warms the code
    // before the first measured pass; set-up time carries it.
    const core::Analysis warm_up = core::Analysis::Run(*modules_.back(), AnalysisOpts(env.config));
    (void)core::StatsFromAnalysis(warm_up);
  }

  void RunIteration(Env& env, int /*iteration*/, std::vector<OpSample>& ops) override {
    const core::AnalysisOptions options = AnalysisOpts(env.config);
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      const std::string name =
          std::string(specs_[i].app) + ".s" + std::to_string(specs_[i].scale);
      bool ok = false;
      try {
        OpSample sample{.kind = "analyze." + name, .traced = env.tracer.enabled()};
        const auto start = std::chrono::steady_clock::now();
        core::ReportStats stats;
        {
          Scope op(env.tracer, "bench.analyze_op");
          if (env.tracer.enabled()) {
            const core::Analysis a = AnalyzeByLayers(env.tracer, *modules_[i], options,
                                                     /*probe=*/true, &sample.traced_extra_ms);
            stats = WalkAndReport(env.tracer, a);
          } else {
            const core::Analysis a = core::Analysis::Run(*modules_[i], options);
            stats = core::StatsFromAnalysis(a);
          }
        }
        sample.ms = MsSince(start);
        sample.minstr = static_cast<double>(stats.dyn_instructions) / 1e6;
        ok = env.refs.Check("analyze", env.config.SeedSet(), name, StatsLine(stats));
        if (ok) ops.push_back(std::move(sample));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: analyze %s failed: %s\n", name.c_str(), e.what());
      }
      env.outcome.Record(ok);
    }
  }

 private:
  std::vector<AppSpec> specs_;
  std::vector<std::unique_ptr<ir::Module>> modules_;
};

}  // namespace

std::unique_ptr<Workload> MakeAnalyzeWorkload(const Config& config) {
  return std::make_unique<AnalyzeWorkload>(config);
}

}  // namespace perfbench
