// Microbenchmarks (google-benchmark): throughput of the pipeline stages —
// the "tuned C/C++ implementation" speedup the paper's section VI-A asks for.
//
// The interpreter benchmarks are split by executor mode (the careful step a
// trace sink keeps every instruction on vs. the sink-free fast loop) so the
// fast loop's speedup is measured in isolation, and a custom main() follows
// the google-benchmark run with two extra sections dumped to BENCH_micro.json
// at the repo root:
//   - interpreter ops/sec per app and mode (wall-clock, compile excluded);
//   - the dynamic opcode mix and superinstruction coverage: how often each
//     bytecode opcode actually retires and what share of the trace the five
//     fused pairs (cmp+br, gep+load, gep+store, mul+add, fmul+fadd) cover —
//     the data that justifies the superinstruction set in src/vm/compile.cc.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "apps/app.h"
#include "bench/bench_common.h"
#include "crash/crash_model.h"
#include "crash/propagation.h"
#include "ddg/ace.h"
#include "ddg/builder.h"
#include "epvf/analysis.h"
#include "support/stopwatch.h"
#include "support/table.h"
#include "vm/bytecode.h"
#include "vm/compile.h"
#include "vm/interpreter.h"
#include "vm/trace.h"

namespace {

using namespace epvf;

const apps::App& MmApp() {
  static const apps::App app = apps::BuildApp("mm", apps::AppConfig{.scale = 1});
  return app;
}

const core::Analysis& MmAnalysis() {
  static const core::Analysis analysis = core::Analysis::Run(MmApp().module);
  return analysis;
}

void BM_InterpreterThroughput(benchmark::State& state, bool careful) {
  const apps::App& app = MmApp();
  vm::ExecOptions opts;
  // Compile once outside the loop: the steady-state campaign cost is what
  // matters, and fi::Injector shares one compile across all runs the same way.
  opts.bytecode = vm::bc::Compile(app.module);
  vm::NullTraceSink sink;
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    vm::Interpreter interp(app.module, opts);
    const vm::RunResult r = interp.Run("main", careful ? &sink : nullptr);
    instructions += r.instructions_executed;
    benchmark::DoNotOptimize(r.output.data());
  }
  state.counters["instr/s"] =
      benchmark::Counter(static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_InterpreterThroughput, careful, true)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_InterpreterThroughput, fast, false)->Unit(benchmark::kMillisecond);

void BM_BytecodeCompile(benchmark::State& state) {
  const apps::App& app = MmApp();
  for (auto _ : state) {
    const auto program = vm::bc::Compile(app.module);
    benchmark::DoNotOptimize(program->functions.data());
  }
}
BENCHMARK(BM_BytecodeCompile)->Unit(benchmark::kMillisecond);

void BM_InterpreterWithDdgConstruction(benchmark::State& state) {
  const apps::App& app = MmApp();
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    vm::ExecOptions opts;
    opts.record_map_history = true;
    vm::Interpreter interp(app.module, opts);
    ddg::GraphBuilder builder(app.module);
    const vm::RunResult r = interp.Run("main", &builder);
    instructions += r.instructions_executed;
    benchmark::DoNotOptimize(builder.graph().NumNodes());
  }
  state.counters["instr/s"] =
      benchmark::Counter(static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpreterWithDdgConstruction)->Unit(benchmark::kMillisecond);

void BM_AceAnalysis(benchmark::State& state) {
  const core::Analysis& a = MmAnalysis();
  for (auto _ : state) {
    const ddg::AceResult ace = ddg::ComputeAce(a.graph());
    benchmark::DoNotOptimize(ace.ace_bits);
  }
  state.counters["nodes/s"] = benchmark::Counter(
      static_cast<double>(a.graph().NumNodes() * state.iterations()) /
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AceAnalysis)->Unit(benchmark::kMillisecond);

void BM_CrashPropagation(benchmark::State& state) {
  const core::Analysis& a = MmAnalysis();
  const crash::CrashModel model(a.memory());
  for (auto _ : state) {
    const crash::CrashBits bits = crash::PropagateCrashRanges(a.graph(), a.ace(), model);
    benchmark::DoNotOptimize(bits.total_crash_bits);
  }
}
BENCHMARK(BM_CrashPropagation)->Unit(benchmark::kMillisecond);

void BM_FullPipeline(benchmark::State& state) {
  const apps::App& app = MmApp();
  for (auto _ : state) {
    const core::Analysis a = core::Analysis::Run(app.module);
    benchmark::DoNotOptimize(a.Epvf());
  }
}
BENCHMARK(BM_FullPipeline)->Unit(benchmark::kMillisecond);

void BM_SingleInjection(benchmark::State& state) {
  const apps::App& app = MmApp();
  const core::Analysis& a = MmAnalysis();
  vm::ExecOptions exec;
  exec.fault = vm::FaultPlan{a.graph().NumDynInstrs() / 2, 0, 7};
  exec.bytecode = vm::bc::Compile(app.module);
  for (auto _ : state) {
    vm::Interpreter interp(app.module, exec);
    const vm::RunResult r = interp.Run();
    benchmark::DoNotOptimize(r.trap);
  }
}
BENCHMARK(BM_SingleInjection)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Dynamic opcode mix: what the fast loop actually retires.
//
// A run with a trace sink maps every dynamic instruction back to its
// bytecode pc. When the opcode at that pc is a superinstruction the
// following instruction belongs to the same fused handler, so it is counted
// under the fused opcode rather than on its own — the histogram matches what
// the threaded dispatch loop dispatches, not the raw IR stream.
class OpcodeMixSink final : public vm::TraceSink {
 public:
  explicit OpcodeMixSink(const vm::bc::Program& program) : program_(program) {}

  void OnInstruction(const vm::DynContext& ctx) override {
    ++total_;
    const vm::bc::FuncCode& fc = program_.functions[ctx.sid.function];
    const std::uint32_t pc = fc.PcOf(ctx.sid.block, ctx.sid.instr);
    if (skip_valid_ && skip_fn_ == ctx.sid.function && skip_pc_ == pc) {
      skip_valid_ = false;  // second half of a fused pair, already counted
      return;
    }
    const vm::bc::BOpcode op = fc.code[pc].op;
    ++counts_[static_cast<int>(op)];
    skip_valid_ = vm::bc::IsFused(op);
    skip_fn_ = ctx.sid.function;
    skip_pc_ = pc + 1;
  }

  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::uint64_t Count(vm::bc::BOpcode op) const {
    return counts_[static_cast<int>(op)];
  }
  [[nodiscard]] std::vector<std::pair<vm::bc::BOpcode, std::uint64_t>> Sorted() const {
    std::vector<std::pair<vm::bc::BOpcode, std::uint64_t>> out;
    for (int i = 0; i < vm::bc::kNumBOpcodes; ++i) {
      if (counts_[i] > 0) out.emplace_back(static_cast<vm::bc::BOpcode>(i), counts_[i]);
    }
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    return out;
  }

 private:
  const vm::bc::Program& program_;
  std::uint64_t counts_[vm::bc::kNumBOpcodes] = {};
  std::uint64_t total_ = 0;
  bool skip_valid_ = false;
  std::uint32_t skip_fn_ = 0;
  std::uint32_t skip_pc_ = 0;
};

/// Wall-clock instr/s of one executor mode on one app (careful: a no-op sink
/// keeps every instruction on the careful step); the bytecode compile
/// happens once up front so steady-state execution is what gets timed.
double MeasureInstrPerSec(const apps::App& app, bool careful) {
  vm::ExecOptions opts;
  opts.bytecode = vm::bc::Compile(app.module);
  vm::NullTraceSink sink;
  vm::TraceSink* attached = careful ? &sink : nullptr;
  {
    vm::Interpreter warmup(app.module, opts);
    (void)warmup.Run("main", attached);
  }
  std::uint64_t instructions = 0;
  int reps = 0;
  Stopwatch watch;
  while (reps < 3 || watch.ElapsedSeconds() < 0.5) {
    vm::Interpreter interp(app.module, opts);
    instructions += interp.Run("main", attached).instructions_executed;
    ++reps;
  }
  const double seconds = watch.ElapsedSeconds();
  return seconds > 0 ? static_cast<double>(instructions) / seconds : 0;
}

void ReportOpcodeMix(bench::BenchJson& json) {
  AsciiTable speed({"Benchmark", "mode", "instr/s", "vs careful"});
  speed.SetTitle("Interpreter throughput: careful step (sink attached) vs fast loop");
  AsciiTable mix({"Benchmark", "opcode", "dispatches", "share"});
  mix.SetTitle("Dynamic opcode mix as dispatched by the fast loop (top 12)");
  AsciiTable fused({"Benchmark", "superinstruction", "pairs", "trace covered"});
  fused.SetTitle("Superinstruction coverage (two IR instructions per dispatch)");

  for (const std::string& name : {std::string("mm"), std::string("lulesh")}) {
    const apps::App app = apps::BuildApp(name, apps::AppConfig{.scale = bench::Scale()});
    const double careful = MeasureInstrPerSec(app, /*careful=*/true);
    const double fast = MeasureInstrPerSec(app, /*careful=*/false);
    const double speedup = careful > 0 ? fast / careful : 0;
    speed.AddRow({name, "careful", AsciiTable::Num(careful / 1e6, 1) + "M", "1.00x"});
    speed.AddRow({name, "fast", AsciiTable::Num(fast / 1e6, 1) + "M",
                  AsciiTable::Num(speedup, 2) + "x"});
    json.Add("interp/" + name + "/careful", "instr_per_sec", careful);
    json.Add("interp/" + name + "/fast", "instr_per_sec", fast);
    json.Add("interp/" + name + "/fast", "speedup_vs_careful", speedup);

    const auto program = vm::bc::Compile(app.module);
    OpcodeMixSink sink(*program);
    vm::ExecOptions opts;
    opts.bytecode = program;
    vm::Interpreter interp(app.module, opts);
    (void)interp.Run("main", &sink);

    const double total = static_cast<double>(sink.total());
    int shown = 0;
    for (const auto& [op, count] : sink.Sorted()) {
      const std::string op_name{vm::bc::BOpcodeName(op)};
      json.Add("mix/" + name + "/" + op_name, "dispatches", static_cast<double>(count));
      if (shown++ < 12) {
        mix.AddRow({name, op_name, std::to_string(count),
                    AsciiTable::Num(100.0 * static_cast<double>(count) / total, 1) + "%"});
      }
      if (vm::bc::IsFused(op)) {
        const double covered = 2.0 * static_cast<double>(count) / total;
        fused.AddRow({name, op_name, std::to_string(count),
                      AsciiTable::Num(100.0 * covered, 1) + "%"});
        json.Add("fused/" + name + "/" + op_name, "dyn_pairs", static_cast<double>(count));
        json.Add("fused/" + name + "/" + op_name, "trace_share", covered);
      }
    }
    json.Add("mix/" + name + "/total", "instructions", total);
  }

  speed.Print(std::cout);
  mix.SetFootnote("fused opcodes retire two IR instructions per dispatch; their second "
                  "halves are not double-counted");
  mix.Print(std::cout);
  fused.Print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  bench::BenchJson json("micro", /*default_to_repo_root=*/true);
  ReportOpcodeMix(json);
  return 0;
}
