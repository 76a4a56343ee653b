#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "apps/app.h"
#include "bench.h"
#include "crash/crash_model.h"
#include "crash/propagation.h"
#include "ddg/ace.h"
#include "ddg/builder.h"
#include "ir/verifier.h"
#include "vm/interpreter.h"

namespace perfbench {

using namespace epvf;

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

// --- Tracer ------------------------------------------------------------------

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - epoch_)
      .count();
}

int Tracer::Begin(const std::string& name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.phase = phase_;
  span.iteration = iteration_;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_us = NowUs();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_us = NowUs();
  // Spans close innermost first (they are scoped), so `id` is on top.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::SetArg(int id, const std::string& key, double value) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].args[key] = value;
}

std::vector<double> Tracer::SelfMs() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].Ms();
  // Children run on the calling thread inside their parent, so they never
  // overlap one another: subtracting their durations leaves the self time.
  for (const Span& span : spans_) {
    if (span.parent >= 0) self[static_cast<std::size_t>(span.parent)] -= span.Ms();
  }
  return self;
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

bool Tracer::WriteChromeTrace(const std::string& path,
                              const std::map<std::string, std::string>& metadata) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"traceEvents\":[\n";
  out << R"({"name":"process_name","ph":"M","pid":1,"tid":1,"args":{"name":"perfbench"}})";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << ",\n{\"name\":" << JsonString(s.name) << ",\"cat\":" << JsonString(s.Layer())
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << Num(s.start_us)
        << ",\"dur\":" << Num(s.end_us - s.start_us) << ",\"args\":{\"id\":" << i
        << ",\"parent\":" << s.parent << ",\"phase\":" << JsonString(s.phase)
        << ",\"iteration\":" << s.iteration;
    for (const auto& [key, value] : s.args) out << ',' << JsonString(key) << ':' << Num(value);
    out << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{";
  bool first = true;
  for (const auto& [key, value] : metadata) {
    out << (first ? "" : ",") << JsonString(key) << ':' << JsonString(value);
    first = false;
  }
  out << "}}\n";
  return static_cast<bool>(out);
}

// --- analysis helpers --------------------------------------------------------

core::AnalysisOptions AnalysisOpts(const Config& config) {
  core::AnalysisOptions options;
  options.jobs = config.jobs;
  return options;
}

std::unique_ptr<ir::Module> BuildModule(Tracer& tracer, const std::string& app, int scale,
                                        std::uint64_t input_seed) {
  Scope span(tracer, "ir.build");
  span.Arg("scale", scale);
  apps::AppConfig config;
  config.scale = scale;
  config.seed = input_seed;
  // BuildApp verifies the module before returning it.
  return std::make_unique<ir::Module>(apps::BuildApp(app, config).module);
}

core::Analysis AnalyzeByLayers(Tracer& tracer, const ir::Module& module,
                               const core::AnalysisOptions& options, bool probe,
                               double* probe_ms) {
  // The same execution options Analysis::Run uses for its golden run.
  vm::ExecOptions exec;
  exec.max_instructions = options.max_instructions;
  exec.layout = options.layout;
  exec.record_map_history = true;

  if (probe) {
    const auto start = std::chrono::steady_clock::now();
    Scope span(tracer, "vm.golden_run");
    vm::Interpreter interpreter(module, exec);
    const vm::RunResult run = interpreter.Run(options.entry, nullptr);
    span.Arg("dyn_instr", static_cast<double>(run.instructions_executed));
    if (probe_ms != nullptr) *probe_ms = MsSince(start);
  }

  ir::VerifyModuleOrThrow(module);
  auto interpreter = std::make_unique<vm::Interpreter>(module, exec);
  vm::RunResult golden;
  ddg::Graph graph;
  {
    Scope span(tracer, "ddg.trace_and_graph");
    ddg::GraphBuilder builder(module);
    golden = interpreter->Run(options.entry, &builder);
    if (!golden.Completed()) {
      throw std::runtime_error(std::string("golden run trapped with ") +
                               std::string(vm::TrapKindName(golden.trap)));
    }
    graph = builder.Take();
    span.Arg("nodes", static_cast<double>(graph.NumNodes()));
    span.Arg("dyn_instr", static_cast<double>(golden.instructions_executed));
  }
  ddg::AceResult ace;
  {
    Scope span(tracer, "ddg.ace");
    ace = ddg::ComputeAce(graph, options.jobs);
  }
  crash::CrashBits crash_bits;
  {
    Scope span(tracer, "crash.propagate");
    const crash::CrashModel model(interpreter->memory());
    crash_bits = crash::PropagateCrashRanges(graph, ace, model, options.jobs);
    span.Arg("crash_bits", static_cast<double>(crash_bits.total_crash_bits));
  }
  return core::Analysis::Restore(module, options, std::move(golden), std::move(graph),
                                 std::move(ace), std::move(crash_bits), std::nullopt);
}

core::ReportStats WalkAndReport(Tracer& tracer, const core::Analysis& analysis) {
  {
    Scope span(tracer, "epvf.walks");
    (void)analysis.use_weighted_bits();
  }
  Scope span(tracer, "epvf.report");
  return core::StatsFromAnalysis(analysis);
}

std::string StatsLine(const core::ReportStats& s) {
  std::string line;
  char buf[256];
  const auto add = [&](const char* fmt, auto... values) {
    std::snprintf(buf, sizeof buf, fmt, values...);
    line += buf;
  };
  using ull = unsigned long long;
  add("dyn=%llu nodes=%llu ace_nodes=%llu ace_bits=%llu total_bits=%llu crash_bits=%llu",
      ull{s.dyn_instructions}, ull{s.num_nodes}, ull{s.ace_node_count}, ull{s.ace_bits},
      ull{s.total_bits}, ull{s.crash_bits});
  add(" uses=%llu/%llu/%llu mem=%llu/%llu/%llu", ull{s.use_weighted.total},
      ull{s.use_weighted.ace}, ull{s.use_weighted.crash}, ull{s.mem_total}, ull{s.mem_ace},
      ull{s.mem_crash});
  for (const core::StructureVulnerability& cls : s.structure) {
    add(" %s=%llu/%llu/%llu", std::string(core::RegisterClassName(cls.cls)).c_str(),
        ull{cls.total_bits}, ull{cls.ace_bits}, ull{cls.crash_bits});
  }
  add(" pvf=%.17g epvf=%.17g crash_rate=%.17g", s.Pvf(), s.Epvf(), s.CrashRateEstimate());
  return line;
}

}  // namespace perfbench
