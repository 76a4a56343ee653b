#include "vm/interpreter.h"

#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "vm/bytecode.h"
#include "vm/compile.h"

namespace epvf::vm {

namespace {

void CountRun() {
  static obs::Counter& runs = obs::GetCounter("vm.runs");
  runs.Add();
}

}  // namespace

std::string_view TrapKindName(TrapKind kind) {
  switch (kind) {
    case TrapKind::kNone: return "none";
    case TrapKind::kSegFault: return "segfault";
    case TrapKind::kAbort: return "abort";
    case TrapKind::kMisaligned: return "misaligned";
    case TrapKind::kArithmetic: return "arithmetic";
    case TrapKind::kDetected: return "detected";
    case TrapKind::kInstructionLimit: return "instruction-limit";
  }
  return "<bad>";
}

Interpreter::Interpreter(const ir::Module& module, ExecOptions options)
    : module_(module), options_(std::move(options)), memory_(options_.layout, options_.jitter) {
  if (options_.record_map_history) memory_.RecordHistory(true);
  // Place globals in the data segment and write initializers.
  global_addresses_.reserve(module_.globals.size());
  for (const auto& g : module_.globals) {
    const std::uint64_t addr = memory_.AllocateData(g.ByteSize());
    global_addresses_.push_back(addr);
    if (!g.init.empty()) {
      memory_.WriteBytes(addr, std::span<const std::uint8_t>(g.init));
    }
  }
  program_ = options_.bytecode != nullptr ? options_.bytecode : bc::Compile(module_);
  // Constant bits are layout-independent, global addresses are not (jitter).
  literal_values_.resize(program_->functions.size());
  for (std::size_t i = 0; i < program_->functions.size(); ++i) {
    const std::vector<bc::Literal>& literals = program_->functions[i].literals;
    literal_values_[i].reserve(literals.size());
    for (const bc::Literal& lit : literals) {
      literal_values_[i].push_back(lit.is_global ? global_addresses_[lit.payload] : lit.payload);
    }
  }
}

RunResult Interpreter::Run(std::string_view entry, TraceSink* sink) {
  const obs::TraceSpan span("vm", "run");
  CountRun();
  RunResult result = Execute(EntryStack(entry, sink), 0, RunResult{}, {}, nullptr, sink);
  PublishPageCounts();
  return result;
}

RunResult Interpreter::RunWithCheckpoints(std::string_view entry,
                                          std::span<const std::uint64_t> checkpoint_at,
                                          std::vector<Checkpoint>& checkpoints,
                                          TraceSink* sink) {
  if (options_.record_map_history) {
    throw std::logic_error("Interpreter::RunWithCheckpoints: unsupported with map history");
  }
  const obs::TraceSpan span("vm", "run-with-checkpoints");
  CountRun();
  RunResult result =
      Execute(EntryStack(entry, sink), 0, RunResult{}, checkpoint_at, &checkpoints, sink);
  PublishPageCounts();
  return result;
}

RunResult Interpreter::ResumeFrom(const Checkpoint& checkpoint, TraceSink* sink) {
  const obs::TraceSpan span("vm", "resume-from");
  obs::TraceSpan restore_span("vm", "restore-snapshot");
  memory_.RestoreSnapshot(checkpoint.memory);
  restore_span.Close();
  RunResult result;
  result.output = checkpoint.output;
  result.fault_was_applied = checkpoint.fault_was_applied;
  CountRun();
  result = Execute(checkpoint.frames, checkpoint.dyn_index, std::move(result), {}, nullptr, sink);
  PublishPageCounts();
  return result;
}

void Interpreter::PublishPageCounts() {
  static obs::Counter& created = obs::GetCounter("vm.pages_created");
  static obs::Counter& cloned = obs::GetCounter("vm.pages_cloned");
  created.Add(memory_.pages_created() - published_pages_created_);
  cloned.Add(memory_.pages_cloned() - published_pages_cloned_);
  published_pages_created_ = memory_.pages_created();
  published_pages_cloned_ = memory_.pages_cloned();
}

std::vector<Interpreter::Frame> Interpreter::EntryStack(std::string_view entry, TraceSink* sink) {
  const auto entry_index = module_.FindFunction(entry);
  if (!entry_index) throw std::invalid_argument("Interpreter: no function named " + std::string(entry));
  if (module_.functions[*entry_index].num_params != 0) {
    throw std::invalid_argument("Interpreter: entry function must take no parameters");
  }

  std::vector<Frame> stack;
  stack.push_back(NewFrame(*entry_index));
  if (sink != nullptr) sink->OnEnterFunction(*entry_index);
  return stack;
}

}  // namespace epvf::vm
