#include "epvf/analysis.h"

#include <span>
#include <stdexcept>

#include "ddg/builder.h"
#include "epvf/walks.h"
#include "ir/verifier.h"
#include "obs/timing.h"
#include "support/bits.h"
#include "support/thread_pool.h"

namespace epvf::core {

Analysis Analysis::Run(const ir::Module& module, AnalysisOptions options) {
  ir::VerifyModuleOrThrow(module);

  Analysis analysis;
  analysis.module_ = &module;
  analysis.options_ = options;

  obs::GetCounter("analysis.runs").Add();

  // Each stage's wall time flows through one TimedSection into the trace
  // buffer, the metrics registry, and the AnalysisTimings field at once.
  // --- 1. golden run + DDG construction (the dynamic trace of §III-A) ------
  {
    const obs::TimedSection timed("ddg", "trace-and-graph", "analysis.trace_and_graph.us",
                                  &analysis.timings_.trace_and_graph_seconds);
    vm::ExecOptions exec;
    exec.max_instructions = options.max_instructions;
    exec.layout = options.layout;
    exec.record_map_history = true;  // the per-access /proc probe equivalent
    analysis.interpreter_ = std::make_unique<vm::Interpreter>(module, exec);
    ddg::GraphBuilder builder(module);
    analysis.golden_ = analysis.interpreter_->Run(options.entry, &builder);
    if (!analysis.golden_.Completed()) {
      throw std::runtime_error(
          std::string("Analysis: golden run trapped with ") +
          std::string(vm::TrapKindName(analysis.golden_.trap)));
    }
    analysis.graph_ = builder.Take();
  }
  obs::GetCounter("analysis.dyn_instructions").Add(analysis.golden_.instructions_executed);

  // --- 2. base ACE analysis -------------------------------------------------
  {
    const obs::TimedSection timed("ace", "compute-ace", "analysis.ace.us",
                                  &analysis.timings_.ace_seconds);
    analysis.ace_ = ddg::ComputeAce(analysis.graph_, options.jobs);
  }
  analysis.timings_.ace_threads = ThreadPool::ResolveJobs(options.jobs);

  // --- 3. crash model + propagation model -----------------------------------
  {
    const obs::TimedSection timed("crash-model", "crash-model", "analysis.crash_model.us",
                                  &analysis.timings_.crash_model_seconds);
    analysis.crash_model_ =
        std::make_unique<crash::CrashModel>(analysis.interpreter_->memory());
    analysis.crash_bits_ = crash::PropagateCrashRanges(analysis.graph_, analysis.ace_,
                                                       *analysis.crash_model_, options.jobs);
  }
  analysis.timings_.crash_threads = ThreadPool::ResolveJobs(options.jobs);
  return analysis;
}

Analysis Analysis::Restore(const ir::Module& module, AnalysisOptions options,
                           vm::RunResult golden, ddg::Graph graph, ddg::AceResult ace,
                           crash::CrashBits crash_bits,
                           std::optional<UseWeightedBits> use_weighted) {
  Analysis analysis;
  analysis.module_ = &module;
  analysis.options_ = std::move(options);
  analysis.golden_ = std::move(golden);
  analysis.graph_ = std::move(graph);
  analysis.ace_ = std::move(ace);
  analysis.crash_bits_ = std::move(crash_bits);
  if (use_weighted.has_value()) {
    std::call_once(analysis.use_weighted_->filled,
                   [&] { analysis.use_weighted_->bits = *use_weighted; });
  }
  return analysis;
}

const mem::SimMemory& Analysis::memory() const {
  if (interpreter_ == nullptr) {
    throw std::logic_error(
        "Analysis::memory(): restored analysis, no live interpreter — "
        "run the full pipeline for memory-state consumers");
  }
  return interpreter_->memory();
}

const crash::CrashModel& Analysis::crash_model() const {
  if (crash_model_ == nullptr) {
    throw std::logic_error(
        "Analysis::crash_model(): restored analysis, no live crash model — "
        "run the full pipeline for crash-model consumers");
  }
  return *crash_model_;
}

double Analysis::Epvf() const {
  if (ace_.total_bits == 0) return 0.0;
  return static_cast<double>(ace_.ace_bits - crash_bits_.total_crash_bits) /
         static_cast<double>(ace_.total_bits);
}

const Analysis::UseWeightedBits& Analysis::ComputeUseWeightedBits() const {
  // Every use-weighted metric shares the one pass; concurrent first callers
  // wait for a single fill.
  std::call_once(use_weighted_->filled, [this] { use_weighted_->bits = WalkUseSites(); });
  return use_weighted_->bits;
}

Analysis::UseWeightedBits Analysis::WalkUseSites() const {
  // Enumerate the fault-injection site distribution: every register operand
  // of every dynamic instruction (for phi, only the taken incoming slot — the
  // only one a register-level flip can influence), every bit equally likely.
  // Crash bits are charged only to sites whose activation walk reaches a
  // memory address (see FirstEffect above). Each dyn instruction's sites are
  // independent (the index, oracle, and masks are read-only), so the walks
  // fan out across the pool; the chunk-ordered fold keeps the sums
  // thread-count-invariant.
  const obs::TimedSection timed("ace", "use-weighted-walks", "analysis.rate_estimate.us",
                                &timings_.rate_estimate_seconds);
  const UseIndex uses = BuildUseIndex(graph_, options_.jobs);
  const ControlOracle control(*module_);
  const GlobalWalkView view(graph_, uses);
  const UseWeightedBits sums = ParallelReduce(
      std::size_t{0}, graph_.NumDynInstrs(), UseWeightedBits{},
      [&](std::size_t chunk_begin, std::size_t chunk_end) {
        UseWeightedBits part;
        for (std::size_t i = chunk_begin; i < chunk_end; ++i) {
          const auto dyn = static_cast<std::uint32_t>(i);
          const ddg::DynInstr& d = graph_.GetDyn(dyn);
          const ir::Instruction& inst = graph_.InstructionOf(d);
          const auto nodes = graph_.OperandNodes(dyn);
          for (std::size_t slot = 0; slot < nodes.size(); ++slot) {
            if (!inst.operands[slot].IsRegister()) continue;
            if (inst.op == ir::Opcode::kPhi && slot != d.selected_operand) continue;
            const ddg::NodeId node = nodes[slot];
            if (node == ddg::kNoNode) continue;
            const unsigned width = graph_.GetNode(node).width;
            part.total += width;
            if (!ace_.Contains(node)) continue;
            part.ace += width;
            const std::uint64_t mask = crash_bits_.crash_mask[node] & LowMask(width);
            if (mask == 0) continue;
            if (FirstEffect(view, control, node, std::uint64_t{dyn}, /*depth=*/6) ==
                UseEffect::kCrash) {
              part.crash += PopCount(mask);
            }
          }
        }
        return part;
      },
      [](UseWeightedBits acc, const UseWeightedBits& part) {
        acc.total += part.total;
        acc.ace += part.ace;
        acc.crash += part.crash;
        return acc;
      },
      ParallelOptions{.jobs = options_.jobs});
  timings_.rate_estimate_threads = ThreadPool::ResolveJobs(options_.jobs);
  return sums;
}

double Analysis::CrashRateEstimate() const {
  const UseWeightedBits sums = ComputeUseWeightedBits();
  return sums.total == 0 ? 0.0
                         : static_cast<double>(sums.crash) / static_cast<double>(sums.total);
}

double Analysis::PvfUseWeighted() const {
  const UseWeightedBits sums = ComputeUseWeightedBits();
  return sums.total == 0 ? 0.0
                         : static_cast<double>(sums.ace) / static_cast<double>(sums.total);
}

double Analysis::EpvfUseWeighted() const {
  const UseWeightedBits sums = ComputeUseWeightedBits();
  return sums.total == 0 ? 0.0
                         : static_cast<double>(sums.ace - sums.crash) /
                               static_cast<double>(sums.total);
}

Analysis::MemoryBitsSums Analysis::ComputeMemoryBitsSums() const {
  MemoryBitsSums sums;
  for (ddg::NodeId id = 0; id < graph_.NumNodes(); ++id) {
    const ddg::Node& node = graph_.GetNode(id);
    if (node.kind != ddg::NodeKind::kMemory) continue;
    sums.total += node.width;
    if (!ace_.Contains(id)) continue;
    sums.ace += node.width;
    sums.crash += PopCount(FlipsLeaving(crash_bits_.allowed[id], node.value, node.width));
  }
  return sums;
}

double Analysis::MemoryPvf() const {
  const MemoryBitsSums sums = ComputeMemoryBitsSums();
  return sums.total == 0 ? 0.0 : static_cast<double>(sums.ace) / static_cast<double>(sums.total);
}

double Analysis::MemoryEpvf() const {
  const MemoryBitsSums sums = ComputeMemoryBitsSums();
  return sums.total == 0 ? 0.0
                         : static_cast<double>(sums.ace - sums.crash) /
                               static_cast<double>(sums.total);
}

std::vector<InstrMetrics> Analysis::PerInstructionMetrics() const {
  std::map<ir::StaticInstrId, InstrMetrics> by_sid;
  for (std::uint32_t dyn = 0; dyn < graph_.NumDynInstrs(); ++dyn) {
    const ddg::DynInstr& d = graph_.GetDyn(dyn);
    InstrMetrics& m = by_sid[d.sid];
    m.sid = d.sid;
    m.exec_count += 1;

    // Eq. 3's "register in inst": the register this instance defines — the
    // value selective duplication would recompute and check. Instructions
    // defining nothing (stores, branches) carry no per-instruction ePVF; their
    // vulnerable bits are charged to the defining instructions of their
    // operands. Crash-heavy destinations (address computations) score low,
    // SDC-prone value chains score high — the discriminative power Figure 12
    // shows.
    if (d.result_node == ddg::kNoNode ||
        graph_.GetNode(d.result_node).kind != ddg::NodeKind::kRegister) {
      continue;
    }
    const ddg::NodeId id = d.result_node;
    const unsigned width = graph_.GetNode(id).width;
    m.total_bits += width;
    if (ace_.Contains(id)) {
      m.ace_bits += width;
      m.crash_bits += PopCount(crash_bits_.crash_mask[id] & LowMask(width));
    }
  }
  std::vector<InstrMetrics> out;
  out.reserve(by_sid.size());
  for (auto& [sid, metrics] : by_sid) out.push_back(metrics);
  return out;
}

}  // namespace epvf::core
