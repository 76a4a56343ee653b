#include "fi/injector.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "fi/memory_scenario.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "vm/compile.h"

namespace epvf::fi {

std::vector<FaultSite> EnumerateFaultSites(const ddg::Graph& graph) {
  std::vector<FaultSite> sites;
  for (std::uint32_t dyn = 0; dyn < graph.NumDynInstrs(); ++dyn) {
    const ddg::DynInstr& d = graph.GetDyn(dyn);
    const ir::Instruction& inst = graph.InstructionOf(d);
    const auto nodes = graph.OperandNodes(dyn);
    for (std::size_t slot = 0; slot < nodes.size(); ++slot) {
      if (!inst.operands[slot].IsRegister()) continue;
      if (inst.op == ir::Opcode::kPhi && slot != d.selected_operand) continue;
      const ddg::NodeId node = nodes[slot];
      if (node == ddg::kNoNode) continue;
      FaultSite site;
      site.dyn_index = dyn;
      site.slot = static_cast<std::uint8_t>(slot);
      site.width = graph.GetNode(node).width;
      site.node = node;
      if (site.width == 0) continue;
      sites.push_back(site);
    }
  }
  return sites;
}

std::vector<std::uint64_t> CheckpointSites(std::uint64_t trace_length, std::uint64_t count) {
  count = std::min<std::uint64_t>(count, kMaxCheckpoints);
  std::vector<std::uint64_t> sites;
  sites.reserve(static_cast<std::size_t>(std::min(count, trace_length)));
  for (std::uint64_t k = 1; k <= count; ++k) {
    const std::uint64_t at = k * trace_length / (count + 1);
    if (at != 0 && (sites.empty() || at != sites.back())) sites.push_back(at);
  }
  return sites;
}

std::uint32_t ResolveCheckpointCount(int requested) {
  if (requested < 0) {
    throw std::invalid_argument("--checkpoints " + std::to_string(requested) + " is negative");
  }
  if (static_cast<std::uint32_t>(requested) > kMaxCheckpoints) {
    throw std::out_of_range("--checkpoints " + std::to_string(requested) +
                            " exceeds the limit of " + std::to_string(kMaxCheckpoints) +
                            " snapshots");
  }
  return static_cast<std::uint32_t>(requested);
}

Injector::Injector(const ir::Module& module, const vm::RunResult& golden,
                   InjectorOptions options)
    : module_(module), golden_(golden), options_(std::move(options)), jitter_rng_(0x5EED) {
  if (options_.scenario == Scenario::kMemory && options_.jitter_pages != 0) {
    throw std::invalid_argument(
        "Injector: the memory scenario requires jitter_pages == 0 (sites are absolute "
        "addresses of the golden layout)");
  }
  bytecode_ = vm::bc::Compile(module_);
}

void Injector::AttachMemoryScenario(std::shared_ptr<const MemoryScenario> scenario) {
  if (options_.scenario != Scenario::kMemory) {
    throw std::logic_error("Injector::AttachMemoryScenario: scenario is not kMemory");
  }
  memory_scenario_ = std::move(scenario);
}

mem::LayoutJitter Injector::DrawJitter(Rng& rng) const {
  mem::LayoutJitter jitter;
  if (options_.jitter_pages == 0) return jitter;
  const auto draw = [&]() {
    const std::uint64_t span = 2ull * options_.jitter_pages + 1;
    return static_cast<std::int64_t>(rng.Below(span)) -
           static_cast<std::int64_t>(options_.jitter_pages);
  };
  jitter.data_shift_pages = draw();
  jitter.heap_shift_pages = draw();
  jitter.stack_shift_pages = draw();
  jitter.heap_slack_shift_pages = draw();  // allocator nondeterminism
  return jitter;
}

std::uint64_t Injector::HangBudget() const {
  auto budget = static_cast<std::uint64_t>(
      static_cast<double>(golden_.instructions_executed) * options_.hang_factor);
  return budget < 10'000 ? 10'000 : budget;
}

const vm::Interpreter::Checkpoint* Injector::NearestCheckpoint(std::uint64_t dyn) const {
  const auto it = std::upper_bound(
      checkpoints_.begin(), checkpoints_.end(), dyn,
      [](std::uint64_t d, const vm::Interpreter::Checkpoint& c) { return d < c.dyn_index; });
  return it == checkpoints_.begin() ? nullptr : &*std::prev(it);
}

std::size_t Injector::BuildCheckpoints(std::span<const std::uint64_t> at) {
  checkpoints_.clear();
  if (at.empty()) return 0;
  vm::ExecOptions exec;
  exec.layout = options_.layout;
  exec.max_instructions = HangBudget();
  exec.bytecode = bytecode_;
  vm::Interpreter interp(module_, exec);
  const vm::RunResult replay = interp.RunWithCheckpoints(options_.entry, at, checkpoints_);
  if (!replay.Completed() || replay.instructions_executed != golden_.instructions_executed ||
      replay.output != golden_.output) {
    checkpoints_.clear();
    throw std::runtime_error(
        "Injector::BuildCheckpoints: golden replay diverged from the supplied golden run");
  }
  obs::GetCounter("campaign.checkpoints").Add(checkpoints_.size());
  return checkpoints_.size();
}

Injector::InjectionResult Injector::Inject(const FaultSite& site, std::uint8_t bit,
                                           std::optional<mem::LayoutJitter> jitter) {
  // One span per run; the name is settled once we know whether the run could
  // resume from a snapshot. The counters are cached — registry lookup stays
  // off the per-injection path.
  static obs::Counter& full_counter = obs::GetCounter("campaign.runs.full");
  static obs::Counter& resumed_counter = obs::GetCounter("campaign.runs.resumed");
  static obs::Counter& skipped_counter = obs::GetCounter("campaign.skipped_instructions");
  static obs::Counter& masked_counter = obs::GetCounter("campaign.runs.statically_masked");
  obs::TraceSpan span("injection", "inject-full");
  vm::ExecOptions exec;
  exec.layout = options_.layout;
  exec.jitter = jitter.has_value() ? *jitter : DrawJitter(jitter_rng_);
  exec.max_instructions = HangBudget();
  exec.fault = vm::FaultPlan{site.dyn_index, site.slot, bit, options_.burst_length};
  exec.bytecode = bytecode_;

  if (options_.scenario == Scenario::kMemory) {
    if (memory_scenario_ == nullptr) {
      throw std::logic_error("Injector::Inject: memory scenario not attached");
    }
    const MemorySite* ms = memory_scenario_->Find(site.dyn_index, site.slot);
    if (ms == nullptr) {
      throw std::invalid_argument("Injector::Inject: site is not a memory-scenario site");
    }
    if (bit >= 8) {
      throw std::invalid_argument("Injector::Inject: memory sites are one byte (bit < 8)");
    }
    if (!ms->consumed) {
      // Delayed error reporting: the byte is overwritten before any consuming
      // load (or never read again), so the flip cannot propagate — benign by
      // construction, no execution needed. Trivially identical across
      // checkpoints, jobs, and shards.
      span.Rename("inject-masked");
      masked_counter.Add();
      InjectionResult masked;
      masked.outcome = Outcome::kBenign;
      masked.statically_masked = true;
      return masked;
    }
    exec.fault->kind = vm::FaultKind::kMemory;
    exec.fault->addr = ms->addr;
    // The burst stays within the corrupted byte.
    exec.fault->num_bits = static_cast<std::uint8_t>(
        std::min<unsigned>(options_.burst_length, 8u - bit));
  }

  // Suffix-replay fast path: every run is bit-identical to the golden run up
  // to the injection point, so a zero-jitter run can start from the nearest
  // checkpoint at or before its site. Jittered runs diverge from instruction
  // zero (checkpoints hold jitter-free addresses) and run from scratch.
  const vm::Interpreter::Checkpoint* ckpt =
      exec.jitter.IsZero() ? NearestCheckpoint(site.dyn_index) : nullptr;

  InjectionResult result;
  vm::Interpreter interp(module_, exec);
  result.run = ckpt != nullptr ? interp.ResumeFrom(*ckpt) : interp.Run(options_.entry, nullptr);
  result.resumed_from = ckpt != nullptr ? ckpt->dyn_index : 0;
  result.outcome = Classify(result.run, golden_);
  if (ckpt != nullptr) {
    span.Rename("inject-resume");
    resumed_counter.Add();
    skipped_counter.Add(result.resumed_from);
  } else {
    full_counter.Add();
  }
  return result;
}

}  // namespace epvf::fi
