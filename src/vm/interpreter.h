// The IR interpreter — our execution platform.
//
// Substitutes for the paper's native x86/Linux testbed: it executes modules
// deterministically over a SimMemory address space, raising the exact crash
// taxonomy of Table I (segmentation fault, abort, misaligned access,
// arithmetic error), publishing the dynamic trace + per-access segment
// probes to a TraceSink, and optionally applying a single-bit FaultPlan
// (LLFI-style). The same engine therefore serves the three roles the paper
// needs: golden profiling run, fault-injection run, and protected-program
// evaluation run.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ir/module.h"
#include "mem/sim_memory.h"
#include "vm/fault_plan.h"
#include "vm/trace.h"

namespace epvf::vm {

namespace bc {
struct Program;
}  // namespace bc

/// Why a run stopped. kNone means normal completion.
enum class TrapKind : std::uint8_t {
  kNone,
  kSegFault,          ///< Table I "SF"
  kAbort,             ///< Table I "A" (abort/assert intrinsics)
  kMisaligned,        ///< Table I "MMA"
  kArithmetic,        ///< Table I "AE" (div/rem by zero, INT_MIN / -1)
  kDetected,          ///< duplication check fired (section V transform)
  kInstructionLimit,  ///< budget exceeded — classified as a hang by the FI layer
};

[[nodiscard]] std::string_view TrapKindName(TrapKind kind);

struct ExecOptions {
  std::uint64_t max_instructions = 200'000'000;
  mem::MemoryLayout layout;
  mem::LayoutJitter jitter;
  /// Snapshot the memory map at every version (golden/profiling runs).
  bool record_map_history = false;
  std::optional<FaultPlan> fault;
  /// Precompiled bytecode for the module (one compile shared across every
  /// Interpreter of a campaign). Compiled by the constructor when absent.
  std::shared_ptr<const bc::Program> bytecode;
};

struct RunResult {
  TrapKind trap = TrapKind::kNone;
  std::uint64_t instructions_executed = 0;
  std::uint64_t trap_dyn_index = 0;   ///< dyn index of the faulting instruction
  std::uint64_t trap_addr = 0;        ///< faulting address for memory traps
  bool fault_was_applied = false;     ///< the FaultPlan's site was reached
  std::vector<std::uint64_t> output;  ///< raw output-stream payloads

  [[nodiscard]] bool Completed() const { return trap == TrapKind::kNone; }
  [[nodiscard]] bool Crashed() const {
    return trap == TrapKind::kSegFault || trap == TrapKind::kAbort ||
           trap == TrapKind::kMisaligned || trap == TrapKind::kArithmetic;
  }
};

class Interpreter {
 public:
  /// One call frame, in the form the executor steps it. `pc` indexes the
  /// function's bytecode (pc == block_start[block] + ip, see vm/bytecode.h).
  /// `regs` holds the SSA registers followed by the literal pool values, so
  /// every operand is one slot. LLVM phi semantics are parallel: all phis at
  /// a block's head read their incoming values simultaneously (buffer-swap
  /// phis depend on this), so the branch into a block fills `phi` with the
  /// leading group and each phi then consumes its own entry.
  struct Frame {
    std::uint32_t fn = 0;
    std::uint32_t pc = 0;
    std::uint32_t prev_block = ir::kInvalidIndex;
    std::uint64_t saved_esp = 0;
    std::uint32_t caller_result_reg = ir::kInvalidIndex;
    std::vector<std::uint64_t> regs;
    std::vector<std::uint64_t> phi;
  };

  /// Full execution state immediately *before* instruction `dyn_index` runs:
  /// the call stack (registers, pc, phi buffers), the output stream so far,
  /// and a copy-on-write memory snapshot. A checkpoint is self-contained —
  /// any Interpreter over the same module/options can resume from it, and one
  /// checkpoint can seed any number of concurrent resumed runs.
  struct Checkpoint {
    std::uint64_t dyn_index = 0;
    bool fault_was_applied = false;
    std::vector<Frame> frames;
    std::vector<std::uint64_t> output;
    mem::MemSnapshot memory;
  };

  /// Lays out the globals and compiles `module` unless options.bytecode
  /// carries its program. The module must pass ir::VerifyModule: bc::Compile
  /// throws std::invalid_argument on the constructs the verifier rejects.
  Interpreter(const ir::Module& module, ExecOptions options);

  /// Executes `entry` (no arguments) to completion or trap.
  RunResult Run(std::string_view entry = "main", TraceSink* sink = nullptr);

  /// Like Run, but captures a Checkpoint immediately before each dynamic
  /// instruction index in `checkpoint_at` (must be sorted ascending; indices
  /// past the end of the trace are ignored). Requires record_map_history to
  /// be off — checkpointing is a replay-run mechanism.
  RunResult RunWithCheckpoints(std::string_view entry,
                               std::span<const std::uint64_t> checkpoint_at,
                               std::vector<Checkpoint>& checkpoints,
                               TraceSink* sink = nullptr);

  /// Resumes execution from `checkpoint`, as if the prefix had just been
  /// executed: the dynamic instruction counter continues from
  /// checkpoint.dyn_index, so instruction budgets, fault-plan sites, and
  /// RunResult fields all stay absolute — a resumed run is bit-identical to
  /// a from-scratch run that reached the checkpoint with the same state.
  /// The interpreter must share the module and (jitter-free) layout of the
  /// run that captured the checkpoint. `sink` observes only the suffix.
  RunResult ResumeFrom(const Checkpoint& checkpoint, TraceSink* sink = nullptr);

  [[nodiscard]] const mem::SimMemory& memory() const { return memory_; }
  [[nodiscard]] mem::SimMemory& memory() { return memory_; }
  [[nodiscard]] std::uint64_t GlobalAddress(std::uint32_t global_index) const {
    return global_addresses_[global_index];
  }

 private:
  /// A fresh frame of function `fn` at pc 0: zeroed registers followed by
  /// the function's literal pool values. Defined in exec_bytecode.cc.
  [[nodiscard]] Frame NewFrame(std::uint32_t fn) const;

  /// Builds the single entry frame for `entry` and announces it to `sink`.
  std::vector<Frame> EntryStack(std::string_view entry, TraceSink* sink);

  /// The fetch-execute loop, resumable at any instruction boundary: starts
  /// from an arbitrary (stack, dyn counter, partial result) state and runs to
  /// completion or trap, optionally dropping checkpoints along the way. With
  /// a sink attached every instruction takes the careful, instrumented step.
  /// Defined in exec_bytecode.cc.
  RunResult Execute(std::vector<Frame> stack, std::uint64_t dyn, RunResult result,
                    std::span<const std::uint64_t> checkpoint_at,
                    std::vector<Checkpoint>* checkpoints, TraceSink* sink);

  /// Adds the copy-on-write page work memory_ did since the last call to the
  /// vm.pages_created and vm.pages_cloned counters (called after each run).
  void PublishPageCounts();

  const ir::Module& module_;
  ExecOptions options_;
  mem::SimMemory memory_;
  std::vector<std::uint64_t> global_addresses_;
  std::shared_ptr<const bc::Program> program_;
  /// Per-function literal pool values (constants + this instance's global
  /// addresses), appended to each frame's register file on entry.
  std::vector<std::vector<std::uint64_t>> literal_values_;
  std::uint64_t published_pages_created_ = 0;
  std::uint64_t published_pages_cloned_ = 0;
};

}  // namespace epvf::vm
