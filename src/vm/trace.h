// Dynamic trace observation.
//
// The interpreter publishes every executed instruction to an optional
// TraceSink; an attached sink keeps the run on the executor's careful step.
// The DDG builder (ddg/builder.h) is the primary sink — it is the paper's
// "dynamic instruction trace" consumer (section III-A) — but tests install
// small sinks to assert execution order, and the probe information
// (memory-map version + ESP at each access) rides on the same events,
// implementing the paper's per-load/store /proc probe.
#pragma once

#include <cstdint>
#include <span>

#include "ir/function.h"
#include "ir/module.h"

namespace epvf::vm {

struct DynContext {
  std::uint64_t dyn_index = 0;
  ir::StaticInstrId sid;
  const ir::Module* module = nullptr;
  const ir::Function* fn = nullptr;
  const ir::Instruction* inst = nullptr;

  /// Raw operand payloads, parallel to inst->operands. For phi instructions
  /// only the selected incoming slot is meaningful.
  std::span<const std::uint64_t> operand_values;

  bool has_result = false;
  std::uint64_t result_bits = 0;

  /// Memory access probe (valid when inst is load/store and no fault).
  bool is_mem_access = false;
  std::uint64_t mem_addr = 0;
  unsigned mem_size = 0;
  std::uint64_t map_version = 0;  ///< memory-map version after the access
  std::uint64_t esp = 0;          ///< stack pointer at the access

  /// For phi: the incoming slot that was taken. kNoSelection otherwise.
  static constexpr std::uint32_t kNoSelection = 0xFFFFFFFFu;
  std::uint32_t selected_operand = kNoSelection;
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// Called once per executed instruction, after its effects are applied.
  /// For calls into user functions, this fires before OnEnterFunction.
  virtual void OnInstruction(const DynContext& ctx) = 0;

  /// Frame push for a user-function call (not fired for intrinsics).
  virtual void OnEnterFunction(std::uint32_t function_index) { (void)function_index; }

  /// Frame pop at return. `has_value` says whether a return value flows back
  /// into the caller's call-result register.
  virtual void OnExitFunction(bool has_value) { (void)has_value; }
};

/// Observes nothing. Attaching it keeps every instruction on the executor's
/// careful, instrumented step, so tests and benches can hold that step
/// against the sink-free fast loop.
class NullTraceSink final : public TraceSink {
 public:
  void OnInstruction(const DynContext& ctx) override { (void)ctx; }
};

}  // namespace epvf::vm
