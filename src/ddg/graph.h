// The Dynamic Dependency Graph (DDG).
//
// Paper section III-A: "the DDG is a representation of data flow in the
// program, and is constructed based on the program's dynamic instruction
// trace. In the DDG, a vertex can be a register, a memory address or even a
// constant value. An edge records the instruction and links source
// operand(s) to destination operand(s)." We add the paper's *virtual edges*
// between memory nodes / loads and the registers used to address them, which
// is what lets the ACE traversal retain addressing registers and lets the
// crash model find the backward slice of every address computation.
//
// Storage is pooled and index-based: graphs routinely hold one node per
// executed instruction, so nodes and edge lists live in flat vectors rather
// than per-node allocations (the paper's Python prototype took hours on
// ~1M-node graphs; section VI-A explicitly calls for a tuned C++
// implementation, which this is).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ir/module.h"

namespace epvf::ddg {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = 0xFFFFFFFFu;
inline constexpr std::uint32_t kNoDyn = 0xFFFFFFFFu;

enum class NodeKind : std::uint8_t {
  kRegister,  ///< an SSA register instance (one per dynamic def)
  kMemory,    ///< one memory version (created by each store)
  kConstant,  ///< interned constant operand
  kGlobal,    ///< interned global-address operand
};

struct Node {
  NodeKind kind = NodeKind::kRegister;
  std::uint8_t width = 0;          ///< bit width for ACE accounting
  std::uint32_t dyn_index = kNoDyn;  ///< producing dynamic instruction
  std::uint64_t value = 0;         ///< observed payload in the golden run
};

/// Predecessor list of a node; bit i of `virtual_mask` marks pred i as a
/// virtual (addressing) edge rather than a data edge.
struct PredRange {
  std::uint32_t offset = 0;
  std::uint8_t count = 0;
  std::uint8_t virtual_mask = 0;
};

/// Per-dynamic-instruction record: identity, operand provenance and values.
struct DynInstr {
  ir::StaticInstrId sid;
  NodeId result_node = kNoNode;  ///< register node, or memory node for stores
  std::uint32_t operands_offset = 0;
  std::uint8_t num_operands = 0;
  std::uint8_t selected_operand = 0xFF;  ///< phi: taken incoming slot
};

/// One load/store event with its probe data (paper section III-D): the
/// memory-map version and ESP captured at the access, from which
/// CHECK_BOUNDARY recovers the segment boundaries of that moment.
struct AccessRecord {
  std::uint32_t dyn_index = 0;
  NodeId addr_node = kNoNode;
  std::uint64_t addr = 0;
  std::uint32_t size = 0;
  std::uint64_t map_version = 0;
  std::uint64_t esp = 0;
  bool is_store = false;
};

class Graph {
 public:
  explicit Graph(const ir::Module* module = nullptr) : module_(module) {}

  [[nodiscard]] const ir::Module& module() const { return *module_; }

  // --- nodes -----------------------------------------------------------------
  [[nodiscard]] std::size_t NumNodes() const { return nodes_.size(); }
  [[nodiscard]] const Node& GetNode(NodeId id) const { return nodes_[id]; }

  [[nodiscard]] std::span<const NodeId> Preds(NodeId id) const {
    const PredRange& r = pred_ranges_[id];
    return {pred_pool_.data() + r.offset, r.count};
  }
  [[nodiscard]] bool PredIsVirtual(NodeId id, unsigned pred_index) const {
    return (pred_ranges_[id].virtual_mask >> pred_index) & 1u;
  }

  /// Creates a node whose preds are `preds`; bit i of `virtual_mask` marks
  /// pred i as virtual. Returns the new id. Preds are existing nodes, so every
  /// edge points to a lower id: node ids are a topological order of the DDG,
  /// which the ACE and propagation sweeps visit in one descending pass.
  NodeId AddNode(const Node& node, std::span<const NodeId> preds, std::uint8_t virtual_mask = 0);

  // --- dynamic instructions ------------------------------------------------
  [[nodiscard]] std::size_t NumDynInstrs() const { return dyn_.size(); }
  [[nodiscard]] const DynInstr& GetDyn(std::uint32_t dyn_index) const { return dyn_[dyn_index]; }

  [[nodiscard]] std::span<const NodeId> OperandNodes(std::uint32_t dyn_index) const {
    const DynInstr& d = dyn_[dyn_index];
    return {operand_node_pool_.data() + d.operands_offset, d.num_operands};
  }
  [[nodiscard]] std::span<const std::uint64_t> OperandValues(std::uint32_t dyn_index) const {
    const DynInstr& d = dyn_[dyn_index];
    return {operand_value_pool_.data() + d.operands_offset, d.num_operands};
  }

  /// The static instruction a dynamic instruction executes.
  [[nodiscard]] const ir::Instruction& InstructionOf(const DynInstr& d) const {
    return module_->functions[d.sid.function].blocks[d.sid.block].instructions[d.sid.instr];
  }
  [[nodiscard]] const ir::Instruction& InstructionAt(std::uint32_t dyn_index) const {
    return InstructionOf(dyn_[dyn_index]);
  }

  void AddDynInstr(const DynInstr& header, std::span<const NodeId> operand_nodes,
                   std::span<const std::uint64_t> operand_values);

  /// Sizes the pools for a graph whose totals are known up front (one
  /// stitched from stored parts), so building it never regrows them.
  void Reserve(std::size_t nodes, std::size_t preds, std::size_t dyns, std::size_t operands,
               std::size_t accesses);

  // --- accesses & roots -------------------------------------------------------
  [[nodiscard]] const std::vector<AccessRecord>& accesses() const { return accesses_; }
  void AddAccess(const AccessRecord& access) { accesses_.push_back(access); }

  /// Output roots: the operand nodes of output-intrinsic calls, in program
  /// order (the ordering matters for the ACE-graph sampling of section IV-E).
  [[nodiscard]] const std::vector<NodeId>& output_roots() const { return output_roots_; }
  void AddOutputRoot(NodeId node) { output_roots_.push_back(node); }

  /// Control roots: conditional-branch condition nodes. The paper's model
  /// conservatively treats every branch as SDC-prone when flipped ("the ePVF
  /// analysis assumes that all branches lead to SDCs", section VI-B), so
  /// branch conditions root the ACE analysis alongside the outputs.
  [[nodiscard]] const std::vector<NodeId>& control_roots() const { return control_roots_; }
  void AddControlRoot(NodeId node) { control_roots_.push_back(node); }

  /// Total ACE-accountable bits: the sum of widths of all register nodes —
  /// the denominator of Eq. 1/2 for the "used registers" resource.
  [[nodiscard]] std::uint64_t TotalRegisterBits() const;
  [[nodiscard]] std::uint64_t NumRegisterNodes() const;

  // --- construction diagnostics ----------------------------------------------
  /// Distinct memory-version predecessors loads had to drop because their
  /// pred lists were full (ddg::kMaxLoadWriters in builder.h). Nonzero means
  /// some loads under-report their slices.
  [[nodiscard]] std::uint64_t dropped_load_preds() const { return dropped_load_preds_; }
  void NoteDroppedLoadPreds(std::uint64_t count) { dropped_load_preds_ += count; }

 private:
  const ir::Module* module_;
  std::vector<Node> nodes_;
  std::vector<PredRange> pred_ranges_;
  std::vector<NodeId> pred_pool_;
  std::vector<DynInstr> dyn_;
  std::vector<NodeId> operand_node_pool_;
  std::vector<std::uint64_t> operand_value_pool_;
  std::vector<AccessRecord> accesses_;
  std::vector<NodeId> output_roots_;
  std::vector<NodeId> control_roots_;
  std::uint64_t dropped_load_preds_ = 0;
};

}  // namespace epvf::ddg
