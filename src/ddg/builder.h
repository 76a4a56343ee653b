// GraphBuilder: constructs the DDG online while the interpreter runs.
//
// Implements the construction rules of paper section III-A as a TraceSink:
// one register node per dynamic def, one memory node per store ("we create
// new DDG nodes for each newly written memory address"), interned nodes for
// constants and global addresses, data edges from source operands, and
// virtual edges linking memory accesses to their addressing registers.
// Calls/returns alias rather than copy: a callee's parameter registers map to
// the caller's argument nodes and a call's result register maps to the
// callee's returned node, so slices flow through function boundaries without
// inflating the register bit totals.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "ddg/graph.h"
#include "vm/trace.h"

namespace epvf::ddg {

// --- the node rule -----------------------------------------------------------
// Which dynamic instructions create a node, and its preds. The builder applies
// it to the golden trace and the unit replay (epvf/reexec.cc) to a re-executed
// unit, each with its own node references, hence the template.

/// Distinct memory versions a load node keeps as data preds: its 8 pred slots
/// end with the virtual addressing edge. Writers past the cap are dropped and
/// counted (Graph::dropped_load_preds).
inline constexpr unsigned kMaxLoadWriters = 7;

/// Whether `inst` points its result register's shadow at a new node. A user
/// call's result is aliased to the callee's returned node instead.
[[nodiscard]] inline bool DefinesShadowedRegister(const ir::Instruction& inst) {
  return inst.DefinesValue() && (inst.op != ir::Opcode::kCall || inst.is_intrinsic);
}

/// Whether `inst` creates a node: a memory node per store, a register node
/// per shadowed register def.
[[nodiscard]] inline bool MakesResultNode(const ir::Instruction& inst) {
  return inst.op == ir::Opcode::kStore || DefinesShadowedRegister(inst);
}

/// A node's preds; bit i of `virtual_mask` marks pred i as virtual.
template <typename Ref>
struct ResultPreds {
  std::array<Ref, 8> refs{};
  std::uint8_t count = 0;
  std::uint8_t virtual_mask = 0;
  std::uint32_t dropped_writers = 0;  ///< distinct load writers past the cap

  [[nodiscard]] std::span<const Ref> Span() const { return {refs.data(), count}; }
};

/// The preds of the node a dynamic instance of `inst` creates, from its
/// operand refs and values: a store's value, then its address (virtual); a
/// load's distinct byte writers in address order (at most kMaxLoadWriters),
/// then its address (virtual); a phi's selected incoming value; a select's
/// condition and chosen value; otherwise every operand. `last_writer(addr)`
/// returns byte `addr`'s last writer or `null`, called once per byte a load
/// reads, in address order.
template <typename Ref, typename LastWriter>
[[nodiscard]] ResultPreds<Ref> ResultNodePreds(const ir::Instruction& inst,
                                               std::span<const Ref> operands,
                                               std::span<const std::uint64_t> values,
                                               std::uint32_t selected, Ref null,
                                               LastWriter&& last_writer) {
  ResultPreds<Ref> out;
  const auto push = [&out](Ref ref) { out.refs[out.count++] = ref; };
  switch (inst.op) {
    case ir::Opcode::kStore:
      push(operands[0]);
      push(operands[1]);
      out.virtual_mask = 0b10;
      break;
    case ir::Opcode::kLoad: {
      const std::uint64_t addr = values[0];
      const unsigned size = inst.type.StoreSize();
      for (std::uint64_t b = 0; b < size; ++b) {
        const Ref writer = last_writer(addr + b);
        if (writer == null) continue;
        const auto kept = out.refs.begin() + out.count;
        if (std::find(out.refs.begin(), kept, writer) != kept) continue;
        if (out.count < kMaxLoadWriters) {
          push(writer);
        } else {
          ++out.dropped_writers;
        }
      }
      out.virtual_mask = static_cast<std::uint8_t>(1u << out.count);
      push(operands[0]);
      break;
    }
    case ir::Opcode::kPhi:
      push(operands[selected]);
      break;
    case ir::Opcode::kSelect:
      push(operands[0]);
      push((values[0] & 1) != 0 ? operands[1] : operands[2]);
      break;
    default:
      for (const Ref ref : operands) push(ref);
      break;
  }
  return out;
}

/// Byte-granular shadow of memory mapping each address to the node of its
/// last writer. Keyed by 4 KiB page with a dense NodeId array per page: the
/// DDG build touches every load/store byte, so per-byte hashing (the old
/// `unordered_map<addr, NodeId>`) dominated construction — a paged array
/// costs one hash per page (usually amortized away by the MRU cache) and a
/// plain indexed store per byte.
class WriterShadow {
 public:
  static constexpr std::uint64_t kPageBits = 12;
  static constexpr std::uint64_t kPageBytes = 1ull << kPageBits;

  /// The last writer of `addr`, or kNoNode.
  [[nodiscard]] NodeId Lookup(std::uint64_t addr) const {
    const Page* page = FindPage(addr >> kPageBits);
    return page == nullptr ? kNoNode : (*page)[addr & (kPageBytes - 1)];
  }

  /// Records `node` as the writer of `size` bytes at `addr`.
  void Record(std::uint64_t addr, std::uint64_t size, NodeId node) {
    while (size > 0) {
      Page& page = TouchPage(addr >> kPageBits);
      std::uint64_t offset = addr & (kPageBytes - 1);
      const std::uint64_t chunk = std::min(size, kPageBytes - offset);
      for (std::uint64_t b = 0; b < chunk; ++b) page[offset + b] = node;
      addr += chunk;
      size -= chunk;
    }
  }

 private:
  using Page = std::vector<NodeId>;

  [[nodiscard]] const Page* FindPage(std::uint64_t page_index) const;
  Page& TouchPage(std::uint64_t page_index);

  // Pages are owned by the map; the MRU cache stays valid across rehashes
  // because it points at the heap-allocated page storage, not into the map.
  std::unordered_map<std::uint64_t, std::unique_ptr<Page>> pages_;
  mutable std::uint64_t cached_index_ = ~std::uint64_t{0};
  mutable Page* cached_page_ = nullptr;
};

class GraphBuilder final : public vm::TraceSink {
 public:
  explicit GraphBuilder(const ir::Module& module);

  /// Moves the finished graph out; the builder must not be reused after.
  [[nodiscard]] Graph Take() { return std::move(graph_); }
  [[nodiscard]] const Graph& graph() const { return graph_; }

  // --- vm::TraceSink ---------------------------------------------------------
  void OnInstruction(const vm::DynContext& ctx) override;
  void OnEnterFunction(std::uint32_t function_index) override;
  void OnExitFunction(bool has_value) override;

 private:
  struct ShadowFrame {
    std::vector<NodeId> reg_nodes;
  };
  struct PendingCall {
    std::uint32_t result_reg = ir::kInvalidIndex;
  };

  NodeId ConstantNode(std::uint32_t constant_index, std::uint64_t value, std::uint8_t width);
  NodeId GlobalNode(std::uint32_t global_index, std::uint64_t value);
  NodeId OperandNode(const vm::DynContext& ctx, std::size_t slot);

  const ir::Module& module_;
  Graph graph_;
  std::vector<ShadowFrame> shadows_;
  std::vector<PendingCall> call_stack_;
  std::vector<NodeId> pending_args_;
  NodeId pending_ret_node_ = kNoNode;
  WriterShadow memory_writer_;  ///< byte addr -> last-writing memory node
  std::unordered_map<std::uint32_t, NodeId> constant_nodes_;
  std::unordered_map<std::uint32_t, NodeId> global_nodes_;
};

}  // namespace epvf::ddg
