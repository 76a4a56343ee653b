// Use-weighted activation-walk machinery (the crash-rate estimate's core).
//
// The walk answers: "a flip lands in a register operand at dynamic time T —
// what does it hit first?" (a memory address → crash; a compare/branch →
// control divergence; nothing classified → other). analysis.cc runs it over
// the whole-program DDG through GlobalWalkView, the one production view (the
// compositional layer runs it over the graph stitched from its unit slices,
// compose.h). FirstEffect stays templated on a small view concept so tests
// can walk hand-built use lists:
//
//   struct View {
//     using NodeRef = ...;                       // node handle
//     using UseCursor = ...;                     // random-access use handle
//     std::pair<UseCursor, UseCursor> UseRangeOf(NodeRef) const;  // trace order
//     std::uint64_t UseDyn(UseCursor) const;     // global trace position
//     std::uint8_t UseSlot(UseCursor) const;
//     const ir::Instruction& InstructionAtUse(UseCursor) const;
//     ir::StaticInstrId SidAtUse(UseCursor) const;
//     bool HasRegisterResult(UseCursor) const;   // defines a register node
//     NodeRef ResultNode(UseCursor) const;
//   };
//
// A node's use range must be sorted by UseDyn: the walk binary-searches it for
// its start, so one walk costs O(log uses + uses actually examined). A view
// records nothing, so one view serves every pool worker.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "ddg/graph.h"
#include "ir/module.h"

namespace epvf::core {

/// Dynamic use index: for every node, its (dyn_index, slot) register-operand
/// uses in trace order.
struct UseIndex {
  std::vector<std::uint32_t> offsets;  ///< per node, into the pools
  std::vector<std::uint32_t> use_dyn;
  std::vector<std::uint8_t> use_slot;
};

/// Enumerates the register-operand uses of dyn instructions [begin, end) in
/// trace order — the shared traversal of the use-index passes and the
/// use-weighted site enumeration.
template <typename Fn>
void ForEachUse(const ddg::Graph& graph, std::uint32_t begin, std::uint32_t end, Fn&& fn) {
  for (std::uint32_t dyn = begin; dyn < end; ++dyn) {
    const ddg::DynInstr& d = graph.GetDyn(dyn);
    const ir::Instruction& inst = graph.InstructionOf(d);
    const auto nodes = graph.OperandNodes(dyn);
    for (std::size_t slot = 0; slot < nodes.size(); ++slot) {
      if (!inst.operands[slot].IsRegister()) continue;
      if (inst.op == ir::Opcode::kPhi && slot != d.selected_operand) continue;
      if (nodes[slot] == ddg::kNoNode) continue;
      fn(nodes[slot], dyn, static_cast<std::uint8_t>(slot));
    }
  }
}

/// Two-pass counting sort of the uses, parallelized as a static partition of
/// the dyn range; output is byte-identical to the serial sort at every thread
/// count (uses stay in trace order per node).
[[nodiscard]] UseIndex BuildUseIndex(const ddg::Graph& graph, int jobs);

/// What a flip applied at a use of a node (from dynamic time `from_dyn` on)
/// hits first: a memory address (crash surfaces), only compares/branches
/// (control diverges), or nothing classified.
enum class UseEffect : std::uint8_t { kCrash, kControl, kOther };

/// Control oracle: per-function postdominators plus a static forward walk
/// answering "after a branch consuming this corrupted register diverges, can
/// the register still reach a memory address?" — uses in blocks that
/// postdominate the compare execute either way; selects are not traversed
/// because under a corrupted condition they act as clamps.
///
/// The walk only asks about a register operand of a static icmp/fcmp/condbr,
/// in that instruction's block: an app has a few dozen such questions
/// against up to ~5*10^5 queries per pass. The constructor answers all of
/// them, so a query is a read-only binary search over the function's
/// answers, with no allocation, safe to share across threads.
class ControlOracle {
 public:
  explicit ControlOracle(const ir::Module& module);

  /// Corrupted register `reg` diverged a branch in `block` of `function`:
  /// true if a postdominating static use chain still reaches an address.
  /// `reg` must be a register operand of an icmp, fcmp or condbr in `block`;
  /// any other question throws std::logic_error.
  [[nodiscard]] bool SurvivesToAddress(std::uint32_t function, std::uint32_t block,
                                       std::uint32_t reg) const {
    const std::vector<Answer>& answers = answers_[function];
    const std::uint64_t key = AnswerKey(block, reg);
    const auto it = std::lower_bound(
        answers.begin(), answers.end(), key,
        [](const Answer& a, std::uint64_t k) { return a.key < k; });
    if (it == answers.end() || it->key != key) ThrowNotAsked(function, block, reg);
    return it->survives;
  }

 private:
  struct Answer {
    std::uint64_t key;  ///< AnswerKey(block, reg)
    bool survives;
  };

  [[nodiscard]] static std::uint64_t AnswerKey(std::uint32_t block, std::uint32_t reg) {
    return (std::uint64_t{block} << 32) | reg;
  }
  [[noreturn]] static void ThrowNotAsked(std::uint32_t function, std::uint32_t block,
                                         std::uint32_t reg);

  std::vector<std::vector<Answer>> answers_;  ///< per function, ascending key
};

/// The activation walk (see header comment for the view concept). Control
/// handling: hitting a compare does not end the walk — the corrupted value
/// may still be consumed on the post-divergence path; the oracle decides
/// whether a postdominating use chain reaches an address.
template <typename View, typename Oracle = ControlOracle>
UseEffect FirstEffect(const View& view, const Oracle& control,
                      typename View::NodeRef node, std::uint64_t from_dyn, int depth) {
  auto [u, use_end] = view.UseRangeOf(node);
  // The uses are in trace order: a lower-bound search skips every use before
  // `from_dyn` and keeps all uses at `from_dyn` itself (one register read by
  // two slots of the same instruction).
  for (auto count = use_end - u; count > 0;) {
    const auto half = count / 2;
    if (view.UseDyn(u + half) < from_dyn) {
      u += half + 1;
      count -= half + 1;
    } else {
      count = half;
    }
  }
  for (; u < use_end; ++u) {
    const ir::Instruction& inst = view.InstructionAtUse(u);
    if (inst.AddressOperandSlot() == static_cast<int>(view.UseSlot(u))) {
      return UseEffect::kCrash;
    }
    if (inst.op == ir::Opcode::kICmp || inst.op == ir::Opcode::kFCmp ||
        inst.op == ir::Opcode::kCondBr) {
      // Control diverges here. The corruption still crashes if the register
      // is consumed as (part of) an address on the post-divergence path.
      const std::uint32_t reg = inst.operands[view.UseSlot(u)].index;
      const ir::StaticInstrId sid = view.SidAtUse(u);
      return control.SurvivesToAddress(sid.function, sid.block, reg) ? UseEffect::kCrash
                                                                     : UseEffect::kControl;
    }
    if (view.HasRegisterResult(u)) {
      if (depth <= 0) return UseEffect::kCrash;  // assume the slice reaches memory
      return FirstEffect(view, control, view.ResultNode(u), view.UseDyn(u) + 1, depth - 1);
    }
    // Store value / output operand: the corruption parks in memory or the
    // output stream; keep scanning this node's later uses.
  }
  return UseEffect::kOther;
}

/// The whole-program view: a Graph plus its UseIndex. This is the monolithic
/// pipeline's instantiation.
class GlobalWalkView {
 public:
  using NodeRef = ddg::NodeId;
  using UseCursor = std::uint32_t;

  GlobalWalkView(const ddg::Graph& graph, const UseIndex& uses) : graph_(graph), uses_(uses) {}

  [[nodiscard]] std::pair<UseCursor, UseCursor> UseRangeOf(NodeRef node) const {
    return {uses_.offsets[node], uses_.offsets[node + 1]};
  }
  [[nodiscard]] std::uint64_t UseDyn(UseCursor u) const { return uses_.use_dyn[u]; }
  [[nodiscard]] std::uint8_t UseSlot(UseCursor u) const { return uses_.use_slot[u]; }
  [[nodiscard]] const ir::Instruction& InstructionAtUse(UseCursor u) const {
    return graph_.InstructionAt(uses_.use_dyn[u]);
  }
  [[nodiscard]] ir::StaticInstrId SidAtUse(UseCursor u) const {
    return graph_.GetDyn(uses_.use_dyn[u]).sid;
  }
  [[nodiscard]] bool HasRegisterResult(UseCursor u) const {
    const ddg::NodeId result = graph_.GetDyn(uses_.use_dyn[u]).result_node;
    return result != ddg::kNoNode && graph_.GetNode(result).kind == ddg::NodeKind::kRegister;
  }
  [[nodiscard]] NodeRef ResultNode(UseCursor u) const {
    return graph_.GetDyn(uses_.use_dyn[u]).result_node;
  }

 private:
  const ddg::Graph& graph_;
  const UseIndex& uses_;
};

}  // namespace epvf::core
