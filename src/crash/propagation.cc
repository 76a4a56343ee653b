#include "crash/propagation.h"

#include <array>

#include "crash/lookup_table.h"
#include "obs/trace.h"
#include "support/bits.h"
#include "support/thread_pool.h"

namespace epvf::crash {

namespace {
using ddg::kNoNode;
using ddg::NodeId;
using ir::Opcode;

/// Narrows `allowed[node]` with `interval`; constants/globals are immediate
/// operands, not fault-injection targets, so they take no constraints.
void Narrow(const ddg::Graph& graph, std::vector<Interval>& allowed, NodeId node,
            Interval interval) {
  if (node == kNoNode || interval.IsFull()) return;
  const ddg::Node& n = graph.GetNode(node);
  if (n.kind == ddg::NodeKind::kConstant || n.kind == ddg::NodeKind::kGlobal) return;
  allowed[node] = allowed[node].Intersect(interval);
}

}  // namespace

CrashBits PropagateCrashRanges(const ddg::Graph& graph, const ddg::AceResult& ace,
                               const CrashModel& model, int jobs) {
  const obs::TraceSpan span("crash-model", "propagate-crash-ranges");
  CrashBits result;
  const std::size_t n = graph.NumNodes();
  result.allowed.assign(n, Interval::Full());
  result.crash_mask.assign(n, 0);

  // --- Algorithm 1: iterate over the ACE graph; seed every load/store ------
  // The access is "in the ACE graph" when the node it produced (load result /
  // store memory version) is an ACE node — this is what makes ePVF's crash
  // coverage depend on the ACE fraction of the DDG, the effect the paper
  // observes for lavaMD and lulesh in Figure 8.
  for (const ddg::AccessRecord& access : graph.accesses()) {
    const ddg::DynInstr& d = graph.GetDyn(access.dyn_index);
    if (d.result_node == kNoNode || !ace.Contains(d.result_node)) continue;
    const Interval bound = model.CheckBoundary(access);
    Narrow(graph, result.allowed, access.addr_node, bound);
    ++result.seeded_accesses;
  }

  // --- Algorithm 2 over the DAG: one descending sweep reaches the fixpoint --
  for (NodeId id = static_cast<NodeId>(n); id-- > 0;) {
    const Interval dest_allowed = result.allowed[id];
    if (dest_allowed.IsFull()) continue;
    const ddg::Node& node = graph.GetNode(id);
    if (node.dyn_index == ddg::kNoDyn) continue;  // constants/globals

    const ddg::DynInstr& d = graph.GetDyn(node.dyn_index);
    const ir::Instruction& inst = graph.InstructionOf(d);
    const auto op_nodes = graph.OperandNodes(node.dyn_index);
    const auto op_values = graph.OperandValues(node.dyn_index);

    switch (inst.op) {
      case Opcode::kStore:
        // Memory version node: the stored value must equal the loaded value,
        // so the constraint passes to the value operand untouched.
        Narrow(graph, result.allowed, op_nodes[0], dest_allowed);
        continue;
      case Opcode::kLoad: {
        // Load result: pass the constraint through the memory version(s) it
        // read — but only when the load observed a single whole version
        // (partial/byte-mixed reads break the value identity).
        const auto preds = graph.Preds(id);
        NodeId data_pred = kNoNode;
        unsigned data_count = 0;
        for (unsigned i = 0; i < preds.size(); ++i) {
          if (!graph.PredIsVirtual(id, i)) {
            data_pred = preds[i];
            ++data_count;
          }
        }
        if (data_count == 1 && graph.GetNode(data_pred).width == node.width &&
            graph.GetNode(data_pred).value == node.value) {
          Narrow(graph, result.allowed, data_pred, dest_allowed);
        }
        continue;
      }
      case Opcode::kPhi: {
        if (d.selected_operand != 0xFF) {
          Narrow(graph, result.allowed, op_nodes[d.selected_operand], dest_allowed);
        }
        continue;
      }
      case Opcode::kSelect: {
        // Constraint flows to the dynamically chosen value operand.
        const unsigned chosen = (op_values[0] & 1) != 0 ? 1 : 2;
        Narrow(graph, result.allowed, op_nodes[chosen], dest_allowed);
        continue;
      }
      default:
        break;
    }

    // Table III lookup for each source operand.
    std::array<unsigned, 8> widths{};
    for (std::size_t i = 0; i < op_nodes.size() && i < widths.size(); ++i) {
      widths[i] = op_nodes[i] == kNoNode ? 64u : graph.GetNode(op_nodes[i]).width;
    }
    for (unsigned slot = 0; slot < op_nodes.size(); ++slot) {
      if (op_nodes[slot] == kNoNode) continue;
      const auto interval = OperandAllowedInterval(
          inst, op_values, std::span<const unsigned>(widths.data(), op_nodes.size()), slot,
          dest_allowed);
      if (interval.has_value()) {
        Narrow(graph, result.allowed, op_nodes[slot], *interval);
      }
    }
  }

  // --- crash-bit masks (the CRASHING_BIT_LIST) --------------------------------
  // Per-node independent (one closed-form FlipsLeaving per node), so this
  // sweep runs data-parallel; each node writes only its own mask slot and the
  // totals fold in chunk order, keeping the result thread-count-invariant.
  struct MaskTotals {
    std::uint64_t nodes = 0;
    std::uint64_t bits = 0;
  };
  const MaskTotals totals = ParallelReduce(
      std::size_t{0}, n, MaskTotals{},
      [&](std::size_t chunk_begin, std::size_t chunk_end) {
        MaskTotals part;
        for (std::size_t i = chunk_begin; i < chunk_end; ++i) {
          const NodeId id = static_cast<NodeId>(i);
          const Interval allowed = result.allowed[id];
          if (allowed.IsFull()) continue;
          const ddg::Node& node = graph.GetNode(id);
          if (node.kind != ddg::NodeKind::kRegister || !ace.Contains(id)) continue;
          ++part.nodes;
          const std::uint64_t mask = FlipsLeaving(allowed, node.value, node.width);
          result.crash_mask[id] = mask;
          part.bits += PopCount(mask);
        }
        return part;
      },
      [](MaskTotals acc, const MaskTotals& part) {
        acc.nodes += part.nodes;
        acc.bits += part.bits;
        return acc;
      },
      ParallelOptions{.jobs = jobs});
  result.constrained_nodes = totals.nodes;
  result.total_crash_bits = totals.bits;
  return result;
}

}  // namespace epvf::crash
