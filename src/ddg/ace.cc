#include "ddg/ace.h"

#include <deque>

#include "obs/trace.h"
#include "support/thread_pool.h"

namespace epvf::ddg {

namespace {

/// The ACE graph rooted at the union of two root sets; either may repeat
/// roots and hold kNoNode.
AceResult AceOfRoots(const Graph& graph, std::span<const NodeId> roots,
                     std::span<const NodeId> more_roots, int jobs) {
  const obs::TraceSpan span("ace", "compute-ace");
  AceResult result;
  result.in_ace.assign(graph.NumNodes(), 0);
  result.total_bits = graph.TotalRegisterBits();
  for (const std::span<const NodeId> set : {roots, more_roots}) {
    for (const NodeId root : set) {
      if (root != kNoNode) result.in_ace[root] = 1;
    }
  }

  // The paper's reverse BFS, as one sweep: every pred has a lower id than its
  // node (graph.h), so by the time the descending sweep reaches a node, every
  // node that can mark it has been visited and its mark is final.
  for (NodeId id = static_cast<NodeId>(graph.NumNodes()); id-- > 0;) {
    if (!result.in_ace[id]) continue;
    for (const NodeId pred : graph.Preds(id)) {
      if (pred != kNoNode) result.in_ace[pred] = 1;
    }
  }

  // Bit accounting over the marked nodes: per-node independent reads, so the
  // sweep is data-parallel with a chunk-ordered (thread-count-invariant) fold.
  struct Totals {
    std::uint64_t nodes = 0;
    std::uint64_t register_nodes = 0;
    std::uint64_t bits = 0;
  };
  const Totals totals = ParallelReduce(
      std::size_t{0}, graph.NumNodes(), Totals{},
      [&](std::size_t chunk_begin, std::size_t chunk_end) {
        Totals part;
        for (std::size_t i = chunk_begin; i < chunk_end; ++i) {
          const NodeId id = static_cast<NodeId>(i);
          if (!result.in_ace[id]) continue;
          ++part.nodes;
          const Node& node = graph.GetNode(id);
          if (node.kind == NodeKind::kRegister) {
            part.bits += node.width;
            ++part.register_nodes;
          }
        }
        return part;
      },
      [](Totals acc, const Totals& part) {
        acc.nodes += part.nodes;
        acc.register_nodes += part.register_nodes;
        acc.bits += part.bits;
        return acc;
      },
      ParallelOptions{.jobs = jobs});
  result.ace_node_count = totals.nodes;
  result.ace_register_nodes = totals.register_nodes;
  result.ace_bits = totals.bits;
  return result;
}

}  // namespace

AceResult ComputeAceFromRoots(const Graph& graph, std::span<const NodeId> roots, int jobs) {
  return AceOfRoots(graph, roots, {}, jobs);
}

AceResult ComputeAce(const Graph& graph, int jobs) {
  return AceOfRoots(graph, graph.output_roots(), graph.control_roots(), jobs);
}

std::vector<NodeId> BackwardSlice(const Graph& graph, NodeId start, bool follow_virtual,
                                  SliceVisited* visited) {
  std::vector<NodeId> slice;
  if (start == kNoNode) return slice;
  SliceVisited scratch;
  SliceVisited& seen = visited != nullptr ? *visited : scratch;
  seen.Reset(graph.NumNodes());
  std::deque<NodeId> frontier{start};
  seen.Insert(start);
  while (!frontier.empty()) {
    const NodeId id = frontier.front();
    frontier.pop_front();
    slice.push_back(id);
    const auto preds = graph.Preds(id);
    for (unsigned i = 0; i < preds.size(); ++i) {
      const NodeId pred = preds[i];
      if (pred == kNoNode) continue;
      if (!follow_virtual && graph.PredIsVirtual(id, i)) continue;
      if (seen.Insert(pred)) frontier.push_back(pred);
    }
  }
  return slice;
}

}  // namespace epvf::ddg
