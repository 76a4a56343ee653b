// ACE analysis over the DDG (paper section III-A).
//
// From the output and control roots, the paper's reverse breadth-first search
// collects every node an output transitively depends on — the ACE graph.
// Every DDG edge points to a lower node id (graph.h), so the search runs as
// one descending-id sweep: mark the roots, then visit the ids from the top,
// marking the preds of each marked node. ACE bits are the summed widths of
// the *register* nodes in that graph; divided by the width sum of all
// register nodes in the trace this yields the PVF of the "used registers"
// resource (Eq. 1), reproducing the paper's running example
// (352 / 416 = 0.846 for the pathfinder fragment of Figure 3).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ddg/graph.h"

namespace epvf::ddg {

struct AceResult {
  /// Per-node membership in the ACE graph.
  std::vector<std::uint8_t> in_ace;
  std::uint64_t ace_bits = 0;        ///< Σ widths of register nodes in the ACE graph
  std::uint64_t total_bits = 0;      ///< Σ widths of all register nodes in the trace
  std::uint64_t ace_node_count = 0;  ///< all node kinds, for Table V's "ACE nodes"
  std::uint64_t ace_register_nodes = 0;

  [[nodiscard]] double Pvf() const {
    return total_bits == 0 ? 0.0 : static_cast<double>(ace_bits) / static_cast<double>(total_bits);
  }
  [[nodiscard]] bool Contains(NodeId id) const { return in_ace[id] != 0; }
};

/// ACE analysis rooted at all output and control roots of the graph. The
/// marking sweep is sequential; the bit-accounting sweep over the marked nodes
/// runs on `jobs` threads (<= 0 = one per hardware core), bit-identical at
/// every thread count.
[[nodiscard]] AceResult ComputeAce(const Graph& graph, int jobs = 0);

/// ACE analysis rooted at an arbitrary subset of roots — the primitive behind
/// the ACE-graph sampling estimator of section IV-E. Roots may repeat, and
/// kNoNode roots are ignored.
[[nodiscard]] AceResult ComputeAceFromRoots(const Graph& graph, std::span<const NodeId> roots,
                                            int jobs = 0);

/// Reusable visited set for repeated graph traversals. Membership is an
/// epoch stamp per node, so Reset() is O(1) — bump the epoch — instead of
/// refilling an O(NumNodes) byte vector for every slice (the stamp array is
/// (re)allocated only when the graph grows or the 32-bit epoch wraps).
class SliceVisited {
 public:
  /// Clears the set and sizes it for `num_nodes` nodes.
  void Reset(std::size_t num_nodes) {
    ++epoch_;
    if (stamps_.size() != num_nodes || epoch_ == 0) {
      epoch_ = 1;
      stamps_.assign(num_nodes, 0);
    }
  }
  /// Marks `id`; returns true if it was newly inserted.
  bool Insert(NodeId id) {
    if (stamps_[id] == epoch_) return false;
    stamps_[id] = epoch_;
    return true;
  }
  [[nodiscard]] bool Contains(NodeId id) const { return stamps_[id] == epoch_; }

 private:
  std::vector<std::uint32_t> stamps_;
  std::uint32_t epoch_ = 0;
};

/// Backward slice of `start`: every node reachable through predecessor edges
/// (data and, optionally, virtual addressing edges), including `start`.
/// Repeated slicing (propagation diagnostics, protect/transform planning)
/// should pass a reusable `visited` buffer to avoid reallocating an
/// O(NumNodes) vector per call; with nullptr a scratch buffer is used.
[[nodiscard]] std::vector<NodeId> BackwardSlice(const Graph& graph, NodeId start,
                                                bool follow_virtual = true,
                                                SliceVisited* visited = nullptr);

}  // namespace epvf::ddg
