// The propagation model (paper section III-C, Algorithms 1 and 2).
//
// Walks the ACE graph, and for every load/store in it seeds the address
// node's allowed interval from CHECK_BOUNDARY, then propagates allowed
// intervals along the backward slices via the Table III lookup table
// (GET_RANGE_FOR_CRASH_BITS). A node constrained by several accesses keeps
// the *intersection* of their allowed intervals — a fault crashes if it takes
// any downstream access out of bounds.
//
// Implementation note (the "good engineering" of paper section VI-A): DDG
// edges always point from later nodes to earlier ones, so the graph is a DAG
// topologically ordered by node id. One descending sweep therefore reaches
// the fixpoint: when a node is visited, every successor has already narrowed
// it. That turns the paper's hours-long per-slice search into a single O(N)
// pass.
#pragma once

#include <cstdint>
#include <vector>

#include "crash/crash_model.h"
#include "ddg/ace.h"
#include "ddg/graph.h"
#include "support/interval.h"

namespace epvf::crash {

struct CrashBits {
  /// Per-node allowed interval (Full = unconstrained, i.e. no crash bits).
  std::vector<Interval> allowed;
  /// Per-node crash-bit mask: bit b set means flipping bit b of this node's
  /// observed value is predicted to crash the program. Only register nodes in
  /// the ACE graph carry masks (the CRASHING_BIT_LIST of Algorithm 2).
  std::vector<std::uint64_t> crash_mask;

  std::uint64_t total_crash_bits = 0;   ///< Σ popcount over ACE register nodes
  std::uint64_t constrained_nodes = 0;  ///< nodes with a non-trivial interval
  std::uint64_t seeded_accesses = 0;    ///< load/stores inside the ACE graph

  [[nodiscard]] bool IsCrashBit(ddg::NodeId node, unsigned bit) const {
    return node != ddg::kNoNode && ((crash_mask[node] >> bit) & 1u) != 0;
  }
  [[nodiscard]] unsigned CrashBitCount(ddg::NodeId node) const {
    return node == ddg::kNoNode ? 0u : static_cast<unsigned>(__builtin_popcountll(crash_mask[node]));
  }
};

/// Runs the full crash + propagation analysis over the ACE subset of `graph`.
/// `ace` must come from ComputeAce on the same graph; `model` supplies
/// CHECK_BOUNDARY for the graph's recorded accesses. The interval seeding and
/// the DAG sweep are order-dependent and stay sequential; the crash-bit mask
/// extraction (FlipsLeaving, support/interval.h, once per node) runs on `jobs`
/// threads (<= 0 = one per hardware core) with results bit-identical at every
/// thread count.
[[nodiscard]] CrashBits PropagateCrashRanges(const ddg::Graph& graph, const ddg::AceResult& ace,
                                             const CrashModel& model, int jobs = 0);

}  // namespace epvf::crash
