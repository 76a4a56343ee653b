// Greedy selective-duplication planning (paper section V).
//
// "We select the static instruction at the top of the list, extract its
// backward slice, selectively duplicate the instructions in the slice, and
// insert a comparison ... if the performance overhead bound is not exceeded,
// we choose the next instruction on the list."
//
// The plan is computed on the golden DDG: duplicating an instruction's slice
// re-executes every register-producing instruction on the slice (loads
// re-load, so slices follow load address chains but stop at memory versions)
// plus one comparison per protected dynamic instance. Overhead is modeled as
// the fractional increase in retired dynamic instructions — the faithful
// cost proxy on a simulated platform (see DESIGN.md substitutions). A fault
// in any register covered by a duplicated slice diverges the original from
// the redundant computation and is caught by the inserted comparison.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "epvf/analysis.h"
#include "protect/ranking.h"

namespace epvf::protect {

struct ProtectionPlan {
  /// Per-DDG-node flag: faults in this register node are detected.
  std::vector<std::uint8_t> node_protected;
  /// Static instructions whose slices were duplicated, in chosen order.
  std::vector<ir::StaticInstrId> chosen;
  /// Modeled performance overhead: extra dynamic instructions / golden count.
  double overhead = 0.0;
  std::uint64_t duplicated_dynamic_instructions = 0;

  [[nodiscard]] bool Covers(ddg::NodeId node) const {
    return node != ddg::kNoNode && node < node_protected.size() && node_protected[node] != 0;
  }
  [[nodiscard]] std::uint64_t CoveredNodes() const;
};

struct PlanOptions {
  double overhead_budget = 0.24;  ///< the paper reports the 24% bound
};

/// Builds the greedy plan over `ranking` until the overhead budget is filled.
[[nodiscard]] ProtectionPlan BuildDuplicationPlan(const core::Analysis& analysis,
                                                  std::span<const RankedInstr> ranking,
                                                  const PlanOptions& options);

}  // namespace epvf::protect
