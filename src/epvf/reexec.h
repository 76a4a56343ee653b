// Incremental re-analysis: slice replay + the single-dirty-unit driver.
//
// After an edit, ReanalyzeIncremental diffs the new module's unit partition
// against a resident ProgramSlices, re-derives only the edited unit, and
// leaves the composition warm. The fast path is never correct by optimism —
// every step validates against the recorded boundary summaries and falls
// back to the whole-program pipeline on any divergence:
//
//   1. Guards: same unit partition (names/blocks), same function shapes
//      (CFG + register types), same global layout, exactly one unit with a
//      moved IR fingerprint, and that unit free of user calls and allocas.
//   2. Replay (ReplayUnitSlice): re-execute the dirty unit's trace segments
//      against the new IR, seeding registers and memory bytes from the
//      recorded per-segment live-in value sets. Strict per-segment
//      validation — exit edge (or ret), final register values, final write
//      image, output/return events, and the exact (addr, size, is_store)
//      access sequence — proves the edit's effects never escaped the unit,
//      so every other unit's slice still holds bit for bit.
//   3. Contained edit: when the replay reproduced the unit's slice bit for
//      bit, interned no new constant and left the unit's instructions equal
//      (a register rename), nothing the statistics read moved; they stay.
//   4. Recompose: any other replay recomputes the statistics over the graph
//      stitched from the slices (AnalyzeStitched): the monolithic ACE,
//      propagation and walk stages, a few milliseconds over the whole
//      graph, where an edit's backward and walk effects reach across units
//      without anything tracking them.
//
// On success the resident ProgramSlices describes the new module and
// ComposeProgram is bit-identical to a from-scratch analysis. On fallback
// the resident state is stale — the caller rebuilds it from a fresh
// monolithic run (see store/units_store.h for the cached variant).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "epvf/compose.h"

namespace epvf::core {

/// Why an incremental re-analysis had to fall back (kNone = fast path held).
enum class FallbackReason : std::uint8_t {
  kNone = 0,
  kPartitionShape,   ///< unit count/names/blocks or function shapes moved
  kGlobalLayout,     ///< global variable layout changed
  kMultipleDirty,    ///< more than one unit's fingerprint moved
  kIneligibleUnit,   ///< dirty unit has user calls or allocas
  kReplayDiverged,   ///< replay hit an unsupported op or failed validation
};

[[nodiscard]] std::string_view FallbackReasonName(FallbackReason reason);

/// Whether `unit` is eligible for slice replay: no user calls, no allocas,
/// and no allocation/termination intrinsics (malloc/free/abort/detect) —
/// effects a unit-local replay cannot contain.
[[nodiscard]] bool UnitIsReplayable(const ir::Module& module, const UnitInfo& unit);

struct IncrementalOutcome {
  bool used_fast_path = false;
  FallbackReason fallback = FallbackReason::kNone;
  std::uint32_t units_total = 0;
  std::uint32_t units_replayed = 0;  ///< 0 (no-op warm hit) or 1
  /// units_total when the statistics were recomposed over the stitched
  /// graph (its walks cover every unit), 0 when nothing they read moved.
  std::uint32_t units_rewalked = 0;
  std::uint32_t dirty_unit = 0;      ///< valid when units_replayed == 1
};

/// Replays `unit`'s segments against `new_module`, producing a fresh slice
/// whose boundary behaviour is validated byte-for-byte against the recorded
/// summaries. Returns nullopt on any divergence, including a recorded
/// register id outside the function. May append entries to p.interns (new
/// constants); never mutates existing ones.
[[nodiscard]] std::optional<UnitSlice> ReplayUnitSlice(ProgramSlices& p, std::uint32_t unit,
                                                       const ir::Module& new_module);

/// The incremental driver. On success (used_fast_path), `p` describes
/// `new_module` and holds composition-ready results; `new_module` must
/// outlive `p`. On fallback, `p` is stale and must be rebuilt from a fresh
/// monolithic run before further use.
[[nodiscard]] IncrementalOutcome ReanalyzeIncremental(ProgramSlices& p,
                                                      const ir::Module& new_module, int jobs);

}  // namespace epvf::core
