// Compositional per-unit ePVF: slice the whole-program analysis into
// per-unit artifacts with explicit boundary summaries, and recompose the
// program-level metrics from unit summaries.
//
// The monolithic pipeline (Analysis::Run) computes one global DDG, one ACE
// closure, one crash-propagation sweep and one activation-walk pass. This
// module re-expresses those results as a composition over the loop-nest
// units of units.h:
//
//   * UnitSlice — the unit's share of the dynamic trace: its trace segments,
//     its DDG nodes/edges (cross-unit edges become (unit, export-slot)
//     references), its memory accesses with their crash-model seed
//     intervals, and the boundary summaries: per-segment live-in register /
//     memory-byte value sets, live-out (final) value sets, write images and
//     exit edges.
//   * UnitBackward — the unit's share of the ACE + crash results: local ACE
//     marks, local crash-bit masks, and the *spill sets*: marks and interval
//     narrowings the unit's backward sweeps push across its boundary into
//     exporter units. Spill sets are what make the backward phase
//     composable: a unit's results are a pure function of (its slice, the
//     spills targeting it, its seeds).
//   * UnitSums / UnitWalk — the per-unit accounting (ACE bits, crash bits,
//     memory/structure triples, per-static-instruction metrics, use-weighted
//     walk sums) plus the walk dependency masks driving incremental
//     invalidation.
//
// Cold path: run the monolithic pipeline once, then *project* its results
// onto the partition (BuildProgramSlices). The projection is definitionally
// consistent with the global results — tests/compose_diff_test.cc asserts
// ComposeProgram's headline numbers are bit-identical to the monolithic
// run's on every app.
//
// Incremental path (see reexec.h and store/units_store.h): re-derive only an
// edited unit's slice by replaying its segments against the new IR, re-run
// that unit's backward sweep from the *stored* spill sets of its unchanged
// neighbours, verify its own spill sets did not move, and re-run the
// activation walks only for units whose dependency masks intersect the edit.
// Every validation failure falls back to the monolithic pipeline, so the
// fast path never has to be correct by optimism — only by verification.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "epvf/analysis.h"
#include "epvf/report.h"
#include "epvf/units.h"
#include "support/interval.h"

namespace epvf::core {

// --- cross-unit references ---------------------------------------------------

/// Packed reference to a node: high 32 bits = unit, low 32 bits = index.
/// Within a unit's own arrays the index is a local node id; a reference to
/// *another* unit is indirect — the index is a slot in the exporter's export
/// table, so an exporter's internal renumbering (after re-analysis) never
/// invalidates its consumers. kInternUnit references the program-wide intern
/// table of constant/global nodes.
using UnitRef = std::uint64_t;

inline constexpr std::uint32_t kInternUnit = 0xFFFFFFFFu;
inline constexpr UnitRef kNullRef = ~UnitRef{0} - 1;  // (kInternUnit, 0xFFFFFFFE)
inline constexpr std::uint32_t kNoLocalNode = 0xFFFFFFFFu;
inline constexpr std::uint32_t kNoLocalDyn = 0xFFFFFFFFu;

[[nodiscard]] constexpr UnitRef MakeRef(std::uint32_t unit, std::uint32_t index) {
  return (UnitRef{unit} << 32) | index;
}
[[nodiscard]] constexpr std::uint32_t RefUnit(UnitRef r) {
  return static_cast<std::uint32_t>(r >> 32);
}
[[nodiscard]] constexpr std::uint32_t RefIndex(UnitRef r) {
  return static_cast<std::uint32_t>(r);
}

/// Dependency-mask bit of a unit (bit 63 is the shared overflow bit: a mask
/// with it set conservatively depends on every unit).
[[nodiscard]] constexpr std::uint64_t UnitBit(std::uint32_t unit) {
  return std::uint64_t{1} << (unit < 63 ? unit : 63);
}

// --- the per-unit forward slice ----------------------------------------------

struct SliceNode {
  ddg::NodeKind kind = ddg::NodeKind::kRegister;
  std::uint8_t width = 0;
  std::uint32_t dyn = kNoLocalDyn;  ///< unit-local creating dyn
  std::uint64_t value = 0;
  bool operator==(const SliceNode&) const = default;
};

struct SlicePredRange {
  std::uint32_t offset = 0;
  std::uint32_t count = 0;
  std::uint32_t virtual_mask = 0;
  bool operator==(const SlicePredRange&) const = default;
};

struct SliceDyn {
  ir::StaticInstrId sid;
  std::uint32_t result_node = kNoLocalNode;
  std::uint32_t operands_offset = 0;
  std::uint8_t num_operands = 0;
  std::uint8_t selected_operand = 0xFF;
  bool operator==(const SliceDyn&) const = default;
};

struct SliceAccess {
  std::uint32_t dyn = 0;  ///< unit-local
  UnitRef addr_node = kNullRef;
  std::uint64_t addr = 0;
  std::uint32_t size = 0;
  std::uint8_t is_store = 0;
  /// CheckBoundary captured on the cold run; the seed applies iff the
  /// access's gate (the dyn's result node) is ACE at sweep time.
  Interval seed = Interval::Full();
  bool operator==(const SliceAccess&) const = default;
};

/// One maximal run of consecutive dynamic instructions inside the unit.
struct SegmentInfo {
  std::uint32_t first_dyn = 0;  ///< unit-local
  std::uint32_t num_dyn = 0;
  std::uint32_t first_node = 0;  ///< unit-local; nodes created by this segment
  std::uint32_t num_nodes = 0;
  std::uint32_t entry_block = 0;
  std::uint32_t prev_block = ir::kInvalidIndex;  ///< phi-selecting predecessor
  std::uint32_t exit_function = ir::kInvalidIndex;
  std::uint32_t exit_block = ir::kInvalidIndex;  ///< block control leaves to
  std::uint32_t exit_prev_block = ir::kInvalidIndex;  ///< last block executed here
  /// 1 when the segment ends because the function returned (or the trace
  /// ended on a ret) — replay validates the exit kind, not the caller's
  /// resume point, for these.
  std::uint8_t exits_via_ret = 0;
  bool operator==(const SegmentInfo&) const = default;
};

struct RegLiveIn {
  std::uint32_t segment = 0;
  std::uint32_t reg = 0;
  std::uint64_t value = 0;
  UnitRef node = kNullRef;  ///< defining node (kNullRef: read before any def)
  bool operator==(const RegLiveIn&) const = default;
};

struct ByteLiveIn {
  std::uint32_t segment = 0;
  std::uint64_t addr = 0;
  std::uint8_t byte = 0;
  UnitRef writer = kNullRef;  ///< kNullRef: initial-image byte, never stored
  bool operator==(const ByteLiveIn&) const = default;
};

struct RegFinal {
  std::uint32_t segment = 0;
  std::uint32_t reg = 0;
  std::uint64_t value = 0;
  bool operator==(const RegFinal&) const = default;
};

struct ByteFinal {
  std::uint32_t segment = 0;
  std::uint64_t addr = 0;
  std::uint8_t byte = 0;
  bool operator==(const ByteFinal&) const = default;
};

/// A value that crossed the unit boundary through a non-register channel, in
/// trace order: output-intrinsic payloads (post-rounding, exactly what the
/// interpreter pushed to the output stream) and function return values.
/// Replay validates these — an edit whose effect escapes through the output
/// stream or a return value is not containable.
struct OutputEvent {
  std::uint32_t segment = 0;
  std::uint64_t value = 0;
  bool operator==(const OutputEvent&) const = default;
};

/// Export-slot identity: a semantic key that survives the exporter's internal
/// renumbering. Register slots: the final definition of `key_a` (a register
/// id) in `segment`. Memory slots: the `ordinal`-th store of (`key_a` =
/// address, `key_b` = size) in `segment` that still owns at least one final
/// byte of the segment's write image.
struct ExportEntry {
  std::uint32_t local = kNoLocalNode;
  std::uint32_t segment = 0;
  std::uint8_t kind = 0;  ///< 0 = register, 1 = memory
  std::uint64_t key_a = 0;
  std::uint32_t key_b = 0;
  std::uint32_t ordinal = 0;
  bool operator==(const ExportEntry&) const = default;
};

struct RootRef {
  std::uint32_t segment = 0;
  UnitRef node = kNullRef;
  bool operator==(const RootRef&) const = default;
};

struct UnitSlice {
  std::vector<SliceNode> nodes;
  std::vector<SlicePredRange> pred_ranges;  ///< parallel to nodes
  std::vector<UnitRef> preds;
  std::vector<SliceDyn> dyn;
  std::vector<UnitRef> operand_nodes;
  std::vector<std::uint64_t> operand_values;
  std::vector<SliceAccess> accesses;   ///< ascending by dyn
  std::vector<RootRef> output_roots;   ///< trace order
  std::vector<RootRef> control_roots;  ///< trace order
  std::vector<SegmentInfo> segments;
  std::vector<RegLiveIn> reg_live_ins;    ///< per segment, first-read order
  std::vector<ByteLiveIn> mem_live_ins;   ///< per segment, first-read order
  std::vector<RegFinal> reg_finals;       ///< per segment, ascending reg
  std::vector<ByteFinal> mem_finals;      ///< per segment, ascending addr
  std::vector<OutputEvent> outputs;       ///< trace order
  std::vector<ExportEntry> exports;       ///< slot-indexed
  /// Sorted (local node, slot) pairs over `exports`. Slot positions are the
  /// unit's external ABI and never move; after a replay renumbers the locals
  /// this side table restores O(log n) local→slot lookup.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> export_by_local;
  std::vector<std::uint32_t> intern_refs; ///< sorted intern ids this unit uses
  std::uint64_t dropped_load_preds = 0;
  /// Digest over the boundary-summary inputs (segment shapes, live-in value
  /// sets, imported metas) — part of the unit's content address.
  std::uint64_t input_digest = 0;

  bool operator==(const UnitSlice&) const = default;
};

// --- per-unit backward results -----------------------------------------------

struct UnitBackward {
  std::vector<std::uint64_t> ace_marks;  ///< bitset over local nodes
  /// Sparse (local node, mask) pairs, ascending by node.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> crash_masks;
  /// External targets this unit's ACE closure marks, as the *consumer-side*
  /// refs ((exporter, slot) or intern) — sorted, unique.
  std::vector<UnitRef> ace_spills;
  /// Pre-intersected interval narrowings this unit's sweep pushes into each
  /// external target — sorted by ref.
  std::vector<std::pair<UnitRef, Interval>> interval_spills;
  std::vector<std::uint32_t> intern_marks;  ///< sorted intern ids marked ACE
  std::uint64_t seeded_accesses = 0;

  [[nodiscard]] bool Marked(std::uint32_t local) const {
    return (ace_marks[local >> 6] >> (local & 63)) & 1;
  }
  void Mark(std::uint32_t local) { ace_marks[local >> 6] |= std::uint64_t{1} << (local & 63); }
  [[nodiscard]] std::uint64_t MaskOf(std::uint32_t local) const;
  bool operator==(const UnitBackward&) const = default;
};

/// Per-unit accounting — everything ComposeProgram sums.
struct UnitSums {
  std::uint64_t dyn_count = 0;
  std::uint64_t node_count = 0;
  std::uint64_t total_bits = 0;
  std::uint64_t ace_bits = 0;
  std::uint64_t crash_bits = 0;
  std::uint64_t ace_nodes = 0;  ///< local nodes only; interns counted once globally
  std::uint64_t ace_register_nodes = 0;
  std::uint64_t constrained_nodes = 0;
  std::uint64_t mem_total = 0;
  std::uint64_t mem_ace = 0;
  std::uint64_t mem_crash = 0;
  std::array<std::uint64_t, kNumRegisterClasses> cls_total{};
  std::array<std::uint64_t, kNumRegisterClasses> cls_ace{};
  std::array<std::uint64_t, kNumRegisterClasses> cls_crash{};
  std::vector<InstrMetrics> per_instruction;  ///< ascending by sid
};

struct UnitWalk {
  Analysis::UseWeightedBits uw;
  /// Units whose forward/backward data the unit's walks read (always
  /// includes the unit itself).
  std::uint64_t data_deps = 0;
  /// Units whose *static* instruction stream the control oracle examined.
  std::uint64_t oracle_deps = 0;
};

struct CompiledUnit {
  UnitSlice slice;
  UnitBackward back;
  UnitSums sums;
  UnitWalk walk;
};

// --- the program-level composition -------------------------------------------

struct InternEntry {
  std::uint8_t is_global = 0;   ///< 0 = constant-pool entry, 1 = global
  std::uint32_t ir_index = 0;   ///< pool / global index in the source module
  /// Packed ir::Type (scalar | bits | ptr_depth) of a constant entry. The
  /// module pool interns constants by (type, bits), so (type_key, value)
  /// identifies a pool entry across re-parses even when indices shift;
  /// globals are identified by ir_index (stable under unit-local edits).
  std::uint32_t type_key = 0;
  std::uint8_t width = 0;
  std::uint64_t value = 0;
};

struct SegmentRef {
  std::uint32_t unit = 0;
  std::uint32_t seg = 0;
};

// --- walk use index ----------------------------------------------------------

/// One register-operand use site in the walk index. Position is stored as
/// (unit, segment, offset-within-segment): replaying a dirty unit can change
/// segment lengths and shift every later global dyn index, but segment
/// *order* is validated invariant, so stored uses stay sorted — only the
/// segment base table needs recomputing.
struct WalkUse {
  std::uint32_t unit = 0;
  std::uint32_t seg = 0;     ///< unit-local segment index
  std::uint32_t offset = 0;  ///< dyn offset within the segment
  std::uint8_t slot = 0;
  std::uint8_t has_register_result = 0;
  ir::StaticInstrId sid;
  UnitRef result = kNullRef;  ///< canonical ref of the consuming dyn's result
};

/// One walk-index key's uses, in global trace order, and the OR of UnitBit
/// over their units: the data dependency a walk over this key records. The
/// mask is kept equal to that OR whenever the list changes; it is recomputed
/// from the list, never cleared bit by bit, because UnitBit folds every unit
/// >= 63 into the shared bit 63.
struct KeyUses {
  std::vector<WalkUse> list;
  std::uint64_t unit_mask = 0;
};

/// The shared activation-walk index over all unit slices: per canonical node
/// ref, its uses in global trace order. Rebuilding it from scratch costs a
/// full trace scan, so the incremental path maintains it in place
/// (UpdateWalkIndexForUnit) instead — that is what keeps warm re-analysis
/// under the trace-replay budget.
struct WalkUseIndex {
  std::unordered_map<UnitRef, KeyUses> uses;
  /// seg_base[unit][seg] = global dyn index of the segment's first dyn.
  std::vector<std::vector<std::uint64_t>> seg_base;
  /// Per function: the dependency-mask bits of its units.
  std::vector<std::uint64_t> function_units;
  /// Per unit: the index keys that unit's dyns contribute uses to — the
  /// incremental path touches exactly these vectors when the unit replays.
  std::vector<std::vector<UnitRef>> unit_refs;

  [[nodiscard]] std::uint64_t GlobalDyn(const WalkUse& u) const {
    return seg_base[u.unit][u.seg] + u.offset;
  }
};

struct ProgramSlices {
  /// The module the slices describe. After an incremental replay this is the
  /// *new* module — unchanged units' static ids resolve identically in it
  /// (the function-shape guard forces a full fallback otherwise).
  const ir::Module* module = nullptr;
  UnitPartition partition;
  std::vector<CompiledUnit> units;
  std::vector<InternEntry> interns;
  std::vector<SegmentRef> segment_order;  ///< global trace order
  std::uint64_t instructions_executed = 0;
  /// Per-function shape digest (CFG block names/edges + register types +
  /// param count): a mismatch means unit slices of the function are
  /// structurally stale — incremental analysis must fall back.
  std::vector<std::uint64_t> function_shape;
  /// Digest over the module's global variables (sizes, order, initializers).
  /// Global addresses are a function of this layout; replay resolves global
  /// operands from recorded addresses, so a layout change forces fallback.
  std::uint64_t globals_digest = 0;
  /// Per-unit instruction-order-sensitive digest over register uses: the
  /// control oracle's visibility into the unit's static text.
  std::vector<std::uint64_t> unit_static_digest;
  /// Per-unit sorted set of register ids the unit's static text reads or
  /// writes (guards walk reuse against use-set-changing edits).
  std::vector<std::vector<std::uint32_t>> unit_reg_set;
  /// Lazily built by RunUnitWalks; not serialized. The incremental path keeps
  /// it alive and patches it per dirty unit instead of rebuilding.
  std::shared_ptr<WalkUseIndex> walk_index;
};

/// Resolves a (possibly slot-indirect) ref into canonical (owner, local) form.
[[nodiscard]] UnitRef Canon(const ProgramSlices& p, std::uint32_t self, UnitRef ref);

[[nodiscard]] std::uint64_t FunctionShapeDigest(const ir::Function& fn);
[[nodiscard]] std::uint64_t GlobalsDigest(const ir::Module& module);
[[nodiscard]] std::uint64_t UnitStaticDigest(const ir::Module& module, const UnitInfo& unit);
[[nodiscard]] std::vector<std::uint32_t> UnitRegisterSet(const ir::Module& module,
                                                         const UnitInfo& unit);

/// Cold path: project a completed monolithic analysis onto `partition`.
/// Fills every unit's slice, backward results and sums; walks are computed by
/// RunUnitWalks (which the caller invokes for all units). Requires a live
/// analysis (crash model) — not one restored from artifacts.
[[nodiscard]] ProgramSlices BuildProgramSlices(const Analysis& analysis,
                                               UnitPartition partition);

/// Recomputes `unit`'s backward results (ACE + crash) from its slice, its
/// seeds, and the *stored* spill sets of every other unit. Mirrors the
/// monolithic sweeps exactly; overwrites units[unit].back and .sums (walk
/// sums untouched).
void RunUnitBackward(ProgramSlices& p, std::uint32_t unit);

/// Recomputes the activation-walk sums (and dependency masks) of the listed
/// units over the current slices. Bit-identical to the monolithic pass at
/// every thread count. Builds p.walk_index on first call.
void RunUnitWalks(ProgramSlices& p, const ir::Module& module,
                  std::span<const std::uint32_t> units_to_walk, int jobs);

/// Replaces `unit`'s contribution to the walk use index after its slice was
/// replayed, and refreshes the segment base table (other units' uses shift
/// position but never order). No-op when the index has not been built yet.
void UpdateWalkIndexForUnit(ProgramSlices& p, std::uint32_t unit);

/// Assembles the program-level report statistics from the unit summaries.
[[nodiscard]] ReportStats ComposeProgram(const ProgramSlices& p);

/// Per-instruction metrics recomposed from the unit summaries (sids are
/// disjoint across units — each static instruction lives in exactly one).
[[nodiscard]] std::vector<InstrMetrics> ComposePerInstruction(const ProgramSlices& p);

/// One row of the `epvf delta` report.
struct UnitDelta {
  std::string name;
  std::uint64_t old_total_bits = 0, new_total_bits = 0;
  double old_epvf = 0.0, new_epvf = 0.0;
  bool changed = false;  ///< the unit's IR fingerprint moved
};

/// Per-unit ePVF of one analysis state (unit ePVF over the unit's own bits).
[[nodiscard]] std::vector<UnitDelta> PerUnitEpvf(const ProgramSlices& p);

}  // namespace epvf::core
