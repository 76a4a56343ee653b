// Compositional per-unit ePVF: slice the whole-program analysis into
// per-unit artifacts with explicit boundary summaries, and compose the
// program's DDG back from them.
//
// ePVF is defined on one DDG: the ACE closure, the crash propagation and the
// activation walks all run over the whole graph. This module keeps the
// forward part of that graph per loop-nest unit (units.h), so an edit
// re-derives one unit, and composes the *graph*, not per-unit numbers:
//
//   * UnitSlice — the unit's share of the dynamic trace: its trace segments,
//     its DDG nodes/edges (cross-unit edges become (unit, export-slot)
//     references), its memory accesses with their crash-model seed
//     intervals, and the boundary summaries: per-segment live-in register /
//     memory-byte value sets, live-out (final) value sets, write images and
//     exit edges.
//   * StitchGraph — one ddg::Graph over the program rebuilt from the slices,
//     node for node the graph Analysis::Run builds (up to the numbering of
//     constants and globals, which come first). AnalyzeStitched runs the
//     monolithic ACE and propagation stages on it; the report statistics
//     are StatsFromAnalysis of that analysis.
//
// Cold path: run the monolithic pipeline once, then *project* its graph onto
// the partition (BuildProgramSlices), keeping the analysis's statistics.
// tests/compose_diff_test.cc asserts the stitched graph of a projection is
// the monolithic DDG and its statistics are bit-identical.
//
// Incremental path (see reexec.h and store/units_store.h): re-derive only an
// edited unit's slice by replaying its segments against the new IR, then
// recompute the statistics over the stitched graph. The backward stages cost
// a few milliseconds over the whole graph, so only the forward replay works
// per unit. Every validation failure falls back to the monolithic pipeline,
// so the fast path never has to be correct by optimism — only by
// verification.
#pragma once

#include <cstdint>
#include <string>
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
  std::uint32_t first_node = 0;  ///< unit-local; the first node this segment creates
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

struct UnitSlice {
  std::vector<SliceNode> nodes;
  std::vector<SlicePredRange> pred_ranges;  ///< parallel to nodes
  std::vector<UnitRef> preds;
  std::vector<SliceDyn> dyn;
  std::vector<UnitRef> operand_nodes;
  std::vector<std::uint64_t> operand_values;
  std::vector<SliceAccess> accesses;   ///< ascending by dyn
  std::vector<SegmentInfo> segments;
  std::vector<RegLiveIn> reg_live_ins;    ///< per segment, first-read order
  std::vector<ByteLiveIn> mem_live_ins;   ///< per segment, first-read order
  std::vector<RegFinal> reg_finals;       ///< per segment, ascending reg
  std::vector<ByteFinal> mem_finals;      ///< per segment, ascending addr
  std::vector<OutputEvent> outputs;       ///< trace order
  std::vector<ExportEntry> exports;       ///< slot-indexed
  std::vector<std::uint32_t> intern_refs; ///< sorted intern ids this unit uses
  /// UnitInputDigest of this unit — part of the unit's content address.
  std::uint64_t input_digest = 0;

  bool operator==(const UnitSlice&) const = default;
};

// --- the program-level composition -------------------------------------------

/// InternEntry::type_key of `t`: scalar | bits | ptr_depth.
[[nodiscard]] constexpr std::uint32_t PackTypeKey(ir::Type t) {
  return (static_cast<std::uint32_t>(t.scalar) << 16) |
         (static_cast<std::uint32_t>(t.bits) << 8) | static_cast<std::uint32_t>(t.ptr_depth);
}

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

struct ProgramSlices {
  /// The module the slices describe. After an incremental replay this is the
  /// *new* module — unchanged units' static ids resolve identically in it
  /// (the function-shape guard forces a full fallback otherwise).
  const ir::Module* module = nullptr;
  UnitPartition partition;
  std::vector<UnitSlice> units;
  std::vector<InternEntry> interns;
  std::vector<SegmentRef> segment_order;  ///< global trace order
  /// Per-function shape digest (CFG block names/edges + register types +
  /// param count): a mismatch means unit slices of the function are
  /// structurally stale — incremental analysis must fall back.
  std::vector<std::uint64_t> function_shape;
  /// Digest over the module's global variables (sizes, order, initializers).
  /// Global addresses are a function of this layout; replay resolves global
  /// operands from recorded addresses, so a layout change forces fallback.
  std::uint64_t globals_digest = 0;
  /// The program's report statistics: those of the projected analysis on the
  /// cold path, recomputed over the stitched graph after a replay that moved
  /// a slice.
  ReportStats stats;
};

/// Resolves a (possibly slot-indirect) ref into canonical (owner, local) form.
[[nodiscard]] UnitRef Canon(const ProgramSlices& p, std::uint32_t self, UnitRef ref);

/// Digest over everything `unit`'s slice is a function of besides its own IR
/// text: the boundary summaries (segment shapes, live-in value sets, outputs,
/// accesses with their seeds), its export table, and its intern references
/// resolved against p.interns (ids and entry identities). The one recipe
/// behind UnitSlice::input_digest on the cold path, after a replay, and when
/// the store re-verifies loaded units.
[[nodiscard]] std::uint64_t UnitInputDigest(const ProgramSlices& p, std::uint32_t unit);
[[nodiscard]] std::uint64_t FunctionShapeDigest(const ir::Function& fn);
[[nodiscard]] std::uint64_t GlobalsDigest(const ir::Module& module);

/// Cold path: project a completed monolithic analysis onto `partition`,
/// keeping its report statistics. Requires a live analysis (crash model) —
/// not one built by Analysis::Restore.
[[nodiscard]] ProgramSlices BuildProgramSlices(const Analysis& analysis,
                                               UnitPartition partition);

/// The program's DDG stitched from the slices, with the CHECK_BOUNDARY
/// interval each access stored (parallel to graph.accesses()).
struct StitchedGraph {
  ddg::Graph graph;
  std::vector<Interval> bounds;
};

/// Builds one graph over p.module: the interns some unit references, in id
/// order; then every unit's dyns in global trace order (segment_order), each
/// creating its result node with preds and operands resolved through Canon;
/// the accesses in trace order; and the output and control roots by the
/// builder's root rule. Accesses carry no map version or ESP: their bounds
/// stand in for CHECK_BOUNDARY. The slices must hold what the builder and the
/// store's loader guarantee: at most 8 preds per node and 8 operands per dyn,
/// each node the result of one dyn, accesses ascending by dyn. Throws
/// std::runtime_error when a reference names a node not stitched before it.
[[nodiscard]] StitchedGraph StitchGraph(const ProgramSlices& p);

/// ComputeAce and PropagateCrashRanges over the stitched graph, assembled by
/// Analysis::Restore (the activation walks run lazily, on `jobs` threads).
[[nodiscard]] Analysis AnalyzeStitched(const ProgramSlices& p, int jobs);

/// The program-level report statistics, p.stats.
[[nodiscard]] ReportStats ComposeProgram(const ProgramSlices& p);

/// One unit's ePVF over its own bits — a side of an `epvf delta` row.
struct UnitEpvf {
  std::string name;
  double epvf = 0.0;
};

/// Per-unit ePVF of one analysis state, in unit order: the stitched
/// analysis's register bits summed by the unit of their creating dyn.
[[nodiscard]] std::vector<UnitEpvf> PerUnitEpvf(const ProgramSlices& p, int jobs);

}  // namespace epvf::core
