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
//   * UnitSums and the walk sums — the per-unit accounting ComposeProgram
//     adds up (ACE bits, crash bits, memory/structure triples) and the
//     unit's use-weighted activation-walk sums.
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
// neighbours, verify its own spill sets did not move, and re-run every
// unit's activation walks over a use index rebuilt from the slices
// (RunUnitWalks). The rebuild is a few linear passes over the trace's
// operands, and an edit's walk effects reach most units, so tracking which
// units an edit reaches would cost more than it saves. Every validation
// failure falls back to the monolithic pipeline, so the fast path never has
// to be correct by optimism — only by verification.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
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
  std::vector<std::uint32_t> intern_refs; ///< sorted intern ids this unit uses
  /// UnitInputDigest of this unit — part of the unit's content address.
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

  [[nodiscard]] bool Marked(std::uint32_t local) const {
    return (ace_marks[local >> 6] >> (local & 63)) & 1;
  }
  void Mark(std::uint32_t local) { ace_marks[local >> 6] |= std::uint64_t{1} << (local & 63); }
  [[nodiscard]] std::uint64_t MaskOf(std::uint32_t local) const;
  bool operator==(const UnitBackward&) const = default;
};

/// Per-unit accounting — everything ComposeProgram sums.
struct UnitSums {
  std::uint64_t node_count = 0;
  std::uint64_t total_bits = 0;
  std::uint64_t ace_bits = 0;
  std::uint64_t crash_bits = 0;
  std::uint64_t ace_nodes = 0;  ///< local nodes only; interns counted once globally
  std::uint64_t mem_total = 0;
  std::uint64_t mem_ace = 0;
  std::uint64_t mem_crash = 0;
  std::array<std::uint64_t, kNumRegisterClasses> cls_total{};
  std::array<std::uint64_t, kNumRegisterClasses> cls_ace{};
  std::array<std::uint64_t, kNumRegisterClasses> cls_crash{};
};

struct CompiledUnit {
  UnitSlice slice;
  UnitBackward back;
  UnitSums sums;
  /// Use-weighted walk sums over the unit's register-operand uses. They read
  /// other units' data, so RunUnitWalks recomputes them for every unit.
  Analysis::UseWeightedBits walk;
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
};

/// Resolves a (possibly slot-indirect) ref into canonical (owner, local) form.
[[nodiscard]] UnitRef Canon(const ProgramSlices& p, std::uint32_t self, UnitRef ref);

/// Digest over everything `unit`'s slice, backward results and sums are a
/// function of besides its own IR text: the boundary summaries (segment
/// shapes, live-in value sets, outputs, accesses with their seeds), its
/// export table, its intern references resolved against p.interns (ids and
/// entry identities), and the ACE marks and interval narrowings the other
/// units' backward results push into it. The one recipe behind
/// UnitSlice::input_digest on the cold path, after a replay, and when the
/// store re-verifies loaded units.
[[nodiscard]] std::uint64_t UnitInputDigest(const ProgramSlices& p, std::uint32_t unit);
[[nodiscard]] std::uint64_t FunctionShapeDigest(const ir::Function& fn);
[[nodiscard]] std::uint64_t GlobalsDigest(const ir::Module& module);

/// Cold path: project a completed monolithic analysis onto `partition`.
/// Fills every unit's slice, backward results and sums; the walk sums are
/// computed by RunUnitWalks, which the caller invokes. Requires a live
/// analysis (crash model) — not one built by Analysis::Restore.
[[nodiscard]] ProgramSlices BuildProgramSlices(const Analysis& analysis,
                                               UnitPartition partition);

/// Recomputes `unit`'s backward results (ACE + crash) from its slice, its
/// seeds, and the *stored* spill sets of every other unit. Mirrors the
/// monolithic sweeps exactly; overwrites units[unit].back and .sums (walk
/// sums untouched). BuildProgramSlices runs it over every unit, as the check
/// that the spill sets alone reproduce the monolithic results.
void RunUnitBackward(ProgramSlices& p, std::uint32_t unit);

/// Recomputes every unit's activation-walk sums over the current slices.
/// Builds the walk's use index from the slices on every call, laid out like
/// UseIndex (walks.h) over one flat node numbering: each unit's local nodes
/// after the previous unit's, the interns after all units. Bit-identical to
/// the monolithic pass at every thread count.
void RunUnitWalks(ProgramSlices& p, const ir::Module& module, int jobs);

/// Assembles the program-level report statistics from the unit summaries.
[[nodiscard]] ReportStats ComposeProgram(const ProgramSlices& p);

/// One unit's ePVF over its own bits — a side of an `epvf delta` row.
struct UnitEpvf {
  std::string name;
  double epvf = 0.0;
};

/// Per-unit ePVF of one analysis state, in unit order.
[[nodiscard]] std::vector<UnitEpvf> PerUnitEpvf(const ProgramSlices& p);

}  // namespace epvf::core
