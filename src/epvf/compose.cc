#include "epvf/compose.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "crash/lookup_table.h"
#include "epvf/walks.h"
#include "ir/intrinsics.h"
#include "support/bits.h"
#include "support/hash.h"
#include "support/thread_pool.h"

namespace epvf::core {

namespace {

using ddg::kNoNode;
using ddg::NodeId;
using ir::Opcode;

/// Export-slot refs in the walk index carry this flag in the index field so
/// they are distinguishable from unit-local node refs (local ids never reach
/// bit 31). Slot refs survive the exporter's internal renumbering.
inline constexpr std::uint32_t kSlotFlag = 0x80000000u;

const ir::Instruction& InstrOf(const ir::Module& m, ir::StaticInstrId sid) {
  return m.functions[sid.function].blocks[sid.block].instructions[sid.instr];
}

std::uint32_t PackTypeKey(ir::Type t) {
  return (static_cast<std::uint32_t>(t.scalar) << 16) |
         (static_cast<std::uint32_t>(t.bits) << 8) | static_cast<std::uint32_t>(t.ptr_depth);
}

/// Mirror of report.cc's ClassifyNode for a unit-local register node (interns
/// never classify locally — they are constant/global nodes).
std::size_t ClassOfNode(const ir::Module& module, const UnitSlice& s, std::uint32_t local) {
  const ir::Instruction& inst = InstrOf(module, s.dyn[s.nodes[local].dyn].sid);
  if (inst.type.IsPointer()) return static_cast<std::size_t>(RegisterClass::kPointer);
  if (inst.type.IsFloat()) return static_cast<std::size_t>(RegisterClass::kFloat);
  if (inst.type == ir::Type::I1()) return static_cast<std::size_t>(RegisterClass::kPredicate);
  return static_cast<std::size_t>(RegisterClass::kInteger);
}

/// Rewrites a canonical (owner, local) ref into its walk-index key: exported
/// nodes are keyed by (owner, slot | kSlotFlag) so a dirty unit's replay never
/// invalidates the keys other units' uses live under; non-exported nodes keep
/// the local form (all their uses are intra-unit and rewritten wholesale when
/// the unit itself replays). Idempotent on already-flagged keys.
UnitRef WalkKey(const ProgramSlices& p, UnitRef ref) {
  if (ref == kNullRef) return ref;
  const std::uint32_t u = RefUnit(ref);
  if (u == kInternUnit) return ref;
  const std::uint32_t local = RefIndex(ref);
  if ((local & kSlotFlag) != 0) return ref;
  const auto& by_local = p.units[u].slice.export_by_local;
  const auto it = std::lower_bound(
      by_local.begin(), by_local.end(), local,
      [](const std::pair<std::uint32_t, std::uint32_t>& e, std::uint32_t l) {
        return e.first < l;
      });
  if (it != by_local.end() && it->first == local) {
    return MakeRef(u, it->second | kSlotFlag);
  }
  return ref;
}

/// Width/value of a (possibly external or intern) ref, resolving slot
/// indirection through the exporter's table.
std::pair<unsigned, std::uint64_t> WidthValueOf(const ProgramSlices& p, std::uint32_t self,
                                                UnitRef ref) {
  const std::uint32_t u = RefUnit(ref);
  if (u == kInternUnit) {
    const InternEntry& e = p.interns[RefIndex(ref)];
    return {e.width, e.value};
  }
  if (u == self) {
    const SliceNode& n = p.units[u].slice.nodes[RefIndex(ref)];
    return {n.width, n.value};
  }
  const ExportEntry& e = p.units[u].slice.exports[RefIndex(ref)];
  const SliceNode& n = p.units[u].slice.nodes[e.local];
  return {n.width, n.value};
}

/// Shared tail of the cold projection and the per-unit resweep: rebuilds
/// `unit`'s crash masks and every UnitSums field from its marks and the final
/// allowed intervals. Mirrors propagation.cc's mask sweep, ace.cc's bit
/// accounting, report.cc's structure classification, ComputeMemoryBitsSums
/// and PerInstructionMetrics — all restricted to the unit's own nodes/dyns.
void FinishUnitBackward(ProgramSlices& p, std::uint32_t unit,
                        const std::vector<Interval>& allowed) {
  CompiledUnit& cu = p.units[unit];
  const UnitSlice& s = cu.slice;
  UnitBackward& back = cu.back;
  const ir::Module& module = *p.module;

  back.crash_masks.clear();
  UnitSums sums;
  sums.dyn_count = s.dyn.size();
  sums.node_count = s.nodes.size();

  std::vector<std::uint64_t> masks(s.nodes.size(), 0);
  for (std::uint32_t local = 0; local < s.nodes.size(); ++local) {
    const SliceNode& node = s.nodes[local];
    const bool marked = back.Marked(local);
    if (marked) ++sums.ace_nodes;
    if (node.kind == ddg::NodeKind::kRegister) {
      sums.total_bits += node.width;
      const std::size_t cls = ClassOfNode(module, s, local);
      sums.cls_total[cls] += node.width;
      std::uint64_t mask = 0;
      if (!allowed[local].IsFull() && marked) {
        ++sums.constrained_nodes;
        for (unsigned bit = 0; bit < node.width; ++bit) {
          if (!allowed[local].Contains(FlipBit(node.value, bit))) mask |= std::uint64_t{1} << bit;
        }
      }
      if (marked) {
        sums.ace_bits += node.width;
        ++sums.ace_register_nodes;
        sums.cls_ace[cls] += node.width;
        sums.crash_bits += PopCount(mask);
        sums.cls_crash[cls] += PopCount(mask & LowMask(node.width));
      }
      if (mask != 0) {
        masks[local] = mask;
        back.crash_masks.emplace_back(local, mask);
      }
    } else if (node.kind == ddg::NodeKind::kMemory) {
      sums.mem_total += node.width;
      if (marked) {
        sums.mem_ace += node.width;
        if (!allowed[local].IsFull()) {
          for (unsigned bit = 0; bit < node.width; ++bit) {
            sums.mem_crash += !allowed[local].Contains(FlipBit(node.value, bit)) ? 1u : 0u;
          }
        }
      }
    }
  }

  std::map<ir::StaticInstrId, InstrMetrics> by_sid;
  for (std::uint32_t ld = 0; ld < s.dyn.size(); ++ld) {
    const SliceDyn& d = s.dyn[ld];
    InstrMetrics& m = by_sid[d.sid];
    m.sid = d.sid;
    m.exec_count += 1;
    if (d.result_node == kNoLocalNode ||
        s.nodes[d.result_node].kind != ddg::NodeKind::kRegister) {
      continue;
    }
    const unsigned width = s.nodes[d.result_node].width;
    m.total_bits += width;
    if (back.Marked(d.result_node)) {
      m.ace_bits += width;
      m.crash_bits += PopCount(masks[d.result_node] & LowMask(width));
    }
  }
  sums.per_instruction.reserve(by_sid.size());
  for (auto& [sid, metrics] : by_sid) sums.per_instruction.push_back(metrics);

  cu.sums = std::move(sums);
}

}  // namespace

std::uint64_t UnitBackward::MaskOf(std::uint32_t local) const {
  const auto it = std::lower_bound(
      crash_masks.begin(), crash_masks.end(), local,
      [](const std::pair<std::uint32_t, std::uint64_t>& e, std::uint32_t l) {
        return e.first < l;
      });
  return it != crash_masks.end() && it->first == local ? it->second : 0;
}

UnitRef Canon(const ProgramSlices& p, std::uint32_t self, UnitRef ref) {
  if (ref == kNullRef) return ref;
  const std::uint32_t u = RefUnit(ref);
  if (u == kInternUnit || u == self) return ref;
  return MakeRef(u, p.units[u].slice.exports[RefIndex(ref)].local);
}

std::uint64_t FunctionShapeDigest(const ir::Function& fn) {
  support::Hasher h;
  h.Mix(fn.name);
  h.Mix(fn.num_params);
  h.Mix(fn.registers.size());
  for (const ir::RegisterInfo& r : fn.registers) h.Mix(PackTypeKey(r.type));
  h.Mix(fn.blocks.size());
  for (const ir::BasicBlock& block : fn.blocks) {
    h.Mix(block.name);
    std::uint32_t bb_true = ir::kInvalidIndex;
    std::uint32_t bb_false = ir::kInvalidIndex;
    if (!block.instructions.empty()) {
      const ir::Instruction& term = block.instructions.back();
      if (term.op == Opcode::kBr || term.op == Opcode::kCondBr) bb_true = term.bb_true;
      if (term.op == Opcode::kCondBr) bb_false = term.bb_false;
    }
    h.Mix(bb_true);
    h.Mix(bb_false);
  }
  return h.Digest();
}

std::uint64_t GlobalsDigest(const ir::Module& module) {
  support::Hasher h;
  h.Mix(module.globals.size());
  for (const ir::GlobalVar& g : module.globals) {
    h.Mix(g.name);
    h.Mix(PackTypeKey(g.element_type));
    h.Mix(g.count);
    h.Mix(g.init.size());
    for (const std::uint8_t b : g.init) h.Mix(b);
  }
  return h.Digest();
}

std::uint64_t UnitStaticDigest(const ir::Module& module, const UnitInfo& unit) {
  support::Hasher h;
  const ir::Function& fn = module.functions[unit.function];
  for (const std::uint32_t b : unit.blocks) {
    h.Mix(b);
    const auto& insts = fn.blocks[b].instructions;
    h.Mix(insts.size());
    for (const ir::Instruction& inst : insts) {
      h.Mix(static_cast<std::uint64_t>(inst.op));
      h.Mix(inst.DefinesValue() ? inst.result : ir::kInvalidIndex);
      h.Mix(inst.operands.size());
      for (const ir::ValueRef& op : inst.operands) {
        h.Mix(static_cast<std::uint64_t>(op.kind));
        // Constant identity is deliberately excluded: a constant tweak keeps
        // the digest (the walk oracle never reads constant values).
        h.Mix(op.kind == ir::ValueKind::kRegister ? op.index : 0u);
      }
    }
  }
  return h.Digest();
}

std::vector<std::uint32_t> UnitRegisterSet(const ir::Module& module, const UnitInfo& unit) {
  std::set<std::uint32_t> regs;
  const ir::Function& fn = module.functions[unit.function];
  for (const std::uint32_t b : unit.blocks) {
    for (const ir::Instruction& inst : fn.blocks[b].instructions) {
      if (inst.DefinesValue()) regs.insert(inst.result);
      for (const ir::ValueRef& op : inst.operands) {
        if (op.IsRegister()) regs.insert(op.index);
      }
    }
  }
  return {regs.begin(), regs.end()};
}

ProgramSlices BuildProgramSlices(const Analysis& analysis, UnitPartition partition) {
  ProgramSlices p;
  p.module = &analysis.module();
  p.partition = std::move(partition);
  const ir::Module& module = *p.module;
  const ddg::Graph& g = analysis.graph();
  const ddg::AceResult& ace = analysis.ace();
  const crash::CrashBits& cb = analysis.crash_bits();
  const auto num_units = static_cast<std::uint32_t>(p.partition.NumUnits());
  p.units.clear();
  p.units.resize(num_units);
  p.instructions_executed = analysis.golden().instructions_executed;
  p.globals_digest = GlobalsDigest(module);

  p.function_shape.reserve(module.functions.size());
  for (const ir::Function& fn : module.functions) {
    p.function_shape.push_back(FunctionShapeDigest(fn));
  }
  p.unit_static_digest.reserve(num_units);
  p.unit_reg_set.reserve(num_units);
  for (const UnitInfo& info : p.partition.units) {
    p.unit_static_digest.push_back(UnitStaticDigest(module, info));
    p.unit_reg_set.push_back(UnitRegisterSet(module, info));
  }

  const auto n_dyn = static_cast<std::uint32_t>(g.NumDynInstrs());
  const auto n_nodes = static_cast<std::uint32_t>(g.NumNodes());

  // --- pass 1: trace scan — segmentation + boundary summaries ---------------
  // One walk over the global dyn sequence, doing three things at once:
  // assigning every dyn its (unit, local dyn, segment), opening/closing
  // segments as control crosses unit boundaries, and recording the
  // replay-validation data (live-in value sets, final values, write images,
  // output/return events, dropped-pred counts).
  std::vector<std::uint32_t> dyn_unit(n_dyn, 0);
  std::vector<std::uint32_t> dyn_local(n_dyn, 0);
  std::vector<std::uint32_t> dyn_seg(n_dyn, 0);
  std::vector<std::uint32_t> unit_dyn_count(num_units, 0);

  struct RawRegLiveIn {
    std::uint32_t segment, reg;
    std::uint64_t value;
    NodeId node;
  };
  struct RawByteLiveIn {
    std::uint32_t segment;
    std::uint64_t addr;
    std::uint8_t byte;
    NodeId writer;
  };
  std::vector<std::vector<RawRegLiveIn>> raw_reg_li(num_units);
  std::vector<std::vector<RawByteLiveIn>> raw_byte_li(num_units);

  {
    // Global byte shadow: addr -> (current writer memory node, byte value).
    // Maintained exactly like the builder's WriterShadow so the dropped-pred
    // replication below counts the same events.
    std::unordered_map<std::uint64_t, std::pair<NodeId, std::uint8_t>> mem_bytes;
    // Per-open-segment state (only one segment is open at a time).
    std::unordered_map<std::uint32_t, std::uint32_t> first_def;  // reg -> defining gd
    std::unordered_map<std::uint32_t, std::uint64_t> seg_reg_vals;
    std::map<std::uint64_t, std::uint8_t> seg_written;
    std::unordered_set<std::uint32_t> li_reg_seen;
    std::unordered_set<std::uint64_t> li_byte_seen;
    std::uint32_t cur_unit = ir::kInvalidIndex;
    std::uint32_t group_start = 0;
    bool prev_was_phi = false;
    ir::StaticInstrId prev_sid;
    std::size_t acc_cursor = 0;
    std::size_t out_cursor = 0;
    const auto& golden_output = analysis.golden().output;

    const auto close_segment = [&](std::uint32_t next_gd) {
      UnitSlice& s = p.units[cur_unit].slice;
      SegmentInfo& seg = s.segments.back();
      const std::uint32_t seg_index = static_cast<std::uint32_t>(s.segments.size()) - 1;
      const ddg::DynInstr& last = g.GetDyn(next_gd - 1);
      seg.exit_prev_block = last.sid.block;
      seg.exits_via_ret = g.InstructionOf(last).op == Opcode::kRet ? 1 : 0;
      if (next_gd < n_dyn) {
        const ddg::DynInstr& next = g.GetDyn(next_gd);
        seg.exit_function = next.sid.function;
        seg.exit_block = next.sid.block;
      }
      seg.num_dyn = unit_dyn_count[cur_unit] - seg.first_dyn;
      std::vector<std::pair<std::uint32_t, std::uint64_t>> finals(seg_reg_vals.begin(),
                                                                  seg_reg_vals.end());
      std::sort(finals.begin(), finals.end());
      for (const auto& [reg, value] : finals) {
        s.reg_finals.push_back(RegFinal{seg_index, reg, value});
      }
      for (const auto& [addr, byte] : seg_written) {
        s.mem_finals.push_back(ByteFinal{seg_index, addr, byte});
      }
      first_def.clear();
      seg_reg_vals.clear();
      seg_written.clear();
      li_reg_seen.clear();
      li_byte_seen.clear();
    };

    const auto open_segment = [&](std::uint32_t gd, std::uint32_t unit) {
      UnitSlice& s = p.units[unit].slice;
      SegmentInfo seg;
      seg.first_dyn = unit_dyn_count[unit];
      const ir::StaticInstrId sid = g.GetDyn(gd).sid;
      seg.entry_block = sid.block;
      if (gd > 0) {
        const ddg::DynInstr& prev = g.GetDyn(gd - 1);
        const Opcode prev_op = g.InstructionOf(prev).op;
        if (prev.sid.function == sid.function &&
            (prev_op == Opcode::kBr || prev_op == Opcode::kCondBr)) {
          seg.prev_block = prev.sid.block;
        }
      }
      p.segment_order.push_back(
          SegmentRef{unit, static_cast<std::uint32_t>(s.segments.size())});
      s.segments.push_back(seg);
    };

    for (std::uint32_t gd = 0; gd < n_dyn; ++gd) {
      const ddg::DynInstr& d = g.GetDyn(gd);
      const ir::Instruction& inst = g.InstructionOf(d);
      const std::uint32_t unit = p.partition.UnitOf(d.sid.function, d.sid.block);
      if (unit != cur_unit) {
        if (cur_unit != ir::kInvalidIndex) close_segment(gd);
        open_segment(gd, unit);
        cur_unit = unit;
      }
      dyn_unit[gd] = unit;
      dyn_local[gd] = unit_dyn_count[unit]++;
      dyn_seg[gd] = static_cast<std::uint32_t>(p.units[unit].slice.segments.size()) - 1;
      const std::uint32_t seg = dyn_seg[gd];
      UnitSlice& s = p.units[unit].slice;

      const auto op_nodes = g.OperandNodes(gd);
      const auto op_values = g.OperandValues(gd);
      const bool is_phi = inst.op == Opcode::kPhi;
      if (is_phi) {
        const bool continues = prev_was_phi && prev_sid.function == d.sid.function &&
                               prev_sid.block == d.sid.block &&
                               prev_sid.instr + 1 == d.sid.instr;
        if (!continues) group_start = gd;
      }

      // Register live-ins: the first read of a register not yet defined in
      // this segment (phi reads see pre-group values, so in-group defs do not
      // count as definitions for them).
      for (std::size_t slot = 0; slot < op_nodes.size(); ++slot) {
        if (!inst.operands[slot].IsRegister()) continue;
        if (is_phi && slot != d.selected_operand) continue;
        const std::uint32_t reg = inst.operands[slot].index;
        const auto it = first_def.find(reg);
        const bool defined = it != first_def.end() && (!is_phi || it->second < group_start);
        if (!defined && li_reg_seen.insert(reg).second) {
          raw_reg_li[unit].push_back(RawRegLiveIn{seg, reg, op_values[slot], op_nodes[slot]});
        }
      }

      if (inst.op == Opcode::kLoad) {
        const ddg::AccessRecord& a = g.accesses()[acc_cursor++];
        if (a.dyn_index != gd) throw std::logic_error("BuildProgramSlices: access desync");
        const std::uint64_t result_val =
            d.result_node != kNoNode ? g.GetNode(d.result_node).value : 0;
        std::array<NodeId, 8> kept{};
        std::uint8_t kept_count = 0;
        for (std::uint64_t b = 0; b < a.size; ++b) {
          const std::uint64_t ba = a.addr + b;
          const auto mit = mem_bytes.find(ba);
          if (seg_written.find(ba) == seg_written.end() && li_byte_seen.insert(ba).second) {
            raw_byte_li[unit].push_back(RawByteLiveIn{
                seg, ba, static_cast<std::uint8_t>((result_val >> (8 * b)) & 0xFF),
                mit == mem_bytes.end() ? kNoNode : mit->second.first});
          }
          // Replicate the builder's 7-slot pred cap so the per-unit dropped
          // counts sum to the graph's total.
          if (mit == mem_bytes.end()) continue;
          const NodeId writer = mit->second.first;
          bool seen = false;
          for (std::uint8_t k = 0; k < kept_count; ++k) seen = seen || kept[k] == writer;
          if (seen) continue;
          if (kept_count < 7) {
            kept[kept_count++] = writer;
          } else {
            ++s.dropped_load_preds;
          }
        }
      } else if (inst.op == Opcode::kStore) {
        const ddg::AccessRecord& a = g.accesses()[acc_cursor++];
        if (a.dyn_index != gd) throw std::logic_error("BuildProgramSlices: access desync");
        const std::uint64_t value = op_values[0];
        for (std::uint64_t b = 0; b < a.size; ++b) {
          const auto byte = static_cast<std::uint8_t>((value >> (8 * b)) & 0xFF);
          seg_written[a.addr + b] = byte;
          mem_bytes[a.addr + b] = {d.result_node, byte};
        }
      } else if (inst.op == Opcode::kCall && inst.is_intrinsic &&
                 ir::IsOutputIntrinsic(inst.intrinsic)) {
        // The recorded payload is the post-rounding value the interpreter
        // pushed — exactly what replay must reproduce.
        s.outputs.push_back(OutputEvent{seg, golden_output[out_cursor++]});
      } else if (inst.op == Opcode::kRet && !inst.operands.empty()) {
        // Return values escape to the caller's register without a caller-side
        // dyn, so they are validated through the output-event channel.
        s.outputs.push_back(OutputEvent{seg, op_values[0]});
      }

      // Mirror the builder's shadow-update condition for register defs.
      const bool defines =
          (inst.DefinesValue() && inst.op != Opcode::kCall) ||
          (inst.op == Opcode::kCall && inst.is_intrinsic && inst.DefinesValue());
      if (defines && d.result_node != kNoNode) {
        first_def.try_emplace(inst.result, gd);
        seg_reg_vals[inst.result] = g.GetNode(d.result_node).value;
      }

      prev_was_phi = is_phi;
      prev_sid = d.sid;
    }
    if (cur_unit != ir::kInvalidIndex) close_segment(n_dyn);
  }

  // --- pass 2: node ownership ------------------------------------------------
  std::vector<std::uint32_t> node_unit(n_nodes, kInternUnit);
  std::vector<std::uint32_t> node_local(n_nodes, 0);
  std::vector<std::uint32_t> unit_node_count(num_units, 0);
  for (NodeId id = 0; id < n_nodes; ++id) {
    const ddg::Node& node = g.GetNode(id);
    if (node.dyn_index == ddg::kNoDyn) {
      node_local[id] = static_cast<std::uint32_t>(p.interns.size());
      InternEntry e;
      e.is_global = node.kind == ddg::NodeKind::kGlobal ? 1 : 0;
      e.width = node.width;
      e.value = node.value;
      p.interns.push_back(e);
    } else {
      const std::uint32_t u = dyn_unit[node.dyn_index];
      node_unit[id] = u;
      node_local[id] = unit_node_count[u]++;
    }
  }

  // --- pass 3: export detection ----------------------------------------------
  // A node is exported when any cross-unit edge targets it: pred edges,
  // operand references, or byte-live-in writer references (the latter cover
  // writers a load's capped pred list dropped).
  std::vector<std::vector<std::uint8_t>> exported(num_units);
  for (std::uint32_t u = 0; u < num_units; ++u) exported[u].assign(unit_node_count[u], 0);
  const auto note_edge = [&](std::uint32_t consumer, NodeId target) {
    if (target == kNoNode) return;
    const std::uint32_t o = node_unit[target];
    if (o == kInternUnit || o == consumer) return;
    exported[o][node_local[target]] = 1;
  };
  for (NodeId id = 0; id < n_nodes; ++id) {
    if (node_unit[id] == kInternUnit) continue;
    for (const NodeId pred : g.Preds(id)) note_edge(node_unit[id], pred);
  }
  for (std::uint32_t gd = 0; gd < n_dyn; ++gd) {
    for (const NodeId t : g.OperandNodes(gd)) note_edge(dyn_unit[gd], t);
  }
  for (std::uint32_t u = 0; u < num_units; ++u) {
    for (const RawByteLiveIn& li : raw_byte_li[u]) note_edge(u, li.writer);
  }

  // Memory export keys need the ordinal of each store among same-(addr, size)
  // stores of its segment.
  std::vector<std::uint32_t> dyn_access(n_dyn, ir::kInvalidIndex);
  std::unordered_map<std::uint32_t, std::uint32_t> store_ordinal;
  {
    std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t, std::uint32_t>,
             std::uint32_t>
        counters;
    for (std::size_t i = 0; i < g.accesses().size(); ++i) {
      const ddg::AccessRecord& a = g.accesses()[i];
      dyn_access[a.dyn_index] = static_cast<std::uint32_t>(i);
      if (!a.is_store) continue;
      store_ordinal[a.dyn_index] = counters[{dyn_unit[a.dyn_index], dyn_seg[a.dyn_index],
                                             a.addr, a.size}]++;
    }
  }

  std::vector<std::vector<std::uint32_t>> slot_of(num_units);
  for (std::uint32_t u = 0; u < num_units; ++u) {
    slot_of[u].assign(unit_node_count[u], ir::kInvalidIndex);
  }
  for (NodeId id = 0; id < n_nodes; ++id) {
    const std::uint32_t u = node_unit[id];
    if (u == kInternUnit || exported[u][node_local[id]] == 0) continue;
    const ddg::Node& node = g.GetNode(id);
    ExportEntry e;
    e.local = node_local[id];
    e.segment = dyn_seg[node.dyn_index];
    if (node.kind == ddg::NodeKind::kMemory) {
      const ddg::AccessRecord& a = g.accesses()[dyn_access[node.dyn_index]];
      e.kind = 1;
      e.key_a = a.addr;
      e.key_b = a.size;
      e.ordinal = store_ordinal[node.dyn_index];
    } else {
      e.kind = 0;
      e.key_a = g.InstructionAt(node.dyn_index).result;
    }
    UnitSlice& s = p.units[u].slice;
    const auto slot = static_cast<std::uint32_t>(s.exports.size());
    slot_of[u][e.local] = slot;
    s.export_by_local.emplace_back(e.local, slot);  // ascending: ids iterate up
    s.exports.push_back(e);
  }

  // --- pass 4: translation ---------------------------------------------------
  std::vector<std::set<std::uint32_t>> intern_sets(num_units);
  const auto translate = [&](NodeId id, std::uint32_t consumer) -> UnitRef {
    if (id == kNoNode) return kNullRef;
    const std::uint32_t o = node_unit[id];
    if (o == kInternUnit) {
      intern_sets[consumer].insert(node_local[id]);
      return MakeRef(kInternUnit, node_local[id]);
    }
    if (o == consumer) return MakeRef(o, node_local[id]);
    return MakeRef(o, slot_of[o][node_local[id]]);
  };

  for (NodeId id = 0; id < n_nodes; ++id) {
    const std::uint32_t u = node_unit[id];
    if (u == kInternUnit) continue;
    const ddg::Node& node = g.GetNode(id);
    UnitSlice& s = p.units[u].slice;
    SliceNode sn;
    sn.kind = node.kind;
    sn.width = node.width;
    sn.dyn = dyn_local[node.dyn_index];
    sn.value = node.value;
    s.nodes.push_back(sn);
    SlicePredRange pr;
    pr.offset = static_cast<std::uint32_t>(s.preds.size());
    const auto preds = g.Preds(id);
    pr.count = static_cast<std::uint32_t>(preds.size());
    for (unsigned i = 0; i < preds.size(); ++i) {
      s.preds.push_back(translate(preds[i], u));
      if (g.PredIsVirtual(id, i)) pr.virtual_mask |= 1u << i;
    }
    s.pred_ranges.push_back(pr);
  }

  std::vector<std::uint8_t> intern_meta_filled(p.interns.size(), 0);
  for (std::uint32_t gd = 0; gd < n_dyn; ++gd) {
    const ddg::DynInstr& d = g.GetDyn(gd);
    const ir::Instruction& inst = g.InstructionOf(d);
    const std::uint32_t u = dyn_unit[gd];
    UnitSlice& s = p.units[u].slice;
    const auto op_nodes = g.OperandNodes(gd);
    const auto op_values = g.OperandValues(gd);
    SliceDyn sd;
    sd.sid = d.sid;
    sd.result_node = d.result_node == kNoNode ? kNoLocalNode : node_local[d.result_node];
    sd.operands_offset = static_cast<std::uint32_t>(s.operand_nodes.size());
    sd.num_operands = d.num_operands;
    sd.selected_operand = d.selected_operand;
    for (std::size_t slot = 0; slot < op_nodes.size(); ++slot) {
      s.operand_nodes.push_back(translate(op_nodes[slot], u));
      s.operand_values.push_back(op_values[slot]);
      // Fill the intern identity metadata from the first referencing operand:
      // the constant pool is deduplicated by (type, bits), so (type_key,
      // value) identifies the entry across re-parses; globals go by index.
      if (op_nodes[slot] != kNoNode && node_unit[op_nodes[slot]] == kInternUnit) {
        const std::uint32_t intern_id = node_local[op_nodes[slot]];
        if (!intern_meta_filled[intern_id]) {
          const ir::ValueRef ref = inst.operands[slot];
          if (ref.kind == ir::ValueKind::kConstant) {
            p.interns[intern_id].ir_index = ref.index;
            p.interns[intern_id].type_key = PackTypeKey(module.GetConstant(ref.index).type);
            intern_meta_filled[intern_id] = 1;
          } else if (ref.kind == ir::ValueKind::kGlobal) {
            p.interns[intern_id].ir_index = ref.index;
            intern_meta_filled[intern_id] = 1;
          }
        }
      }
    }
    s.dyn.push_back(sd);
    if (inst.op == Opcode::kCall && inst.is_intrinsic &&
        ir::IsOutputIntrinsic(inst.intrinsic)) {
      // Mirrors AddOutputRoot's unconditional push (kNoNode roots included).
      s.output_roots.push_back(RootRef{dyn_seg[gd], translate(op_nodes[0], u)});
    }
    if (inst.op == Opcode::kCondBr && !inst.operands.empty() &&
        inst.operands[0].IsRegister() && op_nodes[0] != kNoNode) {
      s.control_roots.push_back(RootRef{dyn_seg[gd], translate(op_nodes[0], u)});
    }
  }

  for (const ddg::AccessRecord& a : g.accesses()) {
    const std::uint32_t u = dyn_unit[a.dyn_index];
    SliceAccess sa;
    sa.dyn = dyn_local[a.dyn_index];
    sa.addr_node = translate(a.addr_node, u);
    sa.addr = a.addr;
    sa.size = a.size;
    sa.is_store = a.is_store ? 1 : 0;
    sa.seed = analysis.crash_model().CheckBoundary(a);
    p.units[u].slice.accesses.push_back(sa);
  }

  for (std::uint32_t u = 0; u < num_units; ++u) {
    UnitSlice& s = p.units[u].slice;
    for (const RawRegLiveIn& li : raw_reg_li[u]) {
      s.reg_live_ins.push_back(RegLiveIn{li.segment, li.reg, li.value, translate(li.node, u)});
    }
    for (const RawByteLiveIn& li : raw_byte_li[u]) {
      s.mem_live_ins.push_back(ByteLiveIn{li.segment, li.addr, li.byte,
                                          li.writer == kNoNode ? kNullRef
                                                               : translate(li.writer, u)});
    }
    s.intern_refs.assign(intern_sets[u].begin(), intern_sets[u].end());
    // Per-segment node ranges (local node ids ascend with local dyn ids).
    std::size_t cursor = 0;
    for (SegmentInfo& seg : s.segments) {
      seg.first_node = static_cast<std::uint32_t>(cursor);
      const std::uint32_t end_dyn = seg.first_dyn + seg.num_dyn;
      while (cursor < s.nodes.size() && s.nodes[cursor].dyn < end_dyn) ++cursor;
      seg.num_nodes = static_cast<std::uint32_t>(cursor) - seg.first_node;
    }
    // Content digest over the boundary-summary inputs.
    support::Hasher h;
    for (const SegmentInfo& seg : s.segments) {
      h.Mix(seg.first_dyn).Mix(seg.num_dyn).Mix(seg.entry_block).Mix(seg.prev_block);
      h.Mix(seg.exit_function).Mix(seg.exit_block).Mix(seg.exit_prev_block);
      h.Mix(seg.exits_via_ret);
    }
    for (const RegLiveIn& li : s.reg_live_ins) {
      h.Mix(li.segment).Mix(li.reg).Mix(li.value).Mix(li.node);
    }
    for (const ByteLiveIn& li : s.mem_live_ins) {
      h.Mix(li.segment).Mix(li.addr).Mix(li.byte).Mix(li.writer);
    }
    for (const OutputEvent& out : s.outputs) h.Mix(out.segment).Mix(out.value);
    for (const SliceAccess& a : s.accesses) {
      h.Mix(a.dyn).Mix(a.addr).Mix(a.size).Mix(a.is_store).Mix(a.seed.lo).Mix(a.seed.hi);
    }
    s.input_digest = h.Digest();
  }

  // --- pass 5: backward projection -------------------------------------------
  // Project the monolithic ACE marks, crash intervals and spill sets onto the
  // units, then re-run every unit's own backward sweep against the projected
  // spills — the resweep must reproduce the projection exactly, and the diff
  // battery asserts it does (composed == monolithic, bit for bit).
  for (std::uint32_t u = 0; u < num_units; ++u) {
    p.units[u].back.ace_marks.assign((unit_node_count[u] + 63) / 64, 0);
  }
  for (NodeId id = 0; id < n_nodes; ++id) {
    if (node_unit[id] == kInternUnit || !ace.Contains(id)) continue;
    p.units[node_unit[id]].back.Mark(node_local[id]);
  }

  std::vector<std::set<std::uint32_t>> intern_mark_sets(num_units);
  std::vector<std::set<UnitRef>> ace_spill_sets(num_units);
  for (NodeId id = 0; id < n_nodes; ++id) {
    const std::uint32_t u = node_unit[id];
    if (u == kInternUnit || !p.units[u].back.Marked(node_local[id])) continue;
    for (const NodeId pred : g.Preds(id)) {
      if (pred == kNoNode) continue;
      if (node_unit[pred] == kInternUnit) {
        intern_mark_sets[u].insert(node_local[pred]);
      } else if (node_unit[pred] != u) {
        ace_spill_sets[u].insert(translate(pred, u));
      }
    }
  }
  for (std::uint32_t u = 0; u < num_units; ++u) {
    const UnitSlice& s = p.units[u].slice;
    const auto note_root = [&](const RootRef& r) {
      if (r.node == kNullRef) return;
      if (RefUnit(r.node) == kInternUnit) {
        intern_mark_sets[u].insert(RefIndex(r.node));
      } else if (RefUnit(r.node) != u) {
        ace_spill_sets[u].insert(r.node);
      }
    };
    for (const RootRef& r : s.output_roots) note_root(r);
    for (const RootRef& r : s.control_roots) note_root(r);
  }

  std::vector<std::map<UnitRef, Interval>> spill_maps(num_units);
  const auto spill = [&](std::uint32_t u, NodeId target, Interval iv) {
    // Mirrors propagation.cc's Narrow for the cross-unit case only.
    if (target == kNoNode || iv.IsFull()) return;
    const ddg::Node& tn = g.GetNode(target);
    if (tn.kind == ddg::NodeKind::kConstant || tn.kind == ddg::NodeKind::kGlobal) return;
    if (node_unit[target] == u) return;
    auto [it, inserted] = spill_maps[u].try_emplace(translate(target, u), Interval::Full());
    it->second = it->second.Intersect(iv);
  };
  for (const ddg::AccessRecord& a : g.accesses()) {
    const ddg::DynInstr& d = g.GetDyn(a.dyn_index);
    if (d.result_node == kNoNode || !ace.Contains(d.result_node)) continue;
    const std::uint32_t u = dyn_unit[a.dyn_index];
    ++p.units[u].back.seeded_accesses;
    if (a.addr_node != kNoNode && node_unit[a.addr_node] != kInternUnit &&
        node_unit[a.addr_node] != u) {
      spill(u, a.addr_node, analysis.crash_model().CheckBoundary(a));
    }
  }
  for (NodeId id = 0; id < n_nodes; ++id) {
    const Interval dest_allowed = cb.allowed[id];
    if (dest_allowed.IsFull()) continue;
    const ddg::Node& node = g.GetNode(id);
    if (node.dyn_index == ddg::kNoDyn) continue;
    const std::uint32_t u = node_unit[id];
    const ddg::DynInstr& d = g.GetDyn(node.dyn_index);
    const ir::Instruction& inst = g.InstructionOf(d);
    const auto op_nodes = g.OperandNodes(node.dyn_index);
    const auto op_values = g.OperandValues(node.dyn_index);
    switch (inst.op) {
      case Opcode::kStore:
        spill(u, op_nodes[0], dest_allowed);
        continue;
      case Opcode::kLoad: {
        const auto preds = g.Preds(id);
        NodeId data_pred = kNoNode;
        unsigned data_count = 0;
        for (unsigned i = 0; i < preds.size(); ++i) {
          if (!g.PredIsVirtual(id, i)) {
            data_pred = preds[i];
            ++data_count;
          }
        }
        if (data_count == 1 && g.GetNode(data_pred).width == node.width &&
            g.GetNode(data_pred).value == node.value) {
          spill(u, data_pred, dest_allowed);
        }
        continue;
      }
      case Opcode::kPhi:
        if (d.selected_operand != 0xFF) spill(u, op_nodes[d.selected_operand], dest_allowed);
        continue;
      case Opcode::kSelect: {
        const unsigned chosen = (op_values[0] & 1) != 0 ? 1 : 2;
        spill(u, op_nodes[chosen], dest_allowed);
        continue;
      }
      default:
        break;
    }
    std::array<unsigned, 8> widths{};
    for (std::size_t i = 0; i < op_nodes.size() && i < widths.size(); ++i) {
      widths[i] = op_nodes[i] == kNoNode ? 64u : g.GetNode(op_nodes[i]).width;
    }
    for (unsigned slot = 0; slot < op_nodes.size(); ++slot) {
      if (op_nodes[slot] == kNoNode) continue;
      const auto interval = crash::OperandAllowedInterval(
          inst, op_values, std::span<const unsigned>(widths.data(), op_nodes.size()), slot,
          dest_allowed);
      if (interval.has_value()) spill(u, op_nodes[slot], *interval);
    }
  }

  std::vector<std::vector<Interval>> allowed_local(num_units);
  for (std::uint32_t u = 0; u < num_units; ++u) {
    allowed_local[u].assign(unit_node_count[u], Interval::Full());
  }
  for (NodeId id = 0; id < n_nodes; ++id) {
    if (node_unit[id] == kInternUnit) continue;
    allowed_local[node_unit[id]][node_local[id]] = cb.allowed[id];
  }

  for (std::uint32_t u = 0; u < num_units; ++u) {
    UnitBackward& back = p.units[u].back;
    back.ace_spills.assign(ace_spill_sets[u].begin(), ace_spill_sets[u].end());
    back.interval_spills.assign(spill_maps[u].begin(), spill_maps[u].end());
    back.intern_marks.assign(intern_mark_sets[u].begin(), intern_mark_sets[u].end());
    FinishUnitBackward(p, u, allowed_local[u]);
  }

  // Verification by construction: re-derive every unit's backward results
  // from its slice + the projected spill sets. Any divergence from the
  // projection surfaces as composed != monolithic in the diff battery.
  for (std::uint32_t u = 0; u < num_units; ++u) RunUnitBackward(p, u);

  return p;
}

void RunUnitBackward(ProgramSlices& p, std::uint32_t unit) {
  CompiledUnit& cu = p.units[unit];
  const UnitSlice& s = cu.slice;
  const ir::Module& module = *p.module;
  const auto num_nodes = static_cast<std::uint32_t>(s.nodes.size());

  UnitBackward nb;
  nb.ace_marks.assign((num_nodes + 63) / 64, 0);
  std::set<std::uint32_t> intern_set;
  std::set<UnitRef> ace_spill_set;
  std::vector<std::uint32_t> stack;

  // ACE closure, unit-restricted: cross-unit pred edges become spill-set
  // entries instead of BFS steps; the exporter's own resweep consumes them.
  const auto mark_ref = [&](UnitRef ref) {
    if (ref == kNullRef) return;
    const std::uint32_t u = RefUnit(ref);
    if (u == kInternUnit) {
      intern_set.insert(RefIndex(ref));
    } else if (u != unit) {
      ace_spill_set.insert(ref);
    } else if (!nb.Marked(RefIndex(ref))) {
      nb.Mark(RefIndex(ref));
      stack.push_back(RefIndex(ref));
    }
  };
  for (const RootRef& r : s.output_roots) mark_ref(r.node);
  for (const RootRef& r : s.control_roots) mark_ref(r.node);
  for (std::uint32_t v = 0; v < p.units.size(); ++v) {
    if (v == unit) continue;
    for (const UnitRef ref : p.units[v].back.ace_spills) {
      if (RefUnit(ref) != unit) continue;
      mark_ref(MakeRef(unit, s.exports[RefIndex(ref)].local));
    }
  }
  while (!stack.empty()) {
    const std::uint32_t local = stack.back();
    stack.pop_back();
    const SlicePredRange& pr = s.pred_ranges[local];
    for (std::uint32_t i = 0; i < pr.count; ++i) mark_ref(s.preds[pr.offset + i]);
  }

  // Crash-interval resweep: apply the incoming cross-unit narrowings and the
  // unit's own (ACE-gated) boundary seeds upfront, then run propagation.cc's
  // descending sweep over the local nodes. Local node ids ascend with global
  // ids, and every narrowing targets a lower id than its source flows from,
  // so the single local pass reproduces the global pass exactly.
  std::vector<Interval> allowed(num_nodes, Interval::Full());
  std::map<UnitRef, Interval> spill_map;
  const auto narrow = [&](UnitRef ref, Interval iv) {
    if (ref == kNullRef || iv.IsFull()) return;
    const std::uint32_t u = RefUnit(ref);
    if (u == kInternUnit) return;  // constants/globals never narrow
    if (u != unit) {
      auto [it, inserted] = spill_map.try_emplace(ref, Interval::Full());
      it->second = it->second.Intersect(iv);
      return;
    }
    allowed[RefIndex(ref)] = allowed[RefIndex(ref)].Intersect(iv);
  };
  for (std::uint32_t v = 0; v < p.units.size(); ++v) {
    if (v == unit) continue;
    for (const auto& [ref, iv] : p.units[v].back.interval_spills) {
      if (RefUnit(ref) != unit) continue;
      const std::uint32_t local = s.exports[RefIndex(ref)].local;
      allowed[local] = allowed[local].Intersect(iv);
    }
  }
  for (const SliceAccess& a : s.accesses) {
    const SliceDyn& d = s.dyn[a.dyn];
    if (d.result_node == kNoLocalNode || !nb.Marked(d.result_node)) continue;
    ++nb.seeded_accesses;
    narrow(a.addr_node, a.seed);
  }

  for (std::uint32_t local = num_nodes; local-- > 0;) {
    const Interval dest_allowed = allowed[local];
    if (dest_allowed.IsFull()) continue;
    const SliceNode& node = s.nodes[local];
    const SliceDyn& d = s.dyn[node.dyn];
    const ir::Instruction& inst = InstrOf(module, d.sid);
    const UnitRef* op_refs = s.operand_nodes.data() + d.operands_offset;
    const std::uint64_t* op_values = s.operand_values.data() + d.operands_offset;
    switch (inst.op) {
      case Opcode::kStore:
        narrow(op_refs[0], dest_allowed);
        continue;
      case Opcode::kLoad: {
        const SlicePredRange& pr = s.pred_ranges[local];
        UnitRef data_pred = kNullRef;
        unsigned data_count = 0;
        for (std::uint32_t i = 0; i < pr.count; ++i) {
          if ((pr.virtual_mask & (1u << i)) == 0) {
            data_pred = s.preds[pr.offset + i];
            ++data_count;
          }
        }
        if (data_count == 1 && data_pred != kNullRef) {
          const auto [width, value] = WidthValueOf(p, unit, data_pred);
          if (width == node.width && value == node.value) narrow(data_pred, dest_allowed);
        }
        continue;
      }
      case Opcode::kPhi:
        if (d.selected_operand != 0xFF) narrow(op_refs[d.selected_operand], dest_allowed);
        continue;
      case Opcode::kSelect: {
        const unsigned chosen = (op_values[0] & 1) != 0 ? 1 : 2;
        narrow(op_refs[chosen], dest_allowed);
        continue;
      }
      default:
        break;
    }
    std::array<unsigned, 8> widths{};
    for (unsigned i = 0; i < d.num_operands && i < widths.size(); ++i) {
      widths[i] = op_refs[i] == kNullRef ? 64u : WidthValueOf(p, unit, op_refs[i]).first;
    }
    for (unsigned slot = 0; slot < d.num_operands; ++slot) {
      if (op_refs[slot] == kNullRef) continue;
      const auto interval = crash::OperandAllowedInterval(
          inst, std::span<const std::uint64_t>(op_values, d.num_operands),
          std::span<const unsigned>(widths.data(), d.num_operands), slot, dest_allowed);
      if (interval.has_value()) narrow(op_refs[slot], *interval);
    }
  }

  nb.ace_spills.assign(ace_spill_set.begin(), ace_spill_set.end());
  nb.interval_spills.assign(spill_map.begin(), spill_map.end());
  nb.intern_marks.assign(intern_set.begin(), intern_set.end());
  cu.back = std::move(nb);
  FinishUnitBackward(p, unit, allowed);
}

namespace {

/// Recomputes seg_base from the current slices (the only index state a dirty
/// unit's replay shifts for *other* units).
void RefreshSegBase(const ProgramSlices& p, WalkUseIndex& idx) {
  idx.seg_base.assign(p.units.size(), {});
  for (std::size_t u = 0; u < p.units.size(); ++u) {
    idx.seg_base[u].assign(p.units[u].slice.segments.size(), 0);
  }
  std::uint64_t cum = 0;
  for (const SegmentRef& sr : p.segment_order) {
    idx.seg_base[sr.unit][sr.seg] = cum;
    cum += p.units[sr.unit].slice.segments[sr.seg].num_dyn;
  }
}

/// Appends one segment's register-operand use sites to the index. Callers
/// iterate segments in global trace order, which keeps every key's use vector
/// sorted by global dyn without a sort pass.
void AppendSegmentUses(const ProgramSlices& p, WalkUseIndex& idx, SegmentRef sr,
                       std::set<UnitRef>& touched) {
  const UnitSlice& s = p.units[sr.unit].slice;
  const SegmentInfo& seg = s.segments[sr.seg];
  for (std::uint32_t ld = seg.first_dyn; ld < seg.first_dyn + seg.num_dyn; ++ld) {
    const SliceDyn& d = s.dyn[ld];
    const ir::Instruction& inst = InstrOf(*p.module, d.sid);
    const UnitRef result_key =
        d.result_node == kNoLocalNode ? kNullRef : WalkKey(p, MakeRef(sr.unit, d.result_node));
    const std::uint8_t has_register_result =
        d.result_node != kNoLocalNode &&
                s.nodes[d.result_node].kind == ddg::NodeKind::kRegister
            ? 1
            : 0;
    for (std::uint8_t slot = 0; slot < d.num_operands; ++slot) {
      if (!inst.operands[slot].IsRegister()) continue;
      if (inst.op == Opcode::kPhi && slot != d.selected_operand) continue;
      const UnitRef ref = s.operand_nodes[d.operands_offset + slot];
      if (ref == kNullRef) continue;
      const UnitRef key = WalkKey(p, Canon(p, sr.unit, ref));
      KeyUses& entry = idx.uses[key];
      entry.list.push_back(WalkUse{sr.unit, sr.seg, ld - seg.first_dyn, slot,
                                   has_register_result, d.sid, result_key});
      entry.unit_mask |= UnitBit(sr.unit);
      touched.insert(key);
    }
  }
}

void BuildWalkIndex(ProgramSlices& p) {
  p.walk_index = std::make_shared<WalkUseIndex>();
  WalkUseIndex& idx = *p.walk_index;
  idx.function_units.assign(p.module->functions.size(), 0);
  for (std::uint32_t u = 0; u < p.units.size(); ++u) {
    idx.function_units[p.partition.units[u].function] |= UnitBit(u);
  }
  RefreshSegBase(p, idx);
  std::vector<std::set<UnitRef>> touched(p.units.size());
  for (const SegmentRef& sr : p.segment_order) AppendSegmentUses(p, idx, sr, touched[sr.unit]);
  idx.unit_refs.resize(p.units.size());
  for (std::size_t u = 0; u < p.units.size(); ++u) {
    idx.unit_refs[u].assign(touched[u].begin(), touched[u].end());
  }
}

/// The per-unit-slice instantiation of the walk view concept (walks.h).
/// Records every unit whose index data a walk reads into `*deps` — the
/// dependency mask that decides which units must rewalk after an edit.
class SliceWalkView {
 public:
  using NodeRef = UnitRef;
  using UseCursor = const WalkUse*;

  SliceWalkView(const ProgramSlices& p, const WalkUseIndex& idx, std::uint64_t* deps)
      : p_(p), idx_(idx), deps_(deps) {}

  [[nodiscard]] std::pair<UseCursor, UseCursor> UseRangeOf(NodeRef node) const {
    const UnitRef key = WalkKey(p_, node);
    if (key != kNullRef && RefUnit(key) != kInternUnit) *deps_ |= UnitBit(RefUnit(key));
    const auto it = idx_.uses.find(key);
    if (it == idx_.uses.end()) return {nullptr, nullptr};
    // Which uses a walk reads depends on its start and where it stops, so it
    // depends on every unit with a use here.
    *deps_ |= it->second.unit_mask;
    const std::vector<WalkUse>& list = it->second.list;
    return {list.data(), list.data() + list.size()};
  }
  [[nodiscard]] std::uint64_t UseDyn(UseCursor u) const { return idx_.GlobalDyn(*u); }
  [[nodiscard]] std::uint8_t UseSlot(UseCursor u) const { return u->slot; }
  [[nodiscard]] const ir::Instruction& InstructionAtUse(UseCursor u) const {
    return InstrOf(*p_.module, u->sid);
  }
  [[nodiscard]] ir::StaticInstrId SidAtUse(UseCursor u) const { return u->sid; }
  [[nodiscard]] bool HasRegisterResult(UseCursor u) const {
    return u->has_register_result != 0;
  }
  [[nodiscard]] NodeRef ResultNode(UseCursor u) const { return u->result; }

 private:
  const ProgramSlices& p_;
  const WalkUseIndex& idx_;
  std::uint64_t* deps_;
};

/// ControlOracle wrapper recording which functions' static text each walk
/// consulted (function-granular: the oracle reads whole-function CFG and use
/// maps, so any unit of the function invalidates).
struct DepOracle {
  const ControlOracle& inner;
  const WalkUseIndex& idx;
  std::uint64_t* deps;

  [[nodiscard]] bool SurvivesToAddress(std::uint32_t function, std::uint32_t block,
                                       std::uint32_t reg) const {
    *deps |= idx.function_units[function];
    return inner.SurvivesToAddress(function, block, reg);
  }
};

}  // namespace

void UpdateWalkIndexForUnit(ProgramSlices& p, std::uint32_t unit) {
  if (!p.walk_index) return;
  WalkUseIndex& idx = *p.walk_index;
  RefreshSegBase(p, idx);
  std::set<UnitRef> touched(idx.unit_refs[unit].begin(), idx.unit_refs[unit].end());
  for (const UnitRef key : idx.unit_refs[unit]) {
    const auto it = idx.uses.find(key);
    if (it == idx.uses.end()) continue;
    std::erase_if(it->second.list, [unit](const WalkUse& u) { return u.unit == unit; });
  }
  std::set<UnitRef> now;
  const auto num_segs = static_cast<std::uint32_t>(p.units[unit].slice.segments.size());
  for (std::uint32_t seg = 0; seg < num_segs; ++seg) {
    AppendSegmentUses(p, idx, SegmentRef{unit, seg}, now);
  }
  touched.insert(now.begin(), now.end());
  for (const UnitRef key : touched) {
    const auto it = idx.uses.find(key);
    if (it == idx.uses.end()) continue;
    std::vector<WalkUse>& list = it->second.list;
    if (list.empty()) {
      idx.uses.erase(it);
      continue;
    }
    // Replayed entries were appended at the tail; restore global-dyn order.
    // Entries never tie across units (a global dyn lives in one segment), and
    // same-unit appends arrived in trace order, so stable_sort is exact.
    std::stable_sort(list.begin(), list.end(), [&idx](const WalkUse& a, const WalkUse& b) {
      return idx.GlobalDyn(a) < idx.GlobalDyn(b);
    });
    // Recompute the mask: `unit` may have left this key while another unit
    // sharing its bit (>= 63) stayed.
    it->second.unit_mask = 0;
    for (const WalkUse& u : list) it->second.unit_mask |= UnitBit(u.unit);
  }
  idx.unit_refs[unit].assign(now.begin(), now.end());
}

void RunUnitWalks(ProgramSlices& p, const ir::Module& module,
                  std::span<const std::uint32_t> units_to_walk, int jobs) {
  if (!p.walk_index) BuildWalkIndex(p);
  const WalkUseIndex& idx = *p.walk_index;
  const ControlOracle control(module);

  // Intern ACE membership: the union over every unit's intern marks equals
  // the monolithic closure's marks on constant/global nodes.
  std::vector<std::uint64_t> intern_ace((p.interns.size() + 63) / 64, 0);
  for (const CompiledUnit& cu : p.units) {
    for (const std::uint32_t i : cu.back.intern_marks) {
      intern_ace[i >> 6] |= std::uint64_t{1} << (i & 63);
    }
  }

  struct Part {
    Analysis::UseWeightedBits uw;
    std::uint64_t data = 0;
    std::uint64_t oracle = 0;
  };

  for (const std::uint32_t unit : units_to_walk) {
    CompiledUnit& cu = p.units[unit];
    const UnitSlice& s = cu.slice;
    const Part total = ParallelReduce(
        std::size_t{0}, s.dyn.size(), Part{},
        [&](std::size_t chunk_begin, std::size_t chunk_end) {
          Part part;
          SliceWalkView view(p, idx, &part.data);
          const DepOracle oracle{control, idx, &part.oracle};
          // Segment cursor: local dyn ids ascend through the segment table.
          std::uint32_t seg = 0;
          for (std::size_t i = chunk_begin; i < chunk_end; ++i) {
            const auto ld = static_cast<std::uint32_t>(i);
            while (seg + 1 < s.segments.size() && s.segments[seg + 1].first_dyn <= ld) ++seg;
            while (s.segments[seg].first_dyn > ld) --seg;
            const std::uint64_t gdyn = idx.seg_base[unit][seg] + (ld - s.segments[seg].first_dyn);
            const SliceDyn& d = s.dyn[ld];
            const ir::Instruction& inst = InstrOf(module, d.sid);
            for (std::size_t slot = 0; slot < d.num_operands; ++slot) {
              if (!inst.operands[slot].IsRegister()) continue;
              if (inst.op == Opcode::kPhi && slot != d.selected_operand) continue;
              const UnitRef ref = s.operand_nodes[d.operands_offset + slot];
              if (ref == kNullRef) continue;
              const UnitRef canon = Canon(p, unit, ref);
              unsigned width = 0;
              bool is_ace = false;
              std::uint64_t mask = 0;
              if (RefUnit(canon) == kInternUnit) {
                // Register operands can resolve to interns (parameter
                // registers aliasing constant arguments). Interns never carry
                // crash masks — Narrow skips them.
                const std::uint32_t i_id = RefIndex(canon);
                width = p.interns[i_id].width;
                is_ace = ((intern_ace[i_id >> 6] >> (i_id & 63)) & 1) != 0;
              } else {
                const std::uint32_t o = RefUnit(canon);
                const std::uint32_t l = RefIndex(canon);
                if (o != unit) part.data |= UnitBit(o);
                const CompiledUnit& oc = p.units[o];
                width = oc.slice.nodes[l].width;
                is_ace = oc.back.Marked(l);
                mask = oc.back.MaskOf(l);
              }
              part.uw.total += width;
              if (!is_ace) continue;
              part.uw.ace += width;
              mask &= LowMask(width);
              if (mask == 0) continue;
              if (FirstEffect(view, oracle, canon, gdyn, /*depth=*/6) == UseEffect::kCrash) {
                part.uw.crash += PopCount(mask);
              }
            }
          }
          return part;
        },
        [](Part acc, const Part& part) {
          acc.uw.total += part.uw.total;
          acc.uw.ace += part.uw.ace;
          acc.uw.crash += part.uw.crash;
          acc.data |= part.data;
          acc.oracle |= part.oracle;
          return acc;
        },
        ParallelOptions{.jobs = jobs});
    cu.walk.uw = total.uw;
    cu.walk.data_deps = total.data | UnitBit(unit);
    cu.walk.oracle_deps = total.oracle;
  }
}

ReportStats ComposeProgram(const ProgramSlices& p) {
  ReportStats r;
  r.dyn_instructions = p.instructions_executed;
  // Count only interns some unit still references: after an incremental
  // replay swaps a constant, the superseded entry stays in the table (ids are
  // stable) but a fresh run would not have its node.
  std::vector<std::uint8_t> referenced(p.interns.size(), 0);
  std::vector<std::uint8_t> intern_ace(p.interns.size(), 0);
  for (const CompiledUnit& cu : p.units) {
    for (const std::uint32_t i : cu.slice.intern_refs) referenced[i] = 1;
    for (const std::uint32_t i : cu.back.intern_marks) intern_ace[i] = 1;
  }
  for (std::size_t i = 0; i < p.interns.size(); ++i) {
    r.num_nodes += referenced[i];
    r.ace_node_count += referenced[i] != 0 && intern_ace[i] != 0 ? 1 : 0;
  }
  for (std::size_t c = 0; c < kNumRegisterClasses; ++c) {
    r.structure[c].cls = static_cast<RegisterClass>(c);
  }
  for (const CompiledUnit& cu : p.units) {
    r.num_nodes += cu.sums.node_count;
    r.ace_node_count += cu.sums.ace_nodes;
    r.ace_bits += cu.sums.ace_bits;
    r.total_bits += cu.sums.total_bits;
    r.crash_bits += cu.sums.crash_bits;
    r.use_weighted.total += cu.walk.uw.total;
    r.use_weighted.ace += cu.walk.uw.ace;
    r.use_weighted.crash += cu.walk.uw.crash;
    r.mem_total += cu.sums.mem_total;
    r.mem_ace += cu.sums.mem_ace;
    r.mem_crash += cu.sums.mem_crash;
    for (std::size_t c = 0; c < kNumRegisterClasses; ++c) {
      r.structure[c].total_bits += cu.sums.cls_total[c];
      r.structure[c].ace_bits += cu.sums.cls_ace[c];
      r.structure[c].crash_bits += cu.sums.cls_crash[c];
    }
  }
  return r;
}

std::vector<InstrMetrics> ComposePerInstruction(const ProgramSlices& p) {
  std::map<ir::StaticInstrId, InstrMetrics> by_sid;
  for (const CompiledUnit& cu : p.units) {
    for (const InstrMetrics& m : cu.sums.per_instruction) {
      InstrMetrics& acc = by_sid[m.sid];
      acc.sid = m.sid;
      acc.exec_count += m.exec_count;
      acc.ace_bits += m.ace_bits;
      acc.crash_bits += m.crash_bits;
      acc.total_bits += m.total_bits;
    }
  }
  std::vector<InstrMetrics> out;
  out.reserve(by_sid.size());
  for (const auto& [sid, m] : by_sid) out.push_back(m);
  return out;
}

std::vector<UnitDelta> PerUnitEpvf(const ProgramSlices& p) {
  std::vector<UnitDelta> rows;
  rows.reserve(p.units.size());
  for (std::size_t u = 0; u < p.units.size(); ++u) {
    const UnitSums& sums = p.units[u].sums;
    UnitDelta row;
    row.name = p.partition.units[u].name;
    row.old_total_bits = row.new_total_bits = sums.total_bits;
    const double epvf =
        sums.total_bits == 0
            ? 0.0
            : static_cast<double>(sums.ace_bits - sums.crash_bits) /
                  static_cast<double>(sums.total_bits);
    row.old_epvf = row.new_epvf = epvf;
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace epvf::core
