#include "epvf/compose.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "crash/lookup_table.h"
#include "ddg/builder.h"
#include "epvf/walks.h"
#include "ir/intrinsics.h"
#include "obs/trace.h"
#include "support/bits.h"
#include "support/hash.h"
#include "support/thread_pool.h"

namespace epvf::core {

namespace {

using ddg::kNoNode;
using ddg::NodeId;
using ir::Opcode;

const ir::Instruction& InstrOf(const ir::Module& m, ir::StaticInstrId sid) {
  return m.functions[sid.function].blocks[sid.block].instructions[sid.instr];
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

/// Tail of the per-unit resweep: rebuilds `unit`'s crash masks and every
/// UnitSums field from its marks and the final allowed intervals. Mirrors
/// propagation.cc's mask sweep, ace.cc's bit accounting, report.cc's
/// structure classification and ComputeMemoryBitsSums — all restricted to
/// the unit's own nodes.
void FinishUnitBackward(ProgramSlices& p, std::uint32_t unit,
                        const std::vector<Interval>& allowed) {
  CompiledUnit& cu = p.units[unit];
  const UnitSlice& s = cu.slice;
  UnitBackward& back = cu.back;
  const ir::Module& module = *p.module;

  back.crash_masks.clear();
  UnitSums sums;
  sums.node_count = s.nodes.size();

  for (std::uint32_t local = 0; local < s.nodes.size(); ++local) {
    const SliceNode& node = s.nodes[local];
    const bool marked = back.Marked(local);
    if (marked) ++sums.ace_nodes;
    if (node.kind == ddg::NodeKind::kRegister) {
      sums.total_bits += node.width;
      const auto cls = static_cast<std::size_t>(
          RegisterClassOf(InstrOf(module, s.dyn[node.dyn].sid).type));
      sums.cls_total[cls] += node.width;
      const std::uint64_t mask = marked ? FlipsLeaving(allowed[local], node.value, node.width) : 0;
      if (marked) {
        sums.ace_bits += node.width;
        sums.cls_ace[cls] += node.width;
        sums.crash_bits += PopCount(mask);
        sums.cls_crash[cls] += PopCount(mask & LowMask(node.width));
      }
      if (mask != 0) back.crash_masks.emplace_back(local, mask);
    } else if (node.kind == ddg::NodeKind::kMemory) {
      sums.mem_total += node.width;
      if (marked) {
        sums.mem_ace += node.width;
        sums.mem_crash += PopCount(FlipsLeaving(allowed[local], node.value, node.width));
      }
    }
  }

  cu.sums = std::move(sums);
}

/// The unit-restricted backward sweeps: ace.cc's ACE closure and
/// propagation.cc's ACE-gated access seeds and descending Table III sweep,
/// over `unit`'s local nodes. Starts from the marks already in
/// `back.ace_marks` and the intervals in `allowed`, and leaves the closed
/// marks and swept intervals there. Edges that leave the unit are not
/// followed: they become `back`'s spill sets (ACE marks and pre-intersected
/// narrowings of other units' exports) and intern marks, which the
/// exporters' own sweeps consume. Local node ids ascend with global ids and
/// every narrowing targets a lower id than its source, so one descending
/// local pass reproduces the global pass exactly.
void SweepUnit(const ProgramSlices& p, std::uint32_t unit, UnitBackward& back,
               std::vector<Interval>& allowed) {
  const UnitSlice& s = p.units[unit].slice;
  const ir::Module& module = *p.module;
  const auto num_nodes = static_cast<std::uint32_t>(s.nodes.size());

  std::set<std::uint32_t> intern_set;
  std::set<UnitRef> ace_spill_set;
  std::vector<std::uint32_t> stack;
  for (std::uint32_t local = 0; local < num_nodes; ++local) {
    if (back.Marked(local)) stack.push_back(local);
  }
  const auto mark_ref = [&](UnitRef ref) {
    if (ref == kNullRef) return;
    const std::uint32_t u = RefUnit(ref);
    if (u == kInternUnit) {
      intern_set.insert(RefIndex(ref));
    } else if (u != unit) {
      ace_spill_set.insert(ref);
    } else if (!back.Marked(RefIndex(ref))) {
      back.Mark(RefIndex(ref));
      stack.push_back(RefIndex(ref));
    }
  };
  for (const RootRef& r : s.output_roots) mark_ref(r.node);
  for (const RootRef& r : s.control_roots) mark_ref(r.node);
  while (!stack.empty()) {
    const std::uint32_t local = stack.back();
    stack.pop_back();
    const SlicePredRange& pr = s.pred_ranges[local];
    for (std::uint32_t i = 0; i < pr.count; ++i) mark_ref(s.preds[pr.offset + i]);
  }

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
  for (const SliceAccess& a : s.accesses) {
    const SliceDyn& d = s.dyn[a.dyn];
    if (d.result_node != kNoLocalNode && back.Marked(d.result_node)) narrow(a.addr_node, a.seed);
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

  back.ace_spills.assign(ace_spill_set.begin(), ace_spill_set.end());
  back.interval_spills.assign(spill_map.begin(), spill_map.end());
  back.intern_marks.assign(intern_set.begin(), intern_set.end());
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

std::uint64_t UnitInputDigest(const ProgramSlices& p, std::uint32_t unit) {
  const UnitSlice& s = p.units[unit].slice;
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
  // Which local nodes other units read, under which slot: consumers' refs
  // name slots, and a cold rebuild renumbers them when the set moves.
  for (const ExportEntry& e : s.exports) {
    h.Mix(e.local).Mix(e.segment).Mix(e.kind).Mix(e.key_a).Mix(e.key_b).Mix(e.ordinal);
  }
  // Intern ids index the program-wide table, which a cold rebuild renumbers
  // when another unit's constants change, so each id enters with its entry's
  // identity: (type_key, value) for a constant, whose pool index may shift
  // between re-parses, and the global index for a global. An id the table
  // does not hold folds in a marker no producer ever writes.
  for (const std::uint32_t id : s.intern_refs) {
    h.Mix(id);
    if (id >= p.interns.size()) {
      h.Mix(~std::uint64_t{0});
      continue;
    }
    const InternEntry& e = p.interns[id];
    h.Mix(e.is_global).Mix(e.width).Mix(e.value).Mix(e.is_global != 0 ? e.ir_index : e.type_key);
  }
  // The ACE marks and interval narrowings other units' sweeps push into this
  // one: its backward results are a function of them, and an edit elsewhere
  // can move them without touching anything above.
  for (std::uint32_t v = 0; v < p.units.size(); ++v) {
    if (v == unit) continue;
    const UnitBackward& back = p.units[v].back;
    for (const UnitRef ref : back.ace_spills) {
      if (RefUnit(ref) == unit) h.Mix(RefIndex(ref));
    }
    for (const auto& [ref, iv] : back.interval_spills) {
      if (RefUnit(ref) == unit) h.Mix(RefIndex(ref)).Mix(iv.lo).Mix(iv.hi);
    }
  }
  return h.Digest();
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

ProgramSlices BuildProgramSlices(const Analysis& analysis, UnitPartition partition) {
  const obs::TraceSpan span("compose", "build-slices");
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

  const auto n_dyn = static_cast<std::uint32_t>(g.NumDynInstrs());
  const auto n_nodes = static_cast<std::uint32_t>(g.NumNodes());

  // --- pass 1: trace scan — segmentation + boundary summaries ---------------
  // One walk over the global dyn sequence, doing three things at once:
  // assigning every dyn its (unit, local dyn, segment), opening/closing
  // segments as control crosses unit boundaries, and recording the
  // replay-validation data (live-in value sets, final values, write images,
  // output/return events).
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
    // Global byte shadow: addr -> current writer memory node (the builder's
    // WriterShadow), naming the writer of each byte live-in.
    std::unordered_map<std::uint64_t, NodeId> mem_writer;
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
        for (std::uint64_t b = 0; b < a.size; ++b) {
          const std::uint64_t ba = a.addr + b;
          if (seg_written.find(ba) != seg_written.end() || !li_byte_seen.insert(ba).second) {
            continue;
          }
          const auto mit = mem_writer.find(ba);
          raw_byte_li[unit].push_back(RawByteLiveIn{
              seg, ba, static_cast<std::uint8_t>((result_val >> (8 * b)) & 0xFF),
              mit == mem_writer.end() ? kNoNode : mit->second});
        }
      } else if (inst.op == Opcode::kStore) {
        const ddg::AccessRecord& a = g.accesses()[acc_cursor++];
        if (a.dyn_index != gd) throw std::logic_error("BuildProgramSlices: access desync");
        const std::uint64_t value = op_values[0];
        for (std::uint64_t b = 0; b < a.size; ++b) {
          seg_written[a.addr + b] = static_cast<std::uint8_t>((value >> (8 * b)) & 0xFF);
          mem_writer[a.addr + b] = d.result_node;
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

      if (ddg::DefinesShadowedRegister(inst)) {
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
    }
  }

  // --- pass 5: backward projection -------------------------------------------
  // Seed every unit's own sweep with its share of the monolithic ACE marks and
  // crash intervals. Those are already closed under the sweep's local steps,
  // so the sweep changes nothing inside the unit; what it pushes across the
  // boundary is exactly the unit's spill sets. Then re-derive every unit's
  // backward results from its slice and the other units' spill sets alone:
  // the resweep must reproduce the projection, and the diff battery asserts
  // it does (composed == monolithic, bit for bit).
  {
    std::vector<std::vector<Interval>> allowed(num_units);
    for (std::uint32_t u = 0; u < num_units; ++u) {
      p.units[u].back.ace_marks.assign((unit_node_count[u] + 63) / 64, 0);
      allowed[u].assign(unit_node_count[u], Interval::Full());
    }
    for (NodeId id = 0; id < n_nodes; ++id) {
      const std::uint32_t u = node_unit[id];
      if (u == kInternUnit) continue;
      if (ace.Contains(id)) p.units[u].back.Mark(node_local[id]);
      allowed[u][node_local[id]] = cb.allowed[id];
    }
    for (std::uint32_t u = 0; u < num_units; ++u) SweepUnit(p, u, p.units[u].back, allowed[u]);
  }
  for (std::uint32_t u = 0; u < num_units; ++u) RunUnitBackward(p, u);
  for (std::uint32_t u = 0; u < num_units; ++u) {
    p.units[u].slice.input_digest = UnitInputDigest(p, u);
  }
  return p;
}

void RunUnitBackward(ProgramSlices& p, std::uint32_t unit) {
  CompiledUnit& cu = p.units[unit];
  const UnitSlice& s = cu.slice;
  // The seeds: the marks and narrowings the other units' stored spill sets
  // push into this unit's exports.
  UnitBackward nb;
  nb.ace_marks.assign((s.nodes.size() + 63) / 64, 0);
  std::vector<Interval> allowed(s.nodes.size(), Interval::Full());
  for (std::uint32_t v = 0; v < p.units.size(); ++v) {
    if (v == unit) continue;
    const UnitBackward& other = p.units[v].back;
    for (const UnitRef ref : other.ace_spills) {
      if (RefUnit(ref) == unit) nb.Mark(s.exports[RefIndex(ref)].local);
    }
    for (const auto& [ref, iv] : other.interval_spills) {
      if (RefUnit(ref) != unit) continue;
      const std::uint32_t local = s.exports[RefIndex(ref)].local;
      allowed[local] = allowed[local].Intersect(iv);
    }
  }
  SweepUnit(p, unit, nb, allowed);
  cu.back = std::move(nb);
  FinishUnitBackward(p, unit, allowed);
}

namespace {

/// The activation walk's input over the slices, rebuilt by every
/// RunUnitWalks: the use index, laid out like UseIndex over one flat node
/// numbering, and the unit and unit-local dyn of every global dyn.
struct SliceUseIndex {
  std::vector<std::uint32_t> node_base;  ///< per unit: flat id of its local node 0
  std::uint32_t intern_base = 0;         ///< flat id of intern 0
  std::vector<std::uint32_t> dyn_unit;   ///< per global dyn
  std::vector<std::uint32_t> dyn_local;  ///< per global dyn
  UseIndex uses;                         ///< per flat node, in global trace order

  [[nodiscard]] std::uint32_t FlatId(UnitRef canon) const {
    const std::uint32_t u = RefUnit(canon);
    return (u == kInternUnit ? intern_base : node_base[u]) + RefIndex(canon);
  }
};

/// Calls fn(unit, canonical operand ref, global dyn, slot) for every
/// register-operand use of global dyns [begin, end) in trace order: the
/// slice counterpart of ForEachUse (walks.h).
template <typename Fn>
void ForEachSliceUse(const ProgramSlices& p, const ir::Module& module, const SliceUseIndex& idx,
                     std::size_t begin, std::size_t end, Fn&& fn) {
  for (std::size_t g = begin; g < end; ++g) {
    const std::uint32_t unit = idx.dyn_unit[g];
    const UnitSlice& s = p.units[unit].slice;
    const SliceDyn& d = s.dyn[idx.dyn_local[g]];
    const ir::Instruction& inst = InstrOf(module, d.sid);
    for (std::uint8_t slot = 0; slot < d.num_operands; ++slot) {
      if (!inst.operands[slot].IsRegister()) continue;
      if (inst.op == Opcode::kPhi && slot != d.selected_operand) continue;
      const UnitRef ref = s.operand_nodes[d.operands_offset + slot];
      if (ref == kNullRef) continue;
      fn(unit, Canon(p, unit, ref), static_cast<std::uint32_t>(g), slot);
    }
  }
}

SliceUseIndex BuildSliceUseIndex(const ProgramSlices& p, const ir::Module& module) {
  SliceUseIndex idx;
  std::uint32_t num_nodes = 0;
  for (const CompiledUnit& cu : p.units) {
    idx.node_base.push_back(num_nodes);
    num_nodes += static_cast<std::uint32_t>(cu.slice.nodes.size());
  }
  idx.intern_base = num_nodes;
  num_nodes += static_cast<std::uint32_t>(p.interns.size());
  for (const SegmentRef& sr : p.segment_order) {
    const SegmentInfo& seg = p.units[sr.unit].slice.segments[sr.seg];
    for (std::uint32_t ld = seg.first_dyn; ld < seg.first_dyn + seg.num_dyn; ++ld) {
      idx.dyn_unit.push_back(sr.unit);
      idx.dyn_local.push_back(ld);
    }
  }

  // BuildUseIndex's two counting passes: count each node's uses, then write
  // every use at its node's cursor. Global dyns ascend, so each node's uses
  // land in trace order.
  UseIndex& uses = idx.uses;
  const std::size_t num_dyn = idx.dyn_unit.size();
  uses.offsets.assign(std::size_t{num_nodes} + 1, 0);
  ForEachSliceUse(p, module, idx, 0, num_dyn,
                  [&](std::uint32_t, UnitRef canon, std::uint32_t, std::uint8_t) {
                    ++uses.offsets[idx.FlatId(canon) + 1];
                  });
  for (std::size_t i = 1; i < uses.offsets.size(); ++i) uses.offsets[i] += uses.offsets[i - 1];
  uses.use_dyn.resize(uses.offsets.back());
  uses.use_slot.resize(uses.offsets.back());
  std::vector<std::uint32_t> cursor(uses.offsets.begin(), uses.offsets.end() - 1);
  ForEachSliceUse(p, module, idx, 0, num_dyn,
                  [&](std::uint32_t, UnitRef canon, std::uint32_t dyn, std::uint8_t slot) {
                    const std::uint32_t pos = cursor[idx.FlatId(canon)]++;
                    uses.use_dyn[pos] = dyn;
                    uses.use_slot[pos] = slot;
                  });
  return idx;
}

/// The per-unit-slice instantiation of the walk view concept (walks.h), over
/// flat node ids.
class SliceWalkView {
 public:
  using NodeRef = std::uint32_t;
  using UseCursor = std::uint32_t;

  SliceWalkView(const ProgramSlices& p, const ir::Module& module, const SliceUseIndex& idx)
      : p_(p), module_(module), idx_(idx) {}

  [[nodiscard]] std::pair<UseCursor, UseCursor> UseRangeOf(NodeRef node) const {
    return {idx_.uses.offsets[node], idx_.uses.offsets[node + 1]};
  }
  [[nodiscard]] std::uint64_t UseDyn(UseCursor u) const { return idx_.uses.use_dyn[u]; }
  [[nodiscard]] std::uint8_t UseSlot(UseCursor u) const { return idx_.uses.use_slot[u]; }
  [[nodiscard]] const ir::Instruction& InstructionAtUse(UseCursor u) const {
    return InstrOf(module_, SidAtUse(u));
  }
  [[nodiscard]] ir::StaticInstrId SidAtUse(UseCursor u) const {
    const std::uint32_t g = idx_.uses.use_dyn[u];
    return p_.units[idx_.dyn_unit[g]].slice.dyn[idx_.dyn_local[g]].sid;
  }
  [[nodiscard]] bool HasRegisterResult(UseCursor u) const {
    const std::uint32_t g = idx_.uses.use_dyn[u];
    const UnitSlice& s = p_.units[idx_.dyn_unit[g]].slice;
    const std::uint32_t result = s.dyn[idx_.dyn_local[g]].result_node;
    return result != kNoLocalNode && s.nodes[result].kind == ddg::NodeKind::kRegister;
  }
  [[nodiscard]] NodeRef ResultNode(UseCursor u) const {
    const std::uint32_t g = idx_.uses.use_dyn[u];
    const std::uint32_t unit = idx_.dyn_unit[g];
    return idx_.node_base[unit] + p_.units[unit].slice.dyn[idx_.dyn_local[g]].result_node;
  }

 private:
  const ProgramSlices& p_;
  const ir::Module& module_;
  const SliceUseIndex& idx_;
};

}  // namespace

void RunUnitWalks(ProgramSlices& p, const ir::Module& module, int jobs) {
  const obs::TraceSpan span("compose", "unit-walks");
  const SliceUseIndex idx = BuildSliceUseIndex(p, module);
  const SliceWalkView view(p, module, idx);
  const ControlOracle control(module);

  // Intern ACE membership: the union over every unit's intern marks equals
  // the monolithic closure's marks on constant/global nodes.
  std::vector<std::uint64_t> intern_ace((p.interns.size() + 63) / 64, 0);
  for (const CompiledUnit& cu : p.units) {
    for (const std::uint32_t i : cu.back.intern_marks) {
      intern_ace[i >> 6] |= std::uint64_t{1} << (i & 63);
    }
  }

  // Analysis::WalkUseSites over the slices, each site's sums charged to the
  // unit of its dyn.
  using Sums = std::vector<Analysis::UseWeightedBits>;
  const Sums sums = ParallelReduce(
      std::size_t{0}, idx.dyn_unit.size(), Sums(p.units.size()),
      [&](std::size_t chunk_begin, std::size_t chunk_end) {
        Sums part(p.units.size());
        ForEachSliceUse(
            p, module, idx, chunk_begin, chunk_end,
            [&](std::uint32_t unit, UnitRef canon, std::uint32_t dyn, std::uint8_t) {
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
                const CompiledUnit& owner = p.units[RefUnit(canon)];
                const std::uint32_t local = RefIndex(canon);
                width = owner.slice.nodes[local].width;
                is_ace = owner.back.Marked(local);
                mask = owner.back.MaskOf(local);
              }
              Analysis::UseWeightedBits& uw = part[unit];
              uw.total += width;
              if (!is_ace) return;
              uw.ace += width;
              mask &= LowMask(width);
              if (mask == 0) return;
              if (FirstEffect(view, control, idx.FlatId(canon), std::uint64_t{dyn},
                              /*depth=*/6) == UseEffect::kCrash) {
                uw.crash += PopCount(mask);
              }
            });
        return part;
      },
      [](Sums acc, const Sums& part) {
        for (std::size_t u = 0; u < acc.size(); ++u) {
          acc[u].total += part[u].total;
          acc[u].ace += part[u].ace;
          acc[u].crash += part[u].crash;
        }
        return acc;
      },
      ParallelOptions{.jobs = jobs});
  for (std::size_t u = 0; u < p.units.size(); ++u) p.units[u].walk = sums[u];
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
    r.use_weighted.total += cu.walk.total;
    r.use_weighted.ace += cu.walk.ace;
    r.use_weighted.crash += cu.walk.crash;
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

std::vector<UnitEpvf> PerUnitEpvf(const ProgramSlices& p) {
  std::vector<UnitEpvf> rows;
  rows.reserve(p.units.size());
  for (std::size_t u = 0; u < p.units.size(); ++u) {
    const UnitSums& sums = p.units[u].sums;
    const double epvf =
        sums.total_bits == 0
            ? 0.0
            : static_cast<double>(sums.ace_bits - sums.crash_bits) /
                  static_cast<double>(sums.total_bits);
    rows.push_back(UnitEpvf{p.partition.units[u].name, epvf});
  }
  return rows;
}

}  // namespace epvf::core
