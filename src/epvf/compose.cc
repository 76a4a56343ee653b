#include "epvf/compose.h"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "ddg/builder.h"
#include "ir/intrinsics.h"
#include "obs/trace.h"
#include "support/bits.h"
#include "support/hash.h"

namespace epvf::core {

namespace {

using ddg::kNoNode;
using ddg::NodeId;
using ir::Opcode;

const ir::Instruction& InstrOf(const ir::Module& m, ir::StaticInstrId sid) {
  return m.functions[sid.function].blocks[sid.block].instructions[sid.instr];
}

}  // namespace

UnitRef Canon(const ProgramSlices& p, std::uint32_t self, UnitRef ref) {
  if (ref == kNullRef) return ref;
  const std::uint32_t u = RefUnit(ref);
  if (u == kInternUnit || u == self) return ref;
  return MakeRef(u, p.units[u].exports[RefIndex(ref)].local);
}

std::uint64_t UnitInputDigest(const ProgramSlices& p, std::uint32_t unit) {
  const UnitSlice& s = p.units[unit];
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
  const auto num_units = static_cast<std::uint32_t>(p.partition.NumUnits());
  p.units.clear();
  p.units.resize(num_units);
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
      UnitSlice& s = p.units[cur_unit];
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
      UnitSlice& s = p.units[unit];
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
      dyn_seg[gd] = static_cast<std::uint32_t>(p.units[unit].segments.size()) - 1;
      const std::uint32_t seg = dyn_seg[gd];
      UnitSlice& s = p.units[unit];

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
    UnitSlice& s = p.units[u];
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
    UnitSlice& s = p.units[u];
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
    UnitSlice& s = p.units[u];
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
    p.units[u].accesses.push_back(sa);
  }

  for (std::uint32_t u = 0; u < num_units; ++u) {
    UnitSlice& s = p.units[u];
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

  for (std::uint32_t u = 0; u < num_units; ++u) {
    p.units[u].input_digest = UnitInputDigest(p, u);
  }
  p.stats = StatsFromAnalysis(analysis);
  return p;
}

StitchedGraph StitchGraph(const ProgramSlices& p) {
  const ir::Module& module = *p.module;
  StitchedGraph out{ddg::Graph(&module), {}};
  ddg::Graph& g = out.graph;

  // The interns some unit references come first. They have no preds, so any
  // place before their first use keeps every edge pointing to a lower id.
  std::vector<std::uint8_t> referenced(p.interns.size(), 0);
  for (const UnitSlice& s : p.units) {
    for (const std::uint32_t id : s.intern_refs) referenced[id] = 1;
  }
  std::vector<NodeId> intern_node(p.interns.size(), kNoNode);
  for (std::uint32_t i = 0; i < p.interns.size(); ++i) {
    if (referenced[i] == 0) continue;
    const InternEntry& e = p.interns[i];
    ddg::Node node;
    node.kind = e.is_global != 0 ? ddg::NodeKind::kGlobal : ddg::NodeKind::kConstant;
    node.width = e.width;
    node.value = e.value;
    intern_node[i] = g.AddNode(node, {});
  }

  // Then the dyns in trace order. A dyn creates at most its result node, so
  // creating it when the dyn is reached numbers the unit nodes in trace
  // order, as the builder does.
  std::vector<std::vector<NodeId>> node_id(p.units.size());
  std::size_t nodes = g.NumNodes();
  std::size_t preds_total = 0;
  std::size_t dyns = 0;
  std::size_t operands_total = 0;
  std::size_t accesses = 0;
  for (std::size_t u = 0; u < p.units.size(); ++u) {
    const UnitSlice& s = p.units[u];
    node_id[u].assign(s.nodes.size(), kNoNode);
    nodes += s.nodes.size();
    preds_total += s.preds.size();
    dyns += s.dyn.size();
    operands_total += s.operand_nodes.size();
    accesses += s.accesses.size();
  }
  g.Reserve(nodes, preds_total, dyns, operands_total, accesses);
  out.bounds.reserve(accesses);
  const auto resolve = [&](std::uint32_t self, UnitRef ref) {
    if (ref == kNullRef) return kNoNode;
    const UnitRef canon = Canon(p, self, ref);
    const NodeId id = RefUnit(canon) == kInternUnit ? intern_node[RefIndex(canon)]
                                                    : node_id[RefUnit(canon)][RefIndex(canon)];
    if (id == kNoNode) {
      throw std::runtime_error("StitchGraph: a reference to a node not stitched before it");
    }
    return id;
  };
  // Every slice holds at most 8 preds per node and 8 operands per dyn, as
  // the graph does, and its accesses ascend by dyn.
  std::vector<std::size_t> access_cursor(p.units.size(), 0);
  std::array<NodeId, 8> preds{};
  std::array<NodeId, 8> operands{};
  std::uint32_t global_dyn = 0;
  for (const SegmentRef& sr : p.segment_order) {
    const UnitSlice& s = p.units[sr.unit];
    const SegmentInfo& seg = s.segments[sr.seg];
    for (std::uint32_t ld = seg.first_dyn; ld < seg.first_dyn + seg.num_dyn; ++ld, ++global_dyn) {
      const SliceDyn& d = s.dyn[ld];
      ddg::DynInstr header;
      header.sid = d.sid;
      header.selected_operand = d.selected_operand;
      if (d.result_node != kNoLocalNode) {
        const SliceNode& sn = s.nodes[d.result_node];
        const SlicePredRange& pr = s.pred_ranges[d.result_node];
        for (std::uint32_t i = 0; i < pr.count; ++i) {
          preds[i] = resolve(sr.unit, s.preds[pr.offset + i]);
        }
        header.result_node =
            g.AddNode(ddg::Node{sn.kind, sn.width, global_dyn, sn.value},
                      std::span<const NodeId>(preds.data(), pr.count),
                      static_cast<std::uint8_t>(pr.virtual_mask));
        node_id[sr.unit][d.result_node] = header.result_node;
      }
      for (std::uint8_t slot = 0; slot < d.num_operands; ++slot) {
        operands[slot] = resolve(sr.unit, s.operand_nodes[d.operands_offset + slot]);
      }
      g.AddDynInstr(header, std::span<const NodeId>(operands.data(), d.num_operands),
                    std::span<const std::uint64_t>(s.operand_values.data() + d.operands_offset,
                                                   d.num_operands));
      const ir::Instruction& inst = InstrOf(module, d.sid);
      if (ddg::IsOutputRoot(inst)) g.AddOutputRoot(operands[0]);
      if (ddg::IsControlRoot(inst, operands[0])) g.AddControlRoot(operands[0]);
      std::size_t& a = access_cursor[sr.unit];
      for (; a < s.accesses.size() && s.accesses[a].dyn == ld; ++a) {
        const SliceAccess& sa = s.accesses[a];
        g.AddAccess(ddg::AccessRecord{global_dyn, resolve(sr.unit, sa.addr_node), sa.addr, sa.size,
                                      /*map_version=*/0, /*esp=*/0, sa.is_store != 0});
        out.bounds.push_back(sa.seed);
      }
    }
  }
  return out;
}

Analysis AnalyzeStitched(const ProgramSlices& p, int jobs) {
  StitchedGraph stitched = StitchGraph(p);
  ddg::AceResult ace = ddg::ComputeAce(stitched.graph, jobs);
  crash::CrashBits crash = crash::PropagateCrashRanges(stitched.graph, ace, stitched.bounds, jobs);
  AnalysisOptions options;
  options.jobs = jobs;
  // The trace holds every executed instruction.
  vm::RunResult golden;
  golden.instructions_executed = stitched.graph.NumDynInstrs();
  return Analysis::Restore(*p.module, options, std::move(golden), std::move(stitched.graph),
                           std::move(ace), std::move(crash), std::nullopt);
}

ReportStats ComposeProgram(const ProgramSlices& p) { return p.stats; }

std::vector<UnitEpvf> PerUnitEpvf(const ProgramSlices& p, int jobs) {
  const Analysis a = AnalyzeStitched(p, jobs);
  const ddg::Graph& g = a.graph();
  std::vector<std::uint32_t> dyn_unit;
  dyn_unit.reserve(g.NumDynInstrs());
  for (const SegmentRef& sr : p.segment_order) {
    dyn_unit.insert(dyn_unit.end(), p.units[sr.unit].segments[sr.seg].num_dyn, sr.unit);
  }
  struct Bits {
    std::uint64_t total = 0;
    std::uint64_t ace = 0;
    std::uint64_t crash = 0;
  };
  std::vector<Bits> bits(p.units.size());
  for (NodeId id = 0; id < g.NumNodes(); ++id) {
    const ddg::Node& node = g.GetNode(id);
    if (node.kind != ddg::NodeKind::kRegister) continue;
    Bits& b = bits[dyn_unit[node.dyn_index]];
    b.total += node.width;
    if (!a.ace().Contains(id)) continue;
    b.ace += node.width;
    b.crash += PopCount(a.crash_bits().crash_mask[id]);
  }
  std::vector<UnitEpvf> rows;
  rows.reserve(p.units.size());
  for (std::size_t u = 0; u < p.units.size(); ++u) {
    const Bits& b = bits[u];
    const double epvf = b.total == 0 ? 0.0
                                     : static_cast<double>(b.ace - b.crash) /
                                           static_cast<double>(b.total);
    rows.push_back(UnitEpvf{p.partition.units[u].name, epvf});
  }
  return rows;
}

}  // namespace epvf::core
