#include "epvf/reexec.h"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ddg/builder.h"
#include "ir/intrinsics.h"
#include "obs/trace.h"
#include "vm/eval.h"
#include "vm/value.h"

namespace epvf::core {

namespace {

using ir::Opcode;

/// Per-segment [begin, end) ranges over a segment-ordered vector (every
/// per-segment slice vector is nondecreasing in its `segment` field).
template <typename T>
std::vector<std::pair<std::uint32_t, std::uint32_t>> SegRanges(const std::vector<T>& v,
                                                               std::size_t num_segs) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges(num_segs, {0, 0});
  std::uint32_t cursor = 0;
  for (std::uint32_t seg = 0; seg < num_segs; ++seg) {
    const std::uint32_t begin = cursor;
    while (cursor < v.size() && v[cursor].segment == seg) ++cursor;
    ranges[seg] = {begin, cursor};
  }
  return ranges;
}

/// Replays one unit's recorded trace segments against the new module,
/// mirroring the interpreter's evaluation semantics and the DDG builder's
/// node-construction rules instruction for instruction. Any divergence from
/// the recorded boundary summaries (or any construct replay cannot contain,
/// like allocation or user calls) sets failed_ and aborts.
class ReplayEngine {
 public:
  ReplayEngine(ProgramSlices& p, std::uint32_t unit, const ir::Module& new_module)
      : p_(p),
        unit_(unit),
        module_(new_module),
        old_(p.units[unit]),
        info_(p.partition.units[unit]),
        fn_(new_module.functions[info_.function]) {
    regs_.resize(fn_.registers.size());
    member_.assign(fn_.blocks.size(), 0);
    for (const std::uint32_t b : info_.blocks) {
      if (b < member_.size()) member_[b] = 1;
    }
    for (std::uint32_t i = 0; i < p_.interns.size(); ++i) {
      const InternEntry& e = p_.interns[i];
      if (e.is_global != 0) {
        global_intern_.emplace(e.ir_index, i);
      } else {
        const_intern_.emplace(std::make_pair(e.type_key, e.value), i);
      }
    }
  }

  std::optional<UnitSlice> Run();

 private:
  // --- failure plumbing ------------------------------------------------------
  void Fail() { failed_ = true; }
  [[nodiscard]] bool Failed() const { return failed_; }

  // --- intern resolution -----------------------------------------------------
  UnitRef ConstantRef(std::uint32_t pool_index) {
    const ir::Constant& c = module_.GetConstant(pool_index);
    const auto key = std::make_pair(PackTypeKey(c.type), c.bits);
    const auto it = const_intern_.find(key);
    if (it != const_intern_.end()) return MakeRef(kInternUnit, it->second);
    // A constant the cold run never saw (the tweak's new literal): append a
    // fresh intern entry. Existing entries are never mutated, so other units'
    // refs stay valid; ComposeProgram counts only referenced entries.
    InternEntry e;
    e.is_global = 0;
    e.ir_index = pool_index;
    e.type_key = key.first;
    e.width = static_cast<std::uint8_t>(c.type.BitWidth());
    e.value = c.bits;
    const auto id = static_cast<std::uint32_t>(p_.interns.size());
    p_.interns.push_back(e);
    const_intern_.emplace(key, id);
    return MakeRef(kInternUnit, id);
  }

  bool GlobalIntern(std::uint32_t global_index, std::uint32_t* id) {
    const auto it = global_intern_.find(global_index);
    if (it == global_intern_.end()) {
      // The cold trace never touched this global; its address was never
      // recorded, so the value is unknowable here.
      Fail();
      return false;
    }
    *id = it->second;
    return true;
  }

  // --- per-segment value state -----------------------------------------------
  /// One register's replay state. The per-segment fields describe the
  /// current segment only while `epoch` is the engine's segment epoch: Reg()
  /// clears them on the register's first touch in a later segment, so a new
  /// segment costs nothing per register. `carried` spans segments.
  struct RegState {
    std::uint32_t epoch = 0;
    bool pooled = false;     ///< the segment's recorded live-in (pool_*)
    bool has_value = false;  ///< `value` is the register's current value
    bool defined = false;    ///< defined in the segment (first_def, def_node)
    bool li_seen = false;    ///< the segment's live-in already recorded
    std::uint32_t first_def = 0;  ///< local dyn of the segment's first def
    std::uint64_t pool_value = 0;
    UnitRef pool_node = kNullRef;
    std::uint64_t value = 0;
    UnitRef def_node = kNullRef;  ///< node of the segment's latest def
    /// Node of the latest def in an earlier segment (kNullRef: none).
    UnitRef carried = kNullRef;
  };

  /// One memory byte's replay state, reset per segment like RegState.
  struct ByteState {
    std::uint32_t epoch = 0;
    bool pooled = false;   ///< the segment's recorded live-in (pool_*)
    bool written = false;  ///< stored in the segment (byte, writer)
    bool li_seen = false;  ///< the segment's live-in already recorded
    std::uint8_t pool_byte = 0;
    std::uint8_t byte = 0;
    UnitRef pool_writer = kNullRef;
    UnitRef writer = kNullRef;   ///< the segment's latest store to the byte
    /// The latest store in an earlier segment (kNullRef: none).
    UnitRef carried = kNullRef;
  };

  /// `reg`'s state in the current segment. A register id outside the
  /// function (an edited module's, or one read back from a unit entry)
  /// fails the replay and yields nullptr.
  RegState* Reg(std::uint32_t reg) {
    if (reg >= regs_.size()) {
      Fail();
      return nullptr;
    }
    RegState& r = regs_[reg];
    if (r.epoch != epoch_) {
      r.epoch = epoch_;
      r.pooled = r.has_value = r.defined = r.li_seen = false;
    }
    return &r;
  }

  /// `addr`'s state in the current segment.
  ByteState& Byte(std::uint64_t addr) {
    ByteState& b = bytes_[addr];
    if (b.epoch != epoch_) {
      b.epoch = epoch_;
      b.pooled = b.written = b.li_seen = false;
    }
    return b;
  }

  std::uint64_t RegValue(RegState& r) {
    if (!r.has_value) {
      if (!r.pooled) {
        Fail();  // read of a register the old segment never read: value unknown
        return 0;
      }
      r.has_value = true;
      r.value = r.pool_value;
    }
    return r.value;
  }

  /// Resolves the defining node of a register read with no in-segment def,
  /// from the recorded live-in pool. Same-unit recorded refs point at *old*
  /// local nodes and are re-resolved through the carried cross-segment
  /// shadow; refs into other units or the intern table are verbatim (those
  /// namespaces are untouched by the replay).
  UnitRef BoundaryRegNode(const RegState& r, std::uint32_t old_first_node) {
    if (!r.pooled) {
      Fail();
      return kNullRef;
    }
    const UnitRef rec = r.pool_node;
    if (rec == kNullRef || RefUnit(rec) != unit_) return rec;
    if (RefIndex(rec) >= old_first_node) {
      // Recorded in-segment node (the swap-phi wart) reached through a read
      // pattern the old trace did not have — ambiguous, bail.
      Fail();
      return kNullRef;
    }
    if (r.carried == kNullRef) Fail();
    return r.carried;
  }

  /// Resolves the writer node of a byte not written in this segment.
  /// Second member of the pair is the byte's value.
  std::pair<UnitRef, std::uint8_t> PoolByte(const ByteState& b, std::uint32_t old_first_node) {
    if (!b.pooled) {
      Fail();
      return {kNullRef, 0};
    }
    const UnitRef rec = b.pool_writer;
    if (rec == kNullRef || RefUnit(rec) != unit_) return {rec, b.pool_byte};
    if (RefIndex(rec) >= old_first_node) {
      Fail();  // recorded in-segment writer: impossible by construction
      return {kNullRef, 0};
    }
    if (b.carried == kNullRef) {
      Fail();
      return {kNullRef, 0};
    }
    return {b.carried, b.pool_byte};
  }

  /// Value-only operand read for the phi-group precompute (no node
  /// resolution, no live-in recording — mirrors the executor's operand read).
  std::uint64_t ValueOnly(ir::ValueRef ref) {
    switch (ref.kind) {
      case ir::ValueKind::kRegister: {
        RegState* r = Reg(ref.index);
        return r == nullptr ? 0 : RegValue(*r);
      }
      case ir::ValueKind::kConstant:
        return module_.GetConstant(ref.index).bits;
      case ir::ValueKind::kGlobal: {
        std::uint32_t id = 0;
        if (!GlobalIntern(ref.index, &id)) return 0;
        return p_.interns[id].value;
      }
      case ir::ValueKind::kNone:
        break;
    }
    Fail();
    return 0;
  }

  // --- node construction (builder mirror) ------------------------------------
  std::uint32_t AddNode(ddg::NodeKind kind, std::uint8_t width, std::uint64_t value,
                        std::span<const UnitRef> preds, std::uint32_t virtual_mask) {
    SliceNode node;
    node.kind = kind;
    node.width = width;
    node.dyn = static_cast<std::uint32_t>(ns_.dyn.size());
    node.value = value;
    const auto local = static_cast<std::uint32_t>(ns_.nodes.size());
    ns_.nodes.push_back(node);
    SlicePredRange pr;
    pr.offset = static_cast<std::uint32_t>(ns_.preds.size());
    pr.count = static_cast<std::uint32_t>(preds.size());
    pr.virtual_mask = virtual_mask;
    for (const UnitRef r : preds) ns_.preds.push_back(r);
    ns_.pred_ranges.push_back(pr);
    return local;
  }

  bool RunSegment(std::uint32_t seg);

  ProgramSlices& p_;
  const std::uint32_t unit_;
  const ir::Module& module_;
  const UnitSlice& old_;
  const UnitInfo& info_;
  const ir::Function& fn_;
  std::vector<std::uint8_t> member_;

  bool failed_ = false;
  UnitSlice ns_;

  // Intern lookup: (type_key, value) -> id for constants, ir_index -> id for
  // globals (the pool interns constants by (type, bits), so the pair is
  // unambiguous).
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint32_t> const_intern_;
  std::unordered_map<std::uint32_t, std::uint32_t> global_intern_;

  // Replay state per register id and per byte address; `epoch_` numbers
  // the segment being replayed. Validated boundary equality of every earlier
  // segment makes the carried nodes the correct re-resolution targets.
  std::vector<RegState> regs_;
  std::unordered_map<std::uint64_t, ByteState> bytes_;
  std::uint32_t epoch_ = 0;

  // Per-segment export re-key captures: (register, local node of its last
  // def) ascending by register, and each (addr, size)'s stores in order.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> seg_reg_defs_;
  std::vector<std::map<std::pair<std::uint64_t, std::uint32_t>, std::vector<std::uint32_t>>>
      seg_store_seq_;

  // Old-data bucket ranges, computed once in Run().
  std::vector<std::pair<std::uint32_t, std::uint32_t>> reg_li_ranges_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> byte_li_ranges_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> reg_final_ranges_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> mem_final_ranges_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> output_ranges_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> access_ranges_;

  // Per-segment replay state (reset in RunSegment): the registers defined
  // and the bytes stored in the segment, in first-touch order.
  std::vector<std::uint32_t> seg_defs_;
  std::vector<std::pair<std::uint64_t, ByteState*>> seg_stored_bytes_;
  std::map<std::pair<std::uint64_t, std::uint32_t>, std::vector<std::uint32_t>> store_seq_cur_;
  std::vector<std::uint64_t> phi_values_;
  bool phi_valid_ = false;
  std::uint32_t group_start_ = 0;
};

bool ReplayEngine::RunSegment(std::uint32_t seg) {
  const SegmentInfo& oseg = old_.segments[seg];
  SegmentInfo nseg = oseg;
  nseg.first_dyn = static_cast<std::uint32_t>(ns_.dyn.size());
  nseg.first_node = static_cast<std::uint32_t>(ns_.nodes.size());

  ++epoch_;
  seg_defs_.clear();
  seg_stored_bytes_.clear();
  store_seq_cur_.clear();
  phi_valid_ = false;

  for (std::uint32_t i = reg_li_ranges_[seg].first; i < reg_li_ranges_[seg].second; ++i) {
    const RegLiveIn& li = old_.reg_live_ins[i];
    RegState* r = Reg(li.reg);
    if (r == nullptr) return false;
    if (!r->pooled) {
      r->pooled = true;
      r->pool_value = li.value;
      r->pool_node = li.node;
    }
  }
  for (std::uint32_t i = byte_li_ranges_[seg].first; i < byte_li_ranges_[seg].second; ++i) {
    const ByteLiveIn& li = old_.mem_live_ins[i];
    ByteState& b = Byte(li.addr);
    if (!b.pooled) {
      b.pooled = true;
      b.pool_byte = li.byte;
      b.pool_writer = li.writer;
    }
  }

  std::uint32_t acc_cursor = access_ranges_[seg].first;
  const std::uint32_t acc_end = access_ranges_[seg].second;
  std::uint32_t out_cursor = output_ranges_[seg].first;
  const std::uint32_t out_end = output_ranges_[seg].second;

  const std::uint64_t budget = std::uint64_t{oseg.num_dyn} * 4 + 4096;
  std::uint64_t executed = 0;

  std::uint32_t block = oseg.entry_block;
  std::uint32_t prev_block = oseg.prev_block;
  std::uint32_t ip = 0;
  bool segment_open = true;

  std::array<UnitRef, 8> refs{};
  std::array<std::uint64_t, 8> vals{};

  while (segment_open) {
    if (executed >= budget) return (Fail(), false);
    if (block >= fn_.blocks.size()) return (Fail(), false);
    const ir::BasicBlock& bb = fn_.blocks[block];
    if (ip >= bb.instructions.size()) return (Fail(), false);
    const ir::Instruction& inst = bb.instructions[ip];
    const std::size_t num_ops = inst.operands.size();
    if (num_ops > refs.size()) return (Fail(), false);
    const auto ld = static_cast<std::uint32_t>(ns_.dyn.size());

    refs.fill(kNullRef);
    vals.fill(0);

    // --- operand gathering + live-in recording (pass-1 mirror) ---------------
    const bool is_phi = inst.op == Opcode::kPhi;
    std::uint32_t selected = 0xFFFFFFFFu;
    if (is_phi) {
      if (!phi_valid_) {
        // Precompute the whole leading phi group with pre-transfer values
        // (interpreter mirror: mutually-referencing phis see old values).
        phi_values_.assign(bb.instructions.size(), 0);
        for (std::uint32_t pi = ip;
             pi < bb.instructions.size() && bb.instructions[pi].op == Opcode::kPhi; ++pi) {
          const ir::Instruction& phi = bb.instructions[pi];
          bool found = false;
          for (std::uint32_t i = 0; i < phi.phi_blocks.size(); ++i) {
            if (phi.phi_blocks[i] == prev_block) {
              phi_values_[pi] = ValueOnly(phi.operands[i]);
              found = true;
              break;
            }
          }
          if (!found) return (Fail(), false);
        }
        phi_valid_ = true;
        group_start_ = ld;
      }
      for (std::uint32_t i = 0; i < inst.phi_blocks.size(); ++i) {
        if (inst.phi_blocks[i] == prev_block) {
          selected = i;
          break;
        }
      }
      if (selected == 0xFFFFFFFFu) return (Fail(), false);
      vals[selected] = phi_values_[ip];
      const ir::ValueRef op = inst.operands[selected];
      if (op.IsRegister()) {
        RegState* r = Reg(op.index);
        if (r == nullptr) return false;
        refs[selected] = r->defined ? r->def_node : BoundaryRegNode(*r, oseg.first_node);
        const bool defined = r->defined && r->first_def < group_start_;
        if (!defined && !r->li_seen) {
          r->li_seen = true;
          ns_.reg_live_ins.push_back(RegLiveIn{seg, op.index, vals[selected], refs[selected]});
        }
      } else if (op.IsConstant()) {
        refs[selected] = ConstantRef(op.index);
      } else if (op.IsGlobal()) {
        std::uint32_t id = 0;
        if (!GlobalIntern(op.index, &id)) return false;
        refs[selected] = MakeRef(kInternUnit, id);
      } else {
        return (Fail(), false);
      }
    } else {
      phi_valid_ = false;
      for (std::size_t i = 0; i < num_ops; ++i) {
        const ir::ValueRef op = inst.operands[i];
        switch (op.kind) {
          case ir::ValueKind::kRegister: {
            RegState* r = Reg(op.index);
            if (r == nullptr) return false;
            vals[i] = RegValue(*r);
            refs[i] = r->defined ? r->def_node : BoundaryRegNode(*r, oseg.first_node);
            if (!r->defined && !r->li_seen) {
              r->li_seen = true;
              ns_.reg_live_ins.push_back(RegLiveIn{seg, op.index, vals[i], refs[i]});
            }
            break;
          }
          case ir::ValueKind::kConstant:
            vals[i] = module_.GetConstant(op.index).bits;
            refs[i] = ConstantRef(op.index);
            break;
          case ir::ValueKind::kGlobal: {
            std::uint32_t id = 0;
            if (!GlobalIntern(op.index, &id)) return false;
            vals[i] = p_.interns[id].value;
            refs[i] = MakeRef(kInternUnit, id);
            break;
          }
          case ir::ValueKind::kNone:
            return (Fail(), false);
        }
      }
    }
    if (Failed()) return false;

    // --- execution (interpreter mirror) --------------------------------------
    bool has_result = false;
    std::uint64_t result_bits = 0;
    const auto set_result = [&](std::uint64_t bits) {
      result_bits = vm::Canonicalize(inst.type, bits);
      has_result = true;
    };
    std::uint32_t next_block = ir::kInvalidIndex;
    bool did_return = false;
    bool is_output_call = false;

    switch (inst.op) {
      case Opcode::kICmp:
        set_result(vm::detail::EvalICmp(inst.icmp_pred, module_.TypeOf(fn_, inst.operands[0]),
                                        vals[0], vals[1])
                       ? 1
                       : 0);
        break;
      case Opcode::kFCmp:
        set_result(vm::detail::EvalFCmp(inst.fcmp_pred, module_.TypeOf(fn_, inst.operands[0]),
                                        vals[0], vals[1])
                       ? 1
                       : 0);
        break;
      case Opcode::kSelect:
      case Opcode::kPhi:
      case Opcode::kTrunc:
      case Opcode::kZExt:
      case Opcode::kSExt:
      case Opcode::kBitCast:
      case Opcode::kSIToFP:
      case Opcode::kUIToFP:
      case Opcode::kFPToSI:
      case Opcode::kFPTrunc:
      case Opcode::kFPExt:
      case Opcode::kPtrToInt:
      case Opcode::kIntToPtr:
      case Opcode::kGep:
        set_result(vm::detail::EvalValueOnly(module_, fn_, inst, vals.data(), selected));
        break;
      case Opcode::kLoad: {
        const std::uint64_t addr = vals[0];
        const unsigned size = inst.type.StoreSize();
        if (acc_cursor >= acc_end) return (Fail(), false);
        const SliceAccess& oa = old_.accesses[acc_cursor];
        if (oa.addr != addr || oa.size != size || oa.is_store != 0) return (Fail(), false);
        std::uint64_t bits = 0;
        for (std::uint64_t b = 0; b < size; ++b) {
          const ByteState& state = Byte(addr + b);
          const std::uint8_t byte =
              state.written ? state.byte : PoolByte(state, oseg.first_node).second;
          if (Failed()) return false;
          bits |= std::uint64_t{byte} << (8 * b);
        }
        set_result(bits);
        break;
      }
      case Opcode::kStore: {
        const std::uint64_t addr = vals[1];
        const unsigned size = module_.TypeOf(fn_, inst.operands[0]).StoreSize();
        if (acc_cursor >= acc_end) return (Fail(), false);
        const SliceAccess& oa = old_.accesses[acc_cursor];
        if (oa.addr != addr || oa.size != size || oa.is_store != 1) return (Fail(), false);
        break;
      }
      case Opcode::kBr:
        next_block = inst.bb_true;
        break;
      case Opcode::kCondBr:
        next_block = (vals[0] & 1) != 0 ? inst.bb_true : inst.bb_false;
        break;
      case Opcode::kRet:
        did_return = true;
        break;
      case Opcode::kCall: {
        if (!inst.is_intrinsic) return (Fail(), false);
        switch (inst.intrinsic) {
          case ir::Intrinsic::kOutputI64:
            is_output_call = true;
            break;
          case ir::Intrinsic::kOutputF64:
            is_output_call = true;
            break;
          case ir::Intrinsic::kMalloc:
          case ir::Intrinsic::kFree:
          case ir::Intrinsic::kAbort:
          case ir::Intrinsic::kDetect:
            // Allocation moves the memory map, abort/detect end the run —
            // none of these effects are containable in a unit replay.
            return (Fail(), false);
          case ir::Intrinsic::kAssert:
            if ((vals[0] & 1) == 0) return (Fail(), false);
            break;
          default:
            set_result(vm::detail::EvalIntrinsicMath(inst.intrinsic, vals[0],
                                                     num_ops > 1 ? vals[1] : 0));
            break;
        }
        break;
      }
      case Opcode::kAlloca:
        return (Fail(), false);
      default: {
        vm::TrapKind arith = vm::TrapKind::kNone;
        const std::uint64_t r = vm::detail::EvalBinary(inst.op, inst.type, vals[0], vals[1], arith);
        if (arith != vm::TrapKind::kNone) return (Fail(), false);
        set_result(r);
        break;
      }
    }

    // --- output-event validation (the non-register escape channels) ----------
    if (is_output_call) {
      const std::uint64_t payload = inst.intrinsic == ir::Intrinsic::kOutputF64
                                        ? vm::detail::RoundOutputF64(vals[0])
                                        : vals[0];
      if (out_cursor >= out_end || old_.outputs[out_cursor].value != payload) {
        return (Fail(), false);
      }
      ++out_cursor;
      ns_.outputs.push_back(OutputEvent{seg, payload});
    }
    if (did_return && num_ops > 0) {
      if (out_cursor >= out_end || old_.outputs[out_cursor].value != vals[0]) {
        return (Fail(), false);
      }
      ++out_cursor;
      ns_.outputs.push_back(OutputEvent{seg, vals[0]});
    }

    // --- node construction (the builder's node rule) --------------------------
    std::uint32_t result_node = kNoLocalNode;
    if (ddg::MakesResultNode(inst)) {
      const ddg::ResultPreds<UnitRef> preds = ddg::ResultNodePreds<UnitRef>(
          inst, std::span<const UnitRef>(refs.data(), num_ops),
          std::span<const std::uint64_t>(vals.data(), num_ops), selected, kNullRef,
          [&](std::uint64_t addr) {
            ByteState& b = Byte(addr);
            const UnitRef writer = b.written ? b.writer : PoolByte(b, oseg.first_node).first;
            if (!b.written && !b.li_seen) {
              b.li_seen = true;
              const std::uint64_t shift = 8 * (addr - vals[0]);
              ns_.mem_live_ins.push_back(ByteLiveIn{
                  seg, addr, static_cast<std::uint8_t>((result_bits >> shift) & 0xFF), writer});
            }
            return writer;
          });
      if (Failed()) return false;
      if (inst.op == Opcode::kStore) {
        const auto width =
            static_cast<std::uint8_t>(module_.TypeOf(fn_, inst.operands[0]).BitWidth());
        result_node = AddNode(ddg::NodeKind::kMemory, width, vals[0], preds.Span(),
                              preds.virtual_mask);
      } else {
        result_node = AddNode(ddg::NodeKind::kRegister,
                              static_cast<std::uint8_t>(inst.type.BitWidth()), result_bits,
                              preds.Span(), preds.virtual_mask);
      }
    }
    switch (inst.op) {
      case Opcode::kStore: {
        const std::uint64_t addr = vals[1];
        const unsigned size = module_.TypeOf(fn_, inst.operands[0]).StoreSize();
        const UnitRef mem_ref = MakeRef(unit_, result_node);
        for (std::uint64_t b = 0; b < size; ++b) {
          ByteState& state = Byte(addr + b);
          if (!state.written) {
            state.written = true;
            seg_stored_bytes_.emplace_back(addr + b, &state);
          }
          state.byte = static_cast<std::uint8_t>((vals[0] >> (8 * b)) & 0xFF);
          state.writer = mem_ref;
        }
        store_seq_cur_[{addr, size}].push_back(result_node);
        SliceAccess na = old_.accesses[acc_cursor++];
        na.dyn = ld;
        na.addr_node = refs[1];
        ns_.accesses.push_back(na);
        break;
      }
      case Opcode::kLoad: {
        SliceAccess na = old_.accesses[acc_cursor++];
        na.dyn = ld;
        na.addr_node = refs[0];
        ns_.accesses.push_back(na);
        break;
      }
      default:
        break;
    }

    SliceDyn sd;
    sd.sid = ir::StaticInstrId{info_.function, block, ip};
    sd.result_node = result_node;
    sd.operands_offset = static_cast<std::uint32_t>(ns_.operand_nodes.size());
    sd.num_operands = static_cast<std::uint8_t>(num_ops);
    sd.selected_operand = is_phi ? static_cast<std::uint8_t>(selected)
                                 : static_cast<std::uint8_t>(0xFF);
    for (std::size_t i = 0; i < num_ops; ++i) {
      ns_.operand_nodes.push_back(refs[i]);
      ns_.operand_values.push_back(vals[i]);
    }
    ns_.dyn.push_back(sd);

    // --- register-shadow update (the builder's defines rule) -------------------
    if (ddg::DefinesShadowedRegister(inst)) {
      RegState* r = Reg(inst.result);
      if (r == nullptr) return false;
      if (!r->defined) {
        r->defined = true;
        r->first_def = ld;
        seg_defs_.push_back(inst.result);
      }
      r->def_node = MakeRef(unit_, result_node);
      r->has_value = true;
      r->value = result_bits;
    }

    ++executed;

    // --- control transfer ------------------------------------------------------
    if (did_return) {
      if (oseg.exits_via_ret != 1 || oseg.exit_prev_block != block) return (Fail(), false);
      segment_open = false;
    } else if (next_block != ir::kInvalidIndex) {
      if (next_block < member_.size() && member_[next_block] != 0) {
        prev_block = block;
        block = next_block;
        ip = 0;
        phi_valid_ = false;
      } else {
        if (oseg.exits_via_ret != 0 || oseg.exit_block != next_block ||
            oseg.exit_prev_block != block) {
          return (Fail(), false);
        }
        segment_open = false;
      }
    } else {
      ip += 1;
    }
  }

  // --- segment-close validation ------------------------------------------------
  if (acc_cursor != acc_end || out_cursor != out_end) return (Fail(), false);

  std::sort(seg_defs_.begin(), seg_defs_.end());
  const auto [rf_begin, rf_end] = reg_final_ranges_[seg];
  if (seg_defs_.size() != rf_end - rf_begin) return (Fail(), false);
  for (std::uint32_t i = 0; i < seg_defs_.size(); ++i) {
    const RegFinal& of = old_.reg_finals[rf_begin + i];
    if (seg_defs_[i] != of.reg || regs_[seg_defs_[i]].value != of.value) return (Fail(), false);
  }
  std::sort(seg_stored_bytes_.begin(), seg_stored_bytes_.end());
  const auto [mf_begin, mf_end] = mem_final_ranges_[seg];
  if (seg_stored_bytes_.size() != mf_end - mf_begin) return (Fail(), false);
  for (std::uint32_t i = 0; i < seg_stored_bytes_.size(); ++i) {
    const auto& [addr, state] = seg_stored_bytes_[i];
    const ByteFinal& of = old_.mem_finals[mf_begin + i];
    if (of.addr != addr || of.byte != state->byte) return (Fail(), false);
  }

  nseg.num_dyn = static_cast<std::uint32_t>(ns_.dyn.size()) - nseg.first_dyn;
  ns_.segments.push_back(nseg);
  for (const std::uint32_t reg : seg_defs_) {
    ns_.reg_finals.push_back(RegFinal{seg, reg, regs_[reg].value});
  }
  for (const auto& [addr, state] : seg_stored_bytes_) {
    ns_.mem_finals.push_back(ByteFinal{seg, addr, state->byte});
  }

  // Export re-key captures + carried-shadow merge.
  auto& defs = seg_reg_defs_.emplace_back();
  defs.reserve(seg_defs_.size());
  for (const std::uint32_t reg : seg_defs_) {
    RegState& r = regs_[reg];
    defs.emplace_back(reg, RefIndex(r.def_node));
    r.carried = r.def_node;
  }
  seg_store_seq_.push_back(std::move(store_seq_cur_));
  store_seq_cur_ = {};
  for (const auto& [addr, state] : seg_stored_bytes_) state->carried = state->writer;
  return true;
}

std::optional<UnitSlice> ReplayEngine::Run() {
  const std::size_t num_segs = old_.segments.size();
  reg_li_ranges_ = SegRanges(old_.reg_live_ins, num_segs);
  byte_li_ranges_ = SegRanges(old_.mem_live_ins, num_segs);
  reg_final_ranges_ = SegRanges(old_.reg_finals, num_segs);
  mem_final_ranges_ = SegRanges(old_.mem_finals, num_segs);
  output_ranges_ = SegRanges(old_.outputs, num_segs);
  {
    // Accesses carry local dyn ids, not segment ids: bucket by dyn range.
    access_ranges_.assign(num_segs, {0, 0});
    std::uint32_t cursor = 0;
    for (std::uint32_t seg = 0; seg < num_segs; ++seg) {
      const SegmentInfo& oseg = old_.segments[seg];
      const std::uint32_t begin = cursor;
      while (cursor < old_.accesses.size() &&
             old_.accesses[cursor].dyn < oseg.first_dyn + oseg.num_dyn) {
        ++cursor;
      }
      access_ranges_[seg] = {begin, cursor};
    }
  }

  for (std::uint32_t seg = 0; seg < num_segs; ++seg) {
    if (!RunSegment(seg)) return std::nullopt;
  }

  // --- export re-keying ---------------------------------------------------------
  // Slot positions are the unit's external ABI: re-resolve each old slot's
  // semantic key against the new per-segment defs and demand the replacement
  // node carries the same width and value the consumers saw.
  ns_.exports.reserve(old_.exports.size());
  for (const ExportEntry& e : old_.exports) {
    if (e.segment >= num_segs || e.local >= old_.nodes.size()) return std::nullopt;
    std::uint32_t nlocal = kNoLocalNode;
    if (e.kind == 0) {
      const auto& defs = seg_reg_defs_[e.segment];
      const auto reg = static_cast<std::uint32_t>(e.key_a);
      const auto it = std::lower_bound(
          defs.begin(), defs.end(), reg,
          [](const std::pair<std::uint32_t, std::uint32_t>& d, std::uint32_t r) {
            return d.first < r;
          });
      if (it == defs.end() || it->first != reg) return std::nullopt;
      nlocal = it->second;
    } else {
      const auto& seq = seg_store_seq_[e.segment];
      const auto it = seq.find({e.key_a, e.key_b});
      if (it == seq.end() || e.ordinal >= it->second.size()) return std::nullopt;
      nlocal = it->second[e.ordinal];
    }
    const SliceNode& on = old_.nodes[e.local];
    const SliceNode& nn = ns_.nodes[nlocal];
    if (nn.kind != on.kind || nn.width != on.width || nn.value != on.value) return std::nullopt;
    ExportEntry ne = e;
    ne.local = nlocal;
    ns_.exports.push_back(ne);
  }

  // --- intern reference set ------------------------------------------------------
  std::set<std::uint32_t> intern_set;
  const auto note = [&](UnitRef r) {
    if (r != kNullRef && RefUnit(r) == kInternUnit) intern_set.insert(RefIndex(r));
  };
  for (const UnitRef r : ns_.preds) note(r);
  for (const UnitRef r : ns_.operand_nodes) note(r);
  for (const SliceAccess& a : ns_.accesses) note(a.addr_node);
  for (const RegLiveIn& li : ns_.reg_live_ins) note(li.node);
  for (const ByteLiveIn& li : ns_.mem_live_ins) note(li.writer);
  ns_.intern_refs.assign(intern_set.begin(), intern_set.end());

  if (Failed()) return std::nullopt;
  return std::move(ns_);
}

}  // namespace

bool UnitIsReplayable(const ir::Module& module, const UnitInfo& unit) {
  if (unit.has_user_call || unit.has_alloca) return false;
  const ir::Function& fn = module.functions[unit.function];
  for (const std::uint32_t b : unit.blocks) {
    for (const ir::Instruction& inst : fn.blocks[b].instructions) {
      if (inst.op != Opcode::kCall || !inst.is_intrinsic) continue;
      switch (inst.intrinsic) {
        case ir::Intrinsic::kMalloc:
        case ir::Intrinsic::kFree:
        case ir::Intrinsic::kAbort:
        case ir::Intrinsic::kDetect:
          // Allocation moves the memory map; abort/detect end the run. A
          // replay cannot contain either, so don't start one.
          return false;
        default:
          break;
      }
    }
  }
  return true;
}

std::string_view FallbackReasonName(FallbackReason reason) {
  switch (reason) {
    case FallbackReason::kNone: return "none";
    case FallbackReason::kPartitionShape: return "partition-shape";
    case FallbackReason::kGlobalLayout: return "global-layout";
    case FallbackReason::kMultipleDirty: return "multiple-dirty";
    case FallbackReason::kIneligibleUnit: return "ineligible-unit";
    case FallbackReason::kReplayDiverged: return "replay-diverged";
  }
  return "<bad>";
}

std::optional<UnitSlice> ReplayUnitSlice(ProgramSlices& p, std::uint32_t unit,
                                         const ir::Module& new_module) {
  const obs::TraceSpan span("compose", "replay-unit");
  ReplayEngine engine(p, unit, new_module);
  return engine.Run();
}

IncrementalOutcome ReanalyzeIncremental(ProgramSlices& p, const ir::Module& new_module,
                                        int jobs) {
  IncrementalOutcome out;
  out.units_total = static_cast<std::uint32_t>(p.units.size());
  const auto fallback = [&](FallbackReason reason) {
    out.used_fast_path = false;
    out.fallback = reason;
    return out;
  };

  // Guard 1: identical unit partition (names, functions, member blocks).
  UnitPartition np = PartitionModule(new_module);
  if (np.units.size() != p.partition.units.size()) {
    return fallback(FallbackReason::kPartitionShape);
  }
  for (std::size_t u = 0; u < np.units.size(); ++u) {
    const UnitInfo& a = p.partition.units[u];
    const UnitInfo& b = np.units[u];
    if (a.name != b.name || a.function != b.function || a.header_block != b.header_block ||
        a.blocks != b.blocks) {
      return fallback(FallbackReason::kPartitionShape);
    }
  }
  // Guard 2: identical function shapes (CFG + register types) — static ids of
  // unchanged units must resolve identically in the new module.
  if (new_module.functions.size() != p.function_shape.size()) {
    return fallback(FallbackReason::kPartitionShape);
  }
  for (std::size_t f = 0; f < new_module.functions.size(); ++f) {
    if (FunctionShapeDigest(new_module.functions[f]) != p.function_shape[f]) {
      return fallback(FallbackReason::kPartitionShape);
    }
  }
  // Guard 3: identical global layout (replay resolves globals from recorded
  // addresses, which are a pure function of this layout).
  if (GlobalsDigest(new_module) != p.globals_digest) {
    return fallback(FallbackReason::kGlobalLayout);
  }

  // Dirty detection: units whose printed text moved.
  std::vector<std::uint32_t> dirty_units;
  for (std::uint32_t u = 0; u < np.units.size(); ++u) {
    if (np.units[u].ir_fingerprint != p.partition.units[u].ir_fingerprint) {
      dirty_units.push_back(u);
    }
  }
  if (dirty_units.empty()) {
    // Textually identical module: everything is warm. Swap the module pointer
    // so static-id lookups resolve against the caller's (live) module.
    p.module = &new_module;
    p.partition = std::move(np);
    out.used_fast_path = true;
    return out;
  }
  if (dirty_units.size() > 1) return fallback(FallbackReason::kMultipleDirty);
  const std::uint32_t dirty = dirty_units[0];
  out.dirty_unit = dirty;
  if (!UnitIsReplayable(*p.module, p.partition.units[dirty]) ||
      !UnitIsReplayable(new_module, np.units[dirty])) {
    return fallback(FallbackReason::kIneligibleUnit);
  }

  const std::size_t interns_before = p.interns.size();
  std::optional<UnitSlice> ns = ReplayUnitSlice(p, dirty, new_module);
  if (!ns.has_value()) return fallback(FallbackReason::kReplayDiverged);

  // Contained edit: the replay reproduced the unit's slice bit for bit,
  // interned no new constant, and every instruction of the unit is what it
  // was (its text moved only by names, e.g. a register rename). The stitched
  // graph and everything the stages read of the module are then unchanged,
  // and so are the statistics.
  const ir::Function& old_fn = p.module->functions[p.partition.units[dirty].function];
  const ir::Function& new_fn = new_module.functions[np.units[dirty].function];
  const bool same_code = std::all_of(
      np.units[dirty].blocks.begin(), np.units[dirty].blocks.end(), [&](std::uint32_t b) {
        return old_fn.blocks[b].instructions == new_fn.blocks[b].instructions;
      });
  const UnitSlice old_slice = std::exchange(p.units[dirty], std::move(*ns));
  UnitSlice& slice = p.units[dirty];
  slice.input_digest = UnitInputDigest(p, dirty);
  p.module = &new_module;
  p.partition = std::move(np);
  out.used_fast_path = true;
  out.units_replayed = 1;
  if (same_code && p.interns.size() == interns_before && slice == old_slice) return out;

  // Any other replay recomposes: the backward and walk effects of an edit
  // reach across units, and the monolithic stages over the stitched graph
  // cost a few milliseconds.
  {
    const obs::TraceSpan span("compose", "recompose");
    p.stats = StatsFromAnalysis(AnalyzeStitched(p, jobs));
  }
  out.units_rewalked = out.units_total;
  return out;
}

}  // namespace epvf::core
