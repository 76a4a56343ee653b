#include "store/units_store.h"

#include <filesystem>
#include <utility>
#include <variant>

#include "ir/parser.h"
#include "ir/printer.h"
#include "obs/trace.h"
#include "support/logging.h"

namespace epvf::store {

namespace {

std::string Hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// The analysis-identity prefix shared by unit and manifest keys. The module
/// fingerprint is zeroed: these keys identify the *app + options*, not one
/// module version — that is what lets entries survive edits.
std::string SharedPrefix(const AnalysisKey& key) {
  AnalysisKey shared = key;
  shared.module_fingerprint = 0;
  return CanonicalKey(shared);
}

// --- piece-wise serializers --------------------------------------------------

void WriteInterval(const Interval& iv, ByteWriter& out) {
  out.U64(iv.lo);
  out.U64(iv.hi);
}

Interval ReadInterval(ByteReader& in) {
  Interval iv;
  iv.lo = in.U64();
  iv.hi = in.U64();
  return iv;
}

void WriteSid(const ir::StaticInstrId& sid, ByteWriter& out) {
  out.U32(sid.function);
  out.U32(sid.block);
  out.U32(sid.instr);
}

ir::StaticInstrId ReadSid(ByteReader& in) {
  ir::StaticInstrId sid;
  sid.function = in.U32();
  sid.block = in.U32();
  sid.instr = in.U32();
  return sid;
}

void WriteSlice(const core::UnitSlice& s, ByteWriter& out) {
  out.U64(s.nodes.size());
  for (const core::SliceNode& n : s.nodes) {
    out.U8(static_cast<std::uint8_t>(n.kind));
    out.U8(n.width);
    out.U32(n.dyn);
    out.U64(n.value);
  }
  out.U64(s.pred_ranges.size());
  for (const core::SlicePredRange& r : s.pred_ranges) {
    out.U32(r.offset);
    out.U32(r.count);
    out.U32(r.virtual_mask);
  }
  out.U64(s.preds.size());
  for (const core::UnitRef r : s.preds) out.U64(r);
  out.U64(s.dyn.size());
  for (const core::SliceDyn& d : s.dyn) {
    WriteSid(d.sid, out);
    out.U32(d.result_node);
    out.U32(d.operands_offset);
    out.U8(d.num_operands);
    out.U8(d.selected_operand);
  }
  out.U64(s.operand_nodes.size());
  for (const core::UnitRef r : s.operand_nodes) out.U64(r);
  out.U64(s.operand_values.size());
  for (const std::uint64_t v : s.operand_values) out.U64(v);
  out.U64(s.accesses.size());
  for (const core::SliceAccess& a : s.accesses) {
    out.U32(a.dyn);
    out.U64(a.addr_node);
    out.U64(a.addr);
    out.U32(a.size);
    out.U8(a.is_store);
    WriteInterval(a.seed, out);
  }
  const auto write_roots = [&out](const std::vector<core::RootRef>& roots) {
    out.U64(roots.size());
    for (const core::RootRef& r : roots) {
      out.U32(r.segment);
      out.U64(r.node);
    }
  };
  write_roots(s.output_roots);
  write_roots(s.control_roots);
  out.U64(s.segments.size());
  for (const core::SegmentInfo& seg : s.segments) {
    out.U32(seg.first_dyn);
    out.U32(seg.num_dyn);
    out.U32(seg.first_node);
    out.U32(seg.entry_block);
    out.U32(seg.prev_block);
    out.U32(seg.exit_function);
    out.U32(seg.exit_block);
    out.U32(seg.exit_prev_block);
    out.U8(seg.exits_via_ret);
  }
  out.U64(s.reg_live_ins.size());
  for (const core::RegLiveIn& li : s.reg_live_ins) {
    out.U32(li.segment);
    out.U32(li.reg);
    out.U64(li.value);
    out.U64(li.node);
  }
  out.U64(s.mem_live_ins.size());
  for (const core::ByteLiveIn& li : s.mem_live_ins) {
    out.U32(li.segment);
    out.U64(li.addr);
    out.U8(li.byte);
    out.U64(li.writer);
  }
  out.U64(s.reg_finals.size());
  for (const core::RegFinal& f : s.reg_finals) {
    out.U32(f.segment);
    out.U32(f.reg);
    out.U64(f.value);
  }
  out.U64(s.mem_finals.size());
  for (const core::ByteFinal& f : s.mem_finals) {
    out.U32(f.segment);
    out.U64(f.addr);
    out.U8(f.byte);
  }
  out.U64(s.outputs.size());
  for (const core::OutputEvent& e : s.outputs) {
    out.U32(e.segment);
    out.U64(e.value);
  }
  out.U64(s.exports.size());
  for (const core::ExportEntry& e : s.exports) {
    out.U32(e.local);
    out.U32(e.segment);
    out.U8(e.kind);
    out.U64(e.key_a);
    out.U32(e.key_b);
    out.U32(e.ordinal);
  }
  out.U64(s.export_by_local.size());
  for (const auto& [local, slot] : s.export_by_local) {
    out.U32(local);
    out.U32(slot);
  }
  out.U64(s.intern_refs.size());
  for (const std::uint32_t id : s.intern_refs) out.U32(id);
}

std::optional<core::UnitSlice> ReadSlice(ByteReader& in) {
  core::UnitSlice s;
  s.nodes.resize(in.U64());
  for (core::SliceNode& n : s.nodes) {
    n.kind = static_cast<ddg::NodeKind>(in.U8());
    n.width = in.U8();
    n.dyn = in.U32();
    n.value = in.U64();
  }
  s.pred_ranges.resize(in.U64());
  for (core::SlicePredRange& r : s.pred_ranges) {
    r.offset = in.U32();
    r.count = in.U32();
    r.virtual_mask = in.U32();
  }
  s.preds.resize(in.U64());
  for (core::UnitRef& r : s.preds) r = in.U64();
  s.dyn.resize(in.U64());
  for (core::SliceDyn& d : s.dyn) {
    d.sid = ReadSid(in);
    d.result_node = in.U32();
    d.operands_offset = in.U32();
    d.num_operands = in.U8();
    d.selected_operand = in.U8();
  }
  s.operand_nodes.resize(in.U64());
  for (core::UnitRef& r : s.operand_nodes) r = in.U64();
  s.operand_values.resize(in.U64());
  for (std::uint64_t& v : s.operand_values) v = in.U64();
  s.accesses.resize(in.U64());
  for (core::SliceAccess& a : s.accesses) {
    a.dyn = in.U32();
    a.addr_node = in.U64();
    a.addr = in.U64();
    a.size = in.U32();
    a.is_store = in.U8();
    a.seed = ReadInterval(in);
  }
  const auto read_roots = [&in](std::vector<core::RootRef>& roots) {
    roots.resize(in.U64());
    for (core::RootRef& r : roots) {
      r.segment = in.U32();
      r.node = in.U64();
    }
  };
  read_roots(s.output_roots);
  read_roots(s.control_roots);
  s.segments.resize(in.U64());
  for (core::SegmentInfo& seg : s.segments) {
    seg.first_dyn = in.U32();
    seg.num_dyn = in.U32();
    seg.first_node = in.U32();
    seg.entry_block = in.U32();
    seg.prev_block = in.U32();
    seg.exit_function = in.U32();
    seg.exit_block = in.U32();
    seg.exit_prev_block = in.U32();
    seg.exits_via_ret = in.U8();
  }
  s.reg_live_ins.resize(in.U64());
  for (core::RegLiveIn& li : s.reg_live_ins) {
    li.segment = in.U32();
    li.reg = in.U32();
    li.value = in.U64();
    li.node = in.U64();
  }
  s.mem_live_ins.resize(in.U64());
  for (core::ByteLiveIn& li : s.mem_live_ins) {
    li.segment = in.U32();
    li.addr = in.U64();
    li.byte = in.U8();
    li.writer = in.U64();
  }
  s.reg_finals.resize(in.U64());
  for (core::RegFinal& f : s.reg_finals) {
    f.segment = in.U32();
    f.reg = in.U32();
    f.value = in.U64();
  }
  s.mem_finals.resize(in.U64());
  for (core::ByteFinal& f : s.mem_finals) {
    f.segment = in.U32();
    f.addr = in.U64();
    f.byte = in.U8();
  }
  s.outputs.resize(in.U64());
  for (core::OutputEvent& e : s.outputs) {
    e.segment = in.U32();
    e.value = in.U64();
  }
  s.exports.resize(in.U64());
  for (core::ExportEntry& e : s.exports) {
    e.local = in.U32();
    e.segment = in.U32();
    e.kind = in.U8();
    e.key_a = in.U64();
    e.key_b = in.U32();
    e.ordinal = in.U32();
  }
  s.export_by_local.resize(in.U64());
  for (auto& [local, slot] : s.export_by_local) {
    local = in.U32();
    slot = in.U32();
  }
  s.intern_refs.resize(in.U64());
  for (std::uint32_t& id : s.intern_refs) id = in.U32();
  if (!in.Finished()) return std::nullopt;
  // Cross-array consistency: the structural invariants the replay and
  // backward sweeps rely on.
  if (s.pred_ranges.size() != s.nodes.size()) return std::nullopt;
  for (const core::SlicePredRange& r : s.pred_ranges) {
    if (std::uint64_t{r.offset} + r.count > s.preds.size()) return std::nullopt;
  }
  for (const core::SliceDyn& d : s.dyn) {
    if (std::uint64_t{d.operands_offset} + d.num_operands > s.operand_nodes.size()) {
      return std::nullopt;
    }
  }
  if (s.operand_values.size() != s.operand_nodes.size()) return std::nullopt;
  return s;
}

void WriteBackward(const core::UnitBackward& b, ByteWriter& out) {
  out.U64(b.ace_marks.size());
  for (const std::uint64_t w : b.ace_marks) out.U64(w);
  out.U64(b.crash_masks.size());
  for (const auto& [node, mask] : b.crash_masks) {
    out.U32(node);
    out.U64(mask);
  }
  out.U64(b.ace_spills.size());
  for (const core::UnitRef r : b.ace_spills) out.U64(r);
  out.U64(b.interval_spills.size());
  for (const auto& [ref, iv] : b.interval_spills) {
    out.U64(ref);
    WriteInterval(iv, out);
  }
  out.U64(b.intern_marks.size());
  for (const std::uint32_t id : b.intern_marks) out.U32(id);
}

std::optional<core::UnitBackward> ReadBackward(std::size_t num_nodes, ByteReader& in) {
  core::UnitBackward b;
  b.ace_marks.resize(in.U64());
  for (std::uint64_t& w : b.ace_marks) w = in.U64();
  b.crash_masks.resize(in.U64());
  for (auto& [node, mask] : b.crash_masks) {
    node = in.U32();
    mask = in.U64();
  }
  b.ace_spills.resize(in.U64());
  for (core::UnitRef& r : b.ace_spills) r = in.U64();
  b.interval_spills.resize(in.U64());
  for (auto& [ref, iv] : b.interval_spills) {
    ref = in.U64();
    iv = ReadInterval(in);
  }
  b.intern_marks.resize(in.U64());
  for (std::uint32_t& id : b.intern_marks) id = in.U32();
  if (!in.Finished()) return std::nullopt;
  if (b.ace_marks.size() != (num_nodes + 63) / 64) return std::nullopt;
  for (const auto& [node, mask] : b.crash_masks) {
    if (node >= num_nodes) return std::nullopt;
  }
  return b;
}

void WriteSums(const core::UnitSums& s, ByteWriter& out) {
  out.U64(s.node_count);
  out.U64(s.total_bits);
  out.U64(s.ace_bits);
  out.U64(s.crash_bits);
  out.U64(s.ace_nodes);
  out.U64(s.mem_total);
  out.U64(s.mem_ace);
  out.U64(s.mem_crash);
  for (int c = 0; c < core::kNumRegisterClasses; ++c) out.U64(s.cls_total[c]);
  for (int c = 0; c < core::kNumRegisterClasses; ++c) out.U64(s.cls_ace[c]);
  for (int c = 0; c < core::kNumRegisterClasses; ++c) out.U64(s.cls_crash[c]);
  out.U64(s.per_instruction.size());
  for (const core::InstrMetrics& m : s.per_instruction) {
    WriteSid(m.sid, out);
    out.U64(m.exec_count);
    out.U64(m.ace_bits);
    out.U64(m.crash_bits);
    out.U64(m.total_bits);
  }
}

std::optional<core::UnitSums> ReadSums(ByteReader& in) {
  core::UnitSums s;
  s.node_count = in.U64();
  s.total_bits = in.U64();
  s.ace_bits = in.U64();
  s.crash_bits = in.U64();
  s.ace_nodes = in.U64();
  s.mem_total = in.U64();
  s.mem_ace = in.U64();
  s.mem_crash = in.U64();
  for (int c = 0; c < core::kNumRegisterClasses; ++c) s.cls_total[c] = in.U64();
  for (int c = 0; c < core::kNumRegisterClasses; ++c) s.cls_ace[c] = in.U64();
  for (int c = 0; c < core::kNumRegisterClasses; ++c) s.cls_crash[c] = in.U64();
  s.per_instruction.resize(in.U64());
  for (core::InstrMetrics& m : s.per_instruction) {
    m.sid = ReadSid(in);
    m.exec_count = in.U64();
    m.ace_bits = in.U64();
    m.crash_bits = in.U64();
    m.total_bits = in.U64();
  }
  if (!in.Finished()) return std::nullopt;
  return s;
}

}  // namespace

// --- keys --------------------------------------------------------------------

std::string CanonicalKey(const UnitKey& key) {
  return SharedPrefix(key.analysis) + "|unit=" + key.unit_name +
         "|fp=" + Hex16(key.ir_fingerprint) + "|in=" + Hex16(key.input_digest);
}

std::string CanonicalKey(const ManifestKey& key) {
  return SharedPrefix(key.analysis) + "|units-manifest";
}

std::string CacheId(const UnitKey& key) { return Hex16(Fnv1a64(CanonicalKey(key))); }
std::string CacheId(const ManifestKey& key) { return Hex16(Fnv1a64(CanonicalKey(key))); }

// --- whole artifacts ---------------------------------------------------------

void WriteUnitArtifact(const core::UnitSlice& slice, const core::UnitBackward& back,
                       const core::UnitSums& sums, ArtifactWriter& writer) {
  WriteSlice(slice, writer.Section(SectionId::kUnitSlice));
  WriteBackward(back, writer.Section(SectionId::kUnitBackward));
  WriteSums(sums, writer.Section(SectionId::kUnitSums));
}

std::optional<UnitArtifact> ReadUnitArtifact(const ArtifactReader& reader) {
  auto slice_in = reader.Section(SectionId::kUnitSlice);
  auto back_in = reader.Section(SectionId::kUnitBackward);
  auto sums_in = reader.Section(SectionId::kUnitSums);
  if (!slice_in || !back_in || !sums_in) return std::nullopt;
  UnitArtifact unit;
  auto slice = ReadSlice(*slice_in);
  if (!slice) return std::nullopt;
  unit.slice = std::move(*slice);
  auto back = ReadBackward(unit.slice.nodes.size(), *back_in);
  if (!back) return std::nullopt;
  unit.back = std::move(*back);
  auto sums = ReadSums(*sums_in);
  if (!sums) return std::nullopt;
  unit.sums = std::move(*sums);
  return unit;
}

void WriteUnitsManifest(const UnitsManifest& manifest, ArtifactWriter& writer) {
  ByteWriter& out = writer.Section(SectionId::kUnitManifest);
  out.Str(manifest.module_text);
  out.U64(manifest.module_fingerprint);
  out.U64(manifest.interns.size());
  for (const core::InternEntry& e : manifest.interns) {
    out.U8(e.is_global);
    out.U32(e.ir_index);
    out.U32(e.type_key);
    out.U8(e.width);
    out.U64(e.value);
  }
  out.U64(manifest.segment_order.size());
  for (const core::SegmentRef& r : manifest.segment_order) {
    out.U32(r.unit);
    out.U32(r.seg);
  }
  out.U64(manifest.instructions_executed);
  out.U64(manifest.units.size());
  for (const ManifestUnitRow& row : manifest.units) {
    out.Str(row.name);
    out.U64(row.ir_fingerprint);
    out.U64(row.input_digest);
    out.U64(row.walk.uw.total);
    out.U64(row.walk.uw.ace);
    out.U64(row.walk.uw.crash);
    out.U64(row.walk.data_deps);
    out.U64(row.walk.oracle_deps);
  }
}

std::optional<UnitsManifest> ReadUnitsManifest(const ArtifactReader& reader) {
  auto section = reader.Section(SectionId::kUnitManifest);
  if (!section) return std::nullopt;
  ByteReader& in = *section;
  UnitsManifest m;
  m.module_text = in.Str();
  m.module_fingerprint = in.U64();
  m.interns.resize(in.U64());
  for (core::InternEntry& e : m.interns) {
    e.is_global = in.U8();
    e.ir_index = in.U32();
    e.type_key = in.U32();
    e.width = in.U8();
    e.value = in.U64();
  }
  m.segment_order.resize(in.U64());
  for (core::SegmentRef& r : m.segment_order) {
    r.unit = in.U32();
    r.seg = in.U32();
  }
  m.instructions_executed = in.U64();
  m.units.resize(in.U64());
  for (ManifestUnitRow& row : m.units) {
    row.name = in.Str();
    row.ir_fingerprint = in.U64();
    row.input_digest = in.U64();
    row.walk.uw.total = in.U64();
    row.walk.uw.ace = in.U64();
    row.walk.uw.crash = in.U64();
    row.walk.data_deps = in.U64();
    row.walk.oracle_deps = in.U64();
  }
  if (!in.Finished()) return std::nullopt;
  for (const core::SegmentRef& r : m.segment_order) {
    if (r.unit >= m.units.size()) return std::nullopt;
  }
  return m;
}

// --- the incremental pipeline ------------------------------------------------

void PersistCompositionalState(const core::ProgramSlices& p, const ir::Module& module,
                               const AnalysisKey& key, ArtifactCache& cache) {
  if (!cache.enabled()) return;
  const obs::TraceSpan span("store", "persist-units");
  UnitsManifest manifest;
  manifest.module_text = ir::PrintModule(module);
  manifest.module_fingerprint = Fnv1a64(manifest.module_text);
  manifest.interns = p.interns;
  manifest.segment_order = p.segment_order;
  manifest.instructions_executed = p.instructions_executed;
  for (std::uint32_t u = 0; u < p.units.size(); ++u) {
    const core::UnitInfo& info = p.partition.units[u];
    ManifestUnitRow row;
    row.name = info.name;
    row.ir_fingerprint = info.ir_fingerprint;
    row.input_digest = p.units[u].slice.input_digest;
    row.walk = p.units[u].walk;
    manifest.units.push_back(std::move(row));

    UnitKey unit_key{key, info.name, info.ir_fingerprint, p.units[u].slice.input_digest};
    const std::string id = CacheId(unit_key);
    // Content-addressed: an existing entry already holds these bytes.
    std::error_code ec;
    if (std::filesystem::exists(cache.EntryPath(id, ArtifactKind::kUnit), ec)) continue;
    ArtifactWriter writer(ArtifactKind::kUnit);
    WriteUnitArtifact(p.units[u].slice, p.units[u].back, p.units[u].sums, writer);
    cache.Store(id, writer);
  }
  ArtifactWriter writer(ArtifactKind::kUnitManifest);
  WriteUnitsManifest(manifest, writer);
  cache.Store(CacheId(ManifestKey{key}), writer);
}

namespace {

/// Reassembles the resident ProgramSlices of `manifest` from per-unit cache
/// entries. `old_module` must be the parsed manifest module and outlive the
/// result. Counts a hit per unit whose entry decoded; any miss aborts.
std::optional<core::ProgramSlices> AssembleState(const UnitsManifest& manifest,
                                                 const ir::Module& old_module,
                                                 const AnalysisKey& key,
                                                 ArtifactCache& cache) {
  core::UnitPartition partition = core::PartitionModule(old_module);
  if (partition.units.size() != manifest.units.size()) return std::nullopt;
  for (std::uint32_t u = 0; u < partition.units.size(); ++u) {
    if (partition.units[u].name != manifest.units[u].name ||
        partition.units[u].ir_fingerprint != manifest.units[u].ir_fingerprint) {
      return std::nullopt;
    }
  }
  core::ProgramSlices p;
  p.module = &old_module;
  p.interns = manifest.interns;
  p.segment_order = manifest.segment_order;
  p.instructions_executed = manifest.instructions_executed;
  p.globals_digest = core::GlobalsDigest(old_module);
  for (const ir::Function& fn : old_module.functions) {
    p.function_shape.push_back(core::FunctionShapeDigest(fn));
  }
  p.units.resize(partition.units.size());
  for (std::uint32_t u = 0; u < partition.units.size(); ++u) {
    const core::UnitInfo& info = partition.units[u];
    p.unit_static_digest.push_back(core::UnitStaticDigest(old_module, info));
    UnitKey unit_key{key, info.name, info.ir_fingerprint, manifest.units[u].input_digest};
    auto reader = cache.Load(CacheId(unit_key), ArtifactKind::kUnit);
    if (!reader) return std::nullopt;
    auto unit = ReadUnitArtifact(*reader);
    if (!unit) {
      LogWarn("cache: unit entry for " + info.name + " undecodable — cold rebuild");
      cache.DemoteLastHit();
      return std::nullopt;
    }
    p.units[u].slice = std::move(unit->slice);
    p.units[u].back = std::move(unit->back);
    p.units[u].sums = std::move(unit->sums);
    p.units[u].walk = manifest.units[u].walk;
  }
  // A digest is recomputed from the loaded state rather than read from disk:
  // a payload's intern ids mean something only against the table it was
  // written with, and its backward results only under the spills the other
  // units push into it. A unit whose inputs here differ from the ones its
  // key recorded is a miss, never a wrong answer.
  for (std::uint32_t u = 0; u < p.units.size(); ++u) {
    p.units[u].slice.input_digest = core::UnitInputDigest(p, u);
    if (p.units[u].slice.input_digest != manifest.units[u].input_digest) {
      LogWarn("cache: unit entry for " + partition.units[u].name +
              " does not match the manifest — cold rebuild");
      cache.DemoteLastHit();
      return std::nullopt;
    }
  }
  p.partition = std::move(partition);
  return p;
}

core::ProgramSlices ColdCompositionalState(const ir::Module& module,
                                           const core::AnalysisOptions& options) {
  const core::Analysis analysis = core::Analysis::Run(module, options);
  core::ProgramSlices p =
      core::BuildProgramSlices(analysis, core::PartitionModule(module));
  std::vector<std::uint32_t> all(p.units.size());
  for (std::uint32_t u = 0; u < all.size(); ++u) all[u] = u;
  core::RunUnitWalks(p, module, all, options.jobs);
  return p;
}

}  // namespace

IncrementalResult RunAnalysisIncremental(const ir::Module& module,
                                         const core::AnalysisOptions& options,
                                         const AnalysisKey& key, ArtifactCache& cache) {
  const obs::TraceSpan span("store", "analyze-incremental");
  IncrementalResult result;
  IncrementalStats& stats = result.stats;

  // The manifest-parsed module backs the resident state until the fast path
  // swaps in the caller's module; it must stay alive through the attempt.
  std::optional<ir::Module> old_module;
  if (cache.enabled()) {
    if (auto reader = cache.Load(CacheId(ManifestKey{key}), ArtifactKind::kUnitManifest)) {
      auto manifest = ReadUnitsManifest(*reader);
      if (!manifest.has_value()) {
        LogWarn("cache: units manifest undecodable — cold rebuild");
        cache.DemoteLastHit();
      } else {
        stats.manifest_hit = true;
        auto parsed = ir::ParseModule(manifest->module_text);
        if (auto* mod = std::get_if<ir::Module>(&parsed)) {
          old_module.emplace(std::move(*mod));
          auto p = AssembleState(*manifest, *old_module, key, cache);
          if (p.has_value()) {
            stats.outcome = core::ReanalyzeIncremental(*p, module, options.jobs);
            stats.units_total = stats.outcome.units_total;
            if (stats.outcome.used_fast_path) {
              stats.unit_hits =
                  static_cast<std::uint32_t>(p->units.size()) - stats.outcome.units_replayed;
              stats.unit_misses = stats.outcome.units_replayed;
              PersistCompositionalState(*p, module, key, cache);
              result.slices = std::move(*p);
              return result;
            }
            // Fallback: *p is stale now — discard and rebuild below.
          }
        } else {
          LogWarn("cache: units manifest module text unparsable — cold rebuild");
          cache.DemoteLastHit();
        }
      }
    }
  }

  stats.cold_rebuild = true;
  result.slices = ColdCompositionalState(module, options);
  stats.units_total = static_cast<std::uint32_t>(result.slices.units.size());
  stats.unit_hits = 0;
  stats.unit_misses = stats.units_total;
  PersistCompositionalState(result.slices, module, key, cache);
  return result;
}

}  // namespace epvf::store
