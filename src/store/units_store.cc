#include "store/units_store.h"

#include <algorithm>
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
  s.intern_refs.resize(in.U64());
  for (std::uint32_t& id : s.intern_refs) id = in.U32();
  if (!in.Finished()) return std::nullopt;
  // Cross-array consistency: the structural invariants the replay and the
  // stitch rely on. A DDG node has at most 8 preds and a dyn 8 operands.
  if (s.pred_ranges.size() != s.nodes.size()) return std::nullopt;
  for (const core::SlicePredRange& r : s.pred_ranges) {
    if (r.count > 8 || std::uint64_t{r.offset} + r.count > s.preds.size()) return std::nullopt;
  }
  // Each node is the result of exactly one dyn, the one it names.
  std::size_t results = 0;
  for (std::uint32_t i = 0; i < s.dyn.size(); ++i) {
    const core::SliceDyn& d = s.dyn[i];
    if (d.num_operands > 8 ||
        std::uint64_t{d.operands_offset} + d.num_operands > s.operand_nodes.size() ||
        (d.selected_operand != 0xFF && d.selected_operand >= d.num_operands)) {
      return std::nullopt;
    }
    if (d.result_node == core::kNoLocalNode) continue;
    if (d.result_node >= s.nodes.size() || s.nodes[d.result_node].dyn != i) return std::nullopt;
    ++results;
  }
  if (results != s.nodes.size()) return std::nullopt;
  if (s.operand_values.size() != s.operand_nodes.size()) return std::nullopt;
  // At most one access per dyn, ascending.
  for (std::size_t i = 0; i < s.accesses.size(); ++i) {
    const std::uint32_t dyn = s.accesses[i].dyn;
    if (dyn >= s.dyn.size() || (i > 0 && dyn <= s.accesses[i - 1].dyn)) return std::nullopt;
  }
  // The segments tile the dyns in order; their first nodes ascend inside the
  // node table.
  std::uint64_t next_dyn = 0;
  std::uint32_t first_node = 0;
  for (const core::SegmentInfo& seg : s.segments) {
    if (seg.first_dyn != next_dyn || seg.first_node < first_node ||
        seg.first_node > s.nodes.size()) {
      return std::nullopt;
    }
    next_dyn += seg.num_dyn;
    first_node = seg.first_node;
  }
  if (next_dyn != s.dyn.size()) return std::nullopt;
  const auto in_segments = [&s](const auto& entries) {
    return std::all_of(entries.begin(), entries.end(),
                       [&s](const auto& e) { return e.segment < s.segments.size(); });
  };
  if (!in_segments(s.reg_live_ins) || !in_segments(s.mem_live_ins) ||
      !in_segments(s.reg_finals) || !in_segments(s.mem_finals) || !in_segments(s.outputs) ||
      !in_segments(s.exports)) {
    return std::nullopt;
  }
  for (const core::ExportEntry& e : s.exports) {
    if (e.local >= s.nodes.size()) return std::nullopt;
  }
  return s;
}

void WriteStats(const core::ReportStats& r, ByteWriter& out) {
  out.U64(r.dyn_instructions);
  out.U64(r.num_nodes);
  out.U64(r.ace_node_count);
  out.U64(r.ace_bits);
  out.U64(r.total_bits);
  out.U64(r.crash_bits);
  out.U64(r.use_weighted.total);
  out.U64(r.use_weighted.ace);
  out.U64(r.use_weighted.crash);
  out.U64(r.mem_total);
  out.U64(r.mem_ace);
  out.U64(r.mem_crash);
  for (const core::StructureVulnerability& c : r.structure) {
    out.U64(c.total_bits);
    out.U64(c.ace_bits);
    out.U64(c.crash_bits);
  }
}

core::ReportStats ReadStats(ByteReader& in) {
  core::ReportStats r;
  r.dyn_instructions = in.U64();
  r.num_nodes = in.U64();
  r.ace_node_count = in.U64();
  r.ace_bits = in.U64();
  r.total_bits = in.U64();
  r.crash_bits = in.U64();
  r.use_weighted.total = in.U64();
  r.use_weighted.ace = in.U64();
  r.use_weighted.crash = in.U64();
  r.mem_total = in.U64();
  r.mem_ace = in.U64();
  r.mem_crash = in.U64();
  for (std::size_t c = 0; c < r.structure.size(); ++c) {
    r.structure[c].cls = static_cast<core::RegisterClass>(c);
    r.structure[c].total_bits = in.U64();
    r.structure[c].ace_bits = in.U64();
    r.structure[c].crash_bits = in.U64();
  }
  return r;
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

void WriteUnitArtifact(const core::UnitSlice& slice, ArtifactWriter& writer) {
  WriteSlice(slice, writer.Section(SectionId::kUnitSlice));
}

std::optional<core::UnitSlice> ReadUnitArtifact(const ArtifactReader& reader) {
  auto in = reader.Section(SectionId::kUnitSlice);
  if (!in) return std::nullopt;
  return ReadSlice(*in);
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
  out.U64(manifest.units.size());
  for (const ManifestUnitRow& row : manifest.units) {
    out.Str(row.name);
    out.U64(row.ir_fingerprint);
    out.U64(row.input_digest);
  }
  WriteStats(manifest.stats, out);
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
  m.units.resize(in.U64());
  for (ManifestUnitRow& row : m.units) {
    row.name = in.Str();
    row.ir_fingerprint = in.U64();
    row.input_digest = in.U64();
  }
  m.stats = ReadStats(in);
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
  manifest.stats = p.stats;
  for (std::uint32_t u = 0; u < p.units.size(); ++u) {
    const core::UnitInfo& info = p.partition.units[u];
    manifest.units.push_back(
        ManifestUnitRow{info.name, info.ir_fingerprint, p.units[u].input_digest});

    UnitKey unit_key{key, info.name, info.ir_fingerprint, p.units[u].input_digest};
    const std::string id = CacheId(unit_key);
    // Content-addressed: an existing entry already holds these bytes.
    std::error_code ec;
    if (std::filesystem::exists(cache.EntryPath(id, ArtifactKind::kUnit), ec)) continue;
    ArtifactWriter writer(ArtifactKind::kUnit);
    WriteUnitArtifact(p.units[u], writer);
    cache.Store(id, writer);
  }
  ArtifactWriter writer(ArtifactKind::kUnitManifest);
  WriteUnitsManifest(manifest, writer);
  cache.Store(CacheId(ManifestKey{key}), writer);
}

namespace {

/// Whether the assembled units agree with each other and with the manifest:
/// the segment order lists every unit's segments once, in order; every
/// reference names an intern the unit lists, its own node, or a slot of its
/// exporter's export table; and every dyn's static id names an instruction of
/// `module` with that many operands. ReadUnitArtifact checked each unit alone.
bool StateIsConsistent(const core::ProgramSlices& p, const ir::Module& module) {
  std::vector<std::size_t> next_seg(p.units.size(), 0);
  for (const core::SegmentRef& sr : p.segment_order) {
    if (sr.seg != next_seg[sr.unit]++) return false;
  }
  for (std::uint32_t u = 0; u < p.units.size(); ++u) {
    const core::UnitSlice& s = p.units[u];
    if (next_seg[u] != s.segments.size()) return false;
    for (const std::uint32_t id : s.intern_refs) {
      if (id >= p.interns.size()) return false;
    }
    const auto resolves = [&](core::UnitRef ref) {
      if (ref == core::kNullRef) return true;
      const std::uint32_t owner = core::RefUnit(ref);
      const std::uint32_t index = core::RefIndex(ref);
      if (owner == core::kInternUnit) {
        return std::binary_search(s.intern_refs.begin(), s.intern_refs.end(), index);
      }
      if (owner == u) return index < s.nodes.size();
      return owner < p.units.size() && index < p.units[owner].exports.size();
    };
    if (!std::all_of(s.preds.begin(), s.preds.end(), resolves) ||
        !std::all_of(s.operand_nodes.begin(), s.operand_nodes.end(), resolves)) {
      return false;
    }
    for (const core::RegLiveIn& li : s.reg_live_ins) {
      if (!resolves(li.node)) return false;
    }
    for (const core::ByteLiveIn& li : s.mem_live_ins) {
      if (!resolves(li.writer)) return false;
    }
    for (const core::SliceAccess& a : s.accesses) {
      if (!resolves(a.addr_node)) return false;
    }
    for (const core::SliceDyn& d : s.dyn) {
      const ir::StaticInstrId sid = d.sid;
      if (sid.function >= module.functions.size() ||
          sid.block >= module.functions[sid.function].blocks.size()) {
        return false;
      }
      const auto& instructions = module.functions[sid.function].blocks[sid.block].instructions;
      if (sid.instr >= instructions.size() ||
          instructions[sid.instr].operands.size() != d.num_operands) {
        return false;
      }
    }
  }
  return true;
}

/// Reassembles the resident ProgramSlices of `manifest` from per-unit cache
/// entries. `old_module` must be the parsed manifest module and outlive the
/// result. Counts a hit per unit whose entry decoded; any miss aborts.
std::optional<core::ProgramSlices> AssembleState(const UnitsManifest& manifest,
                                                 const ir::Module& old_module,
                                                 const AnalysisKey& key,
                                                 ArtifactCache& cache) {
  const obs::TraceSpan span("store", "assemble-units");
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
  p.stats = manifest.stats;
  p.globals_digest = core::GlobalsDigest(old_module);
  for (const ir::Function& fn : old_module.functions) {
    p.function_shape.push_back(core::FunctionShapeDigest(fn));
  }
  p.units.resize(partition.units.size());
  for (std::uint32_t u = 0; u < partition.units.size(); ++u) {
    const core::UnitInfo& info = partition.units[u];
    UnitKey unit_key{key, info.name, info.ir_fingerprint, manifest.units[u].input_digest};
    auto reader = cache.Load(CacheId(unit_key), ArtifactKind::kUnit);
    if (!reader) return std::nullopt;
    auto slice = ReadUnitArtifact(*reader);
    if (!slice) {
      LogWarn("cache: unit entry for " + info.name + " undecodable — cold rebuild");
      cache.DemoteLastHit();
      return std::nullopt;
    }
    p.units[u] = std::move(*slice);
  }
  if (!StateIsConsistent(p, old_module)) {
    LogWarn("cache: stored units disagree with each other or the manifest — cold rebuild");
    cache.DemoteLastHit();
    return std::nullopt;
  }
  // A digest is recomputed from the loaded state rather than read from disk:
  // a payload's intern ids mean something only against the table it was
  // written with. A unit whose inputs here differ from the ones its key
  // recorded is a miss, never a wrong answer.
  for (std::uint32_t u = 0; u < p.units.size(); ++u) {
    p.units[u].input_digest = core::UnitInputDigest(p, u);
    if (p.units[u].input_digest != manifest.units[u].input_digest) {
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
  return core::BuildProgramSlices(analysis, core::PartitionModule(module));
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
