// Per-unit artifact store: the disk-backed side of incremental re-analysis.
//
// The whole-program analysis is never stored (cache.h): recomputing it is
// cheaper than loading it. What this layer keeps is the compositional state
// per *unit*, so an edit re-derives one unit instead of the program:
//
//   * kUnit artifacts hold one unit's slice, content-addressed by (analysis
//     identity, unit name, the unit's IR fingerprint, its input digest —
//     core::UnitInputDigest over the boundary summaries, the export table and
//     the intern entries the slice references). A unit's slice is a pure
//     function of exactly those inputs, so an edit to one kernel moves its
//     own unit's address, and other units' only where the edit reached their
//     inputs. A loaded entry's digest is recomputed from the loaded state,
//     never read from disk.
//   * The kUnitManifest artifact is the app's latest-state pointer (keyed by
//     analysis identity alone): the analyzed module's canonical text, the
//     program-level tables (interns, segment order), the unit key table, and
//     the program's report statistics. The statistics depend on every unit,
//     so they live here — the manifest is rewritten every run — never inside
//     a content-addressed unit entry they could silently invalidate.
//
// Loading checks a unit entry's arrays against each other (ReadUnitArtifact)
// and every cross-unit reference against the exporter's export table and the
// intern table before anything stitches, replays or walks the state.
//
// RunAnalysisIncremental ties it together: load the manifest, reassemble the
// resident ProgramSlices from unit artifacts (unchanged units are cache
// hits), hand the edited module to core::ReanalyzeIncremental, and persist
// the delta (one new unit entry + a fresh manifest). Any miss, decode
// failure, failed check, digest mismatch, or replay fallback degrades to the
// monolithic pipeline plus a full rewrite — never a wrong result.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "epvf/compose.h"
#include "epvf/reexec.h"
#include "store/cache.h"

namespace epvf::store {

/// Identity of one unit's artifact. `analysis.module_fingerprint` is
/// deliberately excluded from the canonical key — sharing entries across
/// module versions is the whole point; the unit's own fingerprint + boundary
/// digest carry the content identity.
struct UnitKey {
  AnalysisKey analysis;
  std::string unit_name;
  std::uint64_t ir_fingerprint = 0;
  std::uint64_t input_digest = 0;
};

/// The app's manifest identity: analysis identity minus the module
/// fingerprint (the manifest *is* the pointer to the latest module).
struct ManifestKey {
  AnalysisKey analysis;
};

[[nodiscard]] std::string CanonicalKey(const UnitKey& key);
[[nodiscard]] std::string CanonicalKey(const ManifestKey& key);
[[nodiscard]] std::string CacheId(const UnitKey& key);
[[nodiscard]] std::string CacheId(const ManifestKey& key);

// --- artifact payloads -------------------------------------------------------

void WriteUnitArtifact(const core::UnitSlice& slice, ArtifactWriter& writer);
/// std::nullopt when the entry does not decode or its arrays disagree: a
/// segment table that does not tile its dyns, a node, dyn or access index out
/// of range, a node that is not the result of the one dyn it names, or a
/// live-in, final, output or export entry naming a segment or node the unit
/// does not have.
[[nodiscard]] std::optional<core::UnitSlice> ReadUnitArtifact(const ArtifactReader& reader);

struct ManifestUnitRow {
  std::string name;
  std::uint64_t ir_fingerprint = 0;
  std::uint64_t input_digest = 0;
};

struct UnitsManifest {
  std::string module_text;  ///< canonical printing of the analyzed module
  std::uint64_t module_fingerprint = 0;
  std::vector<core::InternEntry> interns;
  std::vector<core::SegmentRef> segment_order;
  std::vector<ManifestUnitRow> units;
  core::ReportStats stats;
};

void WriteUnitsManifest(const UnitsManifest& manifest, ArtifactWriter& writer);
[[nodiscard]] std::optional<UnitsManifest> ReadUnitsManifest(const ArtifactReader& reader);

// --- the incremental pipeline ------------------------------------------------

struct IncrementalStats {
  bool manifest_hit = false;
  /// Units served from content-addressed entries (their key was unchanged).
  std::uint32_t unit_hits = 0;
  /// Units whose key moved (recomputed by replay on the fast path, or by the
  /// monolithic pipeline on a cold rebuild).
  std::uint32_t unit_misses = 0;
  std::uint32_t units_total = 0;
  core::IncrementalOutcome outcome;  ///< fast-path verdict + recompose count
  bool cold_rebuild = false;         ///< the whole-program pipeline ran
};

struct IncrementalResult {
  core::ProgramSlices slices;  ///< composition-ready; describes `module`
  IncrementalStats stats;
};

/// Publishes `p` (which must describe `module`) as `key`'s latest
/// compositional state: one content-addressed kUnit entry per unit not
/// already on disk, plus a rewritten kUnitManifest. No-op when the cache is
/// disabled. RunAnalysisIncremental calls this itself; callers that keep the
/// resident state warm across edits (the serve daemon) call it after an
/// in-memory fast-path replay so the disk state tracks the resident state.
void PersistCompositionalState(const core::ProgramSlices& p, const ir::Module& module,
                               const AnalysisKey& key, ArtifactCache& cache);

/// Analyze `module` incrementally against the cached compositional state of
/// `key` (manifest + per-unit artifacts), falling back to the monolithic
/// pipeline when there is no usable state or the edit is not containable.
/// Either way the returned slices recompose to numbers bit-identical to a
/// fresh Analysis::Run, the cache holds the new state afterwards, and
/// `module` must outlive the returned slices.
[[nodiscard]] IncrementalResult RunAnalysisIncremental(const ir::Module& module,
                                                       const core::AnalysisOptions& options,
                                                       const AnalysisKey& key,
                                                       ArtifactCache& cache);

}  // namespace epvf::store
