// On-disk artifact format constants (see docs/STORE_FORMAT.md).
//
// Every artifact file is:
//
//   header   : u32 magic "EPVF" | u32 format version | u32 artifact kind
//              | u32 section count
//   table    : per section — u32 section id | u32 CRC32 of the payload
//              | u64 payload offset (from file start) | u64 payload size
//   payloads : the section byte streams, in table order
//
// All integers are little-endian. The header and table are validated before
// any payload is touched; each section carries its own CRC32 so a bit flip
// anywhere in the payload region is detected before deserialization. Bumping
// kFormatVersion invalidates every existing artifact (the version is both
// checked on load and mixed into the content-address hash).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace epvf::store {

/// "EPVF" in little-endian byte order.
inline constexpr std::uint32_t kMagic = 0x46565045u;

/// Bump on ANY change to the serialized layout of any artifact.
/// v2: per-unit compositional artifacts (kUnitManifest / kUnit).
/// v3: campaign/plan artifacts carry the fault scenario (register/memory).
/// v4: plan artifacts carry the plan kind; a uniform campaign persists as a
///     one-round plan, and campaign artifacts are shard slices only.
/// v5: the whole-analysis artifact (kind 1, sections 1-5) is retired —
///     recomputing beats loading it — and unit slices no longer carry their
///     input digest (the loader recomputes it, interns included, against
///     the manifest).
/// v6: unit payloads drop the fields nothing read — the slice's dropped
///     load-pred count and per-segment node counts, the backward results'
///     seeded-access count, and the sums' dyn, ACE-register-node and
///     constrained-node counts.
/// v7: the compositional layer rebuilds its walk index instead of patching
///     it — unit slices drop the export-by-local table, unit sums the
///     per-instruction rows, and manifest rows the walk dependency masks.
/// v8: the compositional layer stitches the slices into one DDG and runs the
///     monolithic stages on it — a unit entry is its slice alone (no root
///     lists; the backward and sums sections are retired), and the manifest
///     carries the program's report statistics instead of per-unit walk sums.
inline constexpr std::uint32_t kFormatVersion = 8;

/// Kind 1 was the whole-analysis artifact; it is retired and never reused.
enum class ArtifactKind : std::uint32_t {
  kCampaign = 2,      ///< one shard's slice of a round: records + completion mask
  kPlan = 3,          ///< campaign plan kind + identity + record log (epvf-plan-v1)
  kUnitManifest = 4,  ///< per-app latest compositional state (module text + unit key table)
  kUnit = 5,          ///< one unit's slice
};

/// The live kinds in value order; KindIndex is a kind's position here (the
/// index of its slot in per-kind arrays).
inline constexpr std::array<ArtifactKind, 4> kArtifactKinds = {
    ArtifactKind::kCampaign, ArtifactKind::kPlan, ArtifactKind::kUnitManifest,
    ArtifactKind::kUnit};
inline constexpr std::size_t kNumArtifactKinds = kArtifactKinds.size();

[[nodiscard]] constexpr std::size_t KindIndex(ArtifactKind kind) {
  return static_cast<std::size_t>(kind) - static_cast<std::size_t>(ArtifactKind::kCampaign);
}

/// Ids 1-5 belonged to the retired analysis artifact, and ids 10-11 to the
/// retired per-unit backward results and sums (kUnitBackward, kUnitSums,
/// v2-v7); none is ever reused.
enum class SectionId : std::uint32_t {
  kCampaign = 6,      ///< slice meta + records + completion mask
  kPlan = 7,          ///< plan kind + identity + round sizes + records + completion mask
  kUnitManifest = 8,  ///< module text, interns, segment order, unit key table + stats
  kUnitSlice = 9,     ///< core::UnitSlice flat storage
};

inline constexpr std::size_t kHeaderBytes = 16;
inline constexpr std::size_t kSectionEntryBytes = 24;

/// Standard CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the same
/// checksum zlib/PNG use.
[[nodiscard]] std::uint32_t Crc32(const void* data, std::size_t size);

}  // namespace epvf::store
