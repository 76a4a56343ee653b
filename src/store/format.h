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
inline constexpr std::uint32_t kFormatVersion = 4;

enum class ArtifactKind : std::uint32_t {
  kAnalysis = 1,      ///< golden trace metadata + DDG + ACE + crash bits (+ use-weighted sums)
  kCampaign = 2,      ///< one shard's slice of a round: records + completion mask
  kPlan = 3,          ///< campaign plan kind + identity + record log (epvf-plan-v1)
  kUnitManifest = 4,  ///< per-app latest compositional state (module text + unit key table)
  kUnit = 5,          ///< one unit's slice + backward results + sums
};

inline constexpr std::uint32_t kNumArtifactKinds = 5;

enum class SectionId : std::uint32_t {
  kGoldenRun = 1,     ///< vm::RunResult of the golden run (trace metadata)
  kGraph = 2,         ///< ddg::Graph flat storage
  kAce = 3,           ///< ddg::AceResult
  kCrashBits = 4,     ///< crash::CrashBits (allowed intervals + masks)
  kUseWeighted = 5,   ///< Analysis::UseWeightedBits (the rate-estimate pass)
  kCampaign = 6,      ///< slice meta + records + completion mask
  kPlan = 7,          ///< plan kind + identity + round sizes + records + completion mask
  kUnitManifest = 8,  ///< module text, interns, segment order, unit key table + walks
  kUnitSlice = 9,     ///< core::UnitSlice flat storage
  kUnitBackward = 10, ///< core::UnitBackward (marks, masks, spill sets)
  kUnitSums = 11,     ///< core::UnitSums (per-unit accounting)
};

inline constexpr std::size_t kHeaderBytes = 16;
inline constexpr std::size_t kSectionEntryBytes = 24;

/// Standard CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the same
/// checksum zlib/PNG use.
[[nodiscard]] std::uint32_t Crc32(const void* data, std::size_t size);

}  // namespace epvf::store
