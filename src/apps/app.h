// The benchmark suite (paper Table IV).
//
// Ten HPC kernels authored in our IR via the builder, reproducing the memory
// and compute access patterns of the Rodinia applications + LULESH the paper
// evaluates (the documented substitution for compiling the C sources with
// LLVM): dense linear algebra (mm, lud), grid DP (pathfinder, nw), stencils
// (hotspot, srad), graph traversal (bfs), clustering (kmeans), n-body within
// boxes (lavaMD), sequential Monte-Carlo (particlefilter) and a mini
// hydrodynamics proxy (lulesh). Sizes scale with AppConfig::scale so tests
// run in milliseconds and benches in seconds.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ir/module.h"

namespace epvf::apps {

struct AppConfig {
  /// Generic size knob; each kernel maps it onto its own dimensions.
  int scale = 1;
  /// Seed for the deterministic pseudo-random input data.
  std::uint64_t seed = 0xC0FFEE;
};

struct App {
  std::string name;
  std::string domain;     ///< Table IV "Domain" column
  int paper_loc = 0;      ///< Table IV "LOC" of the original C source
  ir::Module module;
};

/// All registered benchmark names, in Table IV order.
[[nodiscard]] std::vector<std::string> AppNames();

/// Builds (and verifies) the named benchmark. Throws on unknown names.
[[nodiscard]] App BuildApp(std::string_view name, const AppConfig& config = {});

/// Loads an analysis target: a textual-IR file when `target` looks like a
/// path (contains '.' or '/'), else the named benchmark at `scale`. Throws on
/// an unknown benchmark, an unreadable file or IR that does not parse.
[[nodiscard]] ir::Module LoadTarget(const std::string& target, int scale);

// Individual builders (one translation unit per kernel).
[[nodiscard]] App BuildLulesh(const AppConfig& config);
[[nodiscard]] App BuildParticleFilter(const AppConfig& config);
[[nodiscard]] App BuildSrad(const AppConfig& config);
[[nodiscard]] App BuildNw(const AppConfig& config);
[[nodiscard]] App BuildHotspot(const AppConfig& config);
[[nodiscard]] App BuildLavaMd(const AppConfig& config);
[[nodiscard]] App BuildBfs(const AppConfig& config);
[[nodiscard]] App BuildLud(const AppConfig& config);
[[nodiscard]] App BuildPathfinder(const AppConfig& config);
[[nodiscard]] App BuildMm(const AppConfig& config);
[[nodiscard]] App BuildKmeans(const AppConfig& config);

}  // namespace epvf::apps
