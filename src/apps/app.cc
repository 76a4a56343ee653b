#include "apps/app.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "ir/parser.h"
#include "ir/verifier.h"
#include "obs/trace.h"

namespace epvf::apps {

namespace {

struct Entry {
  std::string_view name;
  App (*build)(const AppConfig&);
};

// Table IV order (kmeans appears in the Table II crash-frequency study).
constexpr Entry kRegistry[] = {
    {"lulesh", BuildLulesh},
    {"particlefilter", BuildParticleFilter},
    {"srad", BuildSrad},
    {"nw", BuildNw},
    {"hotspot", BuildHotspot},
    {"lavaMD", BuildLavaMd},
    {"bfs", BuildBfs},
    {"lud", BuildLud},
    {"pathfinder", BuildPathfinder},
    {"mm", BuildMm},
    {"kmeans", BuildKmeans},
};

}  // namespace

std::vector<std::string> AppNames() {
  std::vector<std::string> names;
  names.reserve(std::size(kRegistry));
  for (const Entry& entry : kRegistry) names.emplace_back(entry.name);
  return names;
}

App BuildApp(std::string_view name, const AppConfig& config) {
  for (const Entry& entry : kRegistry) {
    if (entry.name == name) {
      const obs::TraceSpan span("parse", "build-app");
      App app = entry.build(config);
      ir::VerifyModuleOrThrow(app.module);
      return app;
    }
  }
  throw std::invalid_argument("BuildApp: unknown benchmark '" + std::string(name) + "'");
}

ir::Module LoadTarget(const std::string& target, int scale) {
  const obs::TraceSpan span("parse", "load-target");
  const bool looks_like_path =
      target.find('.') != std::string::npos || target.find('/') != std::string::npos;
  if (!looks_like_path) {
    AppConfig config;
    config.scale = scale;
    return BuildApp(target, config).module;
  }
  std::ifstream in(target);
  if (!in) throw std::runtime_error("cannot open " + target);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ir::ParseModuleOrThrow(buffer.str());
}

}  // namespace epvf::apps
