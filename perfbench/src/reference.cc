#include "reference.h"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

std::string Key(const std::string& workload, std::uint64_t set, const std::string& op) {
  return workload + " " + std::to_string(set) + " " + op;
}

}  // namespace

References::References(std::string path, bool write_mode)
    : path_(std::move(path)), write_mode_(write_mode) {
  std::ifstream in(path_);
  if (!in) return;
  loaded_ = true;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    // The key is the first three space-separated fields.
    std::size_t cut = line.find(' ');
    for (int field = 1; field < 3 && cut != std::string::npos; ++field) {
      cut = line.find(' ', cut + 1);
    }
    if (cut == std::string::npos) continue;
    table_[line.substr(0, cut)] = line.substr(cut + 1);
  }
}

bool References::Check(const std::string& workload, std::uint64_t set, const std::string& op,
                       const std::string& value) {
  const std::string key = Key(workload, set, op);
  const auto it = table_.find(key);
  if (it == table_.end()) {
    if (write_mode_) {
      table_[key] = value;
      return true;
    }
    std::fprintf(stderr, "perfbench: no reference for '%s'\n", key.c_str());
    return false;
  }
  if (it->second == value) return true;
  std::fprintf(stderr, "perfbench: reference mismatch for '%s'\n  expected %s\n  got      %s\n",
               key.c_str(), it->second.c_str(), value.c_str());
  return false;
}

bool References::Save() const {
  std::ostringstream out;
  out << "# perfbench reference outputs: <workload> <seed set> <operation> <result>\n"
         "# Regenerate with: python3 perfbench/run.py --write-reference ...\n";
  for (const auto& [key, value] : table_) out << key << ' ' << value << '\n';
  std::ofstream file(path_, std::ios::trunc);
  file << out.str();
  return static_cast<bool>(file);
}

}  // namespace perfbench
