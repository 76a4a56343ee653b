// Reference outputs for the shipped seed sets.
//
// One line per (workload, seed set, operation): `<workload> <set> <op>
// <value...>`, where the value is the operation's canonical result line
// (report statistics, or a campaign's outcome counts and record digest).
// A run compares every operation it completes against this table; a missing
// or different line is a correctness failure. `--write-reference` records
// the run's lines instead (and still checks that repeats of one operation
// agree with each other).
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

class References {
 public:
  References(std::string path, bool write_mode);

  /// True when `value` is the reference for (workload, set, op). In write
  /// mode the first value seen for a key becomes its reference.
  bool Check(const std::string& workload, std::uint64_t set, const std::string& op,
             const std::string& value);

  /// Write mode: merges the recorded lines into the file. False on I/O error.
  bool Save() const;

  [[nodiscard]] bool loaded() const { return loaded_; }

 private:
  std::string path_;
  bool write_mode_ = false;
  bool loaded_ = false;
  std::map<std::string, std::string> table_;  ///< "<workload> <set> <op>" -> value
};

}  // namespace perfbench
