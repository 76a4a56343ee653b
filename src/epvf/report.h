// Future-work utilities from the paper's section VIII.
//
// 1. Structure vulnerability report — "determine which architectural
//    structures are more likely to cause SDCs, and selectively protect these
//    structures through hardware techniques such as selective ECC": register
//    instances are grouped into architectural classes (pointer, integer,
//    floating-point, predicate) and each class's ACE / crash / SDC-prone bit
//    masses are reported.
//
// 2. Checkpoint advisor — "the ePVF methodology can be used to determine the
//    total number of crash-causing bits in the program and inform a
//    fault-tolerance mechanism for crash-causing faults (e.g. checkpointing)":
//    the model's crash rate converts a raw per-bit fault rate into a mean
//    time between crashes, from which Young's first-order formula gives the
//    optimal checkpoint interval.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "epvf/analysis.h"

namespace epvf::core {

/// Architectural register classes, the granularity a selective-ECC decision
/// would work at.
enum class RegisterClass : std::uint8_t {
  kPointer,    ///< address-typed registers (pointers, gep results)
  kInteger,    ///< integer data / index registers
  kFloat,      ///< f32/f64 registers
  kPredicate,  ///< i1 compare results
};
inline constexpr int kNumRegisterClasses = 4;

[[nodiscard]] std::string_view RegisterClassName(RegisterClass cls);

/// The structure class of a register defined with `type`.
[[nodiscard]] RegisterClass RegisterClassOf(ir::Type type);

struct StructureVulnerability {
  RegisterClass cls = RegisterClass::kInteger;
  std::uint64_t total_bits = 0;  ///< bit mass of the class across the trace
  std::uint64_t ace_bits = 0;    ///< of those, ACE
  std::uint64_t crash_bits = 0;  ///< of those, predicted crash-causing

  /// SDC-prone mass: ACE but not crash (the class's ePVF numerator).
  [[nodiscard]] std::uint64_t SdcProneBits() const { return ace_bits - crash_bits; }
  [[nodiscard]] double Epvf() const {
    return total_bits == 0 ? 0.0
                           : static_cast<double>(SdcProneBits()) / static_cast<double>(total_bits);
  }
  [[nodiscard]] double CrashFraction() const {
    return total_bits == 0 ? 0.0
                           : static_cast<double>(crash_bits) / static_cast<double>(total_bits);
  }
};

/// Per-class vulnerability breakdown over all register nodes of the trace.
[[nodiscard]] std::array<StructureVulnerability, kNumRegisterClasses> StructureReport(
    const Analysis& analysis);

/// The class a hardware designer should ECC-protect first to reduce SDCs:
/// the one with the largest SDC-prone bit mass.
[[nodiscard]] RegisterClass MostSdcProneStructure(const Analysis& analysis);

/// The deterministic inputs of the `epvf analyze` report, decoupled from the
/// Analysis object so the same renderer serves both the monolithic pipeline
/// and a recomposed compositional result (ComposeProgram) — the byte-identity
/// contract between `analyze`, `analyze --incremental` and the daemon rests
/// on every path funnelling through this struct.
struct ReportStats {
  std::uint64_t dyn_instructions = 0;
  std::uint64_t num_nodes = 0;
  std::uint64_t ace_node_count = 0;
  std::uint64_t ace_bits = 0;
  std::uint64_t total_bits = 0;
  std::uint64_t crash_bits = 0;
  Analysis::UseWeightedBits use_weighted;
  std::uint64_t mem_total = 0;
  std::uint64_t mem_ace = 0;
  std::uint64_t mem_crash = 0;
  std::array<StructureVulnerability, kNumRegisterClasses> structure{};

  [[nodiscard]] double Pvf() const {
    return total_bits == 0 ? 0.0 : static_cast<double>(ace_bits) / static_cast<double>(total_bits);
  }
  [[nodiscard]] double Epvf() const {
    return total_bits == 0
               ? 0.0
               : static_cast<double>(ace_bits - crash_bits) / static_cast<double>(total_bits);
  }
  [[nodiscard]] double CrashRateEstimate() const {
    return use_weighted.total == 0 ? 0.0
                                   : static_cast<double>(use_weighted.crash) /
                                         static_cast<double>(use_weighted.total);
  }
  [[nodiscard]] double MemoryPvf() const {
    return mem_total == 0 ? 0.0 : static_cast<double>(mem_ace) / static_cast<double>(mem_total);
  }
  [[nodiscard]] double MemoryEpvf() const {
    return mem_total == 0 ? 0.0
                          : static_cast<double>(mem_ace - mem_crash) /
                                static_cast<double>(mem_total);
  }
};

/// Collects the report inputs from a monolithic analysis (forces the
/// use-weighted pass).
[[nodiscard]] ReportStats StatsFromAnalysis(const Analysis& analysis);

struct CheckpointAdvice {
  double crash_probability_per_fault = 0.0;  ///< from the crash model
  double mean_time_between_crashes_s = 0.0;
  double optimal_interval_s = 0.0;  ///< Young: sqrt(2 * C * MTBC)
};

/// Derives a checkpoint interval from the model-predicted crash rate.
/// `raw_fault_rate_per_s` is the platform's transient-fault arrival rate into
/// architecturally live state; `checkpoint_cost_s` the time to take one
/// checkpoint. Returns zeros when either input is non-positive.
[[nodiscard]] CheckpointAdvice AdviseCheckpointInterval(const Analysis& analysis,
                                                        double raw_fault_rate_per_s,
                                                        double checkpoint_cost_s);

}  // namespace epvf::core
