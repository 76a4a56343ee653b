// The fault injector — LLFI's role in the paper (section IV-A).
//
// Runs a module once with a single-bit FaultPlan and classifies the outcome
// against a golden run. Injection sites are sampled the way LLFI samples
// them: a uniformly random executed dynamic instruction, a uniformly random
// *register* source operand of it, a uniformly random bit of that operand —
// so every fault is activated. Optional per-run layout jitter reproduces the
// environment nondeterminism between profiling and injected runs that the
// paper identifies as its main accuracy loss.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include <memory>

#include "ddg/graph.h"
#include "fi/outcome.h"
#include "fi/scenario.h"
#include "ir/module.h"
#include "support/rng.h"
#include "vm/fault_plan.h"
#include "vm/interpreter.h"

namespace epvf::fi {

class MemoryScenario;

/// One injectable site: a register operand of a dynamic instruction.
struct FaultSite {
  std::uint32_t dyn_index = 0;
  std::uint8_t slot = 0;
  std::uint8_t width = 0;           ///< operand bit width (bounds the bit choice)
  ddg::NodeId node = ddg::kNoNode;  ///< DDG node of the operand's producing def
};

/// The full list of injectable sites of a golden run, derived from its DDG.
/// For phi instructions only the taken incoming slot is injectable (the other
/// incoming registers are not read).
[[nodiscard]] std::vector<FaultSite> EnumerateFaultSites(const ddg::Graph& graph);

inline constexpr std::uint32_t kDefaultCheckpoints = 64;
/// A memory backstop for library callers; the CLI and the daemon refuse a
/// larger --checkpoints instead.
inline constexpr std::uint32_t kMaxCheckpoints = 1024;

/// The snapshot sites of a trace of L = `trace_length` instructions: site k at
/// floor(k * L / (count + 1)) for k = 1..count, without 0 and repeats, so
/// min(count, L - 1) ascending sites. `count` is capped at kMaxCheckpoints.
[[nodiscard]] std::vector<std::uint64_t> CheckpointSites(std::uint64_t trace_length,
                                                         std::uint64_t count);

/// --checkpoints passes straight through. A negative count throws
/// std::invalid_argument, a count above kMaxCheckpoints std::out_of_range.
[[nodiscard]] std::uint32_t ResolveCheckpointCount(int requested);

struct InjectorOptions {
  std::string entry = "main";
  mem::MemoryLayout layout;
  /// Hang threshold: budget = golden instruction count * hang_factor.
  double hang_factor = 10.0;
  /// Max pages of per-run random segment-base jitter (0 = deterministic).
  std::uint32_t jitter_pages = 0;
  /// Adjacent bits flipped per injection (1 = single-bit, the paper's primary
  /// fault model; >1 = the section II-E multi-bit extension).
  std::uint8_t burst_length = 1;
  /// What resource flips land in. kMemory requires jitter_pages == 0 (sites
  /// are absolute addresses of the golden layout — any jitter would relocate
  /// them) and an attached MemoryScenario (see AttachMemoryScenario).
  Scenario scenario = Scenario::kRegister;
  /// Golden-run snapshots (CheckpointSites) that ExecutePlannedRuns builds
  /// for the suffix-replay fast path; 0 = off. Jittered runs diverge from
  /// instruction zero, so they never use them. Outcomes are bit-identical at
  /// every count.
  std::uint32_t checkpoints = kDefaultCheckpoints;
};

class Injector {
 public:
  /// `golden` must be the completed fault-free run of `module` under the same
  /// layout and entry point.
  Injector(const ir::Module& module, const vm::RunResult& golden, InjectorOptions options);

  struct InjectionResult {
    Outcome outcome = Outcome::kBenign;
    vm::RunResult run;
    /// Dyn index the run started from: 0 = executed from scratch, >0 =
    /// resumed from the checkpoint captured before that instruction.
    std::uint64_t resumed_from = 0;
    /// Memory scenario only: the site's byte is overwritten before any
    /// consuming load, so delayed error reporting classified the flip benign
    /// without executing anything (`run` is then empty).
    bool statically_masked = false;
  };

  /// Executes one injection at (site, bit). `jitter` overrides the per-run
  /// layout jitter (pass std::nullopt to draw from `rng` per the options).
  /// When checkpoints are loaded (BuildCheckpoints) and the effective jitter
  /// is zero, the run resumes from the nearest checkpoint at or before the
  /// site and executes only the suffix — outcomes are bit-identical to a
  /// from-scratch run. Jittered runs diverge from instruction zero, so they
  /// always fall back to full execution.
  [[nodiscard]] InjectionResult Inject(const FaultSite& site, std::uint8_t bit,
                                       std::optional<mem::LayoutJitter> jitter = std::nullopt);

  /// Captures suffix-replay checkpoints with one extra golden replay (no
  /// fault, zero jitter): the full execution state immediately before each
  /// dyn index in `at` (sorted ascending; indices past the trace end are
  /// ignored). The replay is verified against the golden run and the call
  /// throws if it diverges. Returns the number of checkpoints captured. The
  /// store is immutable until the next BuildCheckpoints, so concurrent Inject
  /// calls may share it.
  std::size_t BuildCheckpoints(std::span<const std::uint64_t> at);
  [[nodiscard]] std::size_t NumCheckpoints() const { return checkpoints_.size(); }

  /// Draws a uniformly random jitter allowed by the options.
  [[nodiscard]] mem::LayoutJitter DrawJitter(Rng& rng) const;

  /// Memory scenario: supplies the site table Inject resolves FaultSite keys
  /// against. Must be built from the same golden run's DDG. Required before
  /// the first Inject when options().scenario == kMemory.
  void AttachMemoryScenario(std::shared_ptr<const MemoryScenario> scenario);
  [[nodiscard]] const std::shared_ptr<const MemoryScenario>& memory_scenario() const {
    return memory_scenario_;
  }

  [[nodiscard]] const vm::RunResult& golden() const { return golden_; }
  [[nodiscard]] const InjectorOptions& options() const { return options_; }

 private:
  [[nodiscard]] std::uint64_t HangBudget() const;
  /// Last checkpoint with dyn_index <= dyn, or nullptr.
  [[nodiscard]] const vm::Interpreter::Checkpoint* NearestCheckpoint(std::uint64_t dyn) const;

  const ir::Module& module_;
  const vm::RunResult& golden_;
  InjectorOptions options_;
  Rng jitter_rng_;
  /// One bytecode compile shared by every injected run of the campaign.
  /// Compiled eagerly — Inject is called concurrently from sharded workers.
  std::shared_ptr<const vm::bc::Program> bytecode_;
  std::vector<vm::Interpreter::Checkpoint> checkpoints_;  ///< sorted by dyn_index
  std::shared_ptr<const MemoryScenario> memory_scenario_;
};

}  // namespace epvf::fi
