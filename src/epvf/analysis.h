// The ePVF analysis pipeline — the paper's primary contribution, end to end.
//
// Orchestrates Figure 2's three components over one program + input:
//   1. golden (profiling) run on the interpreter, building the DDG and
//      recording the per-access segment probes;
//   2. base ACE analysis (the reverse BFS from the output instructions, as
//      one descending-id sweep);
//   3. crash model + propagation model, yielding per-node crash-bit masks.
//
// The result object answers every metric the evaluation needs: PVF (Eq. 1),
// ePVF (Eq. 2), the model-predicted crash rate (the Figure 8 estimate,
// weighted by fault-injection site distribution), per-static-instruction
// PVF/ePVF (Eq. 3, driving the Figure 12 CDFs and the section V protection
// ranking), and the timing breakdown (Table V / Figure 10).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "crash/crash_model.h"
#include "crash/propagation.h"
#include "ddg/ace.h"
#include "ddg/graph.h"
#include "ir/module.h"
#include "vm/interpreter.h"

namespace epvf::core {

struct AnalysisOptions {
  std::string entry = "main";
  std::uint64_t max_instructions = 200'000'000;
  mem::MemoryLayout layout;
  /// Worker threads for the parallel stages (ACE accounting, crash-bit mask
  /// extraction, the use-weighted rate-estimate walks). Results are
  /// bit-identical at every thread count. <= 0 = one job per hardware core.
  int jobs = 0;
};

struct AnalysisTimings {
  double trace_and_graph_seconds = 0;  ///< golden run + DDG construction
  double ace_seconds = 0;              ///< ACE marking sweep + bit accounting
  double crash_model_seconds = 0;      ///< CHECK_BOUNDARY + propagation
  /// Use-index construction + activation walks behind the crash-rate
  /// estimate; 0 until a use-weighted metric is first computed (lazy, cached;
  /// a thread that computed or read one sees the value).
  double rate_estimate_seconds = 0;

  // Threads each stage actually ran with (the parallel breakdown Figure 10 /
  // Table V benches report). The golden run is inherently sequential.
  unsigned trace_threads = 1;
  unsigned ace_threads = 1;
  unsigned crash_threads = 1;
  unsigned rate_estimate_threads = 1;

  /// The three pipeline stages of Analysis::Run (excludes the lazy
  /// rate-estimate pass, which not every caller triggers).
  [[nodiscard]] double TotalSeconds() const {
    return trace_and_graph_seconds + ace_seconds + crash_model_seconds;
  }
  /// End-to-end speedup (pipeline + rate estimate) over a baseline run of the
  /// same workload, e.g. one executed with jobs = 1.
  [[nodiscard]] double SpeedupOver(const AnalysisTimings& baseline) const {
    const double mine = TotalSeconds() + rate_estimate_seconds;
    const double base = baseline.TotalSeconds() + baseline.rate_estimate_seconds;
    return mine <= 0 ? 0.0 : base / mine;
  }
};

/// Per-static-instruction metrics (Eq. 3), averaged over dynamic instances.
struct InstrMetrics {
  ir::StaticInstrId sid;
  std::uint64_t exec_count = 0;
  std::uint64_t ace_bits = 0;
  std::uint64_t crash_bits = 0;
  std::uint64_t total_bits = 0;

  [[nodiscard]] double Pvf() const {
    return total_bits == 0 ? 0.0 : static_cast<double>(ace_bits) / static_cast<double>(total_bits);
  }
  [[nodiscard]] double Epvf() const {
    return total_bits == 0
               ? 0.0
               : static_cast<double>(ace_bits - crash_bits) / static_cast<double>(total_bits);
  }
};

class Analysis {
 public:
  /// The shared sums behind the use-weighted metrics (crash-rate estimate,
  /// PvfUseWeighted, EpvfUseWeighted): bits over all register-operand uses of
  /// the trace. Public so Restore can take them precomputed and the
  /// compositional layer (compose.h) can sum them per unit.
  struct UseWeightedBits {
    std::uint64_t total = 0;
    std::uint64_t ace = 0;
    std::uint64_t crash = 0;
  };

  /// Runs the whole pipeline. Throws on malformed modules or trapping golden
  /// runs (a golden run must complete — the analysis is defined on the
  /// fault-free execution).
  [[nodiscard]] static Analysis Run(const ir::Module& module, AnalysisOptions options = {});

  /// Assembles an Analysis from pipeline stages the caller ran itself, without
  /// executing anything. The repository benchmark (perfbench) times the
  /// golden run, DDG build, ACE and crash propagation one layer at a time and
  /// builds its Analysis here; `use_weighted` may be std::nullopt, in which
  /// case the activation-walk pass runs lazily as usual. `module` must be the
  /// module the stages were computed from. A restored analysis serves every
  /// metric and downstream consumer except memory() and crash_model(), which
  /// need the live golden interpreter and therefore throw std::logic_error;
  /// callers that need them (EstimateBySampling's partial re-propagation,
  /// BuildProgramSlices' crash-model seeds) must run the full pipeline.
  [[nodiscard]] static Analysis Restore(const ir::Module& module, AnalysisOptions options,
                                        vm::RunResult golden, ddg::Graph graph,
                                        ddg::AceResult ace, crash::CrashBits crash_bits,
                                        std::optional<UseWeightedBits> use_weighted);

  // --- artifacts --------------------------------------------------------------
  [[nodiscard]] const ir::Module& module() const { return *module_; }
  [[nodiscard]] const ddg::Graph& graph() const { return graph_; }
  [[nodiscard]] const ddg::AceResult& ace() const { return ace_; }
  [[nodiscard]] const crash::CrashBits& crash_bits() const { return crash_bits_; }
  [[nodiscard]] const vm::RunResult& golden() const { return golden_; }
  /// Golden-run memory state. Throws std::logic_error on an Analysis built by
  /// Restore (no live interpreter).
  [[nodiscard]] const mem::SimMemory& memory() const;
  [[nodiscard]] const AnalysisTimings& timings() const { return timings_; }
  [[nodiscard]] const AnalysisOptions& options() const { return options_; }
  /// The crash model over the golden memory map. Throws std::logic_error on
  /// an Analysis built by Restore.
  [[nodiscard]] const crash::CrashModel& crash_model() const;

  /// Forces and returns the cached use-weighted sums (the activation-walk
  /// pass, which perfbench times as a layer of its own). Safe to call from
  /// several threads at once: the first fills the cache, the others wait.
  [[nodiscard]] const UseWeightedBits& use_weighted_bits() const {
    return ComputeUseWeightedBits();
  }

  /// Dynamic-trace length of the golden run — the quantity the campaign
  /// suffix-replay checkpoint spacing (fi::ResolveCheckpointInterval), hang
  /// budgets, and the `--checkpoints N` → interval conversion key off.
  [[nodiscard]] std::uint64_t TraceLength() const { return golden_.instructions_executed; }

  // --- headline metrics -------------------------------------------------------
  [[nodiscard]] double Pvf() const { return ace_.Pvf(); }

  /// Eq. 2: (ACE bits − crash bits) / total bits.
  [[nodiscard]] double Epvf() const;

  /// Model-predicted crash rate under the fault-injection site distribution:
  /// crash bits over total bits across all *uses* of register operands —
  /// directly comparable to a campaign's measured crash fraction (Figure 8).
  [[nodiscard]] double CrashRateEstimate() const;

  /// Eq. 3 per static instruction, aggregated over dynamic instances.
  [[nodiscard]] std::vector<InstrMetrics> PerInstructionMetrics() const;

  /// PVF/ePVF evaluated over the fault-injection site distribution (register
  /// *uses* weighted by bit width) instead of register defs. These are the
  /// values directly comparable to campaign-measured rates (Figure 9): an
  /// injected bit can cause an SDC only if its node is ACE and the bit is not
  /// crash-causing.
  [[nodiscard]] double PvfUseWeighted() const;
  [[nodiscard]] double EpvfUseWeighted() const;

  /// The memory-resource bit sums behind MemoryPvf/MemoryEpvf (exposed so
  /// report assembly and the compositional diff tests share one definition).
  struct MemoryBitsSums {
    std::uint64_t total = 0;
    std::uint64_t ace = 0;
    std::uint64_t crash = 0;
  };
  [[nodiscard]] MemoryBitsSums ComputeMemoryBitsSums() const;

  /// PVF/ePVF of the *memory* resource — Eq. 1/2 instantiated for the bits
  /// held in memory versions rather than registers (the PVF framework is
  /// defined per architectural resource R; the paper evaluates "used
  /// registers", this is the same machinery pointed at the store-created
  /// memory state). Crash bits of a memory version are the stored bits whose
  /// flip would take a later crash-modeled address out of bounds.
  [[nodiscard]] double MemoryPvf() const;
  [[nodiscard]] double MemoryEpvf() const;

 private:
  Analysis() = default;

  /// Computed once and cached: CrashRateEstimate / PvfUseWeighted /
  /// EpvfUseWeighted all share the same (expensive) activation-walk pass.
  [[nodiscard]] const UseWeightedBits& ComputeUseWeightedBits() const;
  /// The activation-walk pass itself, run once by ComputeUseWeightedBits.
  [[nodiscard]] UseWeightedBits WalkUseSites() const;

  /// The lazily filled use-weighted sums. std::call_once makes the fill safe
  /// for concurrent const readers; the pointer keeps Analysis movable.
  struct UseWeightedCache {
    std::once_flag filled;
    UseWeightedBits bits;
  };

  const ir::Module* module_ = nullptr;
  AnalysisOptions options_;
  std::unique_ptr<vm::Interpreter> interpreter_;
  std::unique_ptr<crash::CrashModel> crash_model_;
  vm::RunResult golden_;
  ddg::Graph graph_;
  ddg::AceResult ace_;
  crash::CrashBits crash_bits_;
  /// Mutable: the lazy rate-estimate pass records its timing on first use,
  /// inside the cache's call_once.
  mutable AnalysisTimings timings_;
  std::unique_ptr<UseWeightedCache> use_weighted_ = std::make_unique<UseWeightedCache>();
};

}  // namespace epvf::core
