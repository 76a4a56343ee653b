// Turning samples and spans into the reported metrics.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Nearest-rank percentile (p in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double Percentile(std::vector<double> values, double p);

/// An operation kind's typical time: its fastest pass. Outside load on a
/// shared host comes and goes within seconds and only ever slows a pass, and
/// the first pass also pays for cold caches and heap growth, so the fastest
/// pass tracks the program's own speed and moves far less from run to run
/// than the median. A run holds many passes (a pass takes a few seconds).
[[nodiscard]] double TypicalMs(const std::vector<double>& pass_ms);

/// End-to-end metrics of an untraced run: set-up time, peak RSS, operation
/// latency percentiles and golden-instruction throughput.
[[nodiscard]] Metrics EndToEndMetrics(const std::vector<double>& setup_seconds,
                                      const std::vector<OpSample>& ops);

/// Per-layer metrics of a traced run, all derived from the recorded spans
/// (plus the run's operation samples for the tracing overhead). Every name is
/// emitted on every workload; a layer the workload never calls reads 0.
[[nodiscard]] Metrics LayerMetrics(const Tracer& tracer, const std::vector<OpSample>& ops,
                                   double failed_share);

/// The workload-specific views of the end-to-end numbers, keyed by the names
/// the design discussion uses (analyze_minstr_per_s, injections_per_s,
/// plan_to_ci_s, reanalyze_ms_p50, reanalyze_ms_p90); only those the
/// workload produces are present.
[[nodiscard]] Metrics WorkloadViews(const std::vector<OpSample>& ops);

[[nodiscard]] double PeakRssMb();

}  // namespace perfbench
