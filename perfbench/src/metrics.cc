#include "metrics.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <functional>

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  // Nearest rank: always an observed value, never an interpolation across
  // the gap between two operation kinds of very different cost.
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

namespace {

/// Interpolated median: of two values it is their mean, not the smaller.
double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

}  // namespace

double TypicalMs(const std::vector<double>& pass_ms) {
  return pass_ms.empty() ? 0 : *std::min_element(pass_ms.begin(), pass_ms.end());
}

namespace {

/// The untraced samples with each one's time replaced by its operation kind's
/// typical time (TypicalMs). Every pass runs every kind equally often, so
/// percentiles and sums over these describe the pass mix.
std::vector<OpSample> TypicalSamples(const std::vector<OpSample>& ops) {
  std::map<std::string, std::vector<double>> by_kind;
  for (const OpSample& op : ops) {
    if (!op.traced) by_kind[op.kind].push_back(op.ms);
  }
  std::map<std::string, double> typical_ms;
  for (const auto& [kind, values] : by_kind) typical_ms[kind] = TypicalMs(values);
  std::vector<OpSample> typical;
  for (const OpSample& op : ops) {
    if (op.traced) continue;
    typical.push_back(op);
    typical.back().ms = typical_ms[op.kind];
  }
  return typical;
}

bool HasPrefix(const std::string& s, const char* prefix) { return s.rfind(prefix, 0) == 0; }

}  // namespace

Metrics EndToEndMetrics(const std::vector<double>& setup_seconds,
                        const std::vector<OpSample>& ops) {
  std::vector<double> ms;
  double minstr = 0;
  double total_ms = 0;
  for (const OpSample& op : TypicalSamples(ops)) {
    ms.push_back(op.ms);
    minstr += op.minstr;
    total_ms += op.ms;
  }
  Metrics m;
  m["setup_s"] = {Median(setup_seconds), "s"};
  m["peak_rss_mb"] = {PeakRssMb(), "MB"};
  m["op_ms_p50"] = {Percentile(ms, 0.5), "ms"};
  m["op_ms_p90"] = {Percentile(ms, 0.9), "ms"};
  m["minstr_per_s"] = {total_ms > 0 ? minstr / total_ms * 1e3 : 0, "Minstr/s"};
  return m;
}

Metrics WorkloadViews(const std::vector<OpSample>& ops) {
  double analyze_minstr = 0, analyze_ms = 0, injections = 0, uniform_ms = 0;
  std::vector<double> plan_ms, edit_ms;
  for (const OpSample& op : TypicalSamples(ops)) {
    if (HasPrefix(op.kind, "analyze.")) {
      analyze_minstr += op.minstr;
      analyze_ms += op.ms;
    } else if (HasPrefix(op.kind, "uniform.") || HasPrefix(op.kind, "jitter.")) {
      injections += op.injections;
      uniform_ms += op.ms;
    } else if (HasPrefix(op.kind, "plan.")) {
      plan_ms.push_back(op.ms);
    } else if (HasPrefix(op.kind, "edit.")) {
      edit_ms.push_back(op.ms);
    }
  }
  Metrics m;
  if (analyze_ms > 0) m["analyze_minstr_per_s"] = {analyze_minstr / analyze_ms * 1e3, "Minstr/s"};
  if (uniform_ms > 0) m["injections_per_s"] = {injections / uniform_ms * 1e3, "1/s"};
  if (!plan_ms.empty()) m["plan_to_ci_s"] = {Percentile(plan_ms, 0.5) / 1e3, "s"};
  if (!edit_ms.empty()) {
    m["reanalyze_ms_p50"] = {Percentile(edit_ms, 0.5), "ms"};
    m["reanalyze_ms_p90"] = {Percentile(edit_ms, 0.9), "ms"};
    m["reanalyze_samples"] = {static_cast<double>(edit_ms.size()), "count"};
  }
  return m;
}

namespace {

using SpanValue = std::function<double(const Span&)>;

double Dur(const Span& s) { return s.Ms(); }
SpanValue ArgOf(const std::string& key) {
  return [key](const Span& s) { return s.Arg(key); };
}

/// Span queries over one traced run.
class SpanView {
 public:
  explicit SpanView(const Tracer& tracer) : spans_(tracer.spans()), self_(tracer.SelfMs()) {}

  /// "loop" when the workload's measured loop calls `name`, else "setup"
  /// (layers the workload only uses while setting up, e.g. the campaign's
  /// analyses).
  [[nodiscard]] std::string PhaseOf(const std::string& name) const {
    for (const Span& s : spans_) {
      if (s.phase == "loop" && s.name == name) return "loop";
    }
    return "setup";
  }
  [[nodiscard]] std::string LayerPhase(const std::string& layer) const {
    for (const Span& s : spans_) {
      if (s.phase == "loop" && s.Layer() == layer) return "loop";
    }
    return "setup";
  }

  /// Median over the phase's iterations (those calling `name`) of the
  /// per-iteration sum of `value`.
  [[nodiscard]] double PerIteration(const std::string& name, const SpanValue& value,
                                    const std::string& phase) const {
    std::map<int, double> sums;
    for (const Span& s : spans_) {
      if (s.phase == phase && s.name == name) sums[s.iteration] += value(s);
    }
    return MedianOfSums(sums);
  }
  [[nodiscard]] double PerIteration(const std::string& name, const SpanValue& value) const {
    return PerIteration(name, value, PhaseOf(name));
  }

  /// Sum of `value` over the phase's `name` spans.
  [[nodiscard]] double Total(const std::string& name, const SpanValue& value,
                             const std::string& phase) const {
    double total = 0;
    for (const Span& s : spans_) {
      if (s.phase == phase && s.name == name) total += value(s);
    }
    return total;
  }
  [[nodiscard]] double Count(const std::string& name, const std::string& phase) const {
    return Total(name, [](const Span&) { return 1.0; }, phase);
  }

  /// Median of `value` over individual spans.
  [[nodiscard]] double PerSpan(const std::string& name, const SpanValue& value) const {
    const std::string phase = PhaseOf(name);
    std::vector<double> values;
    for (const Span& s : spans_) {
      if (s.phase == phase && s.name == name) values.push_back(value(s));
    }
    return Percentile(values, 0.5);
  }

  /// Median over iterations of the layer's summed self time.
  [[nodiscard]] double LayerSelfMs(const std::string& layer) const {
    const std::string phase = LayerPhase(layer);
    std::map<int, double> sums;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].phase == phase && spans_[i].Layer() == layer) {
        sums[spans_[i].iteration] += self_[i];
      }
    }
    return MedianOfSums(sums);
  }

  /// Duration of the direct child `name` of span `parent`, summed.
  [[nodiscard]] double ChildMs(std::size_t parent, const std::string& name) const {
    double ms = 0;
    for (const Span& s : spans_) {
      if (s.parent == static_cast<int>(parent) && s.name == name) ms += s.Ms();
    }
    return ms;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  static double MedianOfSums(const std::map<int, double>& sums) {
    std::vector<double> values;
    for (const auto& [iteration, sum] : sums) values.push_back(sum);
    return Percentile(values, 0.5);
  }

  const std::vector<Span>& spans_;
  std::vector<double> self_;
};

double Share(double part, double whole) { return whole > 0 ? part / whole : 0; }

/// Log-log least-squares slope of `time` against `instr`; 0 when undefined.
double Slope(const std::vector<double>& instr, const std::vector<double>& time) {
  std::vector<double> x, y;
  for (std::size_t i = 0; i < instr.size(); ++i) {
    if (instr[i] <= 0 || time[i] <= 0) continue;
    x.push_back(std::log(instr[i]));
    y.push_back(std::log(time[i]));
  }
  if (x.size() < 2) return 0;
  double mx = 0, my = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(x.size());
  my /= static_cast<double>(y.size());
  double sxy = 0, sxx = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
  }
  return sxx > 0 ? sxy / sxx : 0;
}

/// The scale sweep: per sweep point (iterations sharing a "scale_index"),
/// the median over repetitions of each analysis layer's time, then the
/// log-log slope of each layer against the golden dynamic instruction count.
void AddScaleExponents(const SpanView& view, Metrics& m) {
  // iteration -> per-layer time and dyn count of one repetition.
  struct Rep {
    int point = 0;
    double dyn = 0;
    std::map<std::string, double> ms;
  };
  std::map<int, Rep> reps;
  for (const Span& s : view.spans()) {
    if (s.phase != "sweep") continue;
    Rep& rep = reps[s.iteration];
    if (s.name == "bench.sweep_op") rep.point = static_cast<int>(s.Arg("scale_index"));
    if (s.name == "ir.build") rep.ms["ir"] += s.Ms();
    if (s.name == "vm.golden_run") {
      rep.ms["vm"] += s.Ms();
      rep.ms["ddg"] -= s.Ms();  // ddg's own share of the traced golden run
      rep.dyn = s.Arg("dyn_instr");
    }
    if (s.name == "ddg.trace_and_graph" || s.name == "ddg.ace") rep.ms["ddg"] += s.Ms();
    if (s.name == "crash.propagate") rep.ms["crash"] += s.Ms();
    if (s.name == "epvf.walks" || s.name == "epvf.report") rep.ms["epvf"] += s.Ms();
  }
  std::map<int, std::vector<const Rep*>> points;
  for (const auto& [iteration, rep] : reps) points[rep.point].push_back(&rep);
  for (const char* layer : {"ir", "vm", "ddg", "crash", "epvf"}) {
    std::vector<double> instr, time;
    for (const auto& [point, group] : points) {
      std::vector<double> ms;
      for (const Rep* rep : group) ms.push_back(rep->ms.count(layer) ? rep->ms.at(layer) : 0);
      instr.push_back(group.front()->dyn);
      time.push_back(Percentile(ms, 0.5));
    }
    m[std::string(layer) + ".scale_exp"] = {Slope(instr, time), "1"};
  }
}

/// Tracing overhead: per operation kind, the median traced time (less the
/// benchmark's own probe work) against the median untraced time.
double TraceOverheadPct(const std::vector<OpSample>& ops) {
  std::map<std::string, std::vector<double>> untraced, traced;
  for (const OpSample& op : ops) {
    (op.traced ? traced : untraced)[op.kind].push_back(op.ms - op.traced_extra_ms);
  }
  double base = 0, with = 0;
  for (const auto& [kind, values] : untraced) {
    const auto it = traced.find(kind);
    if (it == traced.end()) continue;
    base += Percentile(values, 0.5);
    with += Percentile(it->second, 0.5);
  }
  return base > 0 ? (with / base - 1) * 100 : 0;
}

}  // namespace

Metrics LayerMetrics(const Tracer& tracer, const std::vector<OpSample>& ops,
                     double failed_share) {
  const SpanView v(tracer);
  Metrics m;
  const auto ms = [&](const std::string& metric, const std::string& span) {
    m[metric] = {v.PerIteration(span, Dur), "ms"};
  };
  const auto count = [&](const std::string& metric, const std::string& span,
                         const std::string& arg) {
    m[metric] = {v.PerIteration(span, ArgOf(arg)), "count"};
  };

  // ir
  m["ir.build_ms"] = {v.PerIteration("ir.build", Dur, "setup"), "ms"};
  ms("ir.parse_ms", "ir.parse");

  // vm: the golden-run probe (same options as the analysis, no DDG sink).
  ms("vm.golden_run_ms", "vm.golden_run");
  count("vm.dyn_instr", "vm.golden_run", "dyn_instr");
  {
    const std::string phase = v.PhaseOf("vm.golden_run");
    m["vm.golden_minstr_per_s"] = {
        Share(v.Total("vm.golden_run", ArgOf("dyn_instr"), phase),
              v.Total("vm.golden_run", Dur, phase)) / 1e3,
        "Minstr/s"};
  }

  // ddg
  ms("ddg.trace_and_graph_ms", "ddg.trace_and_graph");
  m["ddg.build_self_ms"] = {m["ddg.trace_and_graph_ms"].value - m["vm.golden_run_ms"].value,
                            "ms"};
  count("ddg.nodes", "ddg.trace_and_graph", "nodes");
  ms("ddg.ace_ms", "ddg.ace");

  // crash
  ms("crash.propagate_ms", "crash.propagate");
  count("crash.crash_bits", "crash.propagate", "crash_bits");

  // epvf: walks and report, then the incremental path.
  ms("epvf.walks_ms", "epvf.walks");
  ms("epvf.report_ms", "epvf.report");
  {
    const std::string phase = v.PhaseOf("epvf.walks");
    double pipeline = 0;
    for (const char* stage : {"ddg.trace_and_graph", "ddg.ace", "crash.propagate",
                              "epvf.walks", "epvf.report"}) {
      pipeline += v.Total(stage, Dur, phase);
    }
    m["epvf.walk_share"] = {Share(v.Total("epvf.walks", Dur, phase), pipeline), "1"};
  }
  ms("epvf.compose_ms", "epvf.compose");
  const double edits = v.Count("store.run_incremental", "loop");
  m["epvf.fast_path_share"] = {
      Share(v.Total("store.run_incremental", ArgOf("fast_path"), "loop"), edits), "1"};
  m["epvf.cold_rebuild_share"] = {
      Share(v.Total("store.run_incremental", ArgOf("cold_rebuild"), "loop"), edits), "1"};
  {
    std::vector<double> ratios;
    for (std::size_t i = 0; i < v.spans().size(); ++i) {
      const Span& s = v.spans()[i];
      if (s.phase != "loop" || s.name != "bench.full_analysis") continue;
      const double full = s.Ms() - v.ChildMs(i, "vm.golden_run");
      if (full > 0) ratios.push_back(s.Arg("edit_ms") / full);
    }
    m["epvf.incr_vs_full_ratio"] = {Percentile(ratios, 0.5), "1"};
  }

  // store
  ms("store.incremental_ms", "store.run_incremental");
  m["store.unit_hit_share"] = {
      Share(v.Total("store.run_incremental", ArgOf("unit_hits"), "loop"),
            v.Total("store.run_incremental", ArgOf("units_total"), "loop")),
      "1"};
  m["store.bytes_written_per_edit"] = {
      Share(v.Total("store.run_incremental", ArgOf("bytes_written"), "loop"), edits), "B"};
  m["store.bytes_read_per_edit"] = {
      Share(v.Total("store.run_incremental", ArgOf("bytes_read"), "loop"), edits), "B"};

  // fi: uniform campaigns (from CampaignPerf and the records) ...
  m["fi.inject_ms"] = {v.PerIteration("fi.campaign", ArgOf("inject_ms")), "ms"};
  m["fi.checkpoint_build_ms"] = {v.PerIteration("fi.campaign", ArgOf("checkpoint_ms")), "ms"};
  count("fi.checkpoints", "fi.campaign", "checkpoints");
  const double runs = v.Total("fi.campaign", ArgOf("runs"), "loop");
  m["fi.resumed_share"] = {Share(v.Total("fi.campaign", ArgOf("resumed_runs"), "loop"), runs),
                           "1"};
  m["fi.skipped_prefix_share"] = {
      Share(v.Total("fi.campaign", ArgOf("skipped_instr"), "loop"),
            v.Total("fi.campaign",
                    [](const Span& s) { return s.Arg("runs") * s.Arg("trace_length"); },
                    "loop")),
      "1"};
  for (const char* outcome : {"benign", "sdc", "crash", "hang"}) {
    m[std::string("fi.outcome_share.") + outcome] = {
        Share(v.Total("fi.campaign", ArgOf(outcome), "loop"), runs), "1"};
  }
  // ... and the stratified planner.
  count("fi.plan_injections", "fi.plan", "injections");
  count("fi.plan_rounds", "fi.plan", "rounds");
  m["fi.plan_round_ms"] = {v.PerSpan("fi.plan_round", Dur), "ms"};
  m["fi.plan_bookkeeping_ms"] = {
      v.PerIteration("fi.plan_begin", Dur) + v.PerIteration("fi.plan_commit", Dur), "ms"};

  // Self time per layer, from the span tree.
  for (const char* layer : {"ir", "vm", "ddg", "crash", "epvf", "fi", "store"}) {
    m[std::string(layer) + ".self_ms"] = {v.LayerSelfMs(layer), "ms"};
  }

  AddScaleExponents(v, m);
  m["obs.trace_overhead_pct"] = {TraceOverheadPct(ops), "%"};
  m["failed_share"] = {failed_share, "1"};
  return m;
}

}  // namespace perfbench
