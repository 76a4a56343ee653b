#include "fi/planner.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "fi/memory_scenario.h"
#include "fi/shard.h"
#include "ir/opcode.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/timing.h"
#include "support/statistics.h"
#include "support/stopwatch.h"
#include "support/thread_pool.h"

namespace epvf::fi {

namespace {

constexpr double kZ95 = 1.959963984540054;
/// Neyman scores are floored at this sigma so a stratum the posterior calls
/// (nearly) deterministic still receives budget until it earns retirement.
constexpr double kSigmaFloor = 0.05;

constexpr const char* kClassNames[] = {"mem", "ctl", "flt", "int", "oth"};
constexpr const char* kCrashNames[] = {"non-ace", "crash-heavy", "crash-light"};
constexpr const char* kDepthNames[] = {"shallow", "deep"};
constexpr int kNumClasses = 5;
constexpr int kNumCrash = 3;
constexpr int kNumDepth = 2;

/// Memory scenario: the dwell-depth stratum axis. Log-spaced buckets — the
/// dwell distribution is heavy-tailed (most bytes are consumed within a few
/// instructions; a few persist for most of the trace), so linear buckets
/// would put everything in one stratum.
constexpr const char* kDwellNames[] = {"dwell-immediate", "dwell-short", "dwell-mid",
                                       "dwell-long"};
constexpr int kNumDwell = 4;

int DwellBucket(std::uint64_t dwell) {
  if (dwell < 4) return 0;
  if (dwell < 64) return 1;
  if (dwell < 4096) return 2;
  return 3;
}

int ClassOf(ir::Opcode op) {
  using ir::Opcode;
  if (ir::IsMemoryAccess(op) || op == Opcode::kGep || op == Opcode::kAlloca) return 0;
  if (op == Opcode::kICmp || op == Opcode::kFCmp || op == Opcode::kSelect ||
      ir::IsTerminator(op)) {
    return 1;
  }
  if (op == Opcode::kFAdd || op == Opcode::kFSub || op == Opcode::kFMul ||
      op == Opcode::kFDiv) {
    return 2;
  }
  if (ir::IsBinaryArith(op)) return 3;
  return 4;  // casts, phi, call
}

}  // namespace

CampaignPlanner::CampaignPlanner(const ddg::Graph& graph, const ddg::AceResult& ace,
                                 const crash::CrashBits& crash_bits, const Injector& injector,
                                 std::uint64_t seed, StratifiedOptions options)
    : injector_(injector), options_(options) {
  if (!(options_.ci_target > 0.0)) {
    throw std::invalid_argument("CampaignPlanner: ci_target must be positive");
  }
  if (injector.options().scenario == Scenario::kMemory) {
    BuildMemoryStrata(ace, crash_bits, seed);
    RetireSweep(0);
    return;
  }
  sites_ = EnumerateFaultSites(graph);
  if (sites_.empty()) throw std::runtime_error("CampaignPlanner: no injectable fault sites");

  // Backward-slice depth of every node: predecessors always carry smaller
  // ids, so one ascending sweep computes the height of each node's def tree.
  std::vector<std::uint32_t> height(graph.NumNodes(), 0);
  for (std::size_t id = 0; id < graph.NumNodes(); ++id) {
    for (const ddg::NodeId p : graph.Preds(static_cast<ddg::NodeId>(id))) {
      height[id] = std::max(height[id], height[p] + 1);
    }
  }
  // The shallow/deep split at the median site depth keeps both buckets
  // populated whatever the app's slice-depth distribution looks like.
  std::vector<std::uint32_t> depths(sites_.size(), 0);
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    if (sites_[i].node != ddg::kNoNode) depths[i] = height[sites_[i].node];
  }
  std::vector<std::uint32_t> sorted_depths = depths;
  std::nth_element(sorted_depths.begin(), sorted_depths.begin() + sorted_depths.size() / 2,
                   sorted_depths.end());
  const std::uint32_t depth_split = sorted_depths[sorted_depths.size() / 2];

  // Partition the site indices into (class x crash-status x depth) buckets.
  constexpr int kNumBuckets = kNumClasses * kNumCrash * kNumDepth;
  std::vector<std::vector<std::uint32_t>> buckets(kNumBuckets);
  std::uint64_t population_bits = 0;
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    const FaultSite& site = sites_[i];
    const int cls = ClassOf(graph.InstructionAt(site.dyn_index).op);
    int crash_class = 0;
    if (site.node != ddg::kNoNode && ace.Contains(site.node)) {
      const std::uint32_t cb = crash_bits.CrashBitCount(site.node);
      crash_class = 2 * cb >= site.width ? 1 : 2;
    }
    const int depth = depths[i] > depth_split ? 1 : 0;
    buckets[(cls * kNumCrash + crash_class) * kNumDepth + depth].push_back(
        static_cast<std::uint32_t>(i));
    population_bits += site.width;
  }

  // Materialize the non-empty buckets in key order. Each stratum gets its own
  // RNG stream derived from (campaign seed, stratum index) — SplitMix64
  // seeding decorrelates the streams — and its model prior: non-ACE bits are
  // masked, ACE crash bits crash, the remaining ACE bits are SDC-prone.
  for (int key = 0; key < kNumBuckets; ++key) {
    if (buckets[key].empty()) continue;
    StratumState s;
    const int depth = key % kNumDepth;
    const int crash_class = (key / kNumDepth) % kNumCrash;
    const int cls = key / (kNumDepth * kNumCrash);
    s.name = std::string(kClassNames[cls]) + "/" + kCrashNames[crash_class] + "/" +
             kDepthNames[depth];
    s.sites = std::move(buckets[key]);
    s.cumulative_bits.resize(s.sites.size());
    std::uint64_t sdc_bits = 0;
    std::uint64_t crash_bit_sum = 0;
    for (std::size_t j = 0; j < s.sites.size(); ++j) {
      const FaultSite& site = sites_[s.sites[j]];
      s.total_bits += site.width;
      s.cumulative_bits[j] = s.total_bits;
      if (site.node != ddg::kNoNode && ace.Contains(site.node)) {
        const std::uint64_t cb =
            std::min<std::uint64_t>(crash_bits.CrashBitCount(site.node), site.width);
        crash_bit_sum += cb;
        sdc_bits += site.width - cb;
      }
    }
    s.weight = static_cast<double>(s.total_bits) / static_cast<double>(population_bits);
    s.prior_sdc = static_cast<double>(sdc_bits) / static_cast<double>(s.total_bits);
    s.prior_crash = static_cast<double>(crash_bit_sum) / static_cast<double>(s.total_bits);
    s.rng.Seed(seed ^ (0x9E3779B97F4A7C15ull * (strata_.size() + 1)));
    strata_.push_back(std::move(s));
  }
  // With a zero confirming-samples floor the prior alone can already satisfy
  // the stopping rule; sweep once so Done() is honest before the first round.
  RetireSweep(0);
}

CampaignPlanner::CampaignPlanner(const ddg::Graph& graph, const Injector& injector,
                                 std::uint64_t seed, std::uint32_t num_runs)
    : injector_(injector), kind_(PlanKind::kUniform) {
  options_.max_runs = num_runs;
  options_.round_size = num_runs;
  const bool memory = injector.options().scenario == Scenario::kMemory;
  if (memory && injector.memory_scenario() == nullptr) {
    throw std::invalid_argument("CampaignPlanner: memory scenario not attached to the injector");
  }
  sites_ = memory ? injector.memory_scenario()->FaultSites() : EnumerateFaultSites(graph);
  if (sites_.empty()) throw std::runtime_error("CampaignPlanner: no injectable fault sites");

  // Register scenario: sample uniformly over the *register-bit* population of
  // the trace — site probability proportional to operand width, bit uniform
  // within the operand. This makes campaign rates directly comparable to the
  // bit-ratio metrics (PVF/ePVF/crash-rate estimates) they are plotted
  // against. Memory scenario: sites are dwell-weighted (dwell x 8 bits), so
  // a byte exposed for a million instructions is sampled a million times more
  // often than one consumed immediately — the Jaulmes FIT weighting.
  StratumState s;
  s.name = "all";
  s.sites.resize(sites_.size());
  std::iota(s.sites.begin(), s.sites.end(), 0u);
  s.cumulative_bits.resize(sites_.size());
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    s.total_bits += memory ? injector.memory_scenario()->sites()[i].WeightBits() : sites_[i].width;
    s.cumulative_bits[i] = s.total_bits;
  }
  s.weight = 1.0;
  s.rng.Seed(seed);
  strata_.push_back(std::move(s));
}

void CampaignPlanner::BuildMemoryStrata(const ddg::AceResult& ace,
                                        const crash::CrashBits& crash_bits,
                                        std::uint64_t seed) {
  const auto& scenario = injector_.memory_scenario();
  if (scenario == nullptr) {
    throw std::invalid_argument("CampaignPlanner: memory scenario not attached to the injector");
  }
  sites_ = scenario->FaultSites();
  const std::vector<MemorySite>& msites = scenario->sites();

  // Strata = consumed sites by dwell-depth bucket, plus one stratum for the
  // overwritten bytes (deterministically benign under delayed reporting — its
  // prior retires it after the confirming-samples floor, and every one of its
  // runs is a free short-circuit).
  constexpr int kNumBuckets = kNumDwell + 1;  // last bucket: overwritten
  std::vector<std::vector<std::uint32_t>> buckets(kNumBuckets);
  std::uint64_t population_bits = 0;
  for (std::size_t i = 0; i < msites.size(); ++i) {
    const MemorySite& ms = msites[i];
    const int key = ms.consumed ? DwellBucket(ms.Dwell()) : kNumDwell;
    buckets[key].push_back(static_cast<std::uint32_t>(i));
    population_bits += ms.WeightBits();
  }

  for (int key = 0; key < kNumBuckets; ++key) {
    if (buckets[key].empty()) continue;
    StratumState s;
    s.name = key == kNumDwell ? std::string("mem/overwritten")
                              : std::string("mem/consumed/") + kDwellNames[key];
    s.sites = std::move(buckets[key]);
    s.cumulative_bits.resize(s.sites.size());
    // Within-stratum draws mirror the uniform memory campaign: site
    // probability proportional to dwell x 8, bit uniform within the byte.
    // The model prior is dwell-mass-weighted for the same reason.
    std::uint64_t sdc_mass = 0;
    std::uint64_t crash_mass = 0;
    for (std::size_t j = 0; j < s.sites.size(); ++j) {
      const MemorySite& ms = msites[s.sites[j]];
      s.total_bits += ms.WeightBits();
      s.cumulative_bits[j] = s.total_bits;
      if (key != kNumDwell && ms.node != ddg::kNoNode && ace.Contains(ms.node)) {
        const std::uint64_t cb = std::min<std::uint64_t>(crash_bits.CrashBitCount(ms.node), 8);
        crash_mass += ms.Dwell() * cb;
        sdc_mass += ms.Dwell() * (8 - cb);
      }
    }
    s.weight = static_cast<double>(s.total_bits) / static_cast<double>(population_bits);
    s.prior_sdc = static_cast<double>(sdc_mass) / static_cast<double>(s.total_bits);
    s.prior_crash = static_cast<double>(crash_mass) / static_cast<double>(s.total_bits);
    s.rng.Seed(seed ^ (0x9E3779B97F4A7C15ull * (strata_.size() + 1)));
    strata_.push_back(std::move(s));
  }
  if (strata_.empty()) throw std::runtime_error("CampaignPlanner: no injectable fault sites");
}

bool CampaignPlanner::Done() const {
  if (kind_ == PlanKind::kUniform) return TotalRuns() >= options_.max_runs;
  if (options_.max_runs > 0 && TotalRuns() >= options_.max_runs) return true;
  return LiveStrata() == 0;
}

std::size_t CampaignPlanner::LiveStrata() const {
  std::size_t live = 0;
  for (const StratumState& s : strata_) {
    if (!s.retired) ++live;
  }
  return live;
}

double CampaignPlanner::WidestHalfWidth() const {
  double widest = 0.0;
  for (std::size_t h = 0; h < strata_.size(); ++h) {
    if (strata_[h].retired) continue;
    widest = std::max({widest, StratumSdc(h).half_width, StratumCrash(h).half_width});
  }
  return widest;
}

std::uint32_t CampaignPlanner::EffectiveRoundSize() const {
  if (options_.round_size > 0) return options_.round_size;
  return std::max<std::uint32_t>(64, 4 * static_cast<std::uint32_t>(strata_.size()));
}

std::vector<std::uint32_t> CampaignPlanner::Allocate(std::uint32_t budget) const {
  std::vector<std::uint32_t> alloc(strata_.size(), 0);
  std::vector<double> score(strata_.size(), 0.0);
  double total_score = 0.0;
  for (std::size_t h = 0; h < strata_.size(); ++h) {
    if (strata_[h].retired) continue;
    const double ps = StratumSdc(h).rate;
    const double pc = StratumCrash(h).rate;
    const double var = std::max({ps * (1.0 - ps), pc * (1.0 - pc), kSigmaFloor * kSigmaFloor});
    score[h] = strata_[h].weight * std::sqrt(var);
    total_score += score[h];
  }
  if (total_score <= 0.0 || budget == 0) return alloc;

  // Largest-remainder rounding: quotas floor to a base allocation, then the
  // leftover runs go to the largest fractional parts (ties to the lower
  // stratum index), so the parts always sum to the budget exactly.
  std::uint32_t assigned = 0;
  std::vector<std::pair<double, std::size_t>> remainders;
  for (std::size_t h = 0; h < strata_.size(); ++h) {
    if (score[h] <= 0.0) continue;
    const double quota = static_cast<double>(budget) * score[h] / total_score;
    const auto base = static_cast<std::uint32_t>(quota);
    alloc[h] = base;
    assigned += base;
    remainders.emplace_back(quota - static_cast<double>(base), h);
  }
  std::sort(remainders.begin(), remainders.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  for (std::size_t i = 0; assigned < budget; ++i) {
    alloc[remainders[i % remainders.size()].second] += 1;
    ++assigned;
  }
  return alloc;
}

std::vector<PlannedInjection> CampaignPlanner::BeginRound() {
  if (round_open_) throw std::logic_error("CampaignPlanner: round already open");
  if (Done()) throw std::logic_error("CampaignPlanner: BeginRound on a finished plan");
  std::uint64_t budget = EffectiveRoundSize();
  if (options_.max_runs > 0) {
    budget = std::min<std::uint64_t>(budget, options_.max_runs - TotalRuns());
  }
  const std::vector<std::uint32_t> alloc = Allocate(static_cast<std::uint32_t>(budget));

  open_round_.clear();
  open_round_.reserve(static_cast<std::size_t>(budget));
  for (std::size_t h = 0; h < strata_.size(); ++h) {
    StratumState& s = strata_[h];
    for (std::uint32_t j = 0; j < alloc[h]; ++j) {
      // Every stratum draws the same way — site probability proportional to
      // its bits, bit uniform within the site, then the jitter draws — from
      // its own persistent stream.
      const std::uint64_t r = s.rng.Below(s.total_bits);
      const std::size_t index = static_cast<std::size_t>(
          std::upper_bound(s.cumulative_bits.begin(), s.cumulative_bits.end(), r) -
          s.cumulative_bits.begin());
      PlannedInjection run;
      run.site = sites_[s.sites[index]];
      run.bit = static_cast<std::uint8_t>(s.rng.Below(run.site.width));
      run.stratum = static_cast<std::uint32_t>(h);
      run.jitter = injector_.DrawJitter(s.rng);
      open_round_.push_back(run);
    }
  }
  round_open_ = true;
  return open_round_;
}

void CampaignPlanner::CommitRound(std::span<const FaultRecord> records) {
  if (!round_open_) throw std::logic_error("CampaignPlanner: CommitRound without BeginRound");
  if (records.size() != open_round_.size()) {
    throw std::invalid_argument("CampaignPlanner: round size mismatch");
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!Matches(open_round_[i], records[i])) {
      throw std::invalid_argument("CampaignPlanner: record does not match the planned run");
    }
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    StratumState& s = strata_[open_round_[i].stratum];
    s.runs += 1;
    s.counts[static_cast<int>(records[i].outcome)] += 1;
    if (records[i].outcome == Outcome::kSdc) s.sdc += 1;
    if (IsCrash(records[i].outcome)) s.crashes += 1;
    records_.push_back(records[i]);
  }
  round_sizes_.push_back(static_cast<std::uint32_t>(records.size()));
  round_open_ = false;
  open_round_.clear();
  RetireSweep(static_cast<std::uint32_t>(round_sizes_.size()) - 1);

  obs::GetCounter("planner.rounds").Add(1);
  obs::GetCounter("planner.runs").Add(records.size());
  for (const StratumState& s : strata_) {
    if (s.retired && s.retired_round + 1 == round_sizes_.size()) {
      obs::GetCounter("planner.strata.retired").Add(1);
    }
  }
}

void CampaignPlanner::RetireSweep(std::uint32_t round) {
  if (kind_ == PlanKind::kUniform) return;  // a fixed budget never stops early
  for (std::size_t h = 0; h < strata_.size(); ++h) {
    StratumState& s = strata_[h];
    if (s.retired || s.runs < options_.min_per_stratum) continue;
    const double widest = std::max(StratumSdc(h).half_width, StratumCrash(h).half_width);
    if (widest <= options_.ci_target) {
      s.retired = true;
      s.retired_round = round;
      obs::GetCounter("planner.stratum." + s.name + ".runs").Add(s.runs);
    }
  }
}

RateEstimate CampaignPlanner::StratumSdc(std::size_t h) const {
  const StratumState& s = strata_[h];
  const double trials = static_cast<double>(s.runs) + options_.model_prior;
  const double successes = static_cast<double>(s.sdc) + options_.model_prior * s.prior_sdc;
  return RateEstimate{trials <= 0.0 ? 0.0 : successes / trials,
                      WilsonHalfWidth95(successes, trials)};
}

RateEstimate CampaignPlanner::StratumCrash(std::size_t h) const {
  const StratumState& s = strata_[h];
  const double trials = static_cast<double>(s.runs) + options_.model_prior;
  const double successes = static_cast<double>(s.crashes) + options_.model_prior * s.prior_crash;
  return RateEstimate{trials <= 0.0 ? 0.0 : successes / trials,
                      WilsonHalfWidth95(successes, trials)};
}

RateEstimate CampaignPlanner::Composite(bool crash) const {
  // Real counts only: the model pseudo-counts steer allocation and stopping,
  // but blending them here would bias the headline estimates wherever the
  // model is systematically off (its confident strata retire after few
  // confirming samples, freezing the prior's error into the rate). The
  // classic stratified estimator over the committed outcomes is unbiased, so
  // its CI covers a dense uniform reference campaign — the bench_fig11
  // acceptance gate. A stratum with no real samples yet (max_runs tripped
  // before its floor) falls back to the model prediction at prior strength.
  double rate = 0.0;
  double variance = 0.0;
  for (std::size_t h = 0; h < strata_.size(); ++h) {
    const StratumState& s = strata_[h];
    double p, trials;
    if (s.runs > 0) {
      const std::uint64_t hits = crash ? s.crashes : s.sdc;
      trials = static_cast<double>(s.runs);
      p = static_cast<double>(hits) / trials;
    } else {
      trials = options_.model_prior;
      p = crash ? s.prior_crash : s.prior_sdc;
    }
    rate += s.weight * p;
    if (trials > 0.0) {
      variance += s.weight * s.weight * p * (1.0 - p) / trials;
    }
  }
  return RateEstimate{rate, kZ95 * std::sqrt(variance)};
}

RateEstimate CampaignPlanner::SdcEstimate() const { return Composite(/*crash=*/false); }
RateEstimate CampaignPlanner::CrashEstimate() const { return Composite(/*crash=*/true); }

CampaignStats CampaignPlanner::Stats() const {
  CampaignStats stats;
  stats.records = records_;
  for (const FaultRecord& r : records_) stats.counts[static_cast<int>(r.outcome)] += 1;
  return stats;
}

PlanReplay ReplayPlan(CampaignPlanner& planner, std::span<const std::uint32_t> round_sizes,
                      std::span<const FaultRecord> records,
                      std::span<const std::uint8_t> completed) {
  PlanReplay out;
  if (records.size() != completed.size()) return out;
  std::uint64_t total = 0;
  for (const std::uint32_t size : round_sizes) total += size;
  if (total != records.size()) return out;

  std::size_t offset = 0;
  for (std::size_t r = 0; r < round_sizes.size(); ++r) {
    const std::uint32_t size = round_sizes[r];
    const auto recs = records.subspan(offset, size);
    const auto comp = completed.subspan(offset, size);
    offset += size;
    if (planner.Done()) return out;  // rounds beyond a finished plan: bogus log

    const std::vector<PlannedInjection> queue = planner.BeginRound();
    if (queue.size() != size) return out;
    bool all_complete = true;
    for (std::size_t i = 0; i < size; ++i) {
      if (comp[i] == 0) {
        all_complete = false;
        continue;
      }
      if (!CampaignPlanner::Matches(queue[i], recs[i])) return out;
    }
    if (all_complete) {
      planner.CommitRound(recs);
      out.resumed_runs += size;
      continue;
    }
    // A partial round can only be the in-flight tail of an interrupted
    // campaign; anything recorded after it cannot have been drawn honestly.
    if (r + 1 != round_sizes.size()) return out;
    out.pending_queue = queue;
    out.pending_records.assign(recs.begin(), recs.end());
    out.pending_completed.assign(comp.begin(), comp.end());
    for (std::size_t i = 0; i < size; ++i) {
      if (comp[i] != 0) out.resumed_runs += 1;
    }
  }
  out.consistent = true;
  return out;
}

namespace {

/// The suffix-replay fast path: one extra golden replay drops the snapshots
/// the injector's options ask for. A jittered injector builds none (its runs
/// diverge from instruction zero), and one that already holds snapshots (an
/// earlier round, or sites a caller loaded) keeps them.
void BuildCheckpointsOnce(Injector& injector, CampaignPerf& perf) {
  const InjectorOptions& options = injector.options();
  if (options.jitter_pages != 0 || injector.NumCheckpoints() > 0) return;
  const std::vector<std::uint64_t> sites =
      CheckpointSites(injector.golden().instructions_executed, options.checkpoints);
  if (sites.empty()) return;
  const obs::TimedSection timed("injection", "checkpoint-build", "campaign.checkpoint_build.us",
                                &perf.checkpoint_seconds);
  perf.checkpoints = injector.BuildCheckpoints(sites);
}

}  // namespace

ExecuteResult ExecutePlannedRuns(Injector& injector, std::span<const PlannedInjection> queue,
                                 const ExecuteOptions& options) {
  ExecuteResult out;
  out.records.resize(queue.size());
  out.completed.assign(queue.size(), 0);
  const auto tick = [&](Outcome outcome) {
    if (options.progress != nullptr) options.progress->Tick(static_cast<std::size_t>(outcome));
  };
  if (options.resume_records.size() == queue.size() &&
      options.resume_completed.size() == queue.size()) {
    for (std::size_t i = 0; i < queue.size(); ++i) {
      if (options.resume_completed[i] == 0) continue;
      if (!CampaignPlanner::Matches(queue[i], options.resume_records[i])) continue;
      out.records[i] = options.resume_records[i];
      out.completed[i] = 1;
      out.perf.resumed_records += 1;
      tick(out.records[i].outcome);
    }
  }

  // The shard window: a contiguous slice of queue indices (the whole queue
  // for shard_count 1). Everything outside it is someone else's work.
  const ShardRange window =
      ShardSlice(queue.size(), static_cast<int>(options.shard_count),
                 static_cast<int>(options.shard_index));
  std::vector<std::uint32_t> pending;
  pending.reserve(window.Size());
  for (std::size_t i = window.begin; i < window.end; ++i) {
    if (out.completed[i] == 0) pending.push_back(static_cast<std::uint32_t>(i));
  }
  if (!pending.empty()) BuildCheckpointsOnce(injector, out.perf);
  // Site order keeps neighbouring runs on the same suffix checkpoint when the
  // injector has snapshots loaded; records still land at their queue index.
  if (injector.NumCheckpoints() > 0) {
    std::stable_sort(pending.begin(), pending.end(), [&](std::uint32_t a, std::uint32_t b) {
      return queue[a].site.dyn_index < queue[b].site.dyn_index;
    });
  }

  // Dynamically scheduled on the shared pool, one run per task: runs that
  // crash (or trap early) finish far sooner than benign runs that execute to
  // completion, so a free worker immediately claims the next planned run
  // instead of idling behind a statically chunked tail. Grain 1 is right
  // here — each task is a whole program execution, dwarfing the scheduling
  // atomics. Records land at their queue index, so outcomes are bit-identical
  // for every thread count, checkpoint setting and persistence batch size.
  // With a persistence hook the pending runs execute in batches, with a call
  // from this coordinating thread after each.
  std::vector<std::uint64_t> resumed_from(queue.size(), 0);
  std::vector<std::uint8_t> statically_masked(queue.size(), 0);
  const std::size_t batch =
      options.on_progress && options.progress_interval > 0
          ? static_cast<std::size_t>(options.progress_interval)
          : (pending.empty() ? std::size_t{1} : pending.size());
  double hook_seconds = 0;
  obs::TimedSection inject_timed("injection", "inject-loop", "campaign.inject.us");
  for (std::size_t begin = 0; begin < pending.size(); begin += batch) {
    const std::size_t end = std::min(begin + batch, pending.size());
    ParallelFor(begin, end, ParallelOptions{.jobs = options.num_threads, .grain = 1},
                [&](std::size_t k) {
                  const std::uint32_t i = pending[k];
                  const PlannedInjection& r = queue[i];
                  const auto result = injector.Inject(r.site, r.bit, r.jitter);
                  resumed_from[i] = result.resumed_from;
                  statically_masked[i] = result.statically_masked ? 1 : 0;
                  out.records[i] = FaultRecord{r.site, r.bit, result.outcome};
                  out.completed[i] = 1;
                  tick(result.outcome);
                });
    if (options.on_progress) {
      const Stopwatch hook;
      options.on_progress(out.records, out.completed);
      hook_seconds += hook.ElapsedSeconds();
    }
  }
  out.perf.inject_seconds = inject_timed.Stop() - hook_seconds;

  std::array<std::uint64_t, kNumOutcomes> executed{};
  for (const std::uint32_t i : pending) {
    executed[static_cast<int>(out.records[i].outcome)] += 1;
    if (statically_masked[i] != 0) {
      out.perf.statically_masked_runs += 1;
    } else if (resumed_from[i] > 0) {
      out.perf.checkpointed_runs += 1;
      out.perf.skipped_instructions += resumed_from[i];
    } else {
      out.perf.full_runs += 1;
    }
  }
  for (int o = 0; o < kNumOutcomes; ++o) {
    if (executed[o] != 0) {
      obs::GetCounter(std::string("campaign.outcome.") +
                      std::string(OutcomeName(static_cast<Outcome>(o))))
          .Add(executed[o]);
    }
  }
  return out;
}

}  // namespace epvf::fi
