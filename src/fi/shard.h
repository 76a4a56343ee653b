// Shard decomposition for multi-process fault-injection campaigns.
//
// A campaign round's queue is drawn deterministically from the seed, so any
// partition of its indices can execute anywhere — different threads,
// different processes, different machines — and recombine into the exact
// record stream of a single-process run (the same observation FastFlip and
// Hari et al.'s two-level model build on: injections are independent and
// recombinable). This header defines the partition (contiguous slices, so
// the site-sorted checkpoint fast path stays warm within a shard) and the
// recombination of per-shard record/completion-mask pairs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fi/campaign.h"
#include "fi/planner.h"
#include "support/thread_pool.h"

namespace epvf::fi {

/// The most worker processes one sharded campaign launches: the same bound
/// as --jobs (ThreadPool::kMaxThreads).
inline constexpr int kMaxShards = static_cast<int>(ThreadPool::kMaxThreads);

/// The shard count a campaign runs with. `flag` is --shards (<= 0 when
/// absent) and `env` is EPVF_SHARDS (null when unset): the flag wins, then
/// the environment, then 1, and a count below 1 is 1. A count above
/// kMaxShards throws std::out_of_range naming the limit, under either plan
/// and before any clamp, so the answer never depends on --runs. Under the
/// uniform plan the count is then clamped to `num_runs` (its one round is
/// the whole campaign); the stratified planner chooses its own round sizes.
[[nodiscard]] int ResolveShardCount(int flag, const char* env, PlanKind kind, int num_runs);

/// A half-open range of plan indices owned by one shard.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] std::size_t Size() const { return end - begin; }
  [[nodiscard]] bool Contains(std::size_t i) const { return i >= begin && i < end; }
};

/// The contiguous slice of `num_runs` plan indices owned by shard
/// `shard_index` of `shard_count`. Slices are disjoint, cover [0, num_runs)
/// exactly, and differ in size by at most one run. Throws on an invalid
/// shard coordinate (count < 1 or index outside [0, count)).
[[nodiscard]] ShardRange ShardSlice(std::size_t num_runs, int shard_count, int shard_index);

/// One shard's contribution: full-length (num_runs) record and completion
/// vectors with only the shard's own indices marked complete — the exact
/// shape a slice entry persists, so a slice deserializes straight into this.
struct ShardRecords {
  std::vector<FaultRecord> records;
  std::vector<std::uint8_t> completed;
};

/// The recombined stream plus merge diagnostics.
struct MergedRecords {
  std::vector<FaultRecord> records;
  std::vector<std::uint8_t> completed;
  std::uint64_t merged = 0;    ///< indices adopted from exactly one shard
  std::uint64_t missing = 0;   ///< indices no shard completed
  std::uint64_t conflicts = 0; ///< indices two shards both claim (both dropped)
};

/// Folds per-shard record/mask pairs into one campaign-wide pair. A plan
/// index completed by exactly one shard is adopted; an index claimed by two
/// shards with disagreeing records is a merge conflict and is dropped back
/// to incomplete (the resuming campaign simply re-executes it — correctness
/// over trust). Shards whose vectors are not `num_runs` long are skipped and
/// their indices counted missing.
[[nodiscard]] MergedRecords MergeShards(std::size_t num_runs,
                                        const std::vector<ShardRecords>& shards);

}  // namespace epvf::fi
