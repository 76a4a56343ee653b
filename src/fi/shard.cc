#include "fi/shard.h"

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace epvf::fi {

int ResolveShardCount(int flag, const char* env, PlanKind kind, int num_runs) {
  const bool from_flag = flag > 0;
  int shards = from_flag ? flag : env == nullptr ? 1 : std::atoi(env);
  if (shards > kMaxShards) {
    throw std::out_of_range((from_flag ? "--shards " : "EPVF_SHARDS=") + std::to_string(shards) +
                            " exceeds the limit of " + std::to_string(kMaxShards) + " shards");
  }
  if (shards < 1) shards = 1;
  if (kind == PlanKind::kUniform && shards > num_runs) shards = num_runs > 0 ? num_runs : 1;
  return shards;
}

ShardRange ShardSlice(std::size_t num_runs, int shard_count, int shard_index) {
  if (shard_count < 1 || shard_index < 0 || shard_index >= shard_count) {
    throw std::invalid_argument("ShardSlice: shard " + std::to_string(shard_index) + " of " +
                                std::to_string(shard_count) + " is not a valid coordinate");
  }
  const auto count = static_cast<std::size_t>(shard_count);
  const auto index = static_cast<std::size_t>(shard_index);
  // The classic balanced split: the first (num_runs % count) shards carry one
  // extra run, computed without overflow via the rounding division.
  ShardRange range;
  range.begin = num_runs * index / count;
  range.end = num_runs * (index + 1) / count;
  return range;
}

namespace {

bool SameRecord(const FaultRecord& a, const FaultRecord& b) {
  return a.site.dyn_index == b.site.dyn_index && a.site.slot == b.site.slot &&
         a.site.width == b.site.width && a.site.node == b.site.node && a.bit == b.bit &&
         a.outcome == b.outcome;
}

}  // namespace

MergedRecords MergeShards(std::size_t num_runs, const std::vector<ShardRecords>& shards) {
  MergedRecords out;
  out.records.resize(num_runs);
  out.completed.assign(num_runs, 0);
  for (const ShardRecords& shard : shards) {
    if (shard.records.size() != num_runs || shard.completed.size() != num_runs) continue;
    for (std::size_t i = 0; i < num_runs; ++i) {
      if (shard.completed[i] == 0) continue;
      if (out.completed[i] == 0) {
        out.records[i] = shard.records[i];
        out.completed[i] = 1;
        continue;
      }
      // Two shards claim index i. Identical claims are harmless (a worker
      // relaunched after persisting but before its exit was observed); a
      // disagreement means at least one side is untrustworthy, so the index
      // is re-executed rather than guessed at.
      if (!SameRecord(out.records[i], shard.records[i])) {
        out.records[i] = FaultRecord{};
        out.completed[i] = 0;
        out.conflicts += 1;
      }
    }
  }
  for (std::size_t i = 0; i < num_runs; ++i) {
    if (out.completed[i] != 0) {
      out.merged += 1;
    } else {
      out.missing += 1;
    }
  }
  return out;
}

}  // namespace epvf::fi
