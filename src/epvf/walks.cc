#include "epvf/walks.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "ir/verifier.h"
#include "support/thread_pool.h"

namespace epvf::core {

namespace {

struct StaticUse {
  std::uint32_t block;
  std::uint32_t instr;
  std::uint8_t slot;
};

/// The budgeted forward search over `reg`'s postdominating static uses.
bool SearchSurvivesToAddress(const ir::Function& fn, const std::vector<std::uint32_t>& ipdom,
                             const std::vector<std::vector<StaticUse>>& uses,
                             std::uint32_t block, std::uint32_t reg) {
  std::vector<std::uint32_t> worklist{reg};
  std::vector<std::uint8_t> seen(fn.registers.size(), 0);
  seen[reg] = 1;
  int budget = 64;
  while (!worklist.empty() && budget-- > 0) {
    const std::uint32_t r = worklist.back();
    worklist.pop_back();
    for (const StaticUse& use : uses[r]) {
      if (!ir::PostDominates(ipdom, use.block, block)) continue;
      const ir::Instruction& inst = fn.blocks[use.block].instructions[use.instr];
      if (inst.AddressOperandSlot() == static_cast<int>(use.slot)) return true;
      if (inst.op == ir::Opcode::kSelect || inst.op == ir::Opcode::kICmp ||
          inst.op == ir::Opcode::kFCmp || inst.op == ir::Opcode::kCondBr) {
        continue;  // clamps and further control don't carry the raw value
      }
      if (inst.DefinesValue() && !seen[inst.result]) {
        seen[inst.result] = 1;
        worklist.push_back(inst.result);
      }
    }
  }
  return false;
}

}  // namespace

ControlOracle::ControlOracle(const ir::Module& module) {
  answers_.resize(module.functions.size());
  for (std::uint32_t f = 0; f < module.functions.size(); ++f) {
    const ir::Function& fn = module.functions[f];
    const std::vector<std::uint32_t> ipdom = ir::ComputeImmediatePostDominators(fn);
    std::vector<std::vector<StaticUse>> uses(fn.registers.size());
    // The questions the walk can ask: each register operand of each compare
    // or conditional branch, about its own block.
    std::vector<std::uint64_t> keys;
    for (std::uint32_t b = 0; b < fn.blocks.size(); ++b) {
      const auto& insts = fn.blocks[b].instructions;
      for (std::uint32_t i = 0; i < insts.size(); ++i) {
        const bool asks = insts[i].op == ir::Opcode::kICmp ||
                          insts[i].op == ir::Opcode::kFCmp ||
                          insts[i].op == ir::Opcode::kCondBr;
        for (std::size_t slot = 0; slot < insts[i].operands.size(); ++slot) {
          const ir::ValueRef& operand = insts[i].operands[slot];
          if (!operand.IsRegister()) continue;
          uses[operand.index].push_back(StaticUse{b, i, static_cast<std::uint8_t>(slot)});
          if (asks) keys.push_back(AnswerKey(b, operand.index));
        }
      }
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    answers_[f].reserve(keys.size());
    for (const std::uint64_t key : keys) {
      const auto block = static_cast<std::uint32_t>(key >> 32);
      const auto reg = static_cast<std::uint32_t>(key);
      answers_[f].push_back(Answer{key, SearchSurvivesToAddress(fn, ipdom, uses, block, reg)});
    }
  }
}

void ControlOracle::ThrowNotAsked(std::uint32_t function, std::uint32_t block,
                                  std::uint32_t reg) {
  throw std::logic_error("ControlOracle: register " + std::to_string(reg) +
                         " is no compare or branch operand in block " +
                         std::to_string(block) + " of function " + std::to_string(function));
}

UseIndex BuildUseIndex(const ddg::Graph& graph, int jobs) {
  UseIndex index;
  const std::size_t n = graph.NumNodes();
  const auto num_dyn = static_cast<std::uint32_t>(graph.NumDynInstrs());

  unsigned parts = ThreadPool::ResolveJobs(jobs);
  // Each slice carries an O(NumNodes) count array; stop splitting when the
  // slices are too small to pay for it.
  parts = std::min<unsigned>(parts, std::max<std::uint32_t>(1, num_dyn / 4096));
  if (parts > 1) parts = ThreadPool::Shared().PrepareParticipants(parts);

  if (parts <= 1) {
    std::vector<std::uint32_t> counts(n + 1, 0);
    ForEachUse(graph, 0, num_dyn,
               [&](ddg::NodeId node, std::uint32_t, std::uint8_t) { ++counts[node + 1]; });
    for (std::size_t i = 1; i <= n; ++i) counts[i] += counts[i - 1];
    index.offsets = counts;
    index.use_dyn.resize(index.offsets[n]);
    index.use_slot.resize(index.offsets[n]);
    std::vector<std::uint32_t> cursor(index.offsets.begin(), index.offsets.end() - 1);
    ForEachUse(graph, 0, num_dyn, [&](ddg::NodeId node, std::uint32_t dyn, std::uint8_t slot) {
      index.use_dyn[cursor[node]] = dyn;
      index.use_slot[cursor[node]] = slot;
      ++cursor[node];
    });
    return index;
  }

  std::vector<std::uint32_t> slice_begin(parts + 1);
  for (unsigned w = 0; w <= parts; ++w) {
    slice_begin[w] = static_cast<std::uint32_t>(std::uint64_t{num_dyn} * w / parts);
  }
  std::vector<std::vector<std::uint32_t>> counts(parts);
  ThreadPool::Shared().Run(parts, [&](unsigned w) {
    counts[w].assign(n, 0);
    ForEachUse(graph, slice_begin[w], slice_begin[w + 1],
               [&](ddg::NodeId node, std::uint32_t, std::uint8_t) { ++counts[w][node]; });
  });

  index.offsets.assign(n + 1, 0);
  std::uint32_t running = 0;
  for (std::size_t node = 0; node < n; ++node) {
    index.offsets[node] = running;
    for (unsigned w = 0; w < parts; ++w) {
      const std::uint32_t c = counts[w][node];
      counts[w][node] = running;  // becomes slice w's write cursor for `node`
      running += c;
    }
  }
  index.offsets[n] = running;
  index.use_dyn.resize(running);
  index.use_slot.resize(running);
  ThreadPool::Shared().Run(parts, [&](unsigned w) {
    ForEachUse(graph, slice_begin[w], slice_begin[w + 1],
               [&](ddg::NodeId node, std::uint32_t dyn, std::uint8_t slot) {
                 const std::uint32_t pos = counts[w][node]++;
                 index.use_dyn[pos] = dyn;
                 index.use_slot[pos] = slot;
               });
  });
  return index;
}

}  // namespace epvf::core
