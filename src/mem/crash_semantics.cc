#include "mem/crash_semantics.h"

namespace epvf::mem {

namespace {

std::uint64_t PageFloor(std::uint64_t addr, std::uint64_t page) { return addr & ~(page - 1); }

/// Lowest address the stack may ever grow to: stack_top - 8 MB.
std::uint64_t StackLimitFloor(const MemoryMap& map, const MemoryLayout& layout) {
  const Vma* stack = map.FindKind(SegmentKind::kStack);
  if (stack == nullptr) return 0;
  return stack->end - layout.stack_limit_bytes;
}

/// The grow-window floor of Figure 4: esp - 65536 - 128, clamped to the 8 MB
/// limit. Accesses at or above this (and below the stack vma) grow the stack.
std::uint64_t GrowFloor(const MemoryMap& map, std::uint64_t esp, const MemoryLayout& layout) {
  const std::uint64_t window_floor =
      esp >= layout.stack_grow_window ? esp - layout.stack_grow_window : 0;
  const std::uint64_t limit_floor = StackLimitFloor(map, layout);
  return window_floor > limit_floor ? window_floor : limit_floor;
}

}  // namespace

AccessDecision DecideAccess(const MemoryMap& map, std::uint64_t esp, std::uint64_t addr,
                            unsigned size, const MemoryLayout& layout) {
  AccessDecision decision;

  const std::uint64_t last = addr + size - 1;
  const Vma* vma = map.Find(addr);
  const Vma* vma_last = size <= 1 ? vma : map.Find(last);

  const bool fully_mapped = vma != nullptr && vma == vma_last;
  if (!fully_mapped) {
    // Not (fully) inside a vma. Figure 4 case I: within the stack grow
    // window, below the current stack vma, and under the 8 MB limit.
    const Vma* stack = map.FindKind(SegmentKind::kStack);
    const bool below_stack = stack != nullptr && last < stack->start;
    const std::uint64_t grow_floor = GrowFloor(map, esp, layout);
    if (below_stack && addr >= grow_floor) {
      decision.grow_stack = true;
      decision.grow_to = PageFloor(addr, layout.page_size);
    } else {
      decision.fault = MemFault::kSegFault;  // Figure 4 case II
      return decision;
    }
  }

  if (IsMisaligned(addr, size)) {
    decision.fault = MemFault::kMisaligned;
    decision.grow_stack = false;
  }
  return decision;
}

Interval AllowedAddressInterval(const MemoryMap& map, std::uint64_t esp, std::uint64_t addr,
                                unsigned size, const MemoryLayout& layout) {
  const Vma* vma = map.Find(addr);
  if (vma == nullptr) return Interval::Empty();

  std::uint64_t lo = vma->start;
  // vma->end is exclusive and the access spans `size` bytes, so the last
  // allowed start address keeps the whole access inside the region.
  std::uint64_t hi = vma->end - size;

  if (vma->kind == SegmentKind::kStack) {
    // The stack's effective lower bound is the grow window, not vma_start:
    // accesses below vma_start but above esp - 65536 - 128 grow the stack
    // instead of faulting (Figure 4 case I / Algorithm 3 lines 6-10).
    const std::uint64_t grow_floor = GrowFloor(map, esp, layout);
    if (grow_floor < lo) lo = grow_floor;
  }
  if (lo > hi) return Interval::Empty();
  return Interval{lo, hi};
}

}  // namespace epvf::mem
