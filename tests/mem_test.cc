// Memory substrate tests: vma map bookkeeping and SimMemory behaviour,
// including the page-translation cache (TLB) against the Figure 4 decision
// logic it short-cuts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mem/crash_semantics.h"
#include "mem/sim_memory.h"

namespace epvf::mem {
namespace {

TEST(MemoryMap, AddFindAndOrdering) {
  MemoryMap map;
  map.Add(Vma{0x1000, 0x2000, SegmentKind::kData});
  map.Add(Vma{0x4000, 0x5000, SegmentKind::kHeap});
  EXPECT_EQ(map.Find(0x0FFF), nullptr);
  ASSERT_NE(map.Find(0x1000), nullptr);
  EXPECT_EQ(map.Find(0x1000)->kind, SegmentKind::kData);
  EXPECT_NE(map.Find(0x1FFF), nullptr);
  EXPECT_EQ(map.Find(0x2000), nullptr) << "end is exclusive";
  EXPECT_EQ(map.Find(0x3000), nullptr) << "gap between segments";
  EXPECT_EQ(map.Find(0x4800)->kind, SegmentKind::kHeap);
}

TEST(MemoryMap, RejectsOverlapsAndEmpty) {
  MemoryMap map;
  map.Add(Vma{0x1000, 0x2000, SegmentKind::kData});
  EXPECT_THROW(map.Add(Vma{0x1800, 0x2800, SegmentKind::kHeap}), std::invalid_argument);
  EXPECT_THROW(map.Add(Vma{0x3000, 0x3000, SegmentKind::kHeap}), std::invalid_argument);
}

TEST(MemoryMap, VersionBumpsOnMutation) {
  MemoryMap map;
  const std::uint64_t v0 = map.version();
  map.Add(Vma{0x1000, 0x2000, SegmentKind::kHeap});
  EXPECT_EQ(map.version(), v0 + 1);
  map.ExtendUp(SegmentKind::kHeap, 0x3000);
  EXPECT_EQ(map.version(), v0 + 2);
  map.ExtendUp(SegmentKind::kHeap, 0x3000);  // no growth, no bump
  EXPECT_EQ(map.version(), v0 + 2);
  map.ExtendDown(SegmentKind::kHeap, 0x800);
  EXPECT_EQ(map.version(), v0 + 3);
}

TEST(MemoryMap, FindKind) {
  MemoryMap map;
  map.Add(Vma{0x1000, 0x2000, SegmentKind::kStack});
  EXPECT_NE(map.FindKind(SegmentKind::kStack), nullptr);
  EXPECT_EQ(map.FindKind(SegmentKind::kText), nullptr);
}

TEST(SimMemory, LayoutSegmentsPresent) {
  const SimMemory mem;
  const MemoryMap& map = mem.map();
  EXPECT_NE(map.FindKind(SegmentKind::kText), nullptr);
  EXPECT_NE(map.FindKind(SegmentKind::kData), nullptr);
  EXPECT_NE(map.FindKind(SegmentKind::kHeap), nullptr);
  EXPECT_NE(map.FindKind(SegmentKind::kStack), nullptr);
  EXPECT_EQ(mem.esp(), mem.layout().stack_top);
}

TEST(SimMemory, MallocBumpsAndExtendsHeapVma) {
  SimMemory mem;
  const std::uint64_t a = mem.Malloc(100);
  const std::uint64_t b = mem.Malloc(100);
  EXPECT_GE(b, a + 100);
  EXPECT_EQ(a % 16, 0u);
  EXPECT_EQ(b % 16, 0u);
  const std::uint64_t big = mem.Malloc(3 * 4096);
  const Vma* heap = mem.map().FindKind(SegmentKind::kHeap);
  ASSERT_NE(heap, nullptr);
  EXPECT_GE(heap->end, big + 3 * 4096);
  EXPECT_EQ(mem.bytes_allocated(), 200u + 3 * 4096);
}

TEST(SimMemory, ScalarRoundTrip) {
  SimMemory mem;
  const std::uint64_t p = mem.Malloc(64);
  mem.StoreScalar(p, 8, 0x1122334455667788ull);
  EXPECT_EQ(mem.LoadScalar(p, 8), 0x1122334455667788ull);
  EXPECT_EQ(mem.LoadScalar(p, 4), 0x55667788u) << "little-endian platform model";
  EXPECT_EQ(mem.LoadScalar(p + 4, 4), 0x11223344u);
  mem.StoreScalar(p + 1, 1, 0xAB);
  EXPECT_EQ(mem.LoadScalar(p, 2), 0xAB88u);
}

TEST(SimMemory, UntouchedMemoryReadsZero) {
  SimMemory mem;
  const std::uint64_t p = mem.Malloc(16);
  EXPECT_EQ(mem.LoadScalar(p, 8), 0u);
}

TEST(SimMemory, CrossPageAccess) {
  SimMemory mem;
  const std::uint64_t base = mem.Malloc(3 * 4096);
  const std::uint64_t straddle = ((base / 4096) + 1) * 4096 - 4;
  mem.StoreScalar(straddle, 8, 0xCAFEBABE12345678ull);
  EXPECT_EQ(mem.LoadScalar(straddle, 8), 0xCAFEBABE12345678ull);
}

TEST(SimMemory, SnapshotHistoryTracksVersions) {
  SimMemory mem;
  mem.RecordHistory(true);
  const std::uint64_t v0 = mem.map().version();
  (void)mem.Malloc(3 * 4096);  // extends heap vma -> version bump
  const std::uint64_t v1 = mem.map().version();
  ASSERT_GT(v1, v0);
  const MemoryMap& old_snapshot = mem.Snapshot(v0);
  const MemoryMap& new_snapshot = mem.Snapshot(v1);
  EXPECT_LT(old_snapshot.FindKind(SegmentKind::kHeap)->end,
            new_snapshot.FindKind(SegmentKind::kHeap)->end);
  EXPECT_THROW((void)mem.Snapshot(v1 + 100), std::out_of_range);
}

TEST(SimMemory, JitterShiftsSegments) {
  LayoutJitter jitter;
  jitter.heap_shift_pages = 3;
  jitter.stack_shift_pages = -2;
  const SimMemory base;
  const SimMemory moved(MemoryLayout{}, jitter);
  EXPECT_EQ(moved.map().FindKind(SegmentKind::kHeap)->start,
            base.map().FindKind(SegmentKind::kHeap)->start + 3 * 4096);
  EXPECT_EQ(moved.map().FindKind(SegmentKind::kStack)->end,
            base.map().FindKind(SegmentKind::kStack)->end - 2 * 4096);
}

TEST(SimMemory, DataAllocationGrowsDataSegment) {
  SimMemory mem;
  const std::uint64_t g1 = mem.AllocateData(100);
  const std::uint64_t g2 = mem.AllocateData(8192);
  EXPECT_GE(g2, g1 + 100);
  const Vma* data = mem.map().FindKind(SegmentKind::kData);
  EXPECT_GE(data->end, g2 + 8192);
}

// --- FlipBits (the memory-resident fault primitive) --------------------------

TEST(SimMemoryFlip, FlipsExactlyTheRequestedBits) {
  SimMemory mem;
  const std::uint64_t addr = mem.Malloc(64);
  mem.StoreScalar(addr, 1, 0b0000'1010);
  mem.FlipBits(addr, 1, 1);
  EXPECT_EQ(mem.LoadScalar(addr, 1), 0b0000'1000u);
  mem.FlipBits(addr, 3, 2);  // burst of two adjacent bits
  EXPECT_EQ(mem.LoadScalar(addr, 1), 0b0001'0000u);
  mem.FlipBits(addr, 3, 2);  // XOR is its own inverse
  EXPECT_EQ(mem.LoadScalar(addr, 1), 0b0000'1000u);
}

TEST(SimMemoryFlip, NeverMappedAddressThrowsCleanly) {
  SimMemory mem;
  // The gap between segments is unmapped; so is address zero.
  EXPECT_THROW(mem.FlipBits(0, 0, 1), std::out_of_range);
  const Vma* data = mem.map().FindKind(SegmentKind::kData);
  const Vma* heap = mem.map().FindKind(SegmentKind::kHeap);
  ASSERT_NE(data, nullptr);
  ASSERT_NE(heap, nullptr);
  ASSERT_GT(heap->start, data->end) << "layout must leave an inter-segment gap";
  EXPECT_THROW(mem.FlipBits(data->end, 0, 1), std::out_of_range);
  // A cross-byte bit range is a caller bug regardless of the address.
  const std::uint64_t addr = mem.Malloc(8);
  EXPECT_THROW(mem.FlipBits(addr, 7, 2), std::invalid_argument);
  EXPECT_THROW(mem.FlipBits(addr, 8, 1), std::invalid_argument);
  EXPECT_THROW(mem.FlipBits(addr, 0, 0), std::invalid_argument);
}

TEST(SimMemoryFlip, MustNotGrowTheStackVma) {
  // CheckAccess on a below-esp stack address grows the vma (Figure 4 case I);
  // a particle strike must never have that side effect, so FlipBits is a
  // passive query: outside the current stack vma it throws instead.
  SimMemory mem;
  const Vma* stack = mem.map().FindKind(SegmentKind::kStack);
  ASSERT_NE(stack, nullptr);
  const std::uint64_t below = stack->start - 64;
  const std::uint64_t version_before = mem.map().version();
  EXPECT_THROW(mem.FlipBits(below, 0, 1), std::out_of_range);
  EXPECT_EQ(mem.map().version(), version_before);
}

TEST(SimMemoryFlip, PageBoundaryFlipSurvivesSnapshotRestore) {
  SimMemory mem;
  // Land one byte on each side of a 4 KiB page boundary inside the heap.
  const std::uint64_t block = mem.Malloc(3 * 4096);
  const std::uint64_t boundary = (block + 4096) & ~std::uint64_t{4095};
  mem.StoreScalar(boundary - 1, 1, 0xAA);
  mem.StoreScalar(boundary, 1, 0x55);

  const MemSnapshot snap = mem.TakeSnapshot();
  mem.FlipBits(boundary - 1, 7, 1);  // last byte of the lower page
  mem.FlipBits(boundary, 0, 1);      // first byte of the upper page
  EXPECT_EQ(mem.LoadScalar(boundary - 1, 1), 0xAAu ^ 0x80u);
  EXPECT_EQ(mem.LoadScalar(boundary, 1), 0x55u ^ 0x01u);

  // The snapshot predates the flips, so restoring it undoes both.
  mem.RestoreSnapshot(snap);
  EXPECT_EQ(mem.LoadScalar(boundary - 1, 1), 0xAAu);
  EXPECT_EQ(mem.LoadScalar(boundary, 1), 0x55u);
}

TEST(SimMemoryFlip, CowSharingWithLiveSnapshotStaysIntact) {
  // The whole checkpoint fast path hangs on this: N injected runs restore the
  // same snapshot, each flips its own byte, and none of them may see another
  // run's corruption through a shared page.
  SimMemory golden;
  const std::uint64_t addr = golden.Malloc(4096);
  golden.StoreScalar(addr, 8, 0x0123456789ABCDEFull);
  const MemSnapshot snap = golden.TakeSnapshot();

  SimMemory run_a;
  run_a.RestoreSnapshot(snap);
  SimMemory run_b;
  run_b.RestoreSnapshot(snap);
  run_a.FlipBits(addr, 0, 1);
  EXPECT_EQ(run_a.LoadScalar(addr, 8), 0x0123456789ABCDEFull ^ 1u);
  EXPECT_EQ(run_b.LoadScalar(addr, 8), 0x0123456789ABCDEFull)
      << "run A's injected page copy leaked into run B";
  EXPECT_EQ(golden.LoadScalar(addr, 8), 0x0123456789ABCDEFull)
      << "run A's injected page copy leaked into the snapshot source";
  // And the snapshot still restores pristine bytes after all that.
  SimMemory run_c;
  run_c.RestoreSnapshot(snap);
  EXPECT_EQ(run_c.LoadScalar(addr, 8), 0x0123456789ABCDEFull);
}

TEST(SimMemoryFlip, FlipOnASharedCachedPageIsSeenByTheNextLoad) {
  // The snapshot shares the page, so the checked access caches it
  // read-only. The flip clones the page, and the next (cached) load must
  // read the clone, not the snapshot's copy.
  SimMemory mem;
  const std::uint64_t addr = mem.Malloc(64);
  mem.StoreScalar(addr, 8, 0x0F0F0F0F0F0F0F0Full);
  const MemSnapshot snap = mem.TakeSnapshot();
  ASSERT_EQ(mem.CheckAccess(addr, 8), MemFault::kNone);
  EXPECT_EQ(mem.LoadScalar(addr, 8), 0x0F0F0F0F0F0F0F0Full);

  mem.FlipBits(addr, 4, 1);
  ASSERT_EQ(mem.CheckAccess(addr, 8), MemFault::kNone);
  EXPECT_EQ(mem.LoadScalar(addr, 8), 0x0F0F0F0F0F0F0F1Full);
  SimMemory sibling;
  sibling.RestoreSnapshot(snap);
  EXPECT_EQ(sibling.LoadScalar(addr, 8), 0x0F0F0F0F0F0F0F0Full)
      << "the flip leaked into the snapshot";
}

// --- the TLB against the decision logic -------------------------------------

TEST(SimMemoryTlb, RawAccessNeverMapsAPage) {
  // Raw stores (global initialisation, tests) never fill the TLB, so they
  // cannot make an unmapped page look mapped to a later checked access.
  SimMemory mem;
  const std::uint64_t unmapped = mem.map().FindKind(SegmentKind::kHeap)->end + 4 * 4096;
  mem.StoreScalar(unmapped, 8, 7);
  EXPECT_EQ(mem.LoadScalar(unmapped, 8), 7u);
  EXPECT_EQ(mem.CheckAccess(unmapped, 8), MemFault::kSegFault);
  EXPECT_EQ(mem.CheckAccess(unmapped, 8), MemFault::kSegFault);
}

TEST(SimMemoryTlb, CountsCreatedAndClonedPages) {
  SimMemory mem;
  const std::uint64_t addr = mem.Malloc(2 * 4096);
  mem.StoreScalar(addr, 8, 1);
  mem.StoreScalar(addr, 8, 2);  // the page is already this memory's own
  EXPECT_EQ(mem.pages_created(), 1u);
  EXPECT_EQ(mem.pages_cloned(), 0u);
  const MemSnapshot snap = mem.TakeSnapshot();
  mem.StoreScalar(addr, 8, 3);
  mem.StoreScalar(addr, 8, 4);
  EXPECT_EQ(mem.pages_created(), 1u);
  EXPECT_EQ(mem.pages_cloned(), 1u);
}

/// The bytes a correct memory holds: every store and flip applied in order,
/// never-written bytes zero.
using Shadow = std::unordered_map<std::uint64_t, std::uint8_t>;

std::uint64_t ShadowLoad(const Shadow& shadow, std::uint64_t addr, unsigned size) {
  std::uint64_t value = 0;
  for (unsigned i = 0; i < size; ++i) {
    const auto it = shadow.find(addr + i);
    const std::uint64_t byte = it == shadow.end() ? 0 : it->second;
    value |= byte << (8 * i);
  }
  return value;
}

bool SameMap(const MemoryMap& a, const MemoryMap& b) {
  if (a.version() != b.version() || a.vmas().size() != b.vmas().size()) return false;
  for (std::size_t i = 0; i < a.vmas().size(); ++i) {
    const Vma& x = a.vmas()[i];
    const Vma& y = b.vmas()[i];
    if (x.start != y.start || x.end != y.end || x.kind != y.kind) return false;
  }
  return true;
}

/// Seeded differential run: `accesses` checked accesses of 1, 2, 4 and 8
/// bytes within two pages of every vma edge, of the stack grow-window floor
/// and of page edges (so some cross a page and some are misaligned),
/// interleaved with Malloc, AllocateData, SetEsp, TakeSnapshot,
/// RestoreSnapshot and FlipBits. Every CheckAccess must return what
/// DecideAccess says on a copy of the map taken just before the call, the map
/// must grow exactly as that decision says, and every load must read the
/// shadow model.
void RunDifferential(const MemoryLayout& layout, const LayoutJitter& jitter,
                     std::uint64_t seed, int accesses) {
  constexpr std::uint64_t kPage = 4096;
  SimMemory mem(layout, jitter);
  Shadow shadow;
  std::vector<std::pair<MemSnapshot, Shadow>> snapshots;
  std::mt19937_64 rng(seed);
  const auto uniform = [&rng](std::uint64_t n) { return rng() % n; };
  const std::uint64_t stack_top = mem.layout().stack_top;

  // An address within two pages of a random edge of the current map.
  const auto near_an_edge = [&] {
    std::vector<std::uint64_t> edges;
    for (const Vma& v : mem.map().vmas()) {
      edges.push_back(v.start);
      edges.push_back(v.end);
    }
    edges.push_back(mem.esp() - mem.layout().stack_grow_window);
    std::uint64_t addr = edges[uniform(edges.size())] - 2 * kPage + uniform(4 * kPage + 1);
    // A third of the time land within a few bytes of a page edge.
    if (uniform(3) == 0) addr = (addr & ~(kPage - 1)) - 8 + uniform(17);
    return addr;
  };

  int checked = 0;
  int allowed = 0;
  int segfaults = 0;
  int misaligned = 0;
  int grows = 0;
  int page_crossing = 0;
  int loads = 0;
  for (int step = 0; checked < accesses; ++step) {
    const std::uint64_t op = uniform(100);
    if (op < 3) {
      (void)mem.Malloc(1 + uniform(3 * kPage));
    } else if (op < 5) {
      (void)mem.AllocateData(1 + uniform(2 * kPage));
    } else if (op < 9) {
      // ESP wanders within a few pages of where it is, 16-byte aligned and
      // never above the stack top.
      const std::uint64_t down = mem.esp() - 3 * kPage + uniform(6 * kPage);
      mem.SetEsp(std::min(down, stack_top) & ~std::uint64_t{15});
    } else if (op < 10) {
      snapshots.emplace_back(mem.TakeSnapshot(), shadow);
      if (snapshots.size() > 4) snapshots.erase(snapshots.begin());
    } else if (op < 11 && !snapshots.empty()) {
      const auto& [snap, bytes] = snapshots[uniform(snapshots.size())];
      mem.RestoreSnapshot(snap);
      shadow = bytes;
    } else if (op < 13) {
      const std::uint64_t addr = near_an_edge();
      const unsigned bit = static_cast<unsigned>(uniform(8));
      if (mem.map().Find(addr) == nullptr) {
        ASSERT_THROW(mem.FlipBits(addr, bit, 1), std::out_of_range) << "step " << step;
      } else {
        mem.FlipBits(addr, bit, 1);
        shadow[addr] ^= static_cast<std::uint8_t>(1u << bit);
      }
    } else {
      const unsigned size = 1u << uniform(4);
      std::uint64_t addr = near_an_edge();
      if (uniform(2) == 0) addr &= ~std::uint64_t{size - 1};
      const MemoryMap before = mem.map();
      const AccessDecision want = DecideAccess(before, mem.esp(), addr, size, mem.layout());
      const MemFault got = mem.CheckAccess(addr, size);
      ++checked;
      ASSERT_EQ(got, want.fault) << "step " << step << ": " << size << " bytes at 0x" << std::hex
                                 << addr << " esp 0x" << mem.esp() << "\n"
                                 << before.ToString();
      MemoryMap expected = before;
      if (want.grow_stack) expected.ExtendDown(SegmentKind::kStack, want.grow_to);
      ASSERT_TRUE(SameMap(mem.map(), expected))
          << "step " << step << ": map after\n" << mem.map().ToString() << "expected\n"
          << expected.ToString();
      segfaults += got == MemFault::kSegFault;
      misaligned += got == MemFault::kMisaligned;
      grows += want.grow_stack;
      if (got != MemFault::kNone) continue;
      ++allowed;
      page_crossing += (addr & (kPage - 1)) + size > kPage;
      if (uniform(2) == 0) {
        const std::uint64_t value = rng();
        mem.StoreScalar(addr, size, value);
        for (unsigned i = 0; i < size; ++i) {
          shadow[addr + i] = static_cast<std::uint8_t>(value >> (8 * i));
        }
      } else {
        ++loads;
        ASSERT_EQ(mem.LoadScalar(addr, size), ShadowLoad(shadow, addr, size))
            << "step " << step << ": " << size << " bytes at 0x" << std::hex << addr;
      }
    }
  }
  // The run reached every branch of the decision, not just the common case.
  EXPECT_GT(allowed, accesses / 10);
  EXPECT_GT(segfaults, 0);
  EXPECT_GT(misaligned, 0);
  EXPECT_GT(grows, 0);
  EXPECT_GT(page_crossing, 0);
  EXPECT_GT(loads, 0);
}

TEST(SimMemoryTlb, MatchesTheDecisionLogicOnTheDefaultLayout) {
  RunDifferential(MemoryLayout{}, LayoutJitter{}, 1, 12000);
}

TEST(SimMemoryTlb, MatchesTheDecisionLogicOnAJitteredLayout) {
  LayoutJitter jitter;
  jitter.data_shift_pages = 3;
  jitter.heap_shift_pages = -2;
  jitter.stack_shift_pages = 1;
  jitter.heap_slack_shift_pages = 1;
  RunDifferential(MemoryLayout{}, jitter, 2, 12000);
}

TEST(SimMemoryTlb, MatchesTheDecisionLogicWhenVmaEdgesSplitPages) {
  // With 1 KiB layout pages (and a text segment and an initial stack that
  // are not 4 KiB multiples) vma edges fall inside SimMemory's 4 KiB pages,
  // so only a page wholly inside one vma may be cached.
  MemoryLayout layout;
  layout.page_size = 1024;
  layout.text_size = 0x10400;
  layout.stack_initial_bytes = 5 * 1024;
  RunDifferential(layout, LayoutJitter{}, 3, 12000);
}

}  // namespace
}  // namespace epvf::mem
