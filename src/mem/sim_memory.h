// SimMemory: the simulated process address space.
//
// Backs the interpreter with a sparse paged byte store laid out per
// MemoryLayout, and owns the MemoryMap against which every access is checked
// through the Figure 4 decision logic. It also records the memory-map
// history: the golden (profiling) run snapshots the map at every version
// bump, which is this implementation's equivalent of the paper's
// "/proc probe at each load and store" — CHECK_BOUNDARY later replays the
// snapshot that was current at the time of the access.
//
// Checked accesses run through a software TLB: a small direct-mapped cache
// of page translations. An entry caches a page that lies wholly inside one
// vma, so every access within that page is Figure 4's common case (only the
// alignment rule can fault), together with a pointer to the page's bytes and
// whether this memory is the page's only owner (a store may then write
// without the copy-on-write clone). A hit answers CheckAccess and moves the
// bytes of LoadScalar/StoreScalar with one fixed-size copy; every miss takes
// the full path (DecideAccess, FindPage, TouchPage). An entry stays true
// because vmas only grow between restores, TouchPage refreshes the entry of
// the page it makes private, TakeSnapshot drops every entry's write
// permission and RestoreSnapshot empties the TLB.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "mem/crash_semantics.h"
#include "mem/layout.h"
#include "mem/vma.h"

namespace epvf::mem {

/// One copy-on-write snapshot of a SimMemory: the memory map, the allocation
/// cursors, and a shared reference to every data page live at snapshot time.
/// Pages are never mutated through a snapshot — a SimMemory restored from one
/// clones a page on its first write — so snapshots are cheap to take, hold,
/// and restore regardless of the memory footprint, and one snapshot can seed
/// any number of concurrent runs.
struct MemSnapshot {
  MemoryLayout layout;  ///< identifies the (jittered) layout the pages belong to
  MemoryMap map;
  std::unordered_map<std::uint64_t, std::shared_ptr<std::vector<std::uint8_t>>> pages;
  std::uint64_t data_cursor = 0;
  std::uint64_t brk = 0;
  std::uint64_t esp = 0;
  std::uint64_t bytes_allocated = 0;
};

class SimMemory {
 public:
  explicit SimMemory(const MemoryLayout& layout = MemoryLayout{},
                     const LayoutJitter& jitter = LayoutJitter{});
  // Not copyable (nor movable): a copy would share every page while its TLB
  // still held write permission for them. Snapshots are the way to share.
  SimMemory(const SimMemory&) = delete;
  SimMemory& operator=(const SimMemory&) = delete;

  // --- setup ----------------------------------------------------------------
  /// Reserves `bytes` in the data segment; returns the base address.
  std::uint64_t AllocateData(std::uint64_t bytes);

  // --- heap -------------------------------------------------------------------
  /// Bump allocation with 16-byte alignment; extends the heap vma to the next
  /// page boundary. Returns the block's base address.
  std::uint64_t Malloc(std::uint64_t bytes);
  /// Free is a no-op on the vma (matching glibc behaviour for small blocks:
  /// freed memory stays mapped), but is tracked for accounting.
  void Free(std::uint64_t addr);

  // --- stack ----------------------------------------------------------------
  [[nodiscard]] std::uint64_t esp() const { return esp_; }
  void SetEsp(std::uint64_t esp) { esp_ = esp; }
  [[nodiscard]] std::uint64_t stack_top() const { return layout_.stack_top; }

  // --- checked access ----------------------------------------------------------
  /// Applies the Figure 4 decision for an access; on "case I" grows the stack
  /// vma (bumping the map version). Returns the fault, kNone if allowed.
  /// Only this call fills the TLB, and only for an allowed access whose page
  /// lies wholly inside one vma.
  MemFault CheckAccess(std::uint64_t addr, unsigned size);

  // --- fault injection --------------------------------------------------------
  /// XORs bits [bit, bit + count) of the byte at `addr` — the memory-resident
  /// fault primitive. The query against the map is passive (a flip must never
  /// grow the stack vma the way a checked access can), and `addr` must lie
  /// inside a mapped vma: flipping a never-mapped address throws
  /// std::out_of_range. The flip goes through the copy-on-write path, so a
  /// page shared with a live snapshot is cloned first and the snapshot's copy
  /// stays pristine.
  void FlipBits(std::uint64_t addr, unsigned bit, unsigned count);

  // --- raw data access (no checking; call CheckAccess first) -----------------
  // LoadScalar/StoreScalar use cached translations, but no raw access fills
  // the TLB, so a raw write cannot make an unmapped page look mapped to a
  // later CheckAccess.
  void ReadBytes(std::uint64_t addr, std::span<std::uint8_t> out) const;
  void WriteBytes(std::uint64_t addr, std::span<const std::uint8_t> in);
  [[nodiscard]] std::uint64_t LoadScalar(std::uint64_t addr, unsigned size) const;
  void StoreScalar(std::uint64_t addr, unsigned size, std::uint64_t value);

  // --- map & probes ---------------------------------------------------------
  [[nodiscard]] const MemoryMap& map() const { return map_; }
  [[nodiscard]] const MemoryLayout& layout() const { return layout_; }

  /// When enabled, every map version is snapshotted (golden runs only).
  void RecordHistory(bool enable);
  /// Snapshot whose version is `version` (versions are dense from the first
  /// recorded one). Requires RecordHistory(true) from construction time.
  [[nodiscard]] const MemoryMap& Snapshot(std::uint64_t version) const;
  [[nodiscard]] bool HasSnapshots() const { return !history_.empty(); }

  // --- checkpoint / restore -------------------------------------------------
  /// Captures the full mutable state as a copy-on-write snapshot. O(pages) in
  /// shared_ptr copies, no byte copying. Not available while recording map
  /// history (snapshots are a replay-run mechanism; the golden profiling run
  /// records history instead). Non-const: the snapshot now shares every
  /// page, so the TLB drops its write permissions.
  [[nodiscard]] MemSnapshot TakeSnapshot();
  /// Overwrites the mutable state from `snapshot` and empties the TLB. Pages
  /// become shared with the snapshot; the first write to each clones it (see
  /// TouchPage). The snapshot must come from a SimMemory with the identical
  /// (jittered) layout.
  void RestoreSnapshot(const MemSnapshot& snapshot);

  [[nodiscard]] std::uint64_t heap_brk() const { return brk_; }
  [[nodiscard]] std::uint64_t bytes_allocated() const { return bytes_allocated_; }

  // --- copy-on-write accounting ---------------------------------------------
  /// Pages this memory created (the first write to a never-written page).
  [[nodiscard]] std::uint64_t pages_created() const { return pages_created_; }
  /// Shared pages this memory cloned before its first private write.
  [[nodiscard]] std::uint64_t pages_cloned() const { return pages_cloned_; }

 private:
  void MaybeSnapshot();

  static constexpr std::uint64_t kPageBits = 12;
  static constexpr std::uint64_t kPageBytes = 1ull << kPageBits;
  using Page = std::vector<std::uint8_t>;

  [[nodiscard]] const Page* FindPage(std::uint64_t page_index) const;
  Page& TouchPage(std::uint64_t page_index);

  /// One cached page translation. `bytes` is null while the page is
  /// untouched (it then reads as zero through the full path); `writable`
  /// means this memory is the page's only owner.
  struct TlbEntry {
    std::uint64_t page = ~std::uint64_t{0};  ///< tag; no page number is ~0
    std::uint8_t* bytes = nullptr;
    bool writable = false;
  };
  /// 64 entries, indexed by a multiplicative (Fibonacci) hash of the page
  /// number: the data and heap bases are both 64-page aligned, so low-bit
  /// indexing would alias data page i with heap page i.
  static constexpr unsigned kTlbBits = 6;
  [[nodiscard]] static std::size_t TlbSlot(std::uint64_t page) {
    return static_cast<std::size_t>((page * 0x9E3779B97F4A7C15ull) >> (64 - kTlbBits));
  }
  /// The entry translating all of [addr, addr + size), or nullptr on a miss
  /// (page not cached, or the access leaves its page).
  [[nodiscard]] const TlbEntry* Hit(std::uint64_t addr, unsigned size) const {
    const std::uint64_t page = addr >> kPageBits;
    const TlbEntry& entry = tlb_[TlbSlot(page)];
    const bool within_page = (addr & (kPageBytes - 1)) + size <= kPageBytes;
    return entry.page == page && within_page ? &entry : nullptr;
  }
  /// Caches `page` if it lies wholly inside one vma.
  void FillTlb(std::uint64_t page);
  template <typename T>
  [[nodiscard]] static std::uint64_t LoadAs(const std::uint8_t* at) {
    T v;
    std::memcpy(&v, at, sizeof v);
    return v;
  }
  template <typename T>
  static void StoreAs(std::uint8_t* at, std::uint64_t value) {
    const auto v = static_cast<T>(value);
    std::memcpy(at, &v, sizeof v);
  }

  MemFault CheckAccessSlow(std::uint64_t addr, unsigned size);
  [[nodiscard]] std::uint64_t LoadScalarSlow(std::uint64_t addr, unsigned size) const;
  void StoreScalarSlow(std::uint64_t addr, unsigned size, std::uint64_t value);

  MemoryLayout layout_;
  MemoryMap map_;
  // Pages are shared with any live MemSnapshot; TouchPage clones a shared
  // page before the first local write (copy-on-write).
  std::unordered_map<std::uint64_t, std::shared_ptr<Page>> pages_;
  std::uint64_t data_cursor_ = 0;
  std::uint64_t brk_ = 0;
  std::uint64_t esp_ = 0;
  std::uint64_t bytes_allocated_ = 0;
  std::uint64_t pages_created_ = 0;
  std::uint64_t pages_cloned_ = 0;
  bool record_history_ = false;
  std::uint64_t first_recorded_version_ = 0;
  std::vector<MemoryMap> history_;
  std::array<TlbEntry, std::size_t{1} << kTlbBits> tlb_{};
};

// --- fast paths: a TLB hit, then one fixed-size copy ---------------------------

inline MemFault SimMemory::CheckAccess(std::uint64_t addr, unsigned size) {
  // A cached page lies wholly inside one vma, so an access within it is
  // Figure 4's common case: only the alignment rule can fault.
  if (Hit(addr, size) != nullptr) {
    return IsMisaligned(addr, size) ? MemFault::kMisaligned : MemFault::kNone;
  }
  return CheckAccessSlow(addr, size);
}

inline std::uint64_t SimMemory::LoadScalar(std::uint64_t addr, unsigned size) const {
  const TlbEntry* entry = Hit(addr, size);
  if (entry != nullptr && entry->bytes != nullptr) {
    // Little-endian host assumed (x86 platform model), as in LoadScalarSlow.
    const std::uint8_t* at = entry->bytes + (addr & (kPageBytes - 1));
    switch (size) {
      case 1: return *at;
      case 2: return LoadAs<std::uint16_t>(at);
      case 4: return LoadAs<std::uint32_t>(at);
      case 8: return LoadAs<std::uint64_t>(at);
      default: break;
    }
  }
  return LoadScalarSlow(addr, size);
}

inline void SimMemory::StoreScalar(std::uint64_t addr, unsigned size, std::uint64_t value) {
  const TlbEntry* entry = Hit(addr, size);
  if (entry != nullptr && entry->writable) {
    std::uint8_t* at = entry->bytes + (addr & (kPageBytes - 1));
    switch (size) {
      case 1: return StoreAs<std::uint8_t>(at, value);
      case 2: return StoreAs<std::uint16_t>(at, value);
      case 4: return StoreAs<std::uint32_t>(at, value);
      case 8: return StoreAs<std::uint64_t>(at, value);
      default: break;
    }
  }
  StoreScalarSlow(addr, size, value);
}

}  // namespace epvf::mem
