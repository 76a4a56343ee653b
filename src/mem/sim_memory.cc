#include "mem/sim_memory.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace epvf::mem {

SimMemory::SimMemory(const MemoryLayout& base_layout, const LayoutJitter& jitter)
    : layout_(ApplyJitter(base_layout, jitter)) {
  map_.Add(Vma{layout_.text_base, layout_.text_base + layout_.text_size, SegmentKind::kText});
  // Data and heap vmas start one page large and grow with use.
  map_.Add(Vma{layout_.data_base, layout_.data_base + layout_.page_size, SegmentKind::kData});
  map_.Add(Vma{layout_.heap_base, layout_.heap_base + layout_.page_size, SegmentKind::kHeap});
  map_.Add(Vma{layout_.stack_top - layout_.stack_initial_bytes, layout_.stack_top,
               SegmentKind::kStack});
  data_cursor_ = layout_.data_base;
  brk_ = layout_.heap_base;
  esp_ = layout_.stack_top;
}

std::uint64_t SimMemory::AllocateData(std::uint64_t bytes) {
  const std::uint64_t base = (data_cursor_ + 15) & ~std::uint64_t{15};
  data_cursor_ = base + bytes;
  const std::uint64_t vma_end =
      (data_cursor_ + layout_.page_size - 1) & ~(layout_.page_size - 1);
  map_.ExtendUp(SegmentKind::kData, vma_end);
  MaybeSnapshot();
  return base;
}

std::uint64_t SimMemory::Malloc(std::uint64_t bytes) {
  if (bytes == 0) bytes = 1;
  const std::uint64_t base = (brk_ + 15) & ~std::uint64_t{15};
  brk_ = base + bytes;
  bytes_allocated_ += bytes;
  const std::uint64_t vma_end = ((brk_ + layout_.page_size - 1) & ~(layout_.page_size - 1)) +
                                layout_.heap_slack_pages * layout_.page_size;
  map_.ExtendUp(SegmentKind::kHeap, vma_end);
  MaybeSnapshot();
  return base;
}

void SimMemory::Free(std::uint64_t addr) {
  // Freed blocks stay mapped (glibc keeps small blocks on free lists), so
  // the memory map — and therefore the crash model — is unaffected.
  (void)addr;
}

MemFault SimMemory::CheckAccessSlow(std::uint64_t addr, unsigned size) {
  const AccessDecision decision = DecideAccess(map_, esp_, addr, size, layout_);
  if (decision.grow_stack) {
    map_.ExtendDown(SegmentKind::kStack, decision.grow_to);
    MaybeSnapshot();
  }
  if (decision.fault == MemFault::kNone) FillTlb(addr >> kPageBits);
  return decision.fault;
}

void SimMemory::FillTlb(std::uint64_t page) {
  // Only a page wholly inside one vma may answer for every access within it.
  // Between restores vmas only grow, so such a page stays mapped.
  const std::uint64_t first = page << kPageBits;
  const Vma* vma = map_.Find(first);
  if (vma == nullptr || vma->end - first < kPageBytes) return;
  const auto it = pages_.find(page);
  TlbEntry& entry = tlb_[TlbSlot(page)];
  entry.page = page;
  entry.bytes = it == pages_.end() ? nullptr : it->second->data();
  entry.writable = it != pages_.end() && it->second.use_count() == 1;
}

const SimMemory::Page* SimMemory::FindPage(std::uint64_t page_index) const {
  const auto it = pages_.find(page_index);
  return it == pages_.end() ? nullptr : it->second.get();
}

SimMemory::Page& SimMemory::TouchPage(std::uint64_t page_index) {
  std::shared_ptr<Page>& slot = pages_[page_index];
  if (slot == nullptr) {
    slot = std::make_shared<Page>(kPageBytes, std::uint8_t{0});
    ++pages_created_;
  } else if (slot.use_count() > 1) {
    // Copy-on-write: the page is shared with a live snapshot (or with other
    // runs restored from one), so clone it before the first local mutation.
    // Safe concurrently: a snapshot always holds its own stable reference, so
    // a page visible to another thread can never read use_count() == 1 here.
    slot = std::make_shared<Page>(*slot);
    ++pages_cloned_;
  }
  // The page is now this memory's own; a cached translation of it may write.
  TlbEntry& entry = tlb_[TlbSlot(page_index)];
  if (entry.page == page_index) {
    entry.bytes = slot->data();
    entry.writable = true;
  }
  return *slot;
}

void SimMemory::FlipBits(std::uint64_t addr, unsigned bit, unsigned count) {
  if (count == 0 || bit >= 8 || bit + count > 8) {
    throw std::invalid_argument("SimMemory::FlipBits: bit range must stay within one byte");
  }
  if (map_.Find(addr) == nullptr) {
    throw std::out_of_range("SimMemory::FlipBits: address is not mapped");
  }
  const std::uint64_t page_index = addr >> kPageBits;
  const std::uint64_t offset = addr & (kPageBytes - 1);
  const auto mask = static_cast<std::uint8_t>(((1u << count) - 1u) << bit);
  TouchPage(page_index)[offset] ^= mask;
}

void SimMemory::ReadBytes(std::uint64_t addr, std::span<std::uint8_t> out) const {
  std::size_t done = 0;
  while (done < out.size()) {
    const std::uint64_t a = addr + done;
    const std::uint64_t page_index = a >> kPageBits;
    const std::uint64_t offset = a & (kPageBytes - 1);
    const std::size_t chunk =
        std::min<std::size_t>(out.size() - done, static_cast<std::size_t>(kPageBytes - offset));
    if (const Page* page = FindPage(page_index)) {
      std::memcpy(out.data() + done, page->data() + offset, chunk);
    } else {
      std::memset(out.data() + done, 0, chunk);  // untouched memory reads as zero
    }
    done += chunk;
  }
}

void SimMemory::WriteBytes(std::uint64_t addr, std::span<const std::uint8_t> in) {
  std::size_t done = 0;
  while (done < in.size()) {
    const std::uint64_t a = addr + done;
    const std::uint64_t page_index = a >> kPageBits;
    const std::uint64_t offset = a & (kPageBytes - 1);
    const std::size_t chunk =
        std::min<std::size_t>(in.size() - done, static_cast<std::size_t>(kPageBytes - offset));
    std::memcpy(TouchPage(page_index).data() + offset, in.data() + done, chunk);
    done += chunk;
  }
}

std::uint64_t SimMemory::LoadScalarSlow(std::uint64_t addr, unsigned size) const {
  std::uint8_t buf[8] = {};
  if (size > 8) throw std::invalid_argument("LoadScalar: size > 8");
  ReadBytes(addr, std::span<std::uint8_t>(buf, size));
  std::uint64_t v = 0;
  std::memcpy(&v, buf, sizeof v);  // little-endian host assumed (x86 platform model)
  return v;
}

void SimMemory::StoreScalarSlow(std::uint64_t addr, unsigned size, std::uint64_t value) {
  if (size > 8) throw std::invalid_argument("StoreScalar: size > 8");
  std::uint8_t buf[8];
  std::memcpy(buf, &value, sizeof buf);
  WriteBytes(addr, std::span<const std::uint8_t>(buf, size));
}

MemSnapshot SimMemory::TakeSnapshot() {
  if (record_history_) {
    throw std::logic_error("SimMemory::TakeSnapshot: unsupported while recording map history");
  }
  MemSnapshot snap;
  snap.layout = layout_;
  snap.map = map_;
  snap.pages = pages_;
  snap.data_cursor = data_cursor_;
  snap.brk = brk_;
  snap.esp = esp_;
  snap.bytes_allocated = bytes_allocated_;
  // The snapshot now shares every page: the next store to each must clone it.
  for (TlbEntry& entry : tlb_) entry.writable = false;
  return snap;
}

void SimMemory::RestoreSnapshot(const MemSnapshot& snapshot) {
  if (record_history_) {
    throw std::logic_error("SimMemory::RestoreSnapshot: unsupported while recording map history");
  }
  if (snapshot.layout.text_base != layout_.text_base ||
      snapshot.layout.data_base != layout_.data_base ||
      snapshot.layout.heap_base != layout_.heap_base ||
      snapshot.layout.stack_top != layout_.stack_top) {
    throw std::invalid_argument("SimMemory::RestoreSnapshot: snapshot from a different layout");
  }
  map_ = snapshot.map;
  pages_ = snapshot.pages;
  data_cursor_ = snapshot.data_cursor;
  brk_ = snapshot.brk;
  esp_ = snapshot.esp;
  bytes_allocated_ = snapshot.bytes_allocated;
  // The restored map may be smaller and the pages are others: forget all.
  tlb_.fill(TlbEntry{});
}

void SimMemory::RecordHistory(bool enable) {
  record_history_ = enable;
  if (enable && history_.empty()) {
    first_recorded_version_ = map_.version();
    history_.push_back(map_);
  }
}

void SimMemory::MaybeSnapshot() {
  if (!record_history_) return;
  // Versions are bumped one at a time by MemoryMap mutations; keep the
  // history dense so Snapshot(version) is an O(1) index.
  while (first_recorded_version_ + history_.size() <= map_.version()) {
    history_.push_back(map_);
  }
}

const MemoryMap& SimMemory::Snapshot(std::uint64_t version) const {
  if (history_.empty() || version < first_recorded_version_ ||
      version >= first_recorded_version_ + history_.size()) {
    throw std::out_of_range("SimMemory::Snapshot: version not recorded");
  }
  return history_[version - first_recorded_version_];
}

}  // namespace epvf::mem
