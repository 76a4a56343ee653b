// The platform fault-decision logic — the core of the crash model.
//
// This file transcribes Figure 4 of the paper (the Linux x86 page-fault
// handling the authors extracted from kernel sources) into one function used
// in BOTH directions:
//
//   * forward, by the interpreter: given an access, decide whether it
//     succeeds, grows the stack ("case I"), or raises SIGSEGV;
//   * backward, by the crash model's CHECK_BOUNDARY (Algorithm 3): given a
//     memory-map snapshot and ESP, compute the interval of addresses that
//     would NOT fault.
//
// Using one implementation for both guarantees the analytical model and the
// simulated hardware agree by construction on deterministic layouts — the
// residual disagreement measured by the recall/precision experiments then
// comes from the *modeled* effects (cross-segment landings, control-flow
// divergence, layout jitter), exactly the sources the paper reports.
#pragma once

#include <cstdint>

#include "mem/layout.h"
#include "mem/vma.h"
#include "support/interval.h"

namespace epvf::mem {

enum class MemFault : std::uint8_t {
  kNone,
  kSegFault,    ///< Table I "SF"
  kMisaligned,  ///< Table I "MMA"
};

struct AccessDecision {
  MemFault fault = MemFault::kNone;
  /// "case I": access below the stack vma but inside the grow window —
  /// valid, and the stack vma must be extended down to cover it.
  bool grow_stack = false;
  std::uint64_t grow_to = 0;  ///< page-aligned new stack start when grow_stack
};

/// Decides the outcome of an access of `size` bytes at `addr`, mirroring
/// Figure 4:
///   common case — addr inside a vma: OK (alignment still checked);
///   case I      — addr below the stack vma, addr >= esp - grow window, and
///                 growth stays within the 8 MB limit: OK, grow the stack;
///   case II     — anything else: SIGSEGV.
/// Misalignment follows Table I: accesses of 4+ bytes must be 4-byte aligned.
[[nodiscard]] AccessDecision DecideAccess(const MemoryMap& map, std::uint64_t esp,
                                          std::uint64_t addr, unsigned size,
                                          const MemoryLayout& layout);

/// The allowed-address interval for an access of `size` bytes whose observed
/// address is `addr` — Algorithm 3's (min, max). The interval covers the vma
/// containing `addr`; for the stack it is widened downward to the grow
/// window's floor (bounded by the 8 MB limit). Addresses outside the interval
/// are predicted to raise SIGSEGV.
[[nodiscard]] Interval AllowedAddressInterval(const MemoryMap& map, std::uint64_t esp,
                                              std::uint64_t addr, unsigned size,
                                              const MemoryLayout& layout);

/// Whether a misaligned-access trap applies to a `size`-byte access at `addr`.
/// Table I: "memory accesses not aligned at four bytes". Sub-word accesses
/// are unconstrained, wider accesses must be 4-byte aligned.
[[nodiscard]] inline bool IsMisaligned(std::uint64_t addr, unsigned size) {
  return size >= 4 && (addr & 0x3) != 0;
}

}  // namespace epvf::mem
