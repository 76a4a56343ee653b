// Closed intervals over the unsigned 64-bit address/value domain, with the
// *inverse* arithmetic the ePVF propagation model needs.
//
// The crash model (paper section III-D) yields, for every memory access, the
// interval of addresses that do NOT raise a segmentation fault. The
// propagation model (section III-C, Table III) then walks the backward slice
// of the address computation and, at each instruction `dest = op1 <op> op2`,
// derives the interval of values each operand may take while keeping `dest`
// inside its allowed interval — i.e. the inverse image of the destination
// interval under the instruction semantics, with the other operand fixed at
// its observed run-time value. These helpers implement those inverse images
// with saturation at the domain boundaries, mirroring the paper's assumption
// that address-slice values behave as non-negative integers.
#pragma once

#include <bit>
#include <cstdint>
#include <string>

#include "support/bits.h"

namespace epvf {

/// A closed interval [lo, hi] of std::uint64_t values. An empty interval is
/// canonically represented as lo == 1, hi == 0.
struct Interval {
  std::uint64_t lo = 0;
  std::uint64_t hi = ~std::uint64_t{0};

  /// The full domain [0, 2^64-1] — "no constraint".
  [[nodiscard]] static constexpr Interval Full() noexcept { return Interval{}; }

  /// The empty interval — "every value violates the constraint".
  [[nodiscard]] static constexpr Interval Empty() noexcept { return Interval{1, 0}; }

  /// Interval holding exactly one value.
  [[nodiscard]] static constexpr Interval Singleton(std::uint64_t v) noexcept {
    return Interval{v, v};
  }

  [[nodiscard]] constexpr bool IsEmpty() const noexcept { return lo > hi; }
  [[nodiscard]] constexpr bool IsFull() const noexcept {
    return lo == 0 && hi == ~std::uint64_t{0};
  }
  [[nodiscard]] constexpr bool Contains(std::uint64_t v) const noexcept {
    return lo <= v && v <= hi;
  }

  /// Intersection; intersecting with an empty interval yields empty.
  [[nodiscard]] constexpr Interval Intersect(Interval other) const noexcept {
    if (IsEmpty() || other.IsEmpty()) return Empty();
    const std::uint64_t nlo = lo > other.lo ? lo : other.lo;
    const std::uint64_t nhi = hi < other.hi ? hi : other.hi;
    if (nlo > nhi) return Empty();
    return Interval{nlo, nhi};
  }

  constexpr bool operator==(const Interval&) const noexcept = default;

  [[nodiscard]] std::string ToString() const;
};

/// The mask of bit positions k with a <= 2^k <= b (zero when no power of two
/// lies in [a, b]): one contiguous run, bounded by one count-leading-zeros
/// per end.
[[nodiscard]] constexpr std::uint64_t PowersOfTwoBetween(std::uint64_t a,
                                                         std::uint64_t b) noexcept {
  if (b == 0 || a > b) return 0;
  const auto top = static_cast<unsigned>(63 - std::countl_zero(b));  // largest 2^k <= b
  const auto bottom =
      a <= 1 ? 0u : static_cast<unsigned>(64 - std::countl_zero(a - 1));  // smallest 2^k >= a
  return bottom > top ? 0 : LowMask(top + 1) & ~LowMask(bottom);
}

/// The bits k < `width` of `value` whose single-bit flip takes it outside
/// `allowed` — one node's CRASHING_BIT_LIST (paper Algorithm 2). In closed
/// form rather than by flip-and-test: flipping a zero bit k raises the value
/// by 2^k and flipping a one bit lowers it by 2^k, so a flip stays inside
/// [lo, hi] exactly when lo - v <= 2^k <= hi - v (zero bits) or
/// v - hi <= 2^k <= v - lo (one bits). The formula also holds for `value`
/// outside `allowed` and for the empty interval (every flip leaves it).
[[nodiscard]] constexpr std::uint64_t FlipsLeaving(Interval allowed, std::uint64_t value,
                                                   unsigned width) noexcept {
  std::uint64_t stay = 0;
  if (allowed.hi >= value) {
    const std::uint64_t below = allowed.lo > value ? allowed.lo - value : 0;
    stay |= ~value & PowersOfTwoBetween(below, allowed.hi - value);
  }
  if (value >= allowed.lo) {
    const std::uint64_t above = value > allowed.hi ? value - allowed.hi : 0;
    stay |= value & PowersOfTwoBetween(above, value - allowed.lo);
  }
  return ~stay & LowMask(width);
}

/// Inverse images of `dest`'s allowed interval for each Table III row.
/// All functions answer: "which values of the unknown operand keep `dest`
/// inside `d`, given the other operand's observed value?" An empty result
/// means no value of the operand satisfies the constraint (so every bit of it
/// is crash-causing); a full result means the constraint says nothing.
namespace interval_ops {

/// dest = op + c  =>  op in [d.lo - c, d.hi - c]   (Table III row 1)
[[nodiscard]] Interval InverseAddConst(Interval d, std::uint64_t c) noexcept;

/// dest = op - c  =>  op in [d.lo + c, d.hi + c]   (Table III row 2, op1)
[[nodiscard]] Interval InverseSubLeft(Interval d, std::uint64_t c) noexcept;

/// dest = a - op  =>  op in [a - d.hi, a - d.lo]   (Table III row 2, op2)
[[nodiscard]] Interval InverseSubRight(Interval d, std::uint64_t a) noexcept;

/// dest = op * c  =>  op in [ceil(d.lo/c), floor(d.hi/c)]   (Table III row 3)
/// c == 0 makes dest identically 0: returns Full if 0 is allowed, else Empty.
[[nodiscard]] Interval InverseMulConst(Interval d, std::uint64_t c) noexcept;

/// dest = op / c (unsigned) =>  op in [d.lo*c, d.hi*c + c - 1]  (Table III row 4)
[[nodiscard]] Interval InverseDivConst(Interval d, std::uint64_t c) noexcept;

/// Saturating helpers used by the inverse images above.
[[nodiscard]] std::uint64_t SatAdd(std::uint64_t a, std::uint64_t b) noexcept;
[[nodiscard]] std::uint64_t SatSub(std::uint64_t a, std::uint64_t b) noexcept;
[[nodiscard]] std::uint64_t SatMul(std::uint64_t a, std::uint64_t b) noexcept;

}  // namespace interval_ops

}  // namespace epvf
