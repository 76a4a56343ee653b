// Interval arithmetic: exactness of the Table III inverse images.
//
// The key property behind the whole propagation model: for every inverse
// operation, a value is inside the computed operand interval IF AND ONLY IF
// applying the forward semantics puts the destination inside its interval
// (up to the documented saturation at the domain edges).
#include <gtest/gtest.h>

#include <vector>

#include "support/bits.h"
#include "support/interval.h"
#include "support/rng.h"

namespace epvf {
namespace {

using interval_ops::InverseAddConst;
using interval_ops::InverseDivConst;
using interval_ops::InverseMulConst;
using interval_ops::InverseSubLeft;
using interval_ops::InverseSubRight;
using interval_ops::SatAdd;
using interval_ops::SatMul;
using interval_ops::SatSub;

TEST(Interval, BasicPredicates) {
  EXPECT_TRUE(Interval::Full().IsFull());
  EXPECT_FALSE(Interval::Full().IsEmpty());
  EXPECT_TRUE(Interval::Empty().IsEmpty());
  EXPECT_TRUE(Interval::Singleton(7).Contains(7));
  EXPECT_FALSE(Interval::Singleton(7).Contains(8));
  EXPECT_TRUE((Interval{10, 20}.Contains(10)));
  EXPECT_TRUE((Interval{10, 20}.Contains(20)));
  EXPECT_FALSE((Interval{10, 20}.Contains(21)));
}

TEST(Interval, Intersect) {
  EXPECT_EQ((Interval{0, 10}.Intersect({5, 20})), (Interval{5, 10}));
  EXPECT_TRUE(((Interval{0, 4}.Intersect({5, 9})).IsEmpty()));
  EXPECT_TRUE(Interval::Empty().Intersect(Interval::Full()).IsEmpty());
  EXPECT_EQ(Interval::Full().Intersect({3, 3}), Interval::Singleton(3));
}

TEST(Interval, ToStringShowsHex) {
  EXPECT_EQ((Interval{0x10, 0x20}.ToString()), "[0x10, 0x20]");
  EXPECT_EQ(Interval::Empty().ToString(), "[empty]");
}

TEST(SaturatingOps, Boundaries) {
  const std::uint64_t max = ~std::uint64_t{0};
  EXPECT_EQ(SatAdd(max, 1), max);
  EXPECT_EQ(SatAdd(1, 2), 3u);
  EXPECT_EQ(SatSub(1, 2), 0u);
  EXPECT_EQ(SatSub(5, 2), 3u);
  EXPECT_EQ(SatMul(max, 2), max);
  EXPECT_EQ(SatMul(0, max), 0u);
  EXPECT_EQ(SatMul(3, 4), 12u);
}

TEST(InverseAdd, HandCases) {
  // dest = op + 10, dest allowed [100, 200] => op in [90, 190]
  EXPECT_EQ(InverseAddConst({100, 200}, 10), (Interval{90, 190}));
  // entire destination interval below the constant: impossible
  EXPECT_TRUE(InverseAddConst({0, 5}, 10).IsEmpty());
  // lower bound clamps at zero
  EXPECT_EQ(InverseAddConst({5, 20}, 10), (Interval{0, 10}));
}

TEST(InverseSub, HandCases) {
  // dest = op - 10, dest allowed [0, 5] => op in [10, 15]
  EXPECT_EQ(InverseSubLeft({0, 5}, 10), (Interval{10, 15}));
  // dest = 100 - op, dest allowed [10, 30] => op in [70, 90]
  EXPECT_EQ(InverseSubRight({10, 30}, 100), (Interval{70, 90}));
  // dest can never exceed the minuend for unsigned subtraction
  EXPECT_TRUE(InverseSubRight({200, 300}, 100).IsEmpty());
}

TEST(InverseMul, HandCases) {
  // dest = op * 4, dest allowed [10, 30] => op in [3, 7] (ceil/floor)
  EXPECT_EQ(InverseMulConst({10, 30}, 4), (Interval{3, 7}));
  // no multiple of 8 inside [9, 14] => empty... 9..14 has no multiple? 8*2=16 no. correct:
  EXPECT_TRUE(InverseMulConst({9, 15}, 8).IsEmpty());
  // zero multiplier: dest is identically 0
  EXPECT_TRUE(InverseMulConst({1, 5}, 0).IsEmpty());
  EXPECT_TRUE(InverseMulConst({0, 5}, 0).IsFull());
}

TEST(InverseDiv, HandCases) {
  // dest = op / 4 (unsigned), dest allowed [2, 3] => op in [8, 15]
  EXPECT_EQ(InverseDivConst({2, 3}, 4), (Interval{8, 15}));
  // division by zero traps elsewhere: no constraint derived
  EXPECT_TRUE(InverseDivConst({2, 3}, 0).IsFull());
}

TEST(InversePaperExample, GepRangeFromRunningExample) {
  // Paper section III-C: r5 = r6 + 4*1 with bound (0x15FA000, 0x15FB800):
  // min(r6) = 0x15FA000 - 4, max(r6) = 0x15FB800 - 4. (The paper prints the
  // (max, min) pair; the arithmetic is the same.)
  const Interval bound{0x15FA000, 0x15FB800};
  const Interval r6 = InverseAddConst(bound, 4 * 1);
  EXPECT_EQ(r6.lo, 0x15FA000u - 4);
  EXPECT_EQ(r6.hi, 0x15FB800u - 4);
}

// --- property sweep: inverse images are exact ---------------------------------

class InverseImageProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Rng rng_{GetParam()};

  Interval RandomDest() {
    // Mix small and large intervals, including near the domain top.
    const std::uint64_t a = rng_.Next() >> (rng_.Below(60));
    const std::uint64_t b = a + (rng_.Next() >> (rng_.Below(60)));
    return Interval{a, b};
  }
};

TEST_P(InverseImageProperty, AddIsExact) {
  for (int i = 0; i < 300; ++i) {
    const Interval d = RandomDest();
    const std::uint64_t c = rng_.Next() >> rng_.Below(60);
    const Interval inv = InverseAddConst(d, c);
    for (int k = 0; k < 20; ++k) {
      const std::uint64_t op = rng_.Next() >> rng_.Below(60);
      const std::uint64_t dest = op + c;
      const bool overflow = dest < op;
      if (!overflow) {
        EXPECT_EQ(inv.Contains(op), d.Contains(dest))
            << "op=" << op << " c=" << c << " d=" << d.ToString();
      }
    }
  }
}

TEST_P(InverseImageProperty, SubLeftIsExact) {
  for (int i = 0; i < 300; ++i) {
    const Interval d = RandomDest();
    const std::uint64_t c = rng_.Next() >> rng_.Below(60);
    const Interval inv = InverseSubLeft(d, c);
    for (int k = 0; k < 20; ++k) {
      const std::uint64_t op = rng_.Next() >> rng_.Below(60);
      if (op < c) continue;  // unsigned semantics: no borrow in the model
      EXPECT_EQ(inv.Contains(op), d.Contains(op - c)) << "op=" << op << " c=" << c;
    }
  }
}

TEST_P(InverseImageProperty, SubRightIsExact) {
  for (int i = 0; i < 300; ++i) {
    const Interval d = RandomDest();
    const std::uint64_t a = rng_.Next() >> rng_.Below(60);
    const Interval inv = InverseSubRight(d, a);
    for (int k = 0; k < 20; ++k) {
      const std::uint64_t op = rng_.Next() >> rng_.Below(60);
      if (op > a) continue;
      EXPECT_EQ(inv.Contains(op), d.Contains(a - op)) << "op=" << op << " a=" << a;
    }
  }
}

TEST_P(InverseImageProperty, MulIsExact) {
  for (int i = 0; i < 300; ++i) {
    const Interval d = RandomDest();
    const std::uint64_t c = 1 + (rng_.Next() >> (40 + rng_.Below(20)));
    const Interval inv = InverseMulConst(d, c);
    for (int k = 0; k < 20; ++k) {
      const std::uint64_t op = rng_.Next() >> (20 + rng_.Below(40));
      const auto wide = static_cast<__uint128_t>(op) * c;
      if (wide > ~std::uint64_t{0}) continue;  // forward overflow out of model
      EXPECT_EQ(inv.Contains(op), d.Contains(static_cast<std::uint64_t>(wide)))
          << "op=" << op << " c=" << c;
    }
  }
}

TEST_P(InverseImageProperty, DivIsExactForDividend) {
  for (int i = 0; i < 300; ++i) {
    const Interval d = RandomDest();
    const std::uint64_t c = 1 + (rng_.Next() >> (40 + rng_.Below(20)));
    const Interval inv = InverseDivConst(d, c);
    for (int k = 0; k < 20; ++k) {
      const std::uint64_t op = rng_.Next() >> rng_.Below(60);
      EXPECT_EQ(inv.Contains(op), d.Contains(op / c)) << "op=" << op << " c=" << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InverseImageProperty, ::testing::Values(1u, 2u, 3u, 4u, 5u));

// --- FlipsLeaving: the closed form against flip-and-test ----------------------

static_assert(FlipsLeaving(Interval::Full(), 0x1234, 64) == 0);
static_assert(FlipsLeaving(Interval::Empty(), 0x1234, 16) == 0xFFFF);
static_assert(FlipsLeaving(Interval{0, 0xFF}, 0x10, 16) == 0xFF00);
static_assert(PowersOfTwoBetween(3, 17) == 0b11100);
static_assert(PowersOfTwoBetween(5, 7) == 0);

/// The reference: flip each of the low `width` bits and test the result.
std::uint64_t FlipAndTest(Interval allowed, std::uint64_t value, unsigned width) {
  std::uint64_t mask = 0;
  for (unsigned bit = 0; bit < width; ++bit) {
    if (!allowed.Contains(FlipBit(value, bit))) mask |= std::uint64_t{1} << bit;
  }
  return mask;
}

constexpr unsigned kWidths[] = {1, 8, 16, 32, 64};

void ExpectMatchesFlipAndTest(Interval allowed, std::uint64_t value) {
  for (const unsigned width : kWidths) {
    ASSERT_EQ(FlipsLeaving(allowed, value, width), FlipAndTest(allowed, value, width))
        << "allowed=" << allowed.ToString() << " value=0x" << std::hex << value << std::dec
        << " width=" << width;
  }
}

TEST(FlipsLeaving, MatchesFlipAndTestOnEdgeIntervalsAndValues) {
  const std::uint64_t max = ~std::uint64_t{0};
  const std::uint64_t top = std::uint64_t{1} << 63;
  const std::vector<Interval> intervals = {
      Interval::Empty(),
      Interval{5, 3},  // empty, not in canonical form
      Interval::Full(),
      Interval::Singleton(0),
      Interval::Singleton(max),
      Interval::Singleton(0x1234),
      Interval{0, 1},
      Interval{0, 0xFF},
      Interval{0, top - 1},
      Interval{top, max},
      Interval{max - 1, max},
      Interval{1, max},
      Interval{0, max - 1},
      Interval{0x1000, 0x1FFF},
      Interval{0x1000, 0x2000},
      Interval{0xFFF, 0x2001},
      Interval{0x600000, 0x6003FF},
      Interval{0x7FFFFFFF0000, 0x7FFFFFFFFFFF},
  };
  for (const Interval& allowed : intervals) {
    // Values at and around both ends, at the domain edges, and at distances
    // from each end that straddle every power of two.
    std::vector<std::uint64_t> values = {
        0,          1,          max,            max - 1,        top,
        top - 1,    allowed.lo, allowed.lo - 1, allowed.lo + 1, allowed.hi,
        allowed.hi - 1, allowed.hi + 1, allowed.lo / 2 + allowed.hi / 2};
    for (unsigned k = 0; k < 64; ++k) {
      const std::uint64_t p = std::uint64_t{1} << k;
      for (const std::uint64_t d : {p - 1, p, p + 1}) {
        values.push_back(allowed.lo + d);
        values.push_back(allowed.lo - d);
        values.push_back(allowed.hi + d);
        values.push_back(allowed.hi - d);
      }
    }
    for (const std::uint64_t value : values) {
      ExpectMatchesFlipAndTest(allowed, value);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(FlipsLeaving, MatchesFlipAndTestOnASeededRandomSweep) {
  Rng rng(20160628);
  // A random 64-bit number with a random number of leading zeros, so small,
  // medium and huge magnitudes all show up.
  const auto magnitude = [&rng] { return rng.Next() >> rng.Below(64); };
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t lo = magnitude();
    const std::uint64_t hi = lo + magnitude();
    const Interval allowed = hi < lo ? Interval{lo, ~std::uint64_t{0}} : Interval{lo, hi};
    std::uint64_t value = 0;
    switch (rng.Below(4)) {
      case 0: value = rng.Next(); break;
      case 1: value = allowed.lo + (rng.Below(2) == 0 ? magnitude() : -magnitude()); break;
      case 2: value = allowed.hi + (rng.Below(2) == 0 ? magnitude() : -magnitude()); break;
      default: value = magnitude(); break;
    }
    ExpectMatchesFlipAndTest(allowed, value);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace epvf
