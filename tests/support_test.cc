// Unit tests for the support library: bit helpers, RNG, statistics, tables.
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <chrono>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/bits.h"
#include "support/rng.h"
#include "support/statistics.h"
#include "support/stopwatch.h"
#include "support/subprocess.h"
#include "support/table.h"

namespace epvf {
namespace {

// --- bits --------------------------------------------------------------------

TEST(Bits, FlipBitTogglesExactlyOneBit) {
  EXPECT_EQ(FlipBit(0, 0), 1u);
  EXPECT_EQ(FlipBit(0b1010, 1), 0b1000u);
  EXPECT_EQ(FlipBit(~std::uint64_t{0}, 63), ~std::uint64_t{0} >> 1);
}

class FlipBitProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(FlipBitProperty, IsAnInvolutionAndChangesValue) {
  const unsigned bit = GetParam();
  Rng rng(bit);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t v = rng.Next();
    EXPECT_NE(FlipBit(v, bit), v);
    EXPECT_EQ(FlipBit(FlipBit(v, bit), bit), v);
    EXPECT_EQ(PopCount(FlipBit(v, bit) ^ v), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBits, FlipBitProperty,
                         ::testing::Values(0u, 1u, 7u, 31u, 32u, 62u, 63u));

TEST(Bits, FlipBitsBurst) {
  EXPECT_EQ(FlipBits(0, 0, 1), 1u);
  EXPECT_EQ(FlipBits(0, 0, 2), 0b11u);
  EXPECT_EQ(FlipBits(0b1010, 1, 3), 0b0100u);
  EXPECT_EQ(FlipBits(0, 62, 2), 0xC000000000000000ull);
  EXPECT_EQ(FlipBits(0xFF, 0, 64), ~std::uint64_t{0xFF});
  // A burst is its own inverse, like a single flip.
  EXPECT_EQ(FlipBits(FlipBits(0xDEADBEEF, 7, 4), 7, 4), 0xDEADBEEFull);
}

TEST(Bits, LowMaskBoundaries) {
  EXPECT_EQ(LowMask(0), 0u);
  EXPECT_EQ(LowMask(1), 1u);
  EXPECT_EQ(LowMask(32), 0xFFFFFFFFull);
  EXPECT_EQ(LowMask(64), ~std::uint64_t{0});
}

TEST(Bits, SignExtendFrom) {
  EXPECT_EQ(SignExtendFrom(0xFF, 8), ~std::uint64_t{0});
  EXPECT_EQ(SignExtendFrom(0x7F, 8), 0x7Fu);
  EXPECT_EQ(SignExtendFrom(0x8000'0000ull, 32), 0xFFFF'FFFF'8000'0000ull);
  EXPECT_EQ(SignExtendFrom(5, 64), 5u);
  EXPECT_EQ(static_cast<std::int64_t>(SignExtendFrom(TruncateTo(-12, 16), 16)), -12);
}

TEST(Bits, TruncateTo) {
  EXPECT_EQ(TruncateTo(0x1FF, 8), 0xFFu);
  EXPECT_EQ(TruncateTo(0x1FF, 1), 1u);
  EXPECT_EQ(TruncateTo(0xDEADBEEF, 64), 0xDEADBEEFu);
}

// --- rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (const std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.Below(bound), bound);
  }
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(99);
  constexpr int kBuckets = 8;
  int counts[kBuckets] = {};
  constexpr int kDraws = 16000;
  for (int i = 0; i < kDraws; ++i) counts[rng.Below(kBuckets)]++;
  for (const int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.15);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// --- statistics ----------------------------------------------------------------

TEST(Statistics, BinomialCIMatchesHandComputation) {
  const ProportionCI ci = BinomialCI95(63, 100);
  EXPECT_DOUBLE_EQ(ci.rate, 0.63);
  EXPECT_NEAR(ci.half_width, 1.96 * std::sqrt(0.63 * 0.37 / 100), 1e-4);
  EXPECT_GT(ci.Low(), 0.5);
  EXPECT_LT(ci.High(), 0.75);
}

TEST(Statistics, BinomialCIZeroTrials) {
  const ProportionCI ci = BinomialCI95(0, 0);
  EXPECT_EQ(ci.rate, 0.0);
  EXPECT_EQ(ci.half_width, 0.0);
}

TEST(Statistics, WilsonCIBetterBehavedAtExtremes) {
  const ProportionCI wilson = WilsonCI95(0, 20);
  EXPECT_GT(wilson.High(), 0.0) << "Wilson must not collapse to a zero-width interval";
  const ProportionCI normal = BinomialCI95(0, 20);
  EXPECT_EQ(normal.half_width, 0.0);
}

TEST(Statistics, MeanVarianceStdDev) {
  const std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  EXPECT_NEAR(Variance(xs), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(StdDev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Statistics, GeometricMean) {
  const std::vector<double> xs = {1.0, 4.0, 16.0};
  EXPECT_NEAR(GeometricMean(xs), 4.0, 1e-12);
  const std::vector<double> with_zero = {0.0, 1.0};
  EXPECT_GT(GeometricMean(with_zero), 0.0) << "zero entries are floored, not fatal";
}

TEST(Statistics, NormalizedVariance) {
  const std::vector<double> constant = {3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(NormalizedVariance(constant), 0.0);
  const std::vector<double> spread = {1.0, 5.0};
  EXPECT_GT(NormalizedVariance(spread), 0.5);
}

TEST(Statistics, PearsonCorrelation) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  const std::vector<double> ys = {2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(xs, ys), 1.0, 1e-12);
  const std::vector<double> anti = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(xs, anti), -1.0, 1e-12);
}

TEST(Statistics, CounterAccumulates) {
  Counter counter;
  for (int i = 0; i < 10; ++i) counter.Add(i < 3);
  EXPECT_EQ(counter.successes(), 3u);
  EXPECT_EQ(counter.trials(), 10u);
  EXPECT_DOUBLE_EQ(counter.CI95().rate, 0.3);
}

// --- table ---------------------------------------------------------------------

TEST(Table, AlignsColumnsAndFormatsNumbers) {
  AsciiTable table({"name", "value"});
  table.SetTitle("demo");
  table.AddRow({"short", AsciiTable::Pct(0.631, 1)});
  table.AddRow({"a-much-longer-name", AsciiTable::Num(3.14159, 2)});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("63.1%"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  // Both data rows align under the header.
  std::istringstream is(out);
  std::string line;
  std::getline(is, line);  // title
  std::getline(is, line);  // header
  const std::size_t value_col = line.find("value");
  ASSERT_NE(value_col, std::string::npos);
}

TEST(Table, PctCIEmitsPlusMinus) {
  const std::string s = AsciiTable::PctCI(0.5, 0.031, 1);
  EXPECT_NE(s.find("50.0%"), std::string::npos);
  EXPECT_NE(s.find("3.1%"), std::string::npos);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch watch;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(static_cast<double>(i));
  EXPECT_GE(watch.ElapsedSeconds(), 0.0);
  EXPECT_GE(watch.ElapsedMillis(), watch.ElapsedSeconds());
}

// --- subprocess readiness waits ----------------------------------------------

TEST(Subprocess, PollWithDeadlineReapsAnExitingChildPromptly) {
  SubprocessOptions options;
  options.argv = {"/bin/sh", "-c", "exit 7"};
  std::optional<Subprocess> child = Subprocess::Spawn(options);
  ASSERT_TRUE(child.has_value());
  const auto start = std::chrono::steady_clock::now();
  const std::optional<ExitStatus> status = child->PollWithDeadline(10.0);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->exited);
  EXPECT_EQ(status->code, 7);
  // The whole point of the readiness wait: nowhere near the 10 s deadline.
  EXPECT_LT(waited, 5.0);
  // Idempotent after the reap, like Poll.
  EXPECT_TRUE(child->PollWithDeadline(1.0).has_value());
}

TEST(Subprocess, PollWithDeadlineTimesOutOnARunningChild) {
  SubprocessOptions options;
  options.argv = {"/bin/sh", "-c", "sleep 30"};
  std::optional<Subprocess> child = Subprocess::Spawn(options);
  ASSERT_TRUE(child.has_value());
  EXPECT_FALSE(child->PollWithDeadline(0.05).has_value());
  EXPECT_FALSE(child->reaped());
  child->Kill();
  const ExitStatus status = child->Wait();
  EXPECT_FALSE(status.exited);
}

TEST(Subprocess, WaitAnyReadyPicksTheChildThatExits) {
  SubprocessOptions slow;
  slow.argv = {"/bin/sh", "-c", "sleep 30"};
  SubprocessOptions fast;
  fast.argv = {"/bin/sh", "-c", "exit 0"};
  std::optional<Subprocess> slow_child = Subprocess::Spawn(slow);
  std::optional<Subprocess> fast_child = Subprocess::Spawn(fast);
  ASSERT_TRUE(slow_child.has_value());
  ASSERT_TRUE(fast_child.has_value());
  // Null entries are legal — callers pass their full roster each round.
  const std::vector<Subprocess*> roster = {nullptr, &*slow_child, &*fast_child};
  const int ready = Subprocess::WaitAnyReady(roster, 10.0);
  ASSERT_EQ(ready, 2);
  const std::optional<ExitStatus> status = fast_child->Poll();
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->Success());
  slow_child->Kill();
  (void)slow_child->Wait();
}

/// True once `pid` has terminated: gone from /proc, or a zombie waiting for
/// its reaper.
bool ProcessEnded(pid_t pid) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!stat || !std::getline(stat, line)) return true;
  const std::size_t close = line.rfind(')');
  return close == std::string::npos || close + 2 >= line.size() || line[close + 2] == 'Z';
}

TEST(Subprocess, KillReachesEverythingTheChildSpawned) {
  // A shell that forks a sleeper: killing only the shell would orphan the
  // sleeper, which would then hold any inherited pipe open for its full 30 s.
  const std::string pid_file = (std::filesystem::temp_directory_path() /
                                ("epvf_subprocess_" + std::to_string(::getpid()) + ".pid"))
                                   .string();
  std::filesystem::remove(pid_file);
  SubprocessOptions options;
  options.argv = {"/bin/sh", "-c", "sleep 30 & echo $! > " + pid_file + ".tmp; mv " + pid_file +
                                       ".tmp " + pid_file + "; wait"};
  std::optional<Subprocess> child = Subprocess::Spawn(options);
  ASSERT_TRUE(child.has_value());

  pid_t sleeper = 0;
  for (int i = 0; i < 500 && sleeper == 0; ++i) {
    std::ifstream in(pid_file);
    if (!(in >> sleeper)) {
      sleeper = 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  std::filesystem::remove(pid_file);
  ASSERT_GT(sleeper, 0) << "the shell never reported its sleeper";
  EXPECT_FALSE(ProcessEnded(sleeper));

  child->Kill();
  EXPECT_FALSE(child->Wait().exited);
  bool ended = false;
  for (int i = 0; i < 500 && !ended; ++i) {
    ended = ProcessEnded(sleeper);
    if (!ended) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(ended) << "Kill left the grandchild " << sleeper << " running";
  if (!ended) ::kill(sleeper, SIGKILL);
}

TEST(Subprocess, WaitAnyReadySkipsReapedChildrenAndTimesOut) {
  SubprocessOptions options;
  options.argv = {"/bin/sh", "-c", "exit 0"};
  std::optional<Subprocess> child = Subprocess::Spawn(options);
  ASSERT_TRUE(child.has_value());
  (void)child->Wait();
  // Every entry reaped or null: nothing to wait for.
  EXPECT_EQ(Subprocess::WaitAnyReady({&*child, nullptr}, 0.2), -1);
  EXPECT_EQ(Subprocess::WaitAnyReady({}, 0.2), -1);
}

}  // namespace
}  // namespace epvf
