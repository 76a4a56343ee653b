// Observability-layer tests: metrics registry correctness (including under
// ThreadPool concurrency), histogram bucketing, the metrics JSON round trip,
// trace span nesting/ordering/renaming, the Chrome trace_event schema, ring
// overflow accounting, and the disabled-mode zero-allocation guarantee the
// whole instrumentation effort rests on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/timing.h"
#include "obs/trace.h"
#include "support/thread_pool.h"

// Allocation ledger for the zero-allocation tests: every global new/delete in
// this binary bumps a relaxed counter. Counting (rather than failing) keeps
// gtest itself free to allocate; individual tests diff the counter across the
// region they care about.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace epvf::obs {
namespace {

// --- metrics -----------------------------------------------------------------

TEST(Metrics, CounterAndGaugeBasics) {
  MetricsRegistry::Global().ResetForTest();
  Counter& c = GetCounter("test.counter");
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Sub(2);
  EXPECT_EQ(c.Value(), 40u);

  Gauge& g = GetGauge("test.gauge");
  g.Set(-7);
  EXPECT_EQ(g.Value(), -7);
  g.Add(10);
  EXPECT_EQ(g.Value(), 3);
}

TEST(Metrics, GetOrCreateReturnsStableReferences) {
  MetricsRegistry::Global().ResetForTest();
  Counter& a = GetCounter("test.stable");
  Counter& b = GetCounter("test.stable");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &GetCounter("test.other"));
}

TEST(Metrics, HistogramBucketing) {
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Histogram::BucketOf(2), 2u);
  EXPECT_EQ(Histogram::BucketOf(3), 2u);
  EXPECT_EQ(Histogram::BucketOf(4), 3u);
  EXPECT_EQ(Histogram::BucketOf(~std::uint64_t{0}), 64u);
  for (unsigned b = 0; b < Histogram::kNumBuckets; ++b) {
    // Every bucket's lower bound lands in that bucket.
    EXPECT_EQ(Histogram::BucketOf(Histogram::BucketLowerBound(b)), b);
  }

  Histogram h;
  h.Observe(0);
  h.Observe(5);
  h.Observe(5);
  h.Observe(1000);
  EXPECT_EQ(h.Count(), 4u);
  EXPECT_EQ(h.Sum(), 1010u);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), 1000u);
  EXPECT_EQ(h.BucketCount(Histogram::BucketOf(0)), 1u);
  EXPECT_EQ(h.BucketCount(Histogram::BucketOf(5)), 2u);
  EXPECT_EQ(h.BucketCount(Histogram::BucketOf(1000)), 1u);
}

TEST(Metrics, CounterIsExactUnderThreadPoolConcurrency) {
  MetricsRegistry::Global().ResetForTest();
  Counter& c = GetCounter("test.concurrent.counter");
  constexpr std::size_t kIters = 20000;
  ParallelFor(0, kIters, ParallelOptions{.jobs = 4, .grain = 1},
              [&](std::size_t) { c.Add(); });
  EXPECT_EQ(c.Value(), kIters);
}

TEST(Metrics, HistogramIsExactUnderThreadPoolConcurrency) {
  MetricsRegistry::Global().ResetForTest();
  Histogram& h = GetHistogram("test.concurrent.histogram");
  constexpr std::size_t kIters = 20000;
  ParallelFor(0, kIters, ParallelOptions{.jobs = 4, .grain = 1},
              [&](std::size_t i) { h.Observe(static_cast<std::uint64_t>(i)); });
  EXPECT_EQ(h.Count(), kIters);
  EXPECT_EQ(h.Sum(), std::uint64_t{kIters} * (kIters - 1) / 2);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), kIters - 1);
  std::uint64_t bucket_total = 0;
  for (unsigned b = 0; b < Histogram::kNumBuckets; ++b) bucket_total += h.BucketCount(b);
  EXPECT_EQ(bucket_total, kIters);
}

TEST(Metrics, SnapshotIsSortedByName) {
  MetricsRegistry::Global().ResetForTest();
  GetCounter("sorted.z").Add();
  GetCounter("sorted.a").Add();
  GetCounter("sorted.m").Add();
  const MetricsSnapshot snap = MetricsRegistry::Global().Snap();
  std::vector<std::string> names;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("sorted.", 0) == 0) names.push_back(name);
  }
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "sorted.a");
  EXPECT_EQ(names[1], "sorted.m");
  EXPECT_EQ(names[2], "sorted.z");
}

TEST(Metrics, JsonRoundTrips) {
  MetricsRegistry::Global().ResetForTest();
  GetCounter("rt.counter").Add(123);
  GetGauge("rt.gauge").Set(-45);
  Histogram& h = GetHistogram("rt.hist");
  h.Observe(0);
  h.Observe(7);
  h.Observe(7);
  h.Observe(4096);

  const MetricsSnapshot snap = MetricsRegistry::Global().Snap();
  const std::string json = MetricsJson(snap);
  const std::optional<MetricsSnapshot> parsed = ParseMetricsJson(json);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->counters.size(), snap.counters.size());
  EXPECT_EQ(parsed->counters, snap.counters);
  EXPECT_EQ(parsed->gauges, snap.gauges);
  ASSERT_EQ(parsed->histograms.size(), snap.histograms.size());
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    EXPECT_EQ(parsed->histograms[i].first, snap.histograms[i].first);
    const HistogramSnapshot& got = parsed->histograms[i].second;
    const HistogramSnapshot& want = snap.histograms[i].second;
    EXPECT_EQ(got.count, want.count);
    EXPECT_EQ(got.sum, want.sum);
    EXPECT_EQ(got.min, want.min);
    EXPECT_EQ(got.max, want.max);
    EXPECT_EQ(got.buckets, want.buckets);
  }
}

TEST(Metrics, ParseRejectsMalformedJson) {
  EXPECT_FALSE(ParseMetricsJson("").has_value());
  EXPECT_FALSE(ParseMetricsJson("{}").has_value());
  EXPECT_FALSE(ParseMetricsJson("{\"schema\":\"other-v9\"}").has_value());
  EXPECT_FALSE(ParseMetricsJson("not json at all").has_value());
}

// --- tracing -----------------------------------------------------------------

TEST(Trace, SpansNestAndOrder) {
  SetTracingEnabled(true);
  ResetTraceForTest();
  {
    const TraceSpan parent("test", "parent");
    {
      const TraceSpan child("test", "child");
      // Make the child interval non-degenerate.
      volatile int sink = 0;
      for (int i = 0; i < 1000; ++i) sink = sink + i;
    }
  }
  SetTracingEnabled(false);

  const std::vector<TraceEvent> events = CollectTraceEvents();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start: parent opened first, closed last.
  EXPECT_STREQ(events[0].name, "parent");
  EXPECT_STREQ(events[1].name, "child");
  const TraceEvent& parent = events[0];
  const TraceEvent& child = events[1];
  EXPECT_GE(child.start_ns, parent.start_ns);
  EXPECT_LE(child.start_ns + child.dur_ns, parent.start_ns + parent.dur_ns);
  EXPECT_EQ(parent.tid, child.tid);
}

TEST(Trace, RenameSettlesTheLabelAtClose) {
  SetTracingEnabled(true);
  ResetTraceForTest();
  {
    TraceSpan span("test", "provisional");
    span.Rename("settled");
  }
  SetTracingEnabled(false);
  const std::vector<TraceEvent> events = CollectTraceEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "settled");
}

TEST(Trace, CloseIsIdempotentAndEarly) {
  SetTracingEnabled(true);
  ResetTraceForTest();
  {
    TraceSpan span("test", "early");
    span.Close();
    span.Close();  // second close and the destructor must both be no-ops
  }
  SetTracingEnabled(false);
  EXPECT_EQ(CollectTraceEvents().size(), 1u);
}

TEST(Trace, RingOverflowDropsOldestAndCounts) {
  SetTracingEnabled(true);
  ResetTraceForTest();
  constexpr std::uint64_t kRecorded = (1u << 14) + 100;  // capacity + 100
  for (std::uint64_t i = 0; i < kRecorded; ++i) {
    const TraceSpan span("test", "overflow");
  }
  SetTracingEnabled(false);
  EXPECT_EQ(DroppedTraceEvents(), 100u);
  EXPECT_EQ(CollectTraceEvents().size(), std::size_t{1} << 14);
}

TEST(Trace, ChromeJsonHasTheExpectedSchema) {
  SetTracingEnabled(true);
  ResetTraceForTest();
  {
    const TraceSpan span("cat-a", "span \"quoted\"");
  }
  SetTracingEnabled(false);

  const std::string json = ChromeTraceJson();
  // Top-level object with a traceEvents array.
  EXPECT_NE(json.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["), std::string::npos);
  // Process metadata record.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  // One complete event with category, escaped name, ts and dur.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"cat-a\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"span \\\"quoted\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  // Balanced and closed.
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
}

TEST(Trace, DisabledSpansAllocateNothingAndRecordNothing) {
  SetTracingEnabled(false);
  ResetTraceForTest();
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    TraceSpan span("test", "disabled");
    span.Rename("still-disabled");
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
  EXPECT_TRUE(CollectTraceEvents().empty());
}

TEST(Trace, EnabledSpansAllocateOnlyTheThreadBuffer) {
  SetTracingEnabled(true);
  ResetTraceForTest();
  {
    const TraceSpan warmup("test", "warmup");  // registers this thread's ring
  }
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    const TraceSpan span("test", "steady-state");
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  SetTracingEnabled(false);
  EXPECT_EQ(after, before);
}

// --- timing ------------------------------------------------------------------

TEST(TimedSection, FeedsHistogramTraceAndLegacyField) {
  MetricsRegistry::Global().ResetForTest();
  SetTracingEnabled(true);
  ResetTraceForTest();
  double seconds = -1;
  {
    TimedSection timed("test", "timed", "test.timed.us", &seconds);
    const double inner = timed.Stop();
    EXPECT_EQ(timed.Stop(), inner);  // idempotent
  }
  SetTracingEnabled(false);
  EXPECT_GE(seconds, 0.0);
  const Histogram& h = GetHistogram("test.timed.us");
  EXPECT_EQ(h.Count(), 1u);
  const std::vector<TraceEvent> events = CollectTraceEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "timed");
}

// --- progress ----------------------------------------------------------------

TEST(Progress, StatusLineFormatsTalliesWithoutATerminal) {
  MetricsRegistry::Global().ResetForTest();
  ProgressReporter::Options options;
  options.label = "campaign";
  options.total = 10;
  options.categories = {"benign", "sdc"};
  options.enable = 0;  // formatting only, no reporter thread output
  ProgressReporter progress(std::move(options));
  EXPECT_FALSE(progress.enabled());
  progress.Tick(0);
  progress.Tick(1);
  progress.Tick(1);
  const std::string line = progress.StatusLine();
  EXPECT_NE(line.find("campaign"), std::string::npos);
  EXPECT_NE(line.find("3/10"), std::string::npos);
  EXPECT_NE(line.find("benign 1"), std::string::npos);
  EXPECT_NE(line.find("sdc 2"), std::string::npos);
  progress.Finish();
}

TEST(Progress, SnapshotTextRoundTripsThroughFormatAndParse) {
  ProgressSnapshot snapshot;
  snapshot.done = 17;
  snapshot.total = 40;
  snapshot.category_counts = {3, 0, 14};
  const std::string text = FormatProgressSnapshot(snapshot);
  EXPECT_EQ(text.rfind("epvf-progress-v1\n", 0), 0u);
  const std::optional<ProgressSnapshot> back = ParseProgressSnapshot(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->done, 17u);
  EXPECT_EQ(back->total, 40u);
  EXPECT_EQ(back->category_counts, snapshot.category_counts);

  EXPECT_FALSE(ParseProgressSnapshot("").has_value());
  EXPECT_FALSE(ParseProgressSnapshot("not-a-snapshot\ndone 3\n").has_value());
}

}  // namespace
}  // namespace epvf::obs
