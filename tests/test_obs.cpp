// Tests for the observability subsystem (src/obs): histogram bucket
// boundaries and quantile estimates, deterministic counter merges across
// worker counts, nested span integrity, and a round-trip parse of the
// Chrome trace_event JSON.
//
// Everything but the last test drives the obs classes directly, not
// through the UWB_OBS_* macros.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/expects.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/span.hpp"
#include "obs/trace_sink.hpp"
#include "runner/monte_carlo.hpp"
#include "runner/worker_context.hpp"

namespace uwb::obs {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::instance().reset();
    clear_trace_events();
    set_tracing_enabled(false);
  }
  void TearDown() override {
    MetricsRegistry::instance().reset();
    clear_trace_events();
    set_tracing_enabled(false);
  }
};

// --- bucket layouts ---------------------------------------------------------

TEST_F(ObsTest, ExponentialBucketsHaveGeometricUppers) {
  const auto b = HistogramBuckets::exponential(1.0, 2.0, 4);
  ASSERT_EQ(b.uppers.size(), 4u);
  EXPECT_DOUBLE_EQ(b.uppers[0], 1.0);
  EXPECT_DOUBLE_EQ(b.uppers[1], 2.0);
  EXPECT_DOUBLE_EQ(b.uppers[2], 4.0);
  EXPECT_DOUBLE_EQ(b.uppers[3], 8.0);
}

TEST_F(ObsTest, LinearBucketsHaveArithmeticUppers) {
  const auto b = HistogramBuckets::linear(10.0, 5.0, 3);
  ASSERT_EQ(b.uppers.size(), 3u);
  EXPECT_DOUBLE_EQ(b.uppers[0], 10.0);
  EXPECT_DOUBLE_EQ(b.uppers[1], 15.0);
  EXPECT_DOUBLE_EQ(b.uppers[2], 20.0);
}

// --- histogram bucket boundaries -------------------------------------------

TEST_F(ObsTest, BucketIndexUsesInclusiveUpperEdges) {
  Histogram h(HistogramBuckets::linear(1.0, 1.0, 3));  // uppers 1, 2, 3
  EXPECT_EQ(h.bucket_index(0.0), 0u);
  EXPECT_EQ(h.bucket_index(1.0), 0u);  // inclusive upper edge
  EXPECT_EQ(h.bucket_index(1.0000001), 1u);
  EXPECT_EQ(h.bucket_index(2.0), 1u);
  EXPECT_EQ(h.bucket_index(3.0), 2u);
  EXPECT_EQ(h.bucket_index(3.5), 3u);  // overflow bucket
}

TEST_F(ObsTest, ObserveFillsBucketsAndTracksExtremes) {
  Histogram h(HistogramBuckets::linear(1.0, 1.0, 2));  // uppers 1, 2
  h.observe(0.5);
  h.observe(1.5);
  h.observe(1.7);
  h.observe(9.0);  // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 9.0);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.5 + 1.7 + 9.0);
  EXPECT_DOUBLE_EQ(h.mean(), (0.5 + 1.5 + 1.7 + 9.0) / 4.0);
}

TEST_F(ObsTest, EmptyHistogramIsAllZero) {
  Histogram h(latency_buckets_ms());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

// --- quantiles against known distributions ----------------------------------

TEST_F(ObsTest, QuantilesOfUniformDistribution) {
  // 1000 evenly spaced values on (0, 100] in fine buckets: interpolated
  // quantiles must land close to the exact order statistics.
  Histogram h(HistogramBuckets::linear(1.0, 1.0, 100));
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i) * 0.1);
  EXPECT_NEAR(h.quantile(0.50), 50.0, 1.0);
  EXPECT_NEAR(h.quantile(0.90), 90.0, 1.0);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
  // q=0 clamps to the smallest observation.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.1);
}

TEST_F(ObsTest, QuantilesOfPointMass) {
  // Every observation identical: all quantiles collapse to that value even
  // though interpolation inside the covering bucket would spread them.
  Histogram h(HistogramBuckets::exponential(0.001, 2.0, 20));
  for (int i = 0; i < 100; ++i) h.observe(3.25);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 3.25);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.25);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 3.25);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.25);
}

TEST_F(ObsTest, QuantileOfTwoPointDistribution) {
  // 90 observations at ~1 and 10 at ~100: p50 must sit near the low mass,
  // p99 near the high mass.
  Histogram h(HistogramBuckets::linear(1.0, 1.0, 200));
  for (int i = 0; i < 90; ++i) h.observe(1.0);
  for (int i = 0; i < 10; ++i) h.observe(100.0);
  EXPECT_LT(h.quantile(0.50), 2.0);
  EXPECT_GT(h.quantile(0.95), 99.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
}

TEST_F(ObsTest, QuantileValuesAboveAllBucketsUseOverflow) {
  Histogram h(HistogramBuckets::linear(1.0, 1.0, 2));
  h.observe(50.0);
  h.observe(60.0);
  // Both in overflow: quantiles stay within [min, max].
  EXPECT_GE(h.quantile(0.5), 50.0);
  EXPECT_LE(h.quantile(0.5), 60.0);
}

// --- merge ------------------------------------------------------------------

TEST_F(ObsTest, MergeAddsBucketsAndExtremes) {
  Histogram a(HistogramBuckets::linear(1.0, 1.0, 3));
  Histogram b(HistogramBuckets::linear(1.0, 1.0, 3));
  a.observe(0.5);
  a.observe(2.5);
  b.observe(1.5);
  b.observe(10.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.min(), 0.5);
  EXPECT_DOUBLE_EQ(a.max(), 10.0);
  EXPECT_EQ(a.bucket_count(0), 1u);
  EXPECT_EQ(a.bucket_count(1), 1u);
  EXPECT_EQ(a.bucket_count(2), 1u);
  EXPECT_EQ(a.bucket_count(3), 1u);
}

TEST_F(ObsTest, MergeRejectsMismatchedLayouts) {
  Histogram a(HistogramBuckets::linear(1.0, 1.0, 3));
  Histogram b(HistogramBuckets::linear(1.0, 1.0, 4));
  EXPECT_THROW(a.merge(b), PreconditionError);
}

// --- counter merge determinism across worker counts -------------------------

// Record the same deterministic per-trial counts through the Monte-Carlo
// runner at different thread counts: the merged registry aggregate must be
// bit-identical (integer sums are order-independent). Uses the Shard API
// through each worker's local shard.
Snapshot run_counting_trials(int threads, int n_trials) {
  MetricsRegistry::instance().reset();
  runner::MonteCarlo::Config cfg;
  cfg.threads = threads;
  cfg.base_seed = 42;
  const auto result = runner::MonteCarlo(cfg).run(
      n_trials, [](const runner::TrialContext& ctx, runner::TrialRecorder&) {
        Shard& shard = MetricsRegistry::instance().local_shard();
        shard.counter("trials_seen").add(1);
        // Trial-dependent but schedule-independent: depends only on index.
        shard.counter("weighted").add(
            static_cast<std::uint64_t>(ctx.trial_index % 7));
        shard
            .histogram("det_values", HistogramBuckets::linear(10.0, 10.0, 10))
            .observe(static_cast<double>(ctx.trial_index));
      });
  EXPECT_EQ(result.trials(), n_trials);
  return MetricsRegistry::instance().aggregate();
}

TEST_F(ObsTest, CounterMergeBitIdenticalAcrossWorkerCounts) {
  const Snapshot one = run_counting_trials(1, 101);
  for (const int threads : {2, 4}) {
    const Snapshot many = run_counting_trials(threads, 101);
    EXPECT_EQ(many.counter("trials_seen"), one.counter("trials_seen"));
    EXPECT_EQ(many.counter("weighted"), one.counter("weighted"));
    const Histogram* ha = one.histogram("det_values");
    const Histogram* hb = many.histogram("det_values");
    ASSERT_NE(ha, nullptr);
    ASSERT_NE(hb, nullptr);
    EXPECT_EQ(ha->count(), hb->count());
    // Bucket-by-bucket bit identity (uint64 counts, order-independent sums).
    for (std::size_t i = 0; i <= ha->buckets().uppers.size(); ++i)
      EXPECT_EQ(ha->bucket_count(i), hb->bucket_count(i)) << "bucket " << i;
  }
  EXPECT_EQ(one.counter("trials_seen"), 101u);
  EXPECT_EQ(one.counter("never_recorded"), 0u);
}

TEST_F(ObsTest, PrometheusExpositionCoversEveryMetricFamily) {
  Shard& shard = MetricsRegistry::instance().local_shard();
  shard.counter("frames.delivered").add(17);
  shard.gauge("queue-depth").set(2.5);
  Histogram& h = shard.histogram("fanout",
                                 HistogramBuckets::linear(1.0, 1.0, 2));
  h.observe(0.5);
  h.observe(1.5);
  h.observe(99.0);

  const std::string text =
      MetricsRegistry::instance().aggregate().to_prometheus();

  // Counter: uwb_ prefix, non-[a-zA-Z0-9_:] characters sanitized to '_'.
  EXPECT_NE(text.find("# TYPE uwb_frames_delivered counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("uwb_frames_delivered 17\n"), std::string::npos);
  // Gauge.
  EXPECT_NE(text.find("# TYPE uwb_queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("uwb_queue_depth 2.5\n"), std::string::npos);
  // Histogram: cumulative buckets ending at +Inf, plus _sum/_count.
  EXPECT_NE(text.find("# TYPE uwb_fanout histogram\n"), std::string::npos);
  EXPECT_NE(text.find("uwb_fanout_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("uwb_fanout_bucket{le=\"2\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("uwb_fanout_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("uwb_fanout_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("uwb_fanout_sum 101\n"), std::string::npos);
}

TEST_F(ObsTest, PrometheusExpositionIncludesSpanTotals) {
  Shard& shard = MetricsRegistry::instance().local_shard();
  for (const std::uint64_t dur_ns : {5'000'000ull, 5'000'000ull, 2'500'000ull}) {
    const int depth = shard.enter_span();
    shard.exit_span("detect", 0, dur_ns, depth);
  }
  const std::string text =
      MetricsRegistry::instance().aggregate().to_prometheus();
  EXPECT_NE(text.find("# TYPE uwb_span_detect_calls_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("uwb_span_detect_calls_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("uwb_span_detect_ms_total 12.5\n"), std::string::npos);
}

TEST_F(ObsTest, AggregateNamesAreSorted) {
  Shard& shard = MetricsRegistry::instance().local_shard();
  shard.counter("zebra").add(1);
  shard.counter("alpha").add(1);
  shard.counter("mid").add(1);
  const Snapshot snap = MetricsRegistry::instance().aggregate();
  std::vector<std::string> names;
  for (const auto& [name, value] : snap.counters) names.push_back(name);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST_F(ObsTest, GaugesMergeByMaximum) {
  // Two shards on two threads set the same gauge to different values.
  std::thread t1([] {
    MetricsRegistry::instance().local_shard().gauge("level").set(3.0);
  });
  t1.join();
  std::thread t2([] {
    MetricsRegistry::instance().local_shard().gauge("level").set(7.0);
  });
  t2.join();
  const Snapshot snap = MetricsRegistry::instance().aggregate();
  for (const auto& [name, value] : snap.gauges) {
    if (name == "level") {
      EXPECT_DOUBLE_EQ(value, 7.0);
    }
  }
  EXPECT_FALSE(snap.gauges.empty());
}

TEST_F(ObsTest, ResetZeroesInPlaceKeepingReferencesValid) {
  Shard& shard = MetricsRegistry::instance().local_shard();
  Counter& c = shard.counter("persistent");
  c.add(5);
  MetricsRegistry::instance().reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(2);  // the cached reference still works after reset
  EXPECT_EQ(MetricsRegistry::instance().aggregate().counter("persistent"),
            2u);
}

// --- span nesting ------------------------------------------------------------

TEST_F(ObsTest, NestedSpansTrackDepthAndUnwindInOrder) {
  EXPECT_EQ(current_span_depth(), 0);
  {
    Span outer("outer_stage");
    EXPECT_EQ(outer.depth(), 0);
    EXPECT_EQ(current_span_depth(), 1);
    {
      Span inner("inner_stage");
      EXPECT_EQ(inner.depth(), 1);
      EXPECT_EQ(current_span_depth(), 2);
    }
    EXPECT_EQ(current_span_depth(), 1);
  }
  EXPECT_EQ(current_span_depth(), 0);

  const Snapshot snap = MetricsRegistry::instance().aggregate();
  const auto* outer_total = snap.span("outer_stage");
  const auto* inner_total = snap.span("inner_stage");
  ASSERT_NE(outer_total, nullptr);
  ASSERT_NE(inner_total, nullptr);
  EXPECT_EQ(outer_total->count, 1u);
  EXPECT_EQ(inner_total->count, 1u);
  // The child ran strictly inside the parent.
  EXPECT_GE(outer_total->total_ms, inner_total->total_ms);
}

TEST_F(ObsTest, SpanTotalsAccumulateAcrossCalls) {
  for (int i = 0; i < 5; ++i) {
    Span s("repeated");
  }
  const Snapshot snap = MetricsRegistry::instance().aggregate();
  const auto* total = snap.span("repeated");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->count, 5u);
}

TEST_F(ObsTest, TraceEventsRecordedOnlyWhileTracingEnabled) {
  {
    Span s("untraced");
  }
  EXPECT_TRUE(collect_trace_events().empty());
  set_tracing_enabled(true);
  {
    Span s("traced");
  }
  set_tracing_enabled(false);
  const auto events = collect_trace_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "traced");
  // A second collect drains nothing.
  EXPECT_TRUE(collect_trace_events().empty());
}

TEST_F(ObsTest, TraceEventsCaptureNesting) {
  set_tracing_enabled(true);
  {
    Span outer("outer_stage");
    {
      Span inner("inner_stage");
    }
  }
  set_tracing_enabled(false);
  const auto events = collect_trace_events();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent* outer = nullptr;
  const TraceEvent* inner = nullptr;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) == "outer_stage") outer = &e;
    if (std::string(e.name) == "inner_stage") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->depth, 0);
  EXPECT_EQ(inner->depth, 1);
  // Child bounds inside parent bounds.
  EXPECT_GE(inner->start_ns, outer->start_ns);
  EXPECT_LE(inner->start_ns + inner->dur_ns, outer->start_ns + outer->dur_ns);
}

// --- Chrome trace JSON round trip -------------------------------------------

// Minimal JSON tokenizer sufficient to round-trip the trace document the
// sink emits (objects, arrays, strings without exotic escapes, numbers).
struct MiniJson {
  std::string text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\n' ||
                                 text[pos] == '\t' || text[pos] == '\r'))
      ++pos;
  }
  bool consume(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  std::string parse_string() {
    skip_ws();
    EXPECT_EQ(text[pos], '"');
    ++pos;
    std::string out;
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\') ++pos;
      out.push_back(text[pos++]);
    }
    ++pos;
    return out;
  }
  double parse_number() {
    skip_ws();
    std::size_t end = pos;
    while (end < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[end])) ||
            text[end] == '.' || text[end] == '-' || text[end] == '+' ||
            text[end] == 'e' || text[end] == 'E'))
      ++end;
    const double v = std::stod(text.substr(pos, end - pos));
    pos = end;
    return v;
  }
};

TEST_F(ObsTest, ChromeTraceJsonRoundTrips) {
  set_tracing_enabled(true);
  {
    Span outer("stage_a");
    {
      Span inner("stage_b");
    }
  }
  set_tracing_enabled(false);
  const auto events = collect_trace_events();
  ASSERT_EQ(events.size(), 2u);
  const std::string doc = chrome_trace_json(events);

  // Structural round trip with the mini parser: find the traceEvents array
  // and re-extract each event's name/ph/ts/dur/depth.
  MiniJson p{doc};
  ASSERT_TRUE(p.consume('{'));
  ASSERT_EQ(p.parse_string(), "displayTimeUnit");
  ASSERT_TRUE(p.consume(':'));
  ASSERT_EQ(p.parse_string(), "ms");
  ASSERT_TRUE(p.consume(','));
  ASSERT_EQ(p.parse_string(), "traceEvents");
  ASSERT_TRUE(p.consume(':'));
  ASSERT_TRUE(p.consume('['));

  struct Parsed {
    std::string name, ph;
    double ts = -1.0, dur = -1.0, pid = -1.0, tid = -1.0, depth = -1.0;
  };
  std::vector<Parsed> parsed;
  do {
    ASSERT_TRUE(p.consume('{'));
    Parsed ev;
    do {
      const std::string key = p.parse_string();
      ASSERT_TRUE(p.consume(':'));
      if (key == "name") {
        ev.name = p.parse_string();
      } else if (key == "ph") {
        ev.ph = p.parse_string();
      } else if (key == "cat") {
        p.parse_string();
      } else if (key == "ts") {
        ev.ts = p.parse_number();
      } else if (key == "dur") {
        ev.dur = p.parse_number();
      } else if (key == "pid") {
        ev.pid = p.parse_number();
      } else if (key == "tid") {
        ev.tid = p.parse_number();
      } else if (key == "args") {
        ASSERT_TRUE(p.consume('{'));
        ASSERT_EQ(p.parse_string(), "depth");
        ASSERT_TRUE(p.consume(':'));
        ev.depth = p.parse_number();
        ASSERT_TRUE(p.consume('}'));
      } else {
        FAIL() << "unexpected key " << key;
      }
    } while (p.consume(','));
    ASSERT_TRUE(p.consume('}'));
    parsed.push_back(ev);
  } while (p.consume(','));
  ASSERT_TRUE(p.consume(']'));
  ASSERT_TRUE(p.consume('}'));

  ASSERT_EQ(parsed.size(), events.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].name, std::string(events[i].name));
    EXPECT_EQ(parsed[i].ph, "X");
    EXPECT_EQ(parsed[i].pid, 0.0);
    EXPECT_DOUBLE_EQ(parsed[i].tid, static_cast<double>(events[i].tid));
    EXPECT_DOUBLE_EQ(parsed[i].depth, static_cast<double>(events[i].depth));
    // ts/dur are microseconds with 3 decimals — exact at ns granularity.
    EXPECT_DOUBLE_EQ(parsed[i].ts,
                     static_cast<double>(events[i].start_ns) / 1000.0);
    EXPECT_DOUBLE_EQ(parsed[i].dur,
                     static_cast<double>(events[i].dur_ns) / 1000.0);
  }
}

TEST_F(ObsTest, ChromeTraceJsonEscapesControlCharacters) {
  std::vector<TraceEvent> events;
  events.push_back(TraceEvent{"quote\"back\\slash", 10, 5, 0, 0});
  const std::string doc = chrome_trace_json(events);
  EXPECT_NE(doc.find("quote\\\"back\\\\slash"), std::string::npos);
}

// --- instrumentation macros --------------------------------------------------

TEST_F(ObsTest, MacrosRespectBuildFlavour) {
  {
    UWB_OBS_SPAN("macro_span");
    UWB_OBS_COUNT("macro_counter", 3);
    UWB_OBS_GAUGE_SET("macro_gauge", 1.5);
  }
  const Snapshot snap = MetricsRegistry::instance().aggregate();
  EXPECT_EQ(snap.counter("macro_counter"), 3u);
  const auto* span = snap.span("macro_span");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->count, 1u);
}

}  // namespace
}  // namespace uwb::obs
