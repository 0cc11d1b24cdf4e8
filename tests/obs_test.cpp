// Telemetry subsystem: span nesting and thread-lane attribution, counter
// aggregation across worker threads, gauge high-water tracking, Chrome
// trace_event export (parsed back through util/json.hpp's parseJson),
// metrics export structure, and the determinism firewall — flow_report.json
// must be byte-identical with telemetry on vs. off.
#include "obs/telemetry.hpp"

#include "flow/engine.hpp"
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace flh {
namespace {

/// All "X" (complete) events from a parsed trace document.
std::vector<JsonValue> completeEvents(const JsonValue& trace) {
    std::vector<JsonValue> out;
    for (const JsonValue& e : trace.at("traceEvents").arr)
        if (e.at("ph").str == "X") out.push_back(e);
    return out;
}

/// Fresh telemetry state per test; disables recording on teardown so obs
/// tests never leak an enabled flag into other suites.
struct ObsFixture : ::testing::Test {
    void SetUp() override {
        obs::setEnabled(false);
        obs::reset();
    }
    void TearDown() override {
        obs::setEnabled(false);
        obs::reset();
    }
};

using ObsDisabled = ObsFixture;
using ObsSpans = ObsFixture;
using ObsCounters = ObsFixture;
using ObsExport = ObsFixture;
using ObsFlow = ObsFixture;

TEST_F(ObsDisabled, HooksRecordNothingWhileDisabled) {
    ASSERT_FALSE(obs::enabled());
    obs::Counter& c = obs::counter("obs_test.disabled");
    obs::Gauge& g = obs::gauge("obs_test.disabled_gauge");
    obs::setThreadLabel("should-not-stick");
    {
        obs::ScopedSpan outer("disabled-span");
        obs::ScopedSpan inner("disabled-inner", "cat");
        c.add(5);
        g.set(42);
    }
    EXPECT_EQ(obs::spanCount(), 0u);
    EXPECT_EQ(obs::laneCount(), 0u);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(g.peak(), 0);
}

TEST_F(ObsDisabled, SpanOpenedWhileDisabledStaysInertAfterEnable) {
    std::unique_ptr<obs::ScopedSpan> span =
        std::make_unique<obs::ScopedSpan>("pre-enable");
    obs::setEnabled(true);
    span.reset(); // closes after enable; must not record (start was inactive)
    EXPECT_EQ(obs::spanCount(), 0u);
}

TEST_F(ObsSpans, NestingRecordsBothIntervalsOnOneLane) {
    obs::setEnabled(true);
    obs::setThreadLabel("obs-test-main");
    {
        obs::ScopedSpan outer("outer-span", "obs_test");
        {
            obs::ScopedSpan inner("inner-span", "obs_test");
        }
    }
    EXPECT_EQ(obs::spanCount(), 2u);
    EXPECT_EQ(obs::laneCount(), 1u);

    const JsonValue trace = parseJson(obs::traceJson());
    const auto events = completeEvents(trace);
    ASSERT_EQ(events.size(), 2u);
    const JsonValue* outer = nullptr;
    const JsonValue* inner = nullptr;
    for (const JsonValue& e : events) {
        if (e.at("name").str == "outer-span") outer = &e;
        if (e.at("name").str == "inner-span") inner = &e;
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    // Same lane, and the inner interval sits inside the outer one.
    EXPECT_EQ(outer->at("tid").num, inner->at("tid").num);
    EXPECT_EQ(outer->at("cat").str, "obs_test");
    EXPECT_GE(inner->at("ts").num, outer->at("ts").num);
    EXPECT_LE(inner->at("ts").num + inner->at("dur").num,
              outer->at("ts").num + outer->at("dur").num);

    // The lane's metadata record carries the label we set.
    bool saw_label = false;
    for (const JsonValue& e : trace.at("traceEvents").arr)
        if (e.at("ph").str == "M" && e.at("name").str == "thread_name" &&
            e.at("args").at("name").str == "obs-test-main")
            saw_label = true;
    EXPECT_TRUE(saw_label);
}

TEST_F(ObsCounters, AggregateAcrossWorkerThreadsOntoSeparateLanes) {
    obs::setEnabled(true);
    obs::Counter& c = obs::counter("obs_test.work");
    constexpr int kThreads = 4;
    constexpr int kAddsPerThread = 1000;
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back([&c, t] {
            obs::setThreadLabel("obs-worker-" + std::to_string(t));
            obs::ScopedSpan span("worker-body", "obs_test");
            for (int i = 0; i < kAddsPerThread; ++i) c.add();
        });
    for (auto& th : pool) th.join();

    EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
    EXPECT_EQ(obs::spanCount(), static_cast<std::size_t>(kThreads));
    EXPECT_EQ(obs::laneCount(), static_cast<std::size_t>(kThreads));

    // Every worker exports on its own tid with its own label.
    const JsonValue trace = parseJson(obs::traceJson());
    std::map<double, std::string> label_by_tid;
    for (const JsonValue& e : trace.at("traceEvents").arr)
        if (e.at("ph").str == "M" && e.at("name").str == "thread_name")
            label_by_tid[e.at("tid").num] = e.at("args").at("name").str;
    std::map<double, int> spans_by_tid;
    for (const JsonValue& e : completeEvents(trace)) ++spans_by_tid[e.at("tid").num];
    EXPECT_EQ(spans_by_tid.size(), static_cast<std::size_t>(kThreads));
    for (const auto& [tid, n] : spans_by_tid) {
        EXPECT_EQ(n, 1) << "tid " << tid;
        ASSERT_TRUE(label_by_tid.count(tid)) << "tid " << tid << " has no label";
        EXPECT_EQ(label_by_tid[tid].rfind("obs-worker-", 0), 0u) << label_by_tid[tid];
    }
}

TEST_F(ObsCounters, GaugeTracksValueAndHighWater) {
    obs::setEnabled(true);
    obs::Gauge& g = obs::gauge("obs_test.depth");
    g.set(5);
    g.set(2);
    EXPECT_EQ(g.value(), 2);
    EXPECT_EQ(g.peak(), 5);
    obs::reset();
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(g.peak(), 0);
    // Address stability: the registry still hands back the same object.
    EXPECT_EQ(&g, &obs::gauge("obs_test.depth"));
}

TEST_F(ObsExport, MetricsJsonParsesWithExpectedStructure) {
    obs::setEnabled(true);
    obs::counter("obs_test.metric_a").add(3);
    obs::counter("obs_test.metric_b").add(7);
    obs::gauge("obs_test.metric_gauge").set(9);
    {
        obs::ScopedSpan span("metrics-span");
    }
    const std::string doc = obs::metricsJson();
    ASSERT_FALSE(doc.empty());
    EXPECT_EQ(doc.back(), '\n');

    const JsonValue v = parseJson(doc);
    EXPECT_EQ(v.at("schema").str, "flh.obs.metrics/1");
    EXPECT_GE(v.at("spans").num, 1.0);
    EXPECT_GE(v.at("lanes").num, 1.0);
    EXPECT_EQ(v.at("counters").at("obs_test.metric_a").num, 3.0);
    EXPECT_EQ(v.at("counters").at("obs_test.metric_b").num, 7.0);
    EXPECT_EQ(v.at("gauges").at("obs_test.metric_gauge").at("value").num, 9.0);
    EXPECT_EQ(v.at("gauges").at("obs_test.metric_gauge").at("peak").num, 9.0);
}

TEST_F(ObsExport, TraceJsonIsChromeLoadableShape) {
    obs::setEnabled(true);
    {
        obs::ScopedSpan span("shape-span", "obs_test");
    }
    const std::string doc = obs::traceJson();
    const JsonValue v = parseJson(doc);
    // Top level: displayTimeUnit + traceEvents, process metadata first.
    EXPECT_EQ(v.at("displayTimeUnit").str, "ms");
    const auto& events = v.at("traceEvents").arr;
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.front().at("ph").str, "M");
    EXPECT_EQ(events.front().at("name").str, "process_name");
    for (const JsonValue& e : events) {
        EXPECT_EQ(e.at("pid").num, 1.0);
        const std::string& ph = e.at("ph").str;
        ASSERT_TRUE(ph == "M" || ph == "X") << "unexpected phase " << ph;
        if (ph == "X") {
            EXPECT_FALSE(e.at("name").str.empty());
            EXPECT_FALSE(e.at("cat").str.empty());
            EXPECT_GE(e.at("dur").num, 0.0);
            EXPECT_TRUE(e.has("ts"));
            EXPECT_TRUE(e.has("tid"));
        }
    }
}

/// Two-stage, two-design flow used for the determinism firewall test.
FlowGraph tinyGraph() {
    FlowGraph g;
    g.addStage({"parse", "", {}, [](const StageContext& ctx) {
                    Artifact a;
                    a.setStr("value", "parsed:" + ctx.source());
                    return a;
                }});
    g.addStage({"grade", "", {"parse"}, [](const StageContext& ctx) {
                    Artifact a;
                    a.setStr("value", ctx.input("parse").str("value") + "|graded");
                    a.setNum("coverage_pct", 93.5);
                    return a;
                }});
    return g;
}

TEST_F(ObsFlow, FlowReportBytesIdenticalWithTelemetryOnVsOff) {
    const std::vector<DesignInput> designs = {{"alpha", "src-alpha", ""},
                                              {"beta", "src-beta", ""}};
    FlowOptions opts;
    opts.cache.enabled = false;
    opts.threads = 2;

    ASSERT_FALSE(obs::enabled());
    const RunReport off = runFlow(tinyGraph(), designs, opts);
    EXPECT_EQ(obs::spanCount(), 0u);

    obs::setEnabled(true);
    const RunReport on = runFlow(tinyGraph(), designs, opts);
    EXPECT_GT(obs::spanCount(), 0u);

    // The determinism firewall: the deterministic report must not move by
    // a single byte when telemetry records the same run.
    EXPECT_EQ(off.reportJson(), on.reportJson());
    EXPECT_EQ(off.failures(), 0u);
    EXPECT_EQ(on.failures(), 0u);
}

TEST_F(ObsFlow, FlowRunEmitsOneStageSpanPerDesignStagePair) {
    const std::vector<DesignInput> designs = {{"alpha", "src-alpha", ""},
                                              {"beta", "src-beta", ""}};
    FlowOptions opts;
    opts.cache.enabled = false;
    obs::setEnabled(true);
    (void)runFlow(tinyGraph(), designs, opts);

    const JsonValue trace = parseJson(obs::traceJson());
    std::map<std::string, int> stage_spans;
    for (const JsonValue& e : completeEvents(trace))
        if (e.at("cat").str == "flow.stage") ++stage_spans[e.at("name").str];
    for (const char* want : {"alpha/parse", "alpha/grade", "beta/parse", "beta/grade"})
        EXPECT_EQ(stage_spans[want], 1) << want;

    // Counters see the same run: 4 tasks, all cache-off misses.
    const JsonValue metrics = parseJson(obs::metricsJson());
    EXPECT_EQ(metrics.at("counters").at("flow.tasks").num, 4.0);
    EXPECT_EQ(metrics.at("counters").at("flow.cache_hits").num, 0.0);
}

// ---------------------------------------------------------------------------
// Histograms.

using ObsHistogram = ObsFixture;

TEST_F(ObsHistogram, BucketBoundariesAreExactAndContiguous) {
    // A bucket's inclusive lower edge maps back to that bucket, and the
    // value just below it maps to the previous one. Sweep a wide exponent
    // range so both the sub-bucket math and the exponent math get hit.
    for (std::size_t idx : {std::size_t{1},   std::size_t{17},  std::size_t{160},
                            std::size_t{333}, std::size_t{512}, std::size_t{1000}}) {
        const double lo = obs::histogramBucketLo(idx);
        ASSERT_GT(lo, 0.0);
        EXPECT_EQ(obs::histogramBucketIndex(lo), idx) << "lo of bucket " << idx;
        const double below = std::nextafter(lo, 0.0);
        EXPECT_EQ(obs::histogramBucketIndex(below), idx - 1) << "just below bucket " << idx;
        // Edges tile [0, inf): hi(idx) == lo(idx+1).
        EXPECT_EQ(obs::histogramBucketHi(idx), obs::histogramBucketLo(idx + 1));
    }
    // Index 0 absorbs zero, negatives, and non-finite garbage.
    EXPECT_EQ(obs::histogramBucketIndex(0.0), 0u);
    EXPECT_EQ(obs::histogramBucketIndex(-3.5), 0u);
    EXPECT_EQ(obs::histogramBucketLo(0), 0.0);
    // The last bucket absorbs overflow and has an infinite upper edge.
    const std::size_t last = obs::Histogram::kBucketCount - 1;
    EXPECT_EQ(obs::histogramBucketIndex(1e300), last);
    EXPECT_TRUE(std::isinf(obs::histogramBucketHi(last)));
}

TEST_F(ObsHistogram, SummaryRollsUpCountSumMinMaxAndOrderedPercentiles) {
    obs::setEnabled(true);
    obs::Histogram& h = obs::histogram("obs_test.hist.summary");
    for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));

    const obs::Histogram::Summary s = h.summarize();
    EXPECT_EQ(s.count, 100u);
    EXPECT_DOUBLE_EQ(s.sum, 5050.0);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 100.0);
    // Log buckets hold ~2 significant digits, so percentile estimates sit
    // within one bucket width (<10%) of the exact ranks.
    EXPECT_NEAR(s.p50, 50.5, 5.1);
    EXPECT_NEAR(s.p95, 95.05, 9.6);
    EXPECT_NEAR(s.p99, 99.01, 10.0);
    EXPECT_LE(s.p50, s.p95);
    EXPECT_LE(s.p95, s.p99);
    EXPECT_LE(s.p99, s.max);
    EXPECT_GE(s.p50, s.min);
}

TEST_F(ObsHistogram, DisabledRecordIsANoopButObserveIsNot) {
    ASSERT_FALSE(obs::enabled());
    obs::Histogram& h = obs::histogram("obs_test.hist.disabled");
    h.record(3.0);
    h.record(4.0);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0.0);
    // An empty summary is all zeros — no inf min/max leaking into JSON.
    const obs::Histogram::Summary empty = h.summarize();
    EXPECT_EQ(empty.count, 0u);
    EXPECT_EQ(empty.min, 0.0);
    EXPECT_EQ(empty.max, 0.0);
    EXPECT_EQ(empty.p99, 0.0);

    // observe() is the always-on entry point (drain summaries use it on a
    // stack-local histogram regardless of the global flag).
    h.observe(3.0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_DOUBLE_EQ(h.sum(), 3.0);
}

TEST_F(ObsHistogram, ConcurrentRecordersLoseNoUpdates) {
    obs::setEnabled(true);
    obs::Histogram& h = obs::histogram("obs_test.hist.concurrent");
    constexpr int kThreads = 4;
    constexpr int kPerThread = 20000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([&h, t] {
            for (int i = 0; i < kPerThread; ++i)
                h.record(0.5 + t + static_cast<double>(i % 97));
        });
    for (std::thread& w : workers) w.join();

    const std::uint64_t want = std::uint64_t{kThreads} * kPerThread;
    EXPECT_EQ(h.count(), want);
    std::uint64_t bucket_total = 0;
    for (std::uint64_t c : h.bucketCounts()) bucket_total += c;
    EXPECT_EQ(bucket_total, want);
    const obs::Histogram::Summary s = h.summarize();
    EXPECT_DOUBLE_EQ(s.min, 0.5);
    EXPECT_DOUBLE_EQ(s.max, 0.5 + 3.0 + 96.0);
}

TEST_F(ObsHistogram, MergeByBucketAdditionMatchesCombinedHistogram) {
    // Merging adds bucket vectors element-wise and re-derives percentiles;
    // that must agree with one histogram that saw everything.
    obs::setEnabled(true);
    obs::Histogram& a = obs::histogram("obs_test.hist.merge_a");
    obs::Histogram& b = obs::histogram("obs_test.hist.merge_b");
    obs::Histogram& all = obs::histogram("obs_test.hist.merge_all");
    for (int i = 1; i <= 40; ++i) {
        const double v = 0.25 * i;
        (i % 2 ? a : b).record(v);
        all.record(v);
    }

    std::vector<std::uint64_t> merged = a.bucketCounts();
    const std::vector<std::uint64_t> bb = b.bucketCounts();
    for (std::size_t i = 0; i < merged.size(); ++i) merged[i] += bb[i];

    std::uint64_t merged_total = 0;
    for (std::uint64_t c : merged) merged_total += c;
    EXPECT_EQ(merged_total, all.count());

    const obs::Histogram::Summary want = all.summarize();
    const double min_v = std::min(a.summarize().min, b.summarize().min);
    const double max_v = std::max(a.summarize().max, b.summarize().max);
    for (double p : {0.50, 0.95, 0.99}) {
        const double via_merge = obs::percentileFromBuckets(merged, p, min_v, max_v);
        const double via_all = obs::percentileFromBuckets(all.bucketCounts(), p, min_v, max_v);
        EXPECT_DOUBLE_EQ(via_merge, via_all) << "p=" << p;
    }
    // Summary percentiles come from the same bucket math.
    EXPECT_DOUBLE_EQ(want.p50, obs::percentileFromBuckets(all.bucketCounts(), 0.5, want.min, want.max));
}

TEST_F(ObsHistogram, MetricsJsonCarriesHistogramSummaries) {
    obs::setEnabled(true);
    obs::Histogram& h = obs::histogram("obs_test.hist.exported");
    h.record(2.0);
    h.record(8.0);

    const JsonValue metrics = parseJson(obs::metricsJson());
    const JsonValue& hj = metrics.at("histograms").at("obs_test.hist.exported");
    EXPECT_EQ(hj.at("count").num, 2.0);
    EXPECT_DOUBLE_EQ(hj.at("sum").num, 10.0);
    EXPECT_DOUBLE_EQ(hj.at("min").num, 2.0);
    EXPECT_DOUBLE_EQ(hj.at("max").num, 8.0);
    EXPECT_GE(hj.at("p99").num, hj.at("p50").num);
}

TEST_F(ObsExport, TraceJsonCarriesWallClockAnchor) {
    obs::setEnabled(true);
    { obs::ScopedSpan s("anchored"); }
    const JsonValue trace = parseJson(obs::traceJson());
    // The wall anchor places the trace's steady-clock timestamps in real time.
    EXPECT_GT(trace.at("wall_epoch_us").num, 1e15); // after ~2001 in us
}

} // namespace
} // namespace flh
