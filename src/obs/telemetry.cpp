#include "obs/telemetry.hpp"

#include "util/json.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace flh::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
} // namespace detail

namespace {

using Clock = std::chrono::steady_clock;

/// One recorded completed interval ("X"). Timestamps are wall-clock and
/// therefore live strictly on the non-deterministic export side.
struct SpanEvent {
    std::string name;
    std::string cat;
    double ts_us = 0.0;
    double dur_us = 0.0;
};

/// One thread's span storage. Owned by the registry for the process
/// lifetime; only the owning thread appends, so the mutex is uncontended
/// except while an exporter snapshots.
struct Lane {
    std::size_t id = 0;
    std::mutex mu;
    std::string label;
    std::vector<SpanEvent> events;
};

struct Registry {
    std::mutex mu;
    std::vector<std::unique_ptr<Lane>> lanes;
    // Ordered maps: export iterates them directly in sorted-name order.
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
};

Registry& registry() {
    static Registry* r = new Registry; // intentionally leaked: threads may
    return *r;                         // outlive static destruction order
}

/// The steady-clock zero that nowUs() measures from, plus the wall clock
/// captured at the same instant — the pair anchors every export's
/// relative timestamps to real time.
struct Epochs {
    Clock::time_point steady;
    double wall_us = 0.0;
};

const Epochs& epochs() {
    static const Epochs e = [] {
        Epochs x;
        x.steady = Clock::now();
        x.wall_us = std::chrono::duration<double, std::micro>(
                        std::chrono::system_clock::now().time_since_epoch())
                        .count();
        return x;
    }();
    return e;
}

Clock::time_point processEpoch() { return epochs().steady; }

/// The calling thread's lane, registered on first use.
Lane& myLane() {
    thread_local Lane* lane = [] {
        Registry& r = registry();
        std::lock_guard<std::mutex> lock(r.mu);
        r.lanes.push_back(std::make_unique<Lane>());
        r.lanes.back()->id = r.lanes.size() - 1;
        return r.lanes.back().get();
    }();
    return *lane;
}

} // namespace

void setEnabled(bool on) noexcept {
    detail::g_enabled.store(on, std::memory_order_relaxed);
    if (on) (void)processEpoch(); // pin the epoch before the first span
}

void reset() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (auto& lane : r.lanes) {
        std::lock_guard<std::mutex> ll(lane->mu);
        lane->events.clear();
        lane->label.clear();
    }
    for (auto& [name, c] : r.counters) c->v_.store(0, std::memory_order_relaxed);
    for (auto& [name, g] : r.gauges) {
        g->v_.store(0, std::memory_order_relaxed);
        g->peak_.store(0, std::memory_order_relaxed);
    }
    for (auto& [name, h] : r.histograms) {
        h->count_.store(0, std::memory_order_relaxed);
        h->sum_.store(0.0, std::memory_order_relaxed);
        h->min_.store(std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
        h->max_.store(-std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
        for (auto& b : h->buckets_) b.store(0, std::memory_order_relaxed);
    }
}

Counter& counter(std::string_view name) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    auto it = r.counters.find(name);
    if (it == r.counters.end())
        it = r.counters.emplace(std::string(name), std::make_unique<Counter>()).first;
    return *it->second;
}

Gauge& gauge(std::string_view name) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    auto it = r.gauges.find(name);
    if (it == r.gauges.end())
        it = r.gauges.emplace(std::string(name), std::make_unique<Gauge>()).first;
    return *it->second;
}

Histogram& histogram(std::string_view name) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    auto it = r.histograms.find(name);
    if (it == r.histograms.end())
        it = r.histograms.emplace(std::string(name), std::make_unique<Histogram>()).first;
    return *it->second;
}

// ---- histogram bucket math ---------------------------------------------
//
// Powers of two subdivided into 16 linear sub-buckets. frexp() gives
// v = frac * 2^exp with frac in [0.5, 1); the sub-bucket is the linear
// position of frac within that binade. Exponents below kMinExp underflow
// into bucket 0; anything past the top clamps into the last bucket.

namespace {
constexpr int kSubBuckets = 16;
constexpr int kMinExp = -20; // bucket 0 spans [0, 2^-21 * 17/16)
} // namespace

std::size_t histogramBucketIndex(double v) noexcept {
    if (!(v > 0.0)) return 0; // zero, negatives, NaN
    int exp = 0;
    const double frac = std::frexp(v, &exp);
    int sub = static_cast<int>((frac - 0.5) * 2.0 * kSubBuckets);
    sub = std::min(sub, kSubBuckets - 1);
    const int e = exp - kMinExp;
    if (e < 0) return 0;
    const std::size_t idx =
        static_cast<std::size_t>(e) * kSubBuckets + static_cast<std::size_t>(sub);
    return std::min(idx, Histogram::kBucketCount - 1);
}

double histogramBucketLo(std::size_t idx) noexcept {
    if (idx == 0) return 0.0;
    if (idx >= Histogram::kBucketCount) idx = Histogram::kBucketCount - 1;
    const int e = kMinExp + static_cast<int>(idx) / kSubBuckets;
    const int sub = static_cast<int>(idx) % kSubBuckets;
    // Lower edge: frac = 0.5 + sub/32 at exponent e, i.e. (1 + sub/16) * 2^(e-1).
    return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, e - 1);
}

double histogramBucketHi(std::size_t idx) noexcept {
    if (idx + 1 >= Histogram::kBucketCount) return std::numeric_limits<double>::infinity();
    return histogramBucketLo(idx + 1);
}

double percentileFromBuckets(const std::vector<std::uint64_t>& buckets, double p,
                             double min_v, double max_v) noexcept {
    std::uint64_t count = 0;
    for (const std::uint64_t b : buckets) count += b;
    if (count == 0) return 0.0;
    p = std::clamp(p, 0.0, 1.0);
    const double rank = p * static_cast<double>(count - 1);
    double value = 0.0;
    double acc = 0.0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        const double bc = static_cast<double>(buckets[i]);
        if (bc == 0.0) continue;
        if (rank < acc + bc) {
            const double lo = histogramBucketLo(i);
            const double hi = histogramBucketHi(i);
            // Samples assumed uniform within the bucket; rank - acc is the
            // fractional position among this bucket's bc samples.
            value = std::isfinite(hi) ? lo + (hi - lo) * ((rank - acc + 0.5) / bc) : lo;
            break;
        }
        acc += bc;
    }
    if (min_v <= max_v) value = std::clamp(value, min_v, max_v);
    return value;
}

void Histogram::observe(double v) noexcept {
    count_.fetch_add(1, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
    }
    cur = min_.load(std::memory_order_relaxed);
    while (v < cur && !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
    cur = max_.load(std::memory_order_relaxed);
    while (v > cur && !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
    buckets_[histogramBucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucketCounts() const {
    std::vector<std::uint64_t> out(kBucketCount, 0);
    for (std::size_t i = 0; i < kBucketCount; ++i)
        out[i] = buckets_[i].load(std::memory_order_relaxed);
    return out;
}

Histogram::Summary Histogram::summarize() const {
    Summary s;
    s.count = count_.load(std::memory_order_relaxed);
    if (s.count == 0) return s;
    s.sum = sum_.load(std::memory_order_relaxed);
    s.min = min_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
    const std::vector<std::uint64_t> b = bucketCounts();
    s.p50 = percentileFromBuckets(b, 0.50, s.min, s.max);
    s.p95 = percentileFromBuckets(b, 0.95, s.min, s.max);
    s.p99 = percentileFromBuckets(b, 0.99, s.min, s.max);
    return s;
}

void setThreadLabel(std::string label) {
    if (!enabled()) return;
    Lane& lane = myLane();
    std::lock_guard<std::mutex> lock(lane.mu);
    lane.label = std::move(label);
}

double nowUs() noexcept {
    return std::chrono::duration<double, std::micro>(Clock::now() - processEpoch()).count();
}

double wallEpochUs() noexcept { return epochs().wall_us; }

ScopedSpan::ScopedSpan(std::string name, std::string category) {
    if (!enabled()) return;
    name_ = std::move(name);
    cat_ = std::move(category);
    start_us_ = nowUs();
}

ScopedSpan::~ScopedSpan() {
    if (start_us_ < 0.0) return;
    const double end_us = nowUs();
    Lane& lane = myLane();
    std::lock_guard<std::mutex> lock(lane.mu);
    lane.events.push_back(
        SpanEvent{std::move(name_), std::move(cat_), start_us_, end_us - start_us_});
}

std::size_t spanCount() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    std::size_t n = 0;
    for (auto& lane : r.lanes) {
        std::lock_guard<std::mutex> ll(lane->mu);
        n += lane->events.size();
    }
    return n;
}

std::size_t laneCount() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    std::size_t n = 0;
    for (auto& lane : r.lanes) {
        std::lock_guard<std::mutex> ll(lane->mu);
        if (!lane->events.empty() || !lane->label.empty()) ++n;
    }
    return n;
}

std::string traceJson() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);

    JsonWriter w;
    w.beginObject();
    w.kv("displayTimeUnit", "ms");
    // Extra top-level key (Chrome's viewer ignores unknown keys): the
    // wall-clock anchor that places the trace in real time.
    w.kv("wall_epoch_us", wallEpochUs());
    w.key("traceEvents");
    w.beginArray();
    w.beginObject();
    w.kv("name", "process_name");
    w.kv("ph", "M");
    w.kv("pid", 1);
    w.key("args");
    w.beginObject();
    w.kv("name", "flh");
    w.endObject();
    w.endObject();
    for (auto& lane : r.lanes) {
        std::lock_guard<std::mutex> ll(lane->mu);
        if (lane->events.empty() && lane->label.empty()) continue;
        w.beginObject();
        w.kv("name", "thread_name");
        w.kv("ph", "M");
        w.kv("pid", 1);
        w.kv("tid", static_cast<std::int64_t>(lane->id));
        w.key("args");
        w.beginObject();
        w.kv("name", lane->label.empty() ? "thread-" + std::to_string(lane->id)
                                         : lane->label);
        w.endObject();
        w.endObject();
        for (const SpanEvent& e : lane->events) {
            w.beginObject();
            w.kv("name", e.name);
            w.kv("cat", e.cat.empty() ? "flh" : e.cat);
            w.kv("ph", "X");
            w.kv("ts", e.ts_us);
            w.kv("dur", e.dur_us);
            w.kv("pid", 1);
            w.kv("tid", static_cast<std::int64_t>(lane->id));
            w.endObject();
        }
    }
    w.endArray();
    w.endObject();
    return w.str() + "\n";
}

std::string metricsJson() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);

    std::size_t spans = 0;
    std::size_t lanes = 0;
    for (auto& lane : r.lanes) {
        std::lock_guard<std::mutex> ll(lane->mu);
        spans += lane->events.size();
        if (!lane->events.empty() || !lane->label.empty()) ++lanes;
    }

    JsonWriter w;
    w.beginObject();
    w.kv("schema", "flh.obs.metrics/1");
    w.kv("spans", spans);
    w.kv("lanes", lanes);
    w.key("counters");
    w.beginObject();
    for (const auto& [name, c] : r.counters) w.kv(name, c->value());
    w.endObject();
    w.key("gauges");
    w.beginObject();
    for (const auto& [name, g] : r.gauges) {
        w.key(name);
        w.beginObject();
        w.kv("value", g->value());
        w.kv("peak", g->peak());
        w.endObject();
    }
    w.endObject();
    w.key("histograms");
    w.beginObject();
    for (const auto& [name, h] : r.histograms) {
        const Histogram::Summary s = h->summarize();
        w.key(name);
        w.beginObject();
        w.kv("count", s.count);
        w.kv("sum", s.sum);
        w.kv("min", s.min);
        w.kv("max", s.max);
        w.kv("p50", s.p50);
        w.kv("p95", s.p95);
        w.kv("p99", s.p99);
        // Sparse [index, count] pairs: enough for a merger to rebuild the
        // full distribution by bucket addition.
        w.key("buckets");
        w.beginArray();
        const std::vector<std::uint64_t> b = h->bucketCounts();
        for (std::size_t i = 0; i < b.size(); ++i) {
            if (b[i] == 0) continue;
            w.beginArray();
            w.value(static_cast<std::uint64_t>(i));
            w.value(b[i]);
            w.endArray();
        }
        w.endArray();
        w.endObject();
    }
    w.endObject();
    w.endObject();
    return w.str() + "\n";
}

} // namespace flh::obs
