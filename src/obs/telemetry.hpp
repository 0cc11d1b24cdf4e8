// Low-overhead telemetry: scoped spans, counters, gauges.
//
// This is the observability substrate for the flow engine and the
// fault-simulation workers. Design constraints, in order:
//
//  1. Near-zero cost when disabled. Telemetry stays compiled into
//     production builds; every hook first checks one process-global
//     relaxed atomic flag through an inlined function, so the disabled
//     path is a single predictable load-and-branch (measured <= 2%
//     faults/sec impact on the grading kernels).
//
//  2. Thread-safe without hot-path contention. Spans land in per-thread
//     lane buffers (one lane per OS thread, registered on first use);
//     only the owning thread appends, under a per-lane mutex that is
//     uncontended except during export. Counters are single atomics.
//
//  3. Determinism firewall. Telemetry never feeds flow_report.json or
//     any artifact/cache key — it exports only through the explicitly
//     non-deterministic side (trace/metrics files, flow_profile.json's
//     sibling outputs). Enabling or disabling telemetry must not change
//     any deterministic output byte.
//
// Export formats live in the same module: traceJson() emits Chrome
// trace_event JSON (chrome://tracing / Perfetto loadable, one lane per
// worker thread) and metricsJson() a flat counter/gauge dump. Snapshot
// the trace only after worker pools have joined; live foreign threads
// may still be appending to their own lanes.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace flh::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
} // namespace detail

/// True while telemetry is recording. Inline relaxed load: this is the
/// only cost a disabled hook pays.
[[nodiscard]] inline bool enabled() noexcept {
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Turn recording on/off. Off is the default; flipping the flag never
/// discards already-recorded data (use reset() for that).
void setEnabled(bool on) noexcept;

/// Drop every recorded span, zero every counter/gauge, and forget lane
/// labels. Registered counter addresses stay valid (tests and long-lived
/// `static Counter&` caches keep working).
void reset();

/// Monotonic counter, aggregated across all threads that add to it.
/// Obtain one from counter() — the registry owns it and its address is
/// stable for the process lifetime, so hot paths cache the reference.
class Counter {
public:
    void add(std::uint64_t n = 1) noexcept {
        if (enabled()) v_.fetch_add(n, std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t value() const noexcept {
        return v_.load(std::memory_order_relaxed);
    }

private:
    friend void reset();
    std::atomic<std::uint64_t> v_{0};
};

/// Last-value gauge that also tracks the high-water mark (e.g. ready-queue
/// depth). Same registry/lifetime rules as Counter.
class Gauge {
public:
    void set(std::int64_t v) noexcept {
        if (!enabled()) return;
        v_.store(v, std::memory_order_relaxed);
        std::int64_t prev = peak_.load(std::memory_order_relaxed);
        while (v > prev && !peak_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
        }
    }
    [[nodiscard]] std::int64_t value() const noexcept {
        return v_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::int64_t peak() const noexcept {
        return peak_.load(std::memory_order_relaxed);
    }

private:
    friend void reset();
    std::atomic<std::int64_t> v_{0};
    std::atomic<std::int64_t> peak_{0};
};

/// Log-bucketed latency/size histogram. Buckets are powers of two
/// subdivided into 16 linear sub-buckets (~2 significant digits: a
/// bucket midpoint is within ~3% of any sample it absorbs), 1024 fixed
/// slots covering roughly [5e-7, 9e12] — microseconds through hours in
/// either ms or us units. All state is relaxed atomics, so concurrent
/// recorders never lose updates and never take a lock.
///
/// record() follows the same near-zero disabled path as Counter/Gauge
/// (one inlined relaxed load, no allocation); observe() is the
/// always-on variant for stats that must be kept even while telemetry
/// is disabled.
class Histogram {
public:
    static constexpr std::size_t kBucketCount = 1024;

    void record(double v) noexcept {
        if (enabled()) observe(v);
    }
    void observe(double v) noexcept;

    /// Point-in-time rollup. Percentiles use the same fractional-rank
    /// rule as stats::percentileSorted (rank p*(count-1)), interpolated
    /// within the hit bucket and clamped to the observed [min, max].
    struct Summary {
        std::uint64_t count = 0;
        double sum = 0.0;
        double min = 0.0;
        double max = 0.0;
        double p50 = 0.0;
        double p95 = 0.0;
        double p99 = 0.0;
    };
    [[nodiscard]] Summary summarize() const;

    [[nodiscard]] std::uint64_t count() const noexcept {
        return count_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

    /// Dense bucket snapshot (index -> count). Snapshot after recorders
    /// quiesce for exact totals; a concurrent snapshot may lag count().
    [[nodiscard]] std::vector<std::uint64_t> bucketCounts() const;

private:
    friend void reset();
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{std::numeric_limits<double>::infinity()};
    std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
    std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
};

/// Bucket math, exposed so mergers and tests share the
/// exact boundary rules. Buckets partition [0, inf): index 0 absorbs
/// zero/negative/underflow, the last bucket absorbs overflow.
[[nodiscard]] std::size_t histogramBucketIndex(double v) noexcept;
/// Inclusive lower edge of bucket idx (0 for idx 0).
[[nodiscard]] double histogramBucketLo(std::size_t idx) noexcept;
/// Exclusive upper edge (== histogramBucketLo(idx+1); +inf for the last).
[[nodiscard]] double histogramBucketHi(std::size_t idx) noexcept;

/// Percentile estimate from bucket counts alone — what a merger computes
/// after adding N processes' buckets element-wise. Same fractional-rank
/// rule as the in-process Summary; the result is clamped to
/// [min_v, max_v] when min_v <= max_v.
[[nodiscard]] double percentileFromBuckets(const std::vector<std::uint64_t>& buckets, double p,
                                           double min_v, double max_v) noexcept;

/// Registry lookup (creates on first use). Slow path — cache the
/// reference: `static obs::Counter& c = obs::counter("fault_sim.graded");`
[[nodiscard]] Counter& counter(std::string_view name);
[[nodiscard]] Gauge& gauge(std::string_view name);
[[nodiscard]] Histogram& histogram(std::string_view name);

/// Label the calling thread's trace lane ("flow-worker-2"). Unlabeled
/// lanes export as "thread-<lane>". No-op while disabled.
void setThreadLabel(std::string label);

/// RAII span: construction stamps the start, destruction records the
/// completed interval into the calling thread's lane. A span constructed
/// while telemetry is disabled records nothing even if telemetry is
/// enabled before it closes (and vice versa it still records, keeping
/// enable/disable races harmless).
class ScopedSpan {
public:
    explicit ScopedSpan(std::string name, std::string category = "");
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    std::string name_;
    std::string cat_;
    double start_us_ = -1.0; ///< < 0: inactive (telemetry was disabled)
};

/// Microseconds since the process-wide telemetry epoch (first use).
[[nodiscard]] double nowUs() noexcept;

/// Wall clock (system_clock, microseconds since the Unix epoch) captured
/// at the same instant the steady-clock epoch behind nowUs() was pinned.
/// traceJson() embeds it as wall_epoch_us so the trace's relative
/// timestamps can be placed in real time.
[[nodiscard]] double wallEpochUs() noexcept;

/// Number of span ("X") events currently recorded across all lanes.
[[nodiscard]] std::size_t spanCount();

/// Number of lanes (threads) that recorded at least one event or label.
[[nodiscard]] std::size_t laneCount();

/// Chrome trace_event export: {"traceEvents":[...]} with one "M"
/// thread_name metadata record per lane and one complete ("X") event per
/// span, pid 1, tid = lane id (registration order, main-ish first). Ends
/// with a newline.
[[nodiscard]] std::string traceJson();

/// Flat metrics export (schema flh.obs.metrics/1): counters and gauges
/// sorted by name, plus span/lane totals. Ends with a newline.
[[nodiscard]] std::string metricsJson();

} // namespace flh::obs
