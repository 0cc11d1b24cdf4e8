// perfbench harness: what the four workloads share.
//
//  * Options  — the command line (workload, seed, seconds, trace, size).
//  * Spans    — per-call wall-time samples keyed by per-layer metric name,
//               recorded around calls into the libraries while tracing.
//               They stay in memory and become the per-layer metrics and the
//               flh.bench.envelope/1 export when the run ends.
//  * Checks   — attempted/failed operation counts and output checks,
//               including byte comparison against committed references.
//  * Result   — the metrics of one workload run.
//
// End-to-end metrics are measured with tracing off; a traced run alternates
// untraced and traced passes so the tracing overhead is measured too.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// The seed the committed references were made with.
inline constexpr std::uint64_t kDefaultSeed = 11;

enum class Size { Full, Smoke };

struct Options {
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    Size size = Size::Full;
    std::string reference_dir; ///< holds the full/ and smoke/ reference sets
    std::string work_dir;      ///< scratch space: cache dirs, envelopes
    bool write_references = false;

    [[nodiscard]] bool smoke() const noexcept { return size == Size::Smoke; }
};

[[nodiscard]] double nowS();      ///< steady clock, seconds
[[nodiscard]] double cpuS();      ///< process user + system time, all threads
[[nodiscard]] double peakRssMb(); ///< process peak resident set size

/// flh::stats::percentileSorted over a sorted copy (p in [0, 1]; 0 if empty).
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

class Spans {
public:
    void enable(bool on) noexcept { on_ = on; }
    [[nodiscard]] bool on() const noexcept { return on_; }

    /// Call `f`, recording its wall time (ms) under `metric` while tracing.
    template <typename F>
    decltype(auto) time(const std::string& metric, F&& f) {
        if (!on_) return f();
        const Stamp s(*this, metric);
        return f();
    }

    void add(const std::string& metric, double ms) { samples_[metric].push_back(ms); }
    [[nodiscard]] std::vector<double> samples(const std::string& metric) const;
    [[nodiscard]] double totalMs(const std::string& metric) const;
    [[nodiscard]] const std::map<std::string, std::vector<double>>& all() const noexcept {
        return samples_;
    }

private:
    struct Stamp {
        Stamp(Spans& s, const std::string& m) : spans(s), metric(m), start(nowS()) {}
        ~Stamp() { spans.add(metric, (nowS() - start) * 1e3); }
        Stamp(const Stamp&) = delete;
        Stamp& operator=(const Stamp&) = delete;
        Spans& spans;
        const std::string& metric;
        double start;
    };

    bool on_ = false;
    std::map<std::string, std::vector<double>> samples_;
};

class Checks {
public:
    explicit Checks(const Options& o) : opts_(&o) {}

    /// Count one attempted operation; a failed one is reported on stderr.
    void op(bool ok, const std::string& what);

    /// Compare `produced` byte for byte with the committed reference
    /// <reference_dir>/<full|smoke>/<name>. References exist for the default
    /// seed only; other seeds skip this check. --write-references writes
    /// the file instead.
    void reference(const std::string& name, const std::string& produced);

    [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
    [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

private:
    const Options* opts_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

struct Metric {
    double value = 0.0;
    std::string unit;
};

struct Result {
    explicit Result(const Options& o) : checks(o) {}

    std::map<std::string, Metric> metrics;
    Checks checks;
    Spans spans;
    int traced_passes = 0;

    void set(const std::string& name, double value, const std::string& unit) {
        metrics[name] = Metric{value, unit};
    }
    /// Span total of one traced pass (total over traced passes / their count).
    [[nodiscard]] double perPassMs(const std::string& metric) const {
        return traced_passes > 0 ? spans.totalMs(metric) / traced_passes : 0.0;
    }
};

/// Set-up is repeated at least kSetupMinReps times and for at least
/// kSetupWindowS seconds (full size); setup_s is the fastest set-up. One
/// set-up takes milliseconds, while a shared host slows down for seconds at
/// a time: the median of a window that falls in such a phase moves by 30%
/// or more, the minimum of a long window hardly moves.
inline constexpr std::size_t kSetupMinReps = 9;
inline constexpr double kSetupWindowS = 2.0;

/// Print the set-up count and min/median/max time to stderr.
void logSetups(const std::vector<double>& seconds);

/// Run `make` repeatedly, timing each; returns the last result and sets
/// setup_s to the fastest time.
template <typename F>
auto repeatedSetup(const Options& o, Result& r, F&& make) {
    const double window = o.smoke() ? 0.0 : kSetupWindowS;
    std::vector<double> times;
    auto once = [&] {
        const double t0 = nowS();
        auto v = make();
        times.push_back(nowS() - t0);
        return v;
    };
    const double start = nowS();
    auto out = once();
    while (times.size() < kSetupMinReps || nowS() - start < window) out = once();
    r.set("setup_s", percentile(times, 0.0), "s");
    logSetups(times);
    return out;
}

/// Wall and process CPU time of one measured region.
struct Timed {
    double wall_s = 0.0;
    double cpu_s = 0.0;
};

template <typename F>
Timed timed(F&& f) {
    const double c0 = cpuS();
    const double t0 = nowS();
    f();
    return Timed{nowS() - t0, cpuS() - c0};
}

/// The timed part of a workload. A pass times its own measured region and
/// returns it, so its output checks stay outside the measurement.
/// Untraced: runs pass(i) until `seconds` have elapsed (at least once) and
/// reports the median wall_s and cpu_s. Traced: alternates an untraced and
/// a traced pass (spans and the library's own telemetry on) until `seconds`
/// have elapsed and reports trace.overhead_pct from the two medians. Pass 0
/// is always untraced; workloads run their reference checks on it.
void measure(const Options& o, Result& r, const std::function<Timed(int pass)>& pass);

/// atpg.random_ms and atpg.topoff_ms per traced pass, read from the
/// library's own atpg:transition:{random,topoff} telemetry spans.
void setAtpgPhaseMetrics(Result& r);

// ---- workloads ----------------------------------------------------------

void runPaperFlow(const Options& o, Result& r);
void runConstrainedAtpg(const Options& o, Result& r);
void runGrading(const Options& o, Result& r);
void runDftTables(const Options& o, Result& r);

} // namespace perfbench
