#include "harness.hpp"

#include "obs/telemetry.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

double nowS() {
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

double cpuS() {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peakRssMb() {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

double percentile(std::vector<double> v, double p) {
    std::sort(v.begin(), v.end());
    return flh::stats::percentileSorted(v, p);
}

std::vector<double> Spans::samples(const std::string& metric) const {
    const auto it = samples_.find(metric);
    return it == samples_.end() ? std::vector<double>{} : it->second;
}

double Spans::totalMs(const std::string& metric) const {
    double sum = 0.0;
    for (const double v : samples(metric)) sum += v;
    return sum;
}

void Checks::op(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    std::cerr << "perfbench: FAILED " << what << "\n";
}

void Checks::reference(const std::string& name, const std::string& produced) {
    if (opts_->seed != kDefaultSeed) return;
    const std::filesystem::path path = std::filesystem::path(opts_->reference_dir) /
                                       (opts_->smoke() ? "smoke" : "full") / name;
    if (opts_->write_references) {
        std::filesystem::create_directories(path.parent_path());
        std::ofstream(path, std::ios::binary) << produced;
        std::cerr << "perfbench: wrote reference " << path.string() << "\n";
        return;
    }
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        op(false, "reference " + path.string() + " is missing");
        return;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string expected = ss.str();
    if (expected == produced) {
        op(true, "");
        return;
    }
    // Name the first differing line so a mismatch is diagnosable from the log.
    std::istringstream a(expected), b(produced);
    std::string la, lb;
    int line = 1;
    while (std::getline(a, la) && std::getline(b, lb) && la == lb) ++line;
    op(false, "output differs from reference " + path.string() + " at line " +
                  std::to_string(line) + ": expected '" + la + "', got '" + lb + "'");
}

void logSetups(const std::vector<double>& seconds) {
    std::cerr << "perfbench: " << seconds.size() << " set-ups: min "
              << percentile(seconds, 0.0) << " s, median " << median(seconds) << " s, max "
              << percentile(seconds, 1.0) << " s\n";
}

void measure(const Options& o, Result& r, const std::function<Timed(int pass)>& pass) {
    std::vector<double> wall, cpu, traced_wall;
    const double start = nowS();
    int i = 0;
    do {
        const bool traced = o.trace && i % 2 == 1;
        r.spans.enable(traced);
        flh::obs::setEnabled(traced);
        const Timed t = pass(i);
        flh::obs::setEnabled(false);
        r.spans.enable(false);
        std::cerr << "perfbench: pass " << i << (traced ? " (traced)" : "") << ": wall "
                  << t.wall_s << " s, cpu " << t.cpu_s << " s\n";
        if (traced) {
            traced_wall.push_back(t.wall_s);
            ++r.traced_passes;
        } else {
            wall.push_back(t.wall_s);
            cpu.push_back(t.cpu_s);
        }
        ++i;
    } while (nowS() - start < o.seconds || (o.trace && traced_wall.empty()));

    if (o.trace) {
        r.set("trace.overhead_pct", 100.0 * (median(traced_wall) / median(wall) - 1.0), "%");
    } else {
        r.set("wall_s", median(wall), "s");
        r.set("cpu_s", median(cpu), "s");
    }
}

void setAtpgPhaseMetrics(Result& r) {
    const flh::JsonValue trace = flh::parseJson(flh::obs::traceJson());
    double random_us = 0.0, topoff_us = 0.0;
    for (const flh::JsonValue& e : trace.at("traceEvents").arr) {
        if (!e.has("dur")) continue;
        const std::string& name = e.at("name").str;
        if (name == "atpg:transition:random") random_us += e.at("dur").num;
        if (name == "atpg:transition:topoff") topoff_us += e.at("dur").num;
    }
    const double passes = std::max(1, r.traced_passes);
    r.set("atpg.random_ms", random_us / 1e3 / passes, "ms");
    r.set("atpg.topoff_ms", topoff_us / 1e3 / passes, "ms");
}

} // namespace perfbench
