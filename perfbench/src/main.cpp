// perfbench: the paper-regeneration benchmark program.
//
//   perfbench --workload paper-flow|constrained-atpg|grading|dft-tables|all
//             --reference-dir DIR --work-dir DIR
//             [--seed N] [--seconds S] [--trace 0|1] [--size full|smoke]
//             [--write-references]
//
// perfbench/run.py builds it and passes the two directories.
//
// Untraced (--trace 0) runs report the end-to-end metrics; traced runs
// (--trace 1) report every per-layer metric and write the per-call samples
// as an flh.bench.envelope/1 file (BENCH_perfbench_<workload>.json in the
// work directory) that flh_benchdiff can diff. A layer the workload does
// not call reports 0. Every metric is printed as "name value unit"; the last
// stdout line is one JSON object {"correct", "attempted", "failed",
// "metrics"}. The exit code is 1 if any operation or output check failed.
#include "harness.hpp"

#include "obs/benchio.hpp"
#include "obs/telemetry.hpp"
#include "util/json.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

using namespace perfbench;

namespace {

struct MetricDef {
    const char* name;
    const char* unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"wall_s", "s"}, {"cpu_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"}};

const std::vector<MetricDef> kPerLayer = {
    {"flow.stage_ms.netlist_scan", "ms"},
    {"flow.stage_ms.dft", "ms"},
    {"flow.stage_ms.fanout_opt", "ms"},
    {"flow.stage_ms.atpg", "ms"},
    {"flow.stage_ms.fault_sim", "ms"},
    {"flow.critical_design_ms", "ms"},
    {"flow.worker_idle_ms", "ms"},
    {"flow.warm_replay_ms", "ms"},
    {"flow.cache_hit_rate", "ratio"},
    {"flow.cache_bytes", "B"},
    {"atpg.random_ms", "ms"},
    {"atpg.topoff_ms", "ms"},
    {"atpg.ms.s27", "ms"},
    {"atpg.ms.s298", "ms"},
    {"atpg.ms.s344", "ms"},
    {"atpg.ms.s386", "ms"},
    {"atpg.ms.s510", "ms"},
    {"atpg.ms.s641", "ms"},
    {"atpg.ms.s838", "ms"},
    {"atpg.ms.s1196", "ms"},
    {"atpg.ms.s1423", "ms"},
    {"atpg.ms.s5378", "ms"},
    {"atpg.topoff_useful_ratio", "ratio"},
    {"atpg.fault_coverage_pct", "%"},
    {"atpg.fault_efficiency_pct", "%"},
    {"atpg.aborted_faults", "count"},
    {"atpg.test_count", "count"},
    {"podem.calls", "count"},
    {"podem.ms_p50", "ms"},
    {"podem.ms_p99", "ms"},
    {"podem.ms_total", "ms"},
    {"podem.backtracks_mean", "count"},
    {"podem.useful_ratio", "ratio"},
    {"podem.aborted_ms_share", "ratio"},
    {"podem.justify_ms_p50", "ms"},
    {"podem.justify_ms_p99", "ms"},
    {"fault.drop_grade_ms", "ms"},
    {"fault.ndetect_ms", "ms"},
    {"fault.fault_tests_per_s", "1/s"},
    {"fault.single_test_grade_us_p50", "us"},
    {"fault.single_test_grade_us_p99", "us"},
    {"sim.packed_gate_evals_per_s.w1", "1/s"},
    {"sim.packed_gate_evals_per_s.w4", "1/s"},
    {"sim.event_propagate_us_p50", "us"},
    {"sim.sequential_cycle_us", "us"},
    {"power.normal_ms", "ms"},
    {"sta.analyze_ms", "ms"},
    {"dft.plan_ms", "ms"},
    {"dft.fanout_opt_ms", "ms"},
    {"iscas.generate_ms", "ms"},
    {"netlist.bench_parse_ms", "ms"},
    {"netlist.bench_write_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

const std::vector<std::string> kWorkloads = {"paper-flow", "constrained-atpg", "grading",
                                             "dft-tables"};

constexpr const char* kUsage =
    "usage: perfbench --workload paper-flow|constrained-atpg|grading|dft-tables|all\n"
    "                 --reference-dir DIR --work-dir DIR\n"
    "                 [--seed N] [--seconds S] [--trace 0|1] [--size full|smoke]\n"
    "                 [--write-references]\n";

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "perfbench: " << why << "\n" << kUsage;
    std::exit(2);
}

Options parseArgs(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(a + " needs a value");
            return argv[++i];
        };
        try {
            if (a == "--workload") o.workload = value();
            else if (a == "--seed") o.seed = std::stoull(value());
            else if (a == "--seconds") o.seconds = std::stod(value());
            else if (a == "--trace") o.trace = std::stoi(value()) != 0;
            else if (a == "--size") {
                const std::string s = value();
                if (s != "full" && s != "smoke") usage("--size is full or smoke");
                o.size = s == "smoke" ? Size::Smoke : Size::Full;
            }
            else if (a == "--reference-dir") o.reference_dir = value();
            else if (a == "--work-dir") o.work_dir = value();
            else if (a == "--write-references") o.write_references = true;
            else if (a == "--help") usage("help");
            else usage("unknown option " + a);
        } catch (const std::logic_error&) {
            usage("bad value for " + a);
        }
    }
    if (o.workload.empty()) usage("--workload is required");
    if (o.reference_dir.empty()) usage("--reference-dir is required");
    if (o.work_dir.empty()) usage("--work-dir is required");
    return o;
}

void runWorkload(const std::string& name, const Options& o, Result& r) {
    if (name == "paper-flow") runPaperFlow(o, r);
    else if (name == "constrained-atpg") runConstrainedAtpg(o, r);
    else if (name == "grading") runGrading(o, r);
    else runDftTables(o, r);
}

/// Keep exactly the metrics this mode reports, in table order. A per-layer
/// metric the workload did not produce is 0: it did not call that layer.
std::vector<std::pair<std::string, Metric>> reported(const Options& o, Result& r) {
    std::vector<std::pair<std::string, Metric>> out;
    for (const MetricDef& d : o.trace ? kPerLayer : kEndToEnd) {
        const auto it = r.metrics.find(d.name);
        Metric m{0.0, d.unit};
        if (it != r.metrics.end()) {
            m.value = it->second.value;
            r.checks.op(it->second.unit == d.unit && std::isfinite(m.value),
                        std::string("metric ") + d.name + " has unit " + d.unit +
                            " and a finite value");
            if (!std::isfinite(m.value)) m.value = 0.0;
        } else {
            r.checks.op(o.trace, std::string("end-to-end metric ") + d.name + " was measured");
        }
        out.emplace_back(d.name, m);
    }
    return out;
}

void writeEnvelope(const std::string& workload, const Options& o, const Result& r,
                   const std::vector<std::pair<std::string, Metric>>& metrics) {
    flh::JsonWriter w;
    w.beginObject();
    w.kv("schema", "flh.perfbench.layers/1");
    w.kv("workload", workload);
    w.kv("seed", static_cast<std::uint64_t>(o.seed));
    w.key("metrics");
    w.beginObject();
    for (const auto& [name, m] : metrics) w.kv(name, m.value);
    w.endObject();
    w.endObject();

    flh::obs::BenchWriter bw("flh.perfbench.layers/1", 4);
    for (const auto& [span, ms] : r.spans.all()) {
        flh::obs::BenchEntry e;
        e.name = workload + "/" + span;
        e.threads = 4;
        for (const double v : ms) e.time_samples.push_back(v * 1e6);
        bw.add(std::move(e));
    }
    bw.setResults(w.str());
    (void)bw.writeFile("BENCH_perfbench_" + workload + ".json", o.work_dir);
}

} // namespace

int main(int argc, char** argv) {
    const Options opts = parseArgs(argc, argv);
    std::vector<std::string> workloads;
    if (opts.workload == "all") workloads = kWorkloads;
    else if (std::find(kWorkloads.begin(), kWorkloads.end(), opts.workload) != kWorkloads.end())
        workloads = {opts.workload};
    else usage("unknown workload " + opts.workload);

    std::uint64_t attempted = 0, failed = 0;
    std::string metrics_json;
    try {
        std::filesystem::create_directories(opts.work_dir);
        for (const std::string& name : workloads) {
            // The atpg phase metrics read the library's trace; start it empty
            // so one workload never counts another's spans.
            flh::obs::reset();
            Result r(opts);
            runWorkload(name, opts, r);
            r.set("peak_rss_mb", peakRssMb(), "MB");
            const auto metrics = reported(opts, r);
            if (opts.trace) writeEnvelope(name, opts, r, metrics);

            const std::string prefix = workloads.size() > 1 ? name + "/" : "";
            std::cout << "== " << name << " (seed " << opts.seed << ", "
                      << (opts.trace ? "traced" : "untraced") << ")\n";
            for (const auto& [metric, m] : metrics) {
                const std::string value = flh::formatNumber(m.value);
                std::cout << "  " << metric << " " << value << " " << m.unit << "\n";
                if (!metrics_json.empty()) metrics_json += ", ";
                metrics_json += "\"" + flh::jsonEscape(prefix + metric) + "\": {\"value\": " +
                                value + ", \"unit\": \"" + flh::jsonEscape(m.unit) + "\"}";
            }
            std::cout << "  checks: " << r.checks.attempted() - r.checks.failed() << "/"
                      << r.checks.attempted() << " passed\n";
            attempted += r.checks.attempted();
            failed += r.checks.failed();
        }
    } catch (const std::exception& e) {
        // A throwing workload is one failed operation; the result line still
        // follows, with the metrics of the workloads that finished.
        std::cerr << "perfbench: FAILED with an exception: " << e.what() << "\n";
        ++attempted;
        ++failed;
    }
    std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": {" << metrics_json << "}}" << std::endl;
    return failed == 0 ? 0 : 1;
}
