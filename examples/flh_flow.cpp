// flh_flow: run the paper's full evaluation flow (Tables I-IV + Section IV
// coverage) as one DAG over a list of designs, with a persistent
// content-addressed result cache.
//
//   flh_flow --circuits s27,s298,s1423 --threads 0
//
// Re-running an unchanged sweep is served from .flowcache/ (every stage a
// hit); editing a config or a netlist recomputes only the invalidated cone.
// A killed run resumes the same way — finished stages replay from cache.
//
// Outputs:
//   flow_report.json   deterministic run report (bit-identical across
//                      thread counts, cache states, and repeated runs)
//   flow_profile.json  wall time / cache hit-miss / faults-per-second
//   stdout             per-stage console table + summary
//   --trace FILE       Chrome trace_event JSON (chrome://tracing /
//                      Perfetto): one lane per worker thread, spans for
//                      every stage, cache probe, and fault-sim stripe
//   --metrics FILE     flat telemetry counters/gauges
//   --bench-json FILE  BENCH_flow.json bench-trajectory export (provenance
//                      envelope, per-stage entries, legacy payload under
//                      "results")
#include "flow/paper_flow.hpp"
#include "obs/benchio.hpp"
#include "obs/telemetry.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

#include <iostream>
#include <memory>
#include <string>
#include <vector>

using namespace flh;

namespace {

constexpr const char* kUsage = R"(usage: flh_flow [options]
  --circuits LIST      comma-separated registry names or .bench paths
                       (default: s27,s298)
  --threads N          worker threads: scheduler, fault-sim and ATPG
                       top-off; 0 = one per hardware thread (default 1)
  --sim-threads N      override the inner fault-sim and ATPG top-off budget
                       separately from the scheduler width
  --cache-dir DIR      result cache directory (default .flowcache)
  --no-cache           recompute everything, touch no cache
  --report FILE        deterministic run report (default flow_report.json)
  --profile FILE       timing/cache profile (default flow_profile.json)
  --trace FILE         write a Chrome trace_event JSON (enables telemetry)
  --metrics FILE       write flat telemetry metrics (enables telemetry)
  --bench-json FILE    write the bench-trajectory export (BENCH_flow.json)
  --out DIR            directory for bench exports (overrides FLH_BENCH_OUT)
  --pairs N            ATPG random pairs, >= 0 (default 64)
  --seed N             ATPG seed (default 11)
  --require-hit-rate F exit 1 unless cache hit rate >= F (CI guard)
  --quiet              suppress the console table
  --help
)";

} // namespace

int main(int argc, char** argv) {
    cli::ArgScan scan(argc, argv, "flh_flow", kUsage);
    cli::CommonFlags common;
    std::vector<std::string> circuits = {"s27", "s298"};
    FlowOptions opts;
    PaperFlowConfig cfg;
    std::string report_path = "flow_report.json";
    std::string profile_path = "flow_profile.json";
    std::string bench_path;
    double require_hit_rate = -1.0;
    bool sim_threads_set = false;

    while (scan.next()) {
        if (common.tryParse(scan)) continue;
        if (scan.is("--circuits")) circuits = scan.list();
        else if (scan.is("--sim-threads")) {
            opts.sim_threads = scan.num<unsigned>();
            sim_threads_set = true;
        }
        else if (scan.is("--cache-dir")) opts.cache.dir = scan.value();
        else if (scan.is("--no-cache")) opts.cache.enabled = false;
        else if (scan.is("--report")) report_path = scan.value();
        else if (scan.is("--profile")) profile_path = scan.value();
        else if (scan.is("--bench-json")) bench_path = scan.value();
        else if (scan.is("--pairs")) {
            cfg.random_pairs = scan.num<int>();
            if (cfg.random_pairs < 0) scan.usageError("--pairs must be >= 0");
        }
        else if (scan.is("--seed")) cfg.atpg_seed = scan.num<std::uint64_t>();
        else if (scan.is("--require-hit-rate")) require_hit_rate = scan.num<double>();
        else scan.unknownOption();
    }
    if (circuits.empty()) scan.usageError("empty --circuits list");

    // One --threads flag drives both pools (ExecPolicy everywhere);
    // --sim-threads remains as an explicit override.
    opts.threads = common.threads;
    if (!sim_threads_set) opts.sim_threads = common.threads;

    // Telemetry stays compiled in but disabled unless an export was asked
    // for — the deterministic report is identical either way.
    if (common.wantsTelemetry()) {
        obs::setEnabled(true);
        obs::setThreadLabel("main");
    }

    std::vector<DesignInput> designs;
    designs.reserve(circuits.size());
    for (const std::string& c : circuits) {
        try {
            designs.push_back(designInputFor(c));
        } catch (const std::exception& e) {
            scan.usageError("cannot load design '" + c + "': " + e.what());
        }
    }

    const FlowGraph graph = buildPaperFlow(cfg);

    // Open the cache handle here rather than inside runFlow so the final
    // stats scan (gauges for --metrics) sees the same handle the run used.
    std::shared_ptr<FlowCache> cache;
    if (opts.cache.enabled) {
        cache = std::make_shared<FlowCache>(opts.cache);
        opts.cache_handle = cache;
    }

    const RunReport report = runFlow(graph, designs, opts);

    if (cache) (void)cache->stats(); // refresh cache.entries/bytes gauges

    cli::writeFileOrDie("flh_flow", report_path, report.reportJson());
    cli::writeFileOrDie("flh_flow", profile_path, report.profileJson());
    if (!common.trace_path.empty())
        cli::writeFileOrDie("flh_flow", common.trace_path, obs::traceJson());
    if (!common.metrics_path.empty())
        cli::writeFileOrDie("flh_flow", common.metrics_path, obs::metricsJson());
    if (!bench_path.empty()) {
        // Envelope export: one entry per stage execution plus a whole-run
        // aggregate, with the legacy flh.bench.flow/1 payload under
        // "results" for consumers of the old format.
        obs::BenchWriter bw("flh.bench.flow/1", opts.threads);
        for (const StageRecord& r : report.records()) {
            obs::BenchEntry e;
            e.name = "stage/" + r.design + "/" + r.stage;
            e.threads = opts.threads;
            e.time_samples.push_back(r.wall_ms * 1e6);
            if (r.work_items > 0) e.ips_samples.push_back(r.itemsPerSecond());
            bw.add(std::move(e));
        }
        obs::BenchEntry total;
        total.name = "flow/total";
        total.threads = opts.threads;
        total.time_samples.push_back(report.totalWallMs() * 1e6);
        bw.add(std::move(total));
        bw.setResults(report.benchJson());
        cli::writeFileOrDie("flh_flow", obs::benchOutPath(bench_path, common.out_flag),
                            bw.json());
    }

    if (!common.quiet) {
        std::cout << report.table().render();
        std::cout << "\n" << designs.size() << " designs x " << graph.size() << " stages: "
                  << report.hits() << " cache hits, " << report.misses() << " misses, "
                  << report.failures() << " failures ("
                  << fmt(100.0 * report.hitRate(), 1) << "% hit rate)\n";
        std::cout << "total stage wall time " << fmt(report.totalWallMs(), 1)
                  << " ms, peak test count " << report.peakTests() << "\n";
        std::cout << "report: " << report_path << "  profile: " << profile_path << "\n";
        if (!common.trace_path.empty())
            std::cout << "trace: " << common.trace_path << " (" << obs::spanCount()
                      << " spans, " << obs::laneCount() << " lanes)\n";
        if (!common.metrics_path.empty()) std::cout << "metrics: " << common.metrics_path << "\n";
        if (!bench_path.empty()) std::cout << "bench: " << bench_path << "\n";
    }

    if (report.failures() > 0) {
        for (const StageRecord& r : report.records())
            if (r.failed)
                std::cerr << "flh_flow: " << r.design << "/" << r.stage << ": " << r.error
                          << "\n";
        return 1;
    }
    if (require_hit_rate >= 0.0 && report.hitRate() < require_hit_rate) {
        std::cerr << "flh_flow: cache hit rate " << fmt(100.0 * report.hitRate(), 1)
                  << "% below required " << fmt(100.0 * require_hit_rate, 1) << "%\n";
        return 1;
    }
    return 0;
}
