// paper-flow: "regenerate the paper". A cold runFlow of the paper graph over
// ten registry circuits into a fresh, empty cache directory (4 scheduler and
// 4 fault-simulation threads), followed by an untimed warm replay that must
// hit the cache for every stage and reproduce the report byte for byte.
#include "harness.hpp"
#include "probes.hpp"

#include "atpg/podem.hpp"
#include "bench_util.hpp"
#include "fault/parallel_sim.hpp"
#include "flow/paper_flow.hpp"
#include "netlist/bench_io.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>

namespace perfbench {

using namespace flh;
namespace fs = std::filesystem;

namespace {

struct Config {
    std::vector<std::string> circuits;
    unsigned threads = 4;
    std::vector<std::string> probe_circuits; ///< PODEM probe targets
    std::size_t probe_faults = 0;            ///< PODEM calls per probe circuit, at most
    std::string grade_circuit;               ///< one-test grading probe target
    int single_tests = 0;
};

Config configFor(const Options& o) {
    if (o.smoke()) return {{"s27", "s298"}, 4, {"s298"}, 200, "s298", 200};
    return {{"s27", "s298", "s344", "s386", "s510", "s641", "s838", "s1196", "s1423", "s5378"},
            4,
            {"s1423", "s5378"},
            600,
            "s5378",
            1000};
}

using RecordIndex = std::map<std::pair<std::string, std::string>, const StageRecord*>;

RecordIndex indexRecords(const RunReport& rep) {
    RecordIndex idx;
    for (const StageRecord& rec : rep.records()) idx[{rec.design, rec.stage}] = &rec;
    return idx;
}

/// One design's scanned netlist and final ATPG test set, as the flow's scan
/// and atpg stages wrote them.
struct FlowAtpg {
    ScannedCircuit circuit;
    std::vector<TwoPattern> tests;
};

FlowAtpg flowAtpg(const RecordIndex& idx, const std::string& design) {
    Netlist nl =
        readBenchString(idx.at({design, "scan"})->artifact.blob("bench"), design, bench::lib());
    auto faults = allTransitionFaults(nl);
    return {{design, std::move(nl), std::move(faults)},
            parseTests(idx.at({design, "atpg"})->artifact.blob("tests"))};
}

/// The final ATPG test set of every design, re-graded with the scalar
/// (words = 0) engine, must reproduce the coverage the flow reported.
void checkOracleRegrade(const RunReport& rep, const std::vector<DesignInput>& designs,
                        Checks& checks) {
    const RecordIndex idx = indexRecords(rep);
    for (const DesignInput& d : designs) {
        const Artifact& atpg = idx.at({d.name, "atpg"})->artifact;
        const Artifact& sim = idx.at({d.name, "fault_sim"})->artifact;
        const FlowAtpg f = flowAtpg(idx, d.name);
        FaultSimOptions scalar;
        scalar.words = 0;
        const FaultSimResult oracle =
            runTransitionFaultSim(f.circuit.nl, f.tests, f.circuit.faults, scalar);
        checks.op(static_cast<std::int64_t>(oracle.detected) == sim.integer("detected") &&
                      static_cast<std::int64_t>(oracle.total) == sim.integer("total_faults"),
                  d.name + ": scalar re-grade reproduces fault_sim's detected count");
        checks.op(std::abs(oracle.coveragePct() - atpg.num("atpg_coverage_pct")) < 1e-9,
                  d.name + ": scalar re-grade reproduces the ATPG coverage");
    }
}

/// Per-layer flow/atpg metrics of one traced cold run.
void setFlowMetrics(const RunReport& cold, double cold_wall_s, unsigned threads,
                    const std::vector<DesignInput>& designs, int random_pairs, Result& r) {
    const RecordIndex idx = indexRecords(cold);
    const auto wall = [&](const std::string& design, const std::string& stage) {
        return idx.at({design, stage})->wall_ms;
    };
    std::map<std::string, double> stage_ms;
    double summed = 0.0;
    for (const StageRecord& rec : cold.records()) {
        summed += rec.wall_ms;
        std::string group = rec.stage;
        if (group == "netlist" || group == "scan") group = "netlist_scan";
        if (group.rfind("dft_", 0) == 0) group = "dft";
        stage_ms[group] += rec.wall_ms;
    }
    for (const char* g : {"netlist_scan", "dft", "fanout_opt", "atpg", "fault_sim"})
        r.set(std::string("flow.stage_ms.") + g, stage_ms[g], "ms");

    // The longest dependency chain of any one design: the wall time the run
    // could not beat with unlimited workers.
    double critical = 0.0;
    std::int64_t generated = 0, untestable = 0, aborted = 0, tests = 0, detected = 0, total = 0;
    for (const DesignInput& d : designs) {
        const double branch = std::max({wall(d.name, "dft_enh"), wall(d.name, "dft_mux"),
                                        wall(d.name, "dft_flh"), wall(d.name, "fanout_opt"),
                                        wall(d.name, "atpg") + wall(d.name, "fault_sim")});
        critical = std::max(critical, wall(d.name, "netlist") + wall(d.name, "scan") + branch);
        r.set("atpg.ms." + d.name, wall(d.name, "atpg"), "ms");

        const Artifact& atpg = idx.at({d.name, "atpg"})->artifact;
        const Artifact& sim = idx.at({d.name, "fault_sim"})->artifact;
        generated += atpg.integer("n_tests") - random_pairs;
        untestable += atpg.integer("untestable");
        aborted += atpg.integer("aborted");
        tests += atpg.integer("n_tests");
        detected += sim.integer("detected");
        total += sim.integer("total_faults");
    }
    r.set("flow.critical_design_ms", critical, "ms");
    r.set("flow.worker_idle_ms", threads * cold_wall_s * 1e3 - summed, "ms");

    const auto d = [](std::int64_t v) { return static_cast<double>(v); };
    // Verdicts visible from outside the program; pairs that PODEM found but
    // grading rejected are not visible without spans inside it.
    r.set("atpg.topoff_useful_ratio",
          d(generated + untestable) / std::max(1.0, d(generated + untestable + aborted)), "ratio");
    r.set("atpg.fault_coverage_pct", 100.0 * d(detected) / d(total), "%");
    r.set("atpg.fault_efficiency_pct", 100.0 * d(detected + untestable) / d(total), "%");
    r.set("atpg.aborted_faults", d(aborted), "count");
    r.set("atpg.test_count", d(tests), "count");
}

} // namespace

void runPaperFlow(const Options& o, Result& r) {
    const Config cfg = configFor(o);
    PaperFlowConfig seeded; // the flh_flow defaults, except the ATPG seed
    seeded.atpg_seed = o.seed;
    const FlowGraph graph = buildPaperFlow(seeded);
    const fs::path cache_root = fs::path(o.work_dir) / "paper-flow-cache";

    const std::vector<DesignInput> designs = repeatedSetup(o, r, [&] {
        std::vector<DesignInput> ds;
        for (const std::string& c : cfg.circuits) ds.push_back(designInputFor(c));
        fs::remove_all(cache_root);
        fs::create_directories(cache_root);
        return ds;
    });

    const auto flowOptions = [&](const fs::path& dir) {
        FlowOptions fo;
        fo.threads = cfg.threads;
        fo.sim_threads = cfg.threads;
        fo.cache.dir = dir.string();
        fo.cache_handle = std::make_shared<FlowCache>(fo.cache);
        return fo;
    };

    std::vector<FlowAtpg> probe_inputs; // the PODEM probe's circuits, from pass 0
    measure(o, r, [&](int pass) {
        const fs::path dir = cache_root / ("pass-" + std::to_string(pass));
        fs::remove_all(dir);
        const FlowOptions cold_opts = flowOptions(dir);
        RunReport cold;
        const Timed t = timed([&] { cold = runFlow(graph, designs, cold_opts); });
        for (const StageRecord& rec : cold.records())
            r.checks.op(!rec.failed, rec.design + "/" + rec.stage + " (cold): " + rec.error);

        // A fresh handle, as a second process would open it.
        const FlowOptions warm_opts = flowOptions(dir);
        const RunReport warm =
            r.spans.time("flow.warm_replay", [&] { return runFlow(graph, designs, warm_opts); });
        for (const StageRecord& rec : warm.records())
            r.checks.op(!rec.failed, rec.design + "/" + rec.stage + " (warm): " + rec.error);
        r.checks.op(warm.hitRate() == 1.0, "warm replay hits the cache for every stage");
        r.checks.op(warm.reportJson() == cold.reportJson(),
                    "warm replay reproduces the cold report byte for byte");

        if (pass == 0) {
            r.checks.reference("paper-flow.flow_report.json", cold.reportJson());
            checkOracleRegrade(cold, designs, r.checks);
            if (o.trace)
                for (const std::string& name : cfg.probe_circuits)
                    probe_inputs.push_back(flowAtpg(indexRecords(cold), name));
        }
        if (r.spans.on()) {
            setFlowMetrics(cold, t.wall_s, cfg.threads, designs, seeded.random_pairs, r);
            r.set("flow.cache_bytes", static_cast<double>(cold_opts.cache_handle->stats().bytes),
                  "B");
            r.set("flow.cache_hit_rate", warm.hitRate(), "ratio");
        }
        fs::remove_all(dir);
        return t;
    });
    fs::remove_all(cache_root);
    if (!o.trace) return;

    r.set("flow.warm_replay_ms", r.perPassMs("flow.warm_replay"), "ms");
    setAtpgPhaseMetrics(r);

    r.spans.enable(true);
    PodemTally tally;
    for (const FlowAtpg& f : probe_inputs)
        podemTopoffProbe(f.circuit, TestApplication::EnhancedScan,
                         std::span(f.tests).first(static_cast<std::size_t>(seeded.random_pairs)),
                         PodemConfig{}, cfg.probe_faults, o.seed, tally, r);
    setPodemMetrics(tally, r);
    singleTestGradeProbe(scannedCircuit(cfg.grade_circuit), cfg.single_tests, o.seed, r);
    netlistProbe(cfg.circuits, r);
    r.spans.enable(false);
}

} // namespace perfbench
