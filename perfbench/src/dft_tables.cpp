// dft-tables: the paper's Tables I-IV. planDft + evaluateDft for the
// enhanced-scan, MUX-hold and FLH styles, plus optimizeFanout, over all 12
// registry circuits. The only workload where the power, sta and dft layers
// and the good-machine SequentialSim do the work.
#include "harness.hpp"
#include "probes.hpp"

#include "bench_util.hpp"
#include "dft/fanout_opt.hpp"
#include "util/json.hpp"

#include <cmath>

namespace perfbench {

using namespace flh;

namespace {

constexpr HoldStyle kStyles[] = {HoldStyle::EnhancedScan, HoldStyle::MuxHold, HoldStyle::Flh};

struct Config {
    std::vector<std::string> circuits;
    std::string probe_circuit; ///< SequentialSim probe
};

Config configFor(const Options& o) {
    if (o.smoke()) return {{"s27", "s298"}, "s298"};
    std::vector<std::string> all = {"s27"};
    for (const std::string& name : bench::paperCircuitNames()) all.push_back(name);
    return {all, "s5378"};
}

struct Row {
    std::vector<DftEvaluation> evals;
    FanoutOptResult fanout;
};

std::string rowsJson(const std::vector<ScannedCircuit>& circuits, const std::vector<Row>& rows) {
    JsonWriter w;
    w.beginArray();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const FanoutOptResult& f = rows[i].fanout;
        w.beginObject();
        w.kv("circuit", circuits[i].name);
        w.key("evaluations");
        w.beginArray();
        for (const DftEvaluation& ev : rows[i].evals) ev.writeJson(w);
        w.endArray();
        w.key("fanout_opt");
        w.beginObject();
        w.kv("ffs_optimized", static_cast<std::uint64_t>(f.ffs_optimized));
        w.kv("inverters_added", static_cast<std::uint64_t>(f.inverters_added));
        w.kv("first_level_before", static_cast<std::uint64_t>(f.first_level_before));
        w.kv("first_level_after", static_cast<std::uint64_t>(f.first_level_after));
        w.kv("delay_before_ps", f.delay_before_ps);
        w.kv("delay_after_ps", f.delay_after_ps);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    return w.str() + "\n";
}

} // namespace

void runDftTables(const Options& o, Result& r) {
    const Config cfg = configFor(o);
    const std::vector<ScannedCircuit> circuits = repeatedSetup(o, r, [&] {
        std::vector<ScannedCircuit> cs;
        for (const std::string& name : cfg.circuits)
            cs.push_back({name, bench::scannedCircuit(name), {}});
        return cs;
    });

    std::string first;
    measure(o, r, [&](int pass) {
        std::vector<Row> rows(circuits.size());
        const Timed t = timed([&] {
            for (std::size_t i = 0; i < circuits.size(); ++i) {
                const ScannedCircuit& c = circuits[i];
                const PowerConfig pc = bench::powerConfigFor(c.name, o.seed);
                for (const HoldStyle style : kStyles) {
                    const DftDesign plan =
                        r.spans.time("dft.plan", [&] { return planDft(c.nl, style); });
                    rows[i].evals.push_back(r.spans.time(
                        "dft.evaluate", [&] { return evaluateDft(c.nl, plan, pc); }));
                }
                Netlist nl = c.nl;
                rows[i].fanout = r.spans.time("dft.fanout_opt", [&] { return optimizeFanout(nl); });
            }
        });
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const std::string& name = circuits[i].name;
            for (const DftEvaluation& ev : rows[i].evals)
                r.checks.op(std::isfinite(ev.area_increase_pct) &&
                                std::isfinite(ev.delay_increase_pct) &&
                                std::isfinite(ev.power_increase_pct),
                            name + "/" + toString(ev.style) + ": evaluateDft call");
            // Section V: the transform never touches the critical path.
            const FanoutOptResult& f = rows[i].fanout;
            r.checks.op(f.delay_after_ps <= f.delay_before_ps + 1e-9 &&
                            f.first_level_after <= f.first_level_before,
                        name + ": optimizeFanout keeps the critical delay");
        }
        const std::string json = rowsJson(circuits, rows);
        if (pass == 0) {
            r.checks.reference("dft-tables.evaluations.json", json);
            first = json;
        } else {
            r.checks.op(json == first, "repeated pass reproduces the first pass");
        }
        return t;
    });
    if (!o.trace) return;

    r.set("dft.plan_ms", r.perPassMs("dft.plan"), "ms");
    r.set("dft.fanout_opt_ms", r.perPassMs("dft.fanout_opt"), "ms");

    // evaluateDft runs STA and the power simulation internally; time those
    // two calls directly, once per circuit and style, on the same overlays.
    r.spans.enable(true);
    for (const ScannedCircuit& c : circuits) {
        const PowerConfig pc = bench::powerConfigFor(c.name, o.seed);
        for (const HoldStyle style : kStyles) {
            const DftDesign plan = planDft(c.nl, style);
            const TimingOverlay tov = makeTimingOverlay(c.nl, plan);
            const PowerOverlay pov = makePowerOverlay(c.nl, plan);
            (void)r.spans.time("sta.analyze", [&] { return runSta(c.nl, tov); });
            (void)r.spans.time("power.normal", [&] { return measureNormalPower(c.nl, pov, pc); });
        }
    }
    r.set("sta.analyze_ms", r.spans.totalMs("sta.analyze"), "ms");
    r.set("power.normal_ms", r.spans.totalMs("power.normal"), "ms");
    sequentialCycleProbe({cfg.probe_circuit, bench::scannedCircuit(cfg.probe_circuit), {}}, 2000,
                         o.seed, r);
    netlistProbe(cfg.circuits, r);
    r.spans.enable(false);
}

} // namespace perfbench
