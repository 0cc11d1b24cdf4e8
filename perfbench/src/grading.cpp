// grading: seeded random enhanced-scan pairs on the three largest registry
// circuits, graded with fault dropping (runTransitionFaultSim) and without
// it (countTransitionDetections, the n-detect profile), 4 threads and the
// default word width. The fault and sim kernels do all the work; PODEM
// does none.
#include "harness.hpp"
#include "probes.hpp"

#include "fault/parallel_sim.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <numeric>

namespace perfbench {

using namespace flh;

namespace {

struct Config {
    std::vector<std::string> circuits;
    std::size_t pairs = 0;
    std::string probe_circuit; ///< one-test grading and simulator probes
};

Config configFor(const Options& o) {
    if (o.smoke()) return {{"s298", "s344"}, 128, "s298"};
    return {{"s5378", "s9234", "s13207"}, 1024, "s5378"};
}

struct Graded {
    ScannedCircuit circuit;
    std::vector<TwoPattern> tests;
};

} // namespace

void runGrading(const Options& o, Result& r) {
    const Config cfg = configFor(o);
    const std::vector<Graded> inputs = repeatedSetup(o, r, [&] {
        Rng rng(o.seed);
        std::vector<Graded> gs;
        for (const std::string& name : cfg.circuits) {
            ScannedCircuit c = scannedCircuit(name);
            auto tests = randomPairs(c.nl, cfg.pairs, rng.next());
            gs.push_back({std::move(c), std::move(tests)});
        }
        return gs;
    });
    FaultSimOptions opts;
    opts.threads = 4;

    std::vector<std::size_t> first_detected;
    std::vector<std::size_t> first_ndetect_sum;
    double fault_tests = 0.0;
    measure(o, r, [&](int pass) {
        std::vector<FaultSimResult> dropped;
        std::vector<std::vector<std::size_t>> ndetect;
        const Timed t = timed([&] {
            for (const Graded& g : inputs) {
                const ScannedCircuit& c = g.circuit;
                dropped.push_back(r.spans.time("fault.drop_grade", [&] {
                    return runTransitionFaultSim(c.nl, g.tests, c.faults, opts);
                }));
                ndetect.push_back(r.spans.time("fault.ndetect", [&] {
                    return countTransitionDetections(c.nl, g.tests, c.faults, opts);
                }));
            }
        });
        std::vector<std::size_t> detected, sums;
        fault_tests = 0.0;
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            const std::string& name = inputs[i].circuit.name;
            const auto& counts = ndetect[i];
            r.checks.op(dropped[i].total == inputs[i].circuit.faults.size(),
                        name + ": runTransitionFaultSim call");
            r.checks.op(counts.size() == inputs[i].circuit.faults.size(),
                        name + ": countTransitionDetections call");
            // Dropping and n-detect must agree on which faults any test detects.
            const auto hit = static_cast<std::size_t>(
                std::count_if(counts.begin(), counts.end(), [](std::size_t n) { return n > 0; }));
            r.checks.op(hit == dropped[i].detected,
                        name + ": n-detect and drop grading agree on detected faults");
            detected.push_back(dropped[i].detected);
            sums.push_back(std::accumulate(counts.begin(), counts.end(), std::size_t{0}));
            fault_tests += static_cast<double>(counts.size() * inputs[i].tests.size());
        }
        if (pass == 0) {
            JsonWriter w;
            w.beginArray();
            for (std::size_t i = 0; i < inputs.size(); ++i) {
                w.beginObject();
                w.kv("circuit", inputs[i].circuit.name);
                w.kv("tests", static_cast<std::uint64_t>(inputs[i].tests.size()));
                w.kv("faults", static_cast<std::uint64_t>(inputs[i].circuit.faults.size()));
                w.kv("detected", static_cast<std::uint64_t>(detected[i]));
                w.kv("ndetect_sum", static_cast<std::uint64_t>(sums[i]));
                w.endObject();
            }
            w.endArray();
            r.checks.reference("grading.detections.json", w.str() + "\n");
            first_detected = detected;
            first_ndetect_sum = sums;
        } else {
            r.checks.op(detected == first_detected && sums == first_ndetect_sum,
                        "repeated pass reproduces the first pass");
        }
        return t;
    });
    if (!o.trace) return;

    const double ndetect_ms = r.perPassMs("fault.ndetect");
    r.set("fault.drop_grade_ms", r.perPassMs("fault.drop_grade"), "ms");
    r.set("fault.ndetect_ms", ndetect_ms, "ms");
    r.set("fault.fault_tests_per_s", fault_tests / (ndetect_ms / 1e3), "1/s");

    r.spans.enable(true);
    const ScannedCircuit probe = scannedCircuit(cfg.probe_circuit);
    singleTestGradeProbe(probe, o.smoke() ? 200 : 1000, o.seed, r);
    packedSimProbe(probe, 1, 200, o.seed, r);
    packedSimProbe(probe, 4, 200, o.seed, r);
    eventPropagateProbe(probe, 5000, o.seed, r);
    netlistProbe(cfg.circuits, r);
    r.spans.enable(false);
}

} // namespace perfbench
