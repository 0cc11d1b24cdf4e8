// constrained-atpg: serial generateTransitionTests in the two constrained
// application styles (broadside, skewed-load) on s641, s838 and s1423, with
// sec4_coverage's configuration. It drives the same PODEM layer as
// paper-flow through justifyAll and frozen sources, and runs serially, so
// every PODEM saving lands in wall time.
#include "harness.hpp"
#include "probes.hpp"

#include "atpg/transition_atpg.hpp"
#include "fault/parallel_sim.hpp"
#include "util/json.hpp"

#include <algorithm>

namespace perfbench {

using namespace flh;

namespace {

constexpr TestApplication kStyles[] = {TestApplication::Broadside, TestApplication::SkewedLoad};

struct Config {
    std::vector<std::string> circuits;
    std::size_t probe_faults = 0; ///< PODEM probe calls per circuit and style, at most
};

Config configFor(const Options& o) {
    if (o.smoke()) return {{"s298", "s344"}, 50};
    return {{"s641", "s838", "s1423"}, 150};
}

TransitionAtpgConfig atpgConfig(std::uint64_t seed) {
    TransitionAtpgConfig cfg; // sec4_coverage's budget
    cfg.random_pairs = 48;
    cfg.justify_retries = 1;
    cfg.podem.max_backtracks = 60;
    cfg.seed = seed;
    return cfg;
}

/// The references' view of one result: its counts, not the test bits.
void writeResult(JsonWriter& w, const std::string& circuit, const TransitionAtpgResult& res) {
    w.beginObject();
    w.kv("circuit", circuit);
    w.kv("style", toString(res.style));
    w.kv("tests", static_cast<std::uint64_t>(res.tests.size()));
    w.kv("generated", static_cast<std::uint64_t>(res.generated));
    w.kv("untestable", static_cast<std::uint64_t>(res.untestable));
    w.kv("aborted", static_cast<std::uint64_t>(res.aborted));
    w.kv("justify_failures", static_cast<std::uint64_t>(res.justify_failures));
    w.key("coverage");
    res.coverage.writeJson(w);
    w.endObject();
}

/// Checks that hold for any seed: every pair meets its style's structural
/// constraint, and the scalar (words = 0) engine re-grades the test set to
/// the coverage the generator reported.
void checkResult(const ScannedCircuit& c, const TransitionAtpgResult& res, Checks& checks) {
    const std::string what = c.name + "/" + toString(res.style) + ": ";
    checks.op(std::all_of(res.tests.begin(), res.tests.end(),
                          [&](const TwoPattern& tp) { return isValidPair(c.nl, res.style, tp); }),
              what + "every pair satisfies the style constraint");
    FaultSimOptions scalar;
    scalar.words = 0;
    const FaultSimResult oracle = runTransitionFaultSim(c.nl, res.tests, c.faults, scalar);
    checks.op(oracle.detected == res.coverage.detected && oracle.total == res.coverage.total,
              what + "scalar re-grade reproduces the reported coverage");
}

void setQualityMetrics(const std::vector<TransitionAtpgResult>& results, Result& r) {
    double detected = 0, untestable = 0, aborted = 0, justify = 0, generated = 0, tests = 0,
           total = 0;
    for (const TransitionAtpgResult& res : results) {
        detected += static_cast<double>(res.coverage.detected);
        total += static_cast<double>(res.coverage.total);
        untestable += static_cast<double>(res.untestable);
        aborted += static_cast<double>(res.aborted);
        justify += static_cast<double>(res.justify_failures);
        generated += static_cast<double>(res.generated);
        tests += static_cast<double>(res.tests.size());
    }
    r.set("atpg.topoff_useful_ratio",
          (generated + untestable) / std::max(1.0, generated + untestable + aborted + justify),
          "ratio");
    r.set("atpg.fault_coverage_pct", 100.0 * detected / total, "%");
    r.set("atpg.fault_efficiency_pct", 100.0 * (detected + untestable) / total, "%");
    r.set("atpg.aborted_faults", aborted, "count");
    r.set("atpg.test_count", tests, "count");
}

} // namespace

void runConstrainedAtpg(const Options& o, Result& r) {
    const Config cfg = configFor(o);
    const TransitionAtpgConfig acfg = atpgConfig(o.seed);
    const std::vector<ScannedCircuit> circuits = repeatedSetup(o, r, [&] {
        std::vector<ScannedCircuit> cs;
        for (const std::string& name : cfg.circuits) cs.push_back(scannedCircuit(name));
        return cs;
    });

    std::vector<TransitionAtpgResult> first;
    measure(o, r, [&](int pass) {
        std::vector<TransitionAtpgResult> results;
        const Timed t = timed([&] {
            for (const ScannedCircuit& c : circuits)
                for (const TestApplication style : kStyles)
                    results.push_back(r.spans.time("atpg.ms." + c.name, [&] {
                        return generateTransitionTests(c.nl, style, c.faults, acfg);
                    }));
        });
        for (const TransitionAtpgResult& res : results)
            r.checks.op(res.coverage.total > 0, "generateTransitionTests call");
        if (pass == 0) {
            JsonWriter w;
            w.beginArray();
            for (std::size_t i = 0; i < results.size(); ++i) {
                const ScannedCircuit& c = circuits[i / std::size(kStyles)];
                writeResult(w, c.name, results[i]);
                checkResult(c, results[i], r.checks);
            }
            w.endArray();
            r.checks.reference("constrained-atpg.coverage.json", w.str() + "\n");
            first = results;
        } else {
            bool same = results.size() == first.size();
            for (std::size_t i = 0; same && i < results.size(); ++i)
                same = results[i].coverage.detected_mask == first[i].coverage.detected_mask &&
                       results[i].tests.size() == first[i].tests.size();
            r.checks.op(same, "repeated pass reproduces the first pass");
        }
        return t;
    });
    if (!o.trace) return;

    setQualityMetrics(first, r);
    for (const ScannedCircuit& c : circuits)
        r.set("atpg.ms." + c.name, r.perPassMs("atpg.ms." + c.name), "ms");
    setAtpgPhaseMetrics(r);

    r.spans.enable(true);
    PodemTally tally;
    for (std::size_t i = 0; i < first.size(); ++i) {
        const std::span<const TwoPattern> random_phase(first[i].tests.data(),
                                                       static_cast<std::size_t>(acfg.random_pairs));
        podemTopoffProbe(circuits[i / std::size(kStyles)], first[i].style, random_phase,
                         acfg.podem, cfg.probe_faults, o.seed, tally, r);
    }
    setPodemMetrics(tally, r);
    netlistProbe(cfg.circuits, r);
    r.spans.enable(false);
}

} // namespace perfbench
