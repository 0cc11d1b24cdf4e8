#include "probes.hpp"

#include "atpg/podem.hpp"
#include "atpg/stuck_atpg.hpp"
#include "bench_util.hpp"
#include "dft/scan.hpp"
#include "fault/parallel_sim.hpp"
#include "iscas/circuits.hpp"
#include "netlist/bench_io.hpp"
#include "sim/packed_sim.hpp"
#include "sim/sequential.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace flh;

namespace {

std::vector<NetId> sourcesOf(const Netlist& nl) {
    std::vector<NetId> s = nl.pis();
    for (const GateId ff : nl.flipFlops()) s.push_back(nl.gate(ff).output);
    return s;
}

/// Faults the tests leave undetected, thinned evenly to at most `max_faults`.
std::vector<std::size_t> undetectedBy(const ScannedCircuit& c, std::span<const TwoPattern> tests,
                                      std::size_t max_faults) {
    const FaultSimResult graded = runTransitionFaultSim(c.nl, tests, c.faults);
    std::vector<std::size_t> left;
    for (std::size_t i = 0; i < c.faults.size(); ++i)
        if (!graded.detected_mask[i]) left.push_back(i);
    if (left.size() <= max_faults) return left;
    std::vector<std::size_t> picked;
    for (std::size_t k = 0; k < max_faults; ++k) picked.push_back(left[k * left.size() / max_faults]);
    return picked;
}

/// Podem::generate for V2 of one fault, timed and tallied.
PodemOutcome timedGenerate(Podem& podem, const TransitionFault& tf, Pattern& v2,
                           PodemTally& tally, Result& r) {
    podem.clearFrozen();
    const double t0 = nowS();
    const PodemOutcome out = podem.generate(tf.equivalentStuckAt(), v2);
    const double ms = (nowS() - t0) * 1e3;
    r.spans.add("podem.generate", ms);
    tally.backtracks += podem.backtracksUsed();
    switch (out) {
        case PodemOutcome::Success: ++tally.success; break;
        case PodemOutcome::Untestable: ++tally.untestable; break;
        case PodemOutcome::Aborted:
            ++tally.aborted;
            tally.aborted_ms += ms;
            break;
    }
    return out;
}

/// V1's justification for a fault whose V2 PODEM found, as the style's
/// top-off does it.
PodemOutcome justifyV1(Podem& podem, const Netlist& nl, TestApplication style,
                       const TransitionFault& tf, const Pattern& v2, Rng& rng) {
    const auto& ffs = nl.flipFlops();
    Pattern v1;
    podem.clearFrozen();
    switch (style) {
        case TestApplication::EnhancedScan:
            return podem.justify(tf.net, tf.initialValue(), v1);
        case TestApplication::SkewedLoad: {
            Pattern v2f = v2;
            fillRandom(v2f, rng);
            for (std::size_t i = 0; i + 1 < ffs.size(); ++i)
                podem.freeze(nl.gate(ffs[i + 1]).output, v2f.state[i]);
            return podem.justify(tf.net, tf.initialValue(), v1);
        }
        case TestApplication::Broadside: {
            std::vector<std::pair<NetId, Logic>> objectives;
            for (std::size_t i = 0; i < ffs.size(); ++i)
                if (v2.state[i] != Logic::X)
                    objectives.emplace_back(nl.gate(ffs[i]).inputs[0], v2.state[i]);
            objectives.emplace_back(tf.net, tf.initialValue());
            return podem.justifyAll(objectives, v1);
        }
    }
    return PodemOutcome::Aborted;
}

} // namespace

ScannedCircuit scannedCircuit(const std::string& name) {
    ScannedCircuit c{name, bench::scannedCircuit(name), {}};
    c.faults = allTransitionFaults(c.nl);
    return c;
}

std::vector<TwoPattern> randomPairs(const Netlist& nl, std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    const auto v1 = randomPatterns(nl, n, rng.next());
    const auto v2 = randomPatterns(nl, n, rng.next());
    std::vector<TwoPattern> pairs(n);
    for (std::size_t i = 0; i < n; ++i) pairs[i] = TwoPattern{v1[i], v2[i]};
    return pairs;
}

void podemTopoffProbe(const ScannedCircuit& c, TestApplication style,
                      std::span<const TwoPattern> random_tests, const PodemConfig& pc,
                      std::size_t max_faults, std::uint64_t seed, PodemTally& tally, Result& r) {
    Podem podem(c.nl, pc);
    Rng rng(seed);
    for (const std::size_t fi : undetectedBy(c, random_tests, max_faults)) {
        const TransitionFault& tf = c.faults[fi];
        Pattern v2;
        if (timedGenerate(podem, tf, v2, tally, r) != PodemOutcome::Success) continue;
        const double t0 = nowS();
        (void)justifyV1(podem, c.nl, style, tf, v2, rng);
        r.spans.add("podem.justify", (nowS() - t0) * 1e3);
    }
}

void setPodemMetrics(const PodemTally& tally, Result& r) {
    const std::vector<double> gen = r.spans.samples("podem.generate");
    const std::vector<double> just = r.spans.samples("podem.justify");
    const double calls = static_cast<double>(gen.size());
    const double total_ms = r.spans.totalMs("podem.generate");
    r.set("podem.calls", calls, "count");
    r.set("podem.ms_p50", percentile(gen, 0.5), "ms");
    r.set("podem.ms_p99", percentile(gen, 0.99), "ms");
    r.set("podem.ms_total", total_ms, "ms");
    r.set("podem.backtracks_mean", calls > 0 ? static_cast<double>(tally.backtracks) / calls : 0.0,
          "count");
    r.set("podem.useful_ratio",
          calls > 0 ? static_cast<double>(tally.success + tally.untestable) / calls : 0.0,
          "ratio");
    r.set("podem.aborted_ms_share", total_ms > 0 ? tally.aborted_ms / total_ms : 0.0, "ratio");
    r.set("podem.justify_ms_p50", percentile(just, 0.5), "ms");
    r.set("podem.justify_ms_p99", percentile(just, 0.99), "ms");
}

void singleTestGradeProbe(const ScannedCircuit& c, int n, std::uint64_t seed, Result& r) {
    for (const TwoPattern& tp : randomPairs(c.nl, static_cast<std::size_t>(n), seed)) {
        const TwoPattern one[1] = {tp};
        const double t0 = nowS();
        (void)runTransitionFaultSim(c.nl, one, c.faults);
        r.spans.add("fault.single_test_grade", (nowS() - t0) * 1e3);
    }
    const std::vector<double> ms = r.spans.samples("fault.single_test_grade");
    r.set("fault.single_test_grade_us_p50", 1e3 * percentile(ms, 0.5), "us");
    r.set("fault.single_test_grade_us_p99", 1e3 * percentile(ms, 0.99), "us");
}

void packedSimProbe(const ScannedCircuit& c, unsigned words, int reps, std::uint64_t seed,
                    Result& r) {
    PackedSim sim(c.nl, words);
    const std::vector<NetId> sources = sourcesOf(c.nl);
    Rng rng(seed);
    double evals = 0.0, secs = 0.0;
    for (int i = 0; i < reps; ++i) {
        for (const NetId s : sources)
            for (unsigned w = 0; w < words; ++w) sim.setNet(s, w, PV{rng.next(), 0});
        const double t0 = nowS();
        evals += static_cast<double>(sim.evalAll());
        secs += nowS() - t0;
    }
    r.set("sim.packed_gate_evals_per_s.w" + std::to_string(words), evals / secs, "1/s");
}

void eventPropagateProbe(const ScannedCircuit& c, int n, std::uint64_t seed, Result& r) {
    PatternSim sim(c.nl);
    const std::vector<NetId> sources = sourcesOf(c.nl);
    Rng rng(seed);
    for (const NetId s : sources) sim.setNet(s, PV{rng.next(), 0});
    sim.propagate();
    std::vector<double> us;
    for (int i = 0; i < n; ++i) {
        const NetId s = sources[rng.below(sources.size())];
        const PV flipped{~sim.get(s).v, 0};
        const double t0 = nowS();
        sim.setNet(s, flipped);
        sim.propagate();
        us.push_back((nowS() - t0) * 1e6);
    }
    r.set("sim.event_propagate_us_p50", median(us), "us");
}

void sequentialCycleProbe(const ScannedCircuit& c, int n, std::uint64_t seed, Result& r) {
    SequentialSim seq(c.nl);
    Rng rng(seed);
    const auto randomWords = [&](std::size_t k) {
        std::vector<PV> v(k);
        for (PV& p : v) p = PV{rng.next(), 0};
        return v;
    };
    seq.setState(randomWords(seq.ffCount()));
    std::vector<double> us;
    for (int i = 0; i < n; ++i) {
        const std::vector<PV> pis = randomWords(c.nl.pis().size());
        const double t0 = nowS();
        seq.setPis(pis);
        seq.settle();
        seq.clock();
        us.push_back((nowS() - t0) * 1e6);
    }
    r.set("sim.sequential_cycle_us", median(us), "us");
}

void netlistProbe(const std::vector<std::string>& circuits, Result& r) {
    for (const std::string& name : circuits) {
        const Netlist nl = r.spans.time("iscas.generate", [&] { return makeCircuit(name, bench::lib()); });
        const std::string text =
            r.spans.time("netlist.bench_write", [&] { return writeBenchString(nl); });
        (void)r.spans.time("netlist.bench_parse",
                           [&] { return readBenchString(text, name, bench::lib()); });
    }
    r.set("iscas.generate_ms", r.spans.totalMs("iscas.generate"), "ms");
    r.set("netlist.bench_write_ms", r.spans.totalMs("netlist.bench_write"), "ms");
    r.set("netlist.bench_parse_ms", r.spans.totalMs("netlist.bench_parse"), "ms");
}

} // namespace perfbench
