#include "atpg/transition_atpg.hpp"

#include "obs/telemetry.hpp"

#include <algorithm>

namespace flh {

namespace {

Pattern randomPattern(const Netlist& nl, Rng& rng) {
    Pattern p;
    p.pis.assign(nl.pis().size(), Logic::X);
    p.state.assign(nl.flipFlops().size(), Logic::X);
    fillRandom(p, rng);
    return p;
}

std::vector<Logic> randomBits(std::size_t n, Rng& rng) {
    std::vector<Logic> v(n);
    for (Logic& b : v) b = rng.chance(0.5) ? Logic::One : Logic::Zero;
    return v;
}

/// Random two-pattern test respecting the style's structural constraint.
TwoPattern randomPair(const Netlist& nl, TestApplication style, Rng& rng) {
    const Pattern v1 = randomPattern(nl, rng);
    switch (style) {
        case TestApplication::EnhancedScan: {
            TwoPattern tp;
            tp.v1 = v1;
            tp.v2 = randomPattern(nl, rng);
            return tp;
        }
        case TestApplication::Broadside:
        case TestApplication::SkewedLoad:
            return makePair(nl, style, v1, randomBits(nl.pis().size(), rng),
                            rng.chance(0.5) ? Logic::One : Logic::Zero);
    }
    return {};
}

} // namespace

TransitionAtpgResult generateTransitionTests(const Netlist& nl, TestApplication style,
                                             std::span<const TransitionFault> faults,
                                             const TransitionAtpgConfig& cfg) {
    obs::ScopedSpan span(obs::enabled() ? std::string("atpg:transition:") + toString(style)
                                        : std::string(),
                         "atpg");
    TransitionAtpgResult res;
    res.style = style;
    Rng rng(cfg.seed);

    // Phase 1: random pairs with fault dropping.
    {
        obs::ScopedSpan phase_span("atpg:transition:random", "atpg");
        for (int i = 0; i < cfg.random_pairs; ++i)
            res.tests.push_back(randomPair(nl, style, rng));
        res.coverage = runTransitionFaultSim(nl, res.tests, faults);
    }

    // Phase 2: deterministic top-off.
    obs::ScopedSpan topoff_span("atpg:transition:topoff", "atpg");
    Podem podem(nl, cfg.podem);
    const auto& ffs = nl.flipFlops();

    const auto tryAddTest = [&](std::size_t fi, const TwoPattern& tp) -> bool {
        const TwoPattern one[1] = {tp};
        const FaultSimResult hit = runTransitionFaultSim(nl, one, faults);
        if (!hit.detected_mask[fi]) return false;
        for (std::size_t fj = 0; fj < faults.size(); ++fj) {
            if (hit.detected_mask[fj] && !res.coverage.detected_mask[fj]) {
                res.coverage.detected_mask[fj] = true;
                ++res.coverage.detected;
            }
        }
        res.tests.push_back(tp);
        ++res.generated;
        return true;
    };

    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
        if (res.coverage.detected_mask[fi]) continue;
        const TransitionFault& tf = faults[fi];

        // V2: detect the equivalent stuck-at fault.
        Pattern v2;
        podem.clearFrozen();
        const PodemOutcome v2_out = podem.generate(tf.equivalentStuckAt(), v2);
        if (v2_out == PodemOutcome::Untestable) {
            ++res.untestable;
            continue;
        }
        if (v2_out == PodemOutcome::Aborted) {
            ++res.aborted;
            continue;
        }

        // Enhanced-scan and broadside V1 searches do not depend on the
        // random fill, so each runs once and every attempt re-fills a copy;
        // a failure would repeat on every retry. Skewed load re-justifies
        // per attempt: its frozen state comes from the filled V2.
        Pattern v1_base;
        if (style != TestApplication::SkewedLoad && cfg.justify_retries > 0) {
            podem.clearFrozen();
            if (style == TestApplication::EnhancedScan) {
                // V1: independently justify the initial value at the site.
                if (podem.justify(tf.net, tf.initialValue(), v1_base) != PodemOutcome::Success)
                    continue;
            } else {
                // V1 must drive the circuit into V2's required state:
                // justify every specified bit of V2.state at the FF D
                // inputs — the sequential justification that makes
                // broadside coverage poor.
                std::vector<std::pair<NetId, Logic>> objectives;
                for (std::size_t i = 0; i < ffs.size(); ++i) {
                    if (v2.state[i] == Logic::X) continue;
                    objectives.push_back({nl.gate(ffs[i]).inputs[0], v2.state[i]});
                }
                // The initial value at the site must hold in V1 as well.
                objectives.push_back({tf.net, tf.initialValue()});
                if (podem.justifyAll(objectives, v1_base) != PodemOutcome::Success) {
                    // One failure per attempt, as if each had re-run it.
                    res.justify_failures += static_cast<std::size_t>(cfg.justify_retries);
                    continue;
                }
            }
        }

        bool added = false;
        for (int attempt = 0; attempt < cfg.justify_retries && !added; ++attempt) {
            switch (style) {
                case TestApplication::EnhancedScan: {
                    TwoPattern tp;
                    tp.v1 = v1_base;
                    fillRandom(tp.v1, rng);
                    tp.v2 = v2;
                    fillRandom(tp.v2, rng);
                    added = tryAddTest(fi, tp);
                    break;
                }
                case TestApplication::SkewedLoad: {
                    // V1's state is V2's state shifted back by one position;
                    // only the PIs and the scan-out-end bit remain free.
                    Pattern v2f = v2;
                    fillRandom(v2f, rng);
                    podem.clearFrozen();
                    for (std::size_t i = 0; i + 1 < ffs.size(); ++i)
                        podem.freeze(nl.gate(ffs[i + 1]).output, v2f.state[i]);
                    Pattern v1;
                    if (podem.justify(tf.net, tf.initialValue(), v1) != PodemOutcome::Success) {
                        ++res.justify_failures;
                        break;
                    }
                    fillRandom(v1, rng);
                    // Re-derive V2's state from the (filled) V1 so the pair
                    // is structurally exact, keeping V2's required PIs.
                    TwoPattern tp = makePair(nl, style, v1, v2f.pis,
                                             v2f.state.empty() ? Logic::Zero
                                                               : v2f.state.back());
                    added = tryAddTest(fi, tp);
                    break;
                }
                case TestApplication::Broadside: {
                    Pattern v1 = v1_base;
                    fillRandom(v1, rng);
                    TwoPattern tp = makePair(nl, style, v1, [&] {
                        Pattern v2f = v2;
                        fillRandom(v2f, rng);
                        return v2f.pis;
                    }());
                    added = tryAddTest(fi, tp);
                    break;
                }
            }
        }
    }
    static obs::Counter& c_generated = obs::counter("atpg.generated");
    static obs::Counter& c_aborted = obs::counter("atpg.aborted");
    static obs::Counter& c_untestable = obs::counter("atpg.untestable");
    c_generated.add(res.generated);
    c_aborted.add(res.aborted);
    c_untestable.add(res.untestable);
    return res;
}

} // namespace flh
