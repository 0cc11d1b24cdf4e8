#include "atpg/podem.hpp"
#include "atpg/transition_atpg.hpp"
#include "iscas/circuits.hpp"
#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <initializer_list>
#include <string>

namespace flh {
namespace {

const Library& lib() {
    static const Library l = makeDefaultLibrary();
    return l;
}

TEST(Podem, GeneratesTestForSimpleFault) {
    // y = AND(a, b): y/0 needs a=b=1 and is observed at y.
    Netlist nl("and", lib());
    const NetId a = nl.addPi("a");
    const NetId b = nl.addPi("b");
    const NetId y = nl.addNet("y");
    nl.addGate(CellFn::And, {a, b}, y);
    nl.markPo(y);

    Podem podem(nl);
    FaultSite f;
    f.net = y;
    f.stuck_at_one = false;
    Pattern p;
    ASSERT_EQ(podem.generate(f, p), PodemOutcome::Success);
    EXPECT_EQ(p.pis[0], Logic::One);
    EXPECT_EQ(p.pis[1], Logic::One);
}

TEST(Podem, PropagatesThroughLogic) {
    // y = OR(AND(a,b), c): a/0 needs a=1,b=1 to activate and c=0 to observe.
    Netlist nl("t", lib());
    const NetId a = nl.addPi("a");
    const NetId b = nl.addPi("b");
    const NetId c = nl.addPi("c");
    const NetId m = nl.addNet("m");
    const NetId y = nl.addNet("y");
    nl.addGate(CellFn::And, {a, b}, m);
    nl.addGate(CellFn::Or, {m, c}, y);
    nl.markPo(y);

    Podem podem(nl);
    FaultSite f;
    f.net = a;
    f.stuck_at_one = false;
    Pattern p;
    ASSERT_EQ(podem.generate(f, p), PodemOutcome::Success);
    EXPECT_EQ(p.pis[0], Logic::One);
    EXPECT_EQ(p.pis[1], Logic::One);
    EXPECT_EQ(p.pis[2], Logic::Zero);
}

TEST(Podem, DetectsUntestableFault) {
    // y = OR(a, NOT(a)) == 1 always: y/1 is untestable.
    Netlist nl("taut", lib());
    const NetId a = nl.addPi("a");
    const NetId an = nl.addNet("an");
    const NetId y = nl.addNet("y");
    nl.addGate(CellFn::Inv, {a}, an);
    nl.addGate(CellFn::Or, {a, an}, y);
    nl.markPo(y);

    Podem podem(nl);
    FaultSite f;
    f.net = y;
    f.stuck_at_one = true;
    Pattern p;
    EXPECT_EQ(podem.generate(f, p), PodemOutcome::Untestable);
}

TEST(Podem, GeneratedPatternsVerifiedByFaultSim) {
    const Netlist nl = makeS27(lib());
    Podem podem(nl);
    const auto faults = collapsedStuckAtFaults(nl);
    std::size_t verified = 0;
    std::size_t successes = 0;
    Rng rng(17);
    for (const FaultSite& f : faults) {
        Pattern p;
        if (podem.generate(f, p) != PodemOutcome::Success) continue;
        ++successes;
        fillRandom(p, rng);
        const Pattern one[1] = {p};
        const FaultSite fs[1] = {f};
        if (runStuckAtFaultSim(nl, one, fs).detected == 1) ++verified;
    }
    EXPECT_GT(successes, faults.size() / 2);
    // Every PODEM success must be confirmed by the independent fault sim.
    EXPECT_EQ(verified, successes);
}

TEST(Podem, PinFaultGenerated) {
    const Netlist nl = makeS27(lib());
    Podem podem(nl);
    Rng rng(23);
    // Find a pin fault on a fanout stem and generate a test for it.
    for (const FaultSite& f : collapsedStuckAtFaults(nl)) {
        if (!f.isPinFault()) continue;
        Pattern p;
        if (podem.generate(f, p) != PodemOutcome::Success) continue;
        fillRandom(p, rng);
        const Pattern one[1] = {p};
        const FaultSite fs[1] = {f};
        EXPECT_EQ(runStuckAtFaultSim(nl, one, fs).detected, 1u) << toString(nl, f);
        return; // one verified pin fault is enough
    }
    FAIL() << "no pin fault generated";
}

TEST(Podem, JustifyEstablishesValue) {
    const Netlist nl = makeS27(lib());
    Podem podem(nl);
    const NetId g10 = *nl.findNet("G10");
    for (const Logic v : {Logic::Zero, Logic::One}) {
        Pattern p;
        ASSERT_EQ(podem.justify(g10, v, p), PodemOutcome::Success);
        // Verify by simulation.
        Rng rng(29);
        fillRandom(p, rng);
        PatternSim sim(nl);
        for (std::size_t i = 0; i < nl.pis().size(); ++i)
            sim.setNet(nl.pis()[i], PV::all(p.pis[i]));
        for (std::size_t i = 0; i < nl.flipFlops().size(); ++i)
            sim.setNet(nl.gate(nl.flipFlops()[i]).output, PV::all(p.state[i]));
        sim.propagate();
        EXPECT_EQ(sim.get(g10).get(0), v);
    }
}

TEST(Podem, FreezeConstrainsSolution) {
    // y = AND(a, b); justify y=1 with a frozen to 0: impossible.
    Netlist nl("and", lib());
    const NetId a = nl.addPi("a");
    const NetId b = nl.addPi("b");
    const NetId y = nl.addNet("y");
    nl.addGate(CellFn::And, {a, b}, y);
    nl.markPo(y);

    Podem podem(nl);
    podem.freeze(a, Logic::Zero);
    Pattern p;
    EXPECT_EQ(podem.justify(y, Logic::One, p), PodemOutcome::Untestable);
    podem.clearFrozen();
    EXPECT_EQ(podem.justify(y, Logic::One, p), PodemOutcome::Success);
}

/// Every assignment of the sources (PIs, then flip-flop outputs), one
/// pattern per bit combination.
std::vector<Pattern> exhaustivePatterns(const Netlist& nl) {
    const std::size_t n_pi = nl.pis().size();
    const std::size_t n = n_pi + nl.flipFlops().size();
    std::vector<Pattern> pats(std::size_t{1} << n);
    for (std::size_t m = 0; m < pats.size(); ++m) {
        for (std::size_t i = 0; i < n; ++i) {
            const Logic b = ((m >> i) & 1) ? Logic::One : Logic::Zero;
            (i < n_pi ? pats[m].pis : pats[m].state).push_back(b);
        }
    }
    return pats;
}

/// Simulate one fully specified pattern; returns every net's value.
std::vector<Logic> simulate(const Netlist& nl, const Pattern& p) {
    PatternSim sim(nl);
    for (std::size_t i = 0; i < nl.pis().size(); ++i) sim.setNet(nl.pis()[i], PV::all(p.pis[i]));
    for (std::size_t i = 0; i < nl.flipFlops().size(); ++i)
        sim.setNet(nl.gate(nl.flipFlops()[i]).output, PV::all(p.state[i]));
    sim.propagate();
    std::vector<Logic> v(nl.netCount());
    for (NetId n = 0; n < nl.netCount(); ++n) v[n] = sim.get(n).get(0);
    return v;
}

TEST(Podem, VerdictsMatchExhaustiveSimulation) {
    // Independent oracle for PODEM's verdicts on circuits small enough to
    // enumerate: a Success pattern must detect its fault under fault
    // simulation, an Untestable fault must escape every source assignment,
    // and a justified value must appear when the pattern is simulated.
    std::vector<Netlist> circuits;
    circuits.push_back(makeS27(lib()));
    CircuitSpec a;
    a.name = "exh_a";
    a.n_pis = 5;
    a.n_pos = 3;
    a.n_ffs = 5;
    a.n_comb_gates = 40;
    a.depth = 6;
    a.seed = 3;
    circuits.push_back(generateCircuit(a, lib()));
    CircuitSpec b = a;
    b.name = "exh_b";
    b.n_pis = 6;
    b.n_ffs = 7;
    b.n_comb_gates = 70;
    b.depth = 9;
    b.seed = 8;
    circuits.push_back(generateCircuit(b, lib()));

    std::size_t untestable_total = 0;
    for (const Netlist& nl : circuits) {
        SCOPED_TRACE(nl.name());
        ASSERT_LE(nl.pis().size() + nl.flipFlops().size(), 16u);
        const std::vector<Pattern> all = exhaustivePatterns(nl);

        // Which values each net can take over all source assignments.
        std::vector<std::array<bool, 2>> reachable(nl.netCount(), {false, false});
        for (const Pattern& p : all) {
            const auto v = simulate(nl, p);
            for (NetId n = 0; n < nl.netCount(); ++n)
                reachable[n][v[n] == Logic::One ? 1 : 0] = true;
        }

        Podem podem(nl);
        Rng rng(31);
        std::vector<FaultSite> untestable;
        std::size_t successes = 0;
        for (const FaultSite& f : allStuckAtFaults(nl)) {
            Pattern p;
            const PodemOutcome out = podem.generate(f, p);
            if (out == PodemOutcome::Untestable) untestable.push_back(f);
            if (out != PodemOutcome::Success) continue;
            ++successes;
            fillRandom(p, rng);
            const Pattern one[1] = {p};
            const FaultSite fs[1] = {f};
            EXPECT_EQ(runStuckAtFaultSim(nl, one, fs).detected, 1u) << toString(nl, f);
        }
        EXPECT_GT(successes, 0u);
        const FaultSimResult escaped = runStuckAtFaultSim(nl, all, untestable);
        for (std::size_t i = 0; i < untestable.size(); ++i)
            EXPECT_FALSE(escaped.detected_mask[i]) << "untestable but detected: "
                                                   << toString(nl, untestable[i]);
        untestable_total += untestable.size();

        for (NetId n = 0; n < nl.netCount(); ++n) {
            for (const Logic v : {Logic::Zero, Logic::One}) {
                Pattern p;
                const PodemOutcome out = podem.justify(n, v, p);
                const bool can = reachable[n][v == Logic::One ? 1 : 0];
                if (out == PodemOutcome::Untestable) {
                    EXPECT_FALSE(can) << nl.net(n).name << " = " << toChar(v);
                }
                if (out != PodemOutcome::Success) continue;
                fillRandom(p, rng);
                EXPECT_EQ(simulate(nl, p)[n], v) << nl.net(n).name << " = " << toChar(v);
            }
        }
    }
    // The generated circuits carry redundancy, so the untestable branch of
    // the oracle is exercised too.
    EXPECT_GT(untestable_total, 0u);
}

/// FNV-1a over what a sequence of PODEM calls decides: each call's outcome,
/// backtrack count and, on success, the pattern bits.
class CallDigest {
public:
    void add(PodemOutcome out, const Podem& podem, const Pattern& p) {
        mix(static_cast<std::uint64_t>(out));
        mix(podem.backtracksUsed());
        if (out != PodemOutcome::Success) return;
        for (const Logic l : p.pis) mix(static_cast<std::uint64_t>(l));
        for (const Logic l : p.state) mix(static_cast<std::uint64_t>(l));
    }
    [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

private:
    void mix(std::uint64_t x) {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (x >> (8 * i)) & 0xFF;
            h_ *= 1099511628211ULL;
        }
    }
    std::uint64_t h_ = 14695981039346656037ULL;
};

void expectDigest(const CallDigest& d, std::uint64_t want, const std::string& what) {
    char got[32];
    std::snprintf(got, sizeof got, "0x%016llxULL", static_cast<unsigned long long>(d.value()));
    EXPECT_EQ(d.value(), want) << what << " digest " << got;
}

TEST(Podem, PerCallSearchIsStable) {
    // Implication-cost optimizations must leave every call's search alone:
    // the verdict, the backtrack count and the pattern of each call below
    // are pinned to digests recorded before the simulator was restricted to
    // the gates the search reads. 100 backtracks keep the aborts (the
    // longest searches) in the sample at a fraction of the default's cost.
    const PodemConfig cfg{.max_backtracks = 100};
    const std::array<std::pair<const char*, std::uint64_t>, 3> generate_digests = {{
        {"s298", 0xa598a8bfca46927eULL},
        {"s641", 0xdd0b8cfc38c2ac87ULL},
        {"s1423", 0x5288c5442417fb82ULL},
    }};
    for (const auto& [name, want] : generate_digests) {
        const Netlist nl = makeCircuit(name, lib());
        Podem podem(nl, cfg);
        CallDigest d;
        for (const FaultSite& f : allStuckAtFaults(nl)) {
            Pattern p;
            d.add(podem.generate(f, p), podem, p);
        }
        expectDigest(d, want, std::string("generate ") + name);
    }

    {
        const Netlist nl = makeCircuit("s641", lib());
        Podem podem(nl, cfg);
        CallDigest d;
        for (NetId n = 0; n < nl.netCount(); ++n)
            for (const Logic v : {Logic::Zero, Logic::One}) {
                Pattern p;
                d.add(podem.justify(n, v, p), podem, p);
            }
        expectDigest(d, 0xfe039148836ceb91ULL, "justify s641");
    }

    // s838's deep scan chain makes the constrained shapes hard: broadside
    // justifies next-state bits at the FF D inputs, skewed load justifies a
    // site value with the flip-flop outputs frozen.
    const Netlist nl = makeCircuit("s838", lib());
    const auto& ffs = nl.flipFlops();
    Podem podem(nl, cfg);
    Rng rng(41);
    CallDigest broadside;
    CallDigest skewed;
    for (NetId site = 0; site < nl.netCount(); site += 7) {
        const Logic want = rng.chance(0.5) ? Logic::One : Logic::Zero;
        std::vector<std::pair<NetId, Logic>> objectives;
        for (const GateId ff : ffs)
            if (rng.chance(0.5))
                objectives.push_back(
                    {nl.gate(ff).inputs[0], rng.chance(0.5) ? Logic::One : Logic::Zero});
        objectives.push_back({site, want});
        podem.clearFrozen();
        Pattern p;
        broadside.add(podem.justifyAll(objectives, p), podem, p);

        for (std::size_t i = 0; i + 1 < ffs.size(); ++i)
            podem.freeze(nl.gate(ffs[i + 1]).output,
                         rng.chance(0.5) ? Logic::One : Logic::Zero);
        Pattern q;
        skewed.add(podem.justify(site, want, q), podem, q);
    }
    expectDigest(broadside, 0x8787d1eead23d189ULL, "broadside justifyAll s838");
    expectDigest(skewed, 0x72cbaa8b9c564641ULL, "frozen justify s838");
}

TEST(Podem, CountersShowTheRestrictedRegion) {
    // podem.region_gates sums each call's simulated gate count, so on s1423
    // (half its gates outside a typical fault's region) the mean region is
    // smaller than the circuit; podem.gate_evals sums propagate()'s work
    // and podem.calls counts generate/justify calls. podem.backtracks sums
    // each call's backtracksUsed(); every backtrack but a call's last flips
    // a distinct decision, so podem.decisions bounds it.
    const Netlist nl = makeCircuit("s1423", lib());
    const auto faults = collapsedStuckAtFaults(nl);
    obs::reset();
    obs::setEnabled(true);
    Podem podem(nl, PodemConfig{.max_backtracks = 20});
    std::uint64_t calls = 0;
    std::uint64_t backtracks = 0;
    for (std::size_t i = 0; i < faults.size(); i += 25, ++calls) {
        Pattern p;
        (void)podem.generate(faults[i], p);
        backtracks += podem.backtracksUsed();
    }
    Pattern p;
    (void)podem.justify(nl.pos().front(), Logic::One, p);
    backtracks += podem.backtracksUsed();
    ++calls;
    const std::uint64_t counted = obs::counter("podem.calls").value();
    const std::uint64_t evals = obs::counter("podem.gate_evals").value();
    const std::uint64_t region = obs::counter("podem.region_gates").value();
    const std::uint64_t decisions = obs::counter("podem.decisions").value();
    const std::uint64_t counted_backtracks = obs::counter("podem.backtracks").value();
    obs::setEnabled(false);
    obs::reset();
    EXPECT_EQ(counted, calls);
    EXPECT_GT(evals, 0u);
    EXPECT_GT(region, 0u);
    EXPECT_LT(region, calls * nl.combGates().size());
    EXPECT_EQ(counted_backtracks, backtracks);
    EXPECT_GT(backtracks, 0u);
    EXPECT_LE(backtracks, decisions + calls);
}

TEST(StuckAtpg, HighCoverageOnS27) {
    const Netlist nl = makeS27(lib());
    const auto faults = collapsedStuckAtFaults(nl);
    const StuckAtpgResult r = generateStuckAtTests(nl, faults);
    EXPECT_GT(r.coverage.coveragePct(), 97.0);
    EXPECT_FALSE(r.patterns.empty());
}

TEST(StuckAtpg, CoverageConfirmedByIndependentFaultSim) {
    const Netlist nl = makeCircuit("s298", lib());
    const auto faults = collapsedStuckAtFaults(nl);
    StuckAtpgConfig cfg;
    cfg.random_patterns = 64;
    const StuckAtpgResult r = generateStuckAtTests(nl, faults, cfg);
    const FaultSimResult check = runStuckAtFaultSim(nl, r.patterns, faults);
    EXPECT_EQ(check.detected, r.coverage.detected);
    // Synthetic random logic is redundancy-heavy: judge the ATPG by its
    // efficiency on *testable* faults (proven-untestable ones excluded).
    const double testable =
        static_cast<double>(faults.size()) - static_cast<double>(r.untestable);
    EXPECT_GT(100.0 * static_cast<double>(r.coverage.detected) / testable, 97.0);
    EXPECT_LE(r.aborted, faults.size() / 50);
}

class TransitionAtpgStyles : public ::testing::TestWithParam<TestApplication> {};

TEST_P(TransitionAtpgStyles, GeneratesValidPairs) {
    const TestApplication style = GetParam();
    const Netlist nl = makeS27(lib());
    const auto faults = allTransitionFaults(nl);
    TransitionAtpgConfig cfg;
    cfg.random_pairs = 32;
    const TransitionAtpgResult r = generateTransitionTests(nl, style, faults, cfg);
    for (const TwoPattern& tp : r.tests) EXPECT_TRUE(isValidPair(nl, style, tp));
    EXPECT_GT(r.coverage.coveragePct(), 40.0);
}

INSTANTIATE_TEST_SUITE_P(AllStyles, TransitionAtpgStyles,
                         ::testing::Values(TestApplication::EnhancedScan,
                                           TestApplication::Broadside,
                                           TestApplication::SkewedLoad));

TEST(TransitionAtpg, CoverageOrderingMatchesPaper) {
    // Section I: broadside suffers poor coverage; skewed-load is correlated;
    // enhanced scan (= FLH application) reaches the best coverage.
    // On a deep circuit with a long scan chain the constrained styles cannot
    // justify every pair (s298-sized circuits are too easy — everything
    // reaches full coverage and the ordering collapses).
    const Netlist nl = makeCircuit("s838", lib());
    const auto faults = allTransitionFaults(nl);
    TransitionAtpgConfig cfg;
    cfg.random_pairs = 32;
    cfg.justify_retries = 1;
    cfg.podem.max_backtracks = 60;
    const auto enh =
        generateTransitionTests(nl, TestApplication::EnhancedScan, faults, cfg);
    const auto skw = generateTransitionTests(nl, TestApplication::SkewedLoad, faults, cfg);
    const auto brd = generateTransitionTests(nl, TestApplication::Broadside, faults, cfg);
    EXPECT_GE(enh.coverage.detected, skw.coverage.detected);
    EXPECT_GE(skw.coverage.detected + 2, brd.coverage.detected);
    EXPECT_GT(enh.coverage.detected, brd.coverage.detected);
    // Constrained styles leave justification failures behind; enhanced scan
    // has none by construction.
    EXPECT_EQ(enh.justify_failures, 0u);
    EXPECT_GT(brd.justify_failures + skw.justify_failures, 0u);
}

TEST(TransitionAtpg, EnhancedScanGivesEveryFaultOneVerdict) {
    // Every fault ends detected, V2-untestable, V2-aborted, V1-untestable
    // or V1-aborted: a V1 justification of the initial value can fail
    // although V1 is unconstrained, and it is counted, not dropped. A fresh
    // Podem re-runs both searches on each undetected fault: none may pass
    // both, and the proofs must match the counters. Aborts are counted at
    // commit, and a later top-off test may still detect an aborted fault,
    // so detected + untestable + aborted + v1_untestable + v1_aborted
    // exceeds the fault count by exactly those.
    TransitionAtpgConfig cfg;
    cfg.podem.max_backtracks = 60;
    std::size_t v1_failures = 0;
    for (const char* circuit : {"s298", "s641", "s1423"}) {
        const Netlist nl = makeCircuit(circuit, lib());
        const auto faults = allTransitionFaults(nl);
        const auto r = generateTransitionTests(nl, TestApplication::EnhancedScan, faults, cfg);
        Podem podem(nl, cfg.podem);
        std::size_t untestable = 0, aborted = 0, v1_untestable = 0, v1_aborted = 0;
        for (std::size_t f = 0; f < faults.size(); ++f) {
            if (r.coverage.detected_mask[f]) continue;
            Pattern v2, v1;
            const PodemOutcome v2_out = podem.generate(faults[f].equivalentStuckAt(), v2);
            if (v2_out != PodemOutcome::Success) {
                ++(v2_out == PodemOutcome::Untestable ? untestable : aborted);
                continue;
            }
            const PodemOutcome v1_out = podem.justify(faults[f].net, faults[f].initialValue(), v1);
            ASSERT_NE(v1_out, PodemOutcome::Success)
                << circuit << " " << toString(nl, faults[f]) << ": undetected with no verdict";
            ++(v1_out == PodemOutcome::Untestable ? v1_untestable : v1_aborted);
        }
        EXPECT_EQ(r.untestable, untestable) << circuit;
        EXPECT_EQ(r.v1_untestable, v1_untestable) << circuit;
        EXPECT_GE(r.aborted, aborted) << circuit;
        EXPECT_GE(r.v1_aborted, v1_aborted) << circuit;
        v1_failures += r.v1_untestable + r.v1_aborted;
    }
    EXPECT_GT(v1_failures, 0u);
}

/// FNV-1a over everything a transition-ATPG run decides: the test set
/// and its counters.
std::uint64_t digest(const TransitionAtpgResult& r) {
    std::uint64_t h = 14695981039346656037ULL;
    const auto mix = [&](std::uint64_t x) {
        for (int i = 0; i < 8; ++i) {
            h ^= (x >> (8 * i)) & 0xFF;
            h *= 1099511628211ULL;
        }
    };
    const auto mixPattern = [&](const Pattern& p) {
        mix(p.pis.size());
        for (const Logic l : p.pis) mix(static_cast<std::uint64_t>(l));
        mix(p.state.size());
        for (const Logic l : p.state) mix(static_cast<std::uint64_t>(l));
    };
    mix(r.tests.size());
    for (const TwoPattern& tp : r.tests) {
        mixPattern(tp.v1);
        mixPattern(tp.v2);
    }
    for (const std::size_t c : {r.generated, r.aborted, r.untestable, r.justify_failures})
        mix(c);
    return h;
}

using DigestTable = std::array<std::pair<TestApplication, std::uint64_t>, 3>;

void expectDigests(const Netlist& nl, const TransitionAtpgConfig& cfg,
                   const DigestTable& expected) {
    const auto faults = allTransitionFaults(nl);
    for (const auto& [style, want] : expected) {
        const TransitionAtpgResult r = generateTransitionTests(nl, style, faults, cfg);
        char got[32];
        std::snprintf(got, sizeof got, "0x%016llxULL",
                      static_cast<unsigned long long>(digest(r)));
        EXPECT_EQ(digest(r), want)
            << nl.name() << " " << toString(style) << " threads " << cfg.threads << " digest "
            << got << " (tests " << r.tests.size() << ", generated " << r.generated
            << ", aborted " << r.aborted << ", untestable " << r.untestable
            << ", justify_failures " << r.justify_failures << ")";
    }
}

/// Lanes a traced run of `cfg` records: the calling thread's, plus one per
/// top-off worker it spawned.
std::size_t tracedLanes(const Netlist& nl, TestApplication style, const TransitionAtpgConfig& cfg) {
    obs::reset();
    obs::setEnabled(true);
    (void)generateTransitionTests(nl, style, allTransitionFaults(nl), cfg);
    obs::setEnabled(false);
    const std::size_t lanes = obs::laneCount();
    obs::reset();
    return lanes;
}

TEST(TransitionAtpg, TestSetDigestIsStable) {
    // Search-cost optimizations and the parallel top-off must not change a
    // single search decision: the test sets and counters are pinned to
    // digests of the serial loop.
    TransitionAtpgConfig cfg;
    cfg.justify_retries = 3;
    cfg.podem.max_backtracks = 60;
    // Recorded before the PODEM simulator and retry rework. 128 random
    // pairs leave under 512 faults, so the top-off stays serial.
    expectDigests(makeCircuit("s641", lib()), cfg,
                  {{{TestApplication::EnhancedScan, 0x33fa5cc5686817efULL},
                    {TestApplication::SkewedLoad, 0xded1041cd5a70615ULL},
                    {TestApplication::Broadside, 0x929063a5d7f05729ULL}}});
    // Recorded before the top-off could run in parallel. 4 random pairs
    // leave over 1024 faults, enough for four workers.
    cfg.random_pairs = 4;
    const Netlist s1423 = makeCircuit("s1423", lib());
    for (const unsigned threads : {1u, 4u}) {
        cfg.threads = threads;
        expectDigests(s1423, cfg,
                      {{{TestApplication::EnhancedScan, 0xed070e17f492c492ULL},
                        {TestApplication::SkewedLoad, 0x23ea2ab328a3ba67ULL},
                        {TestApplication::Broadside, 0x06a3c61cfb7ddb00ULL}}});
    }
    EXPECT_EQ(tracedLanes(s1423, TestApplication::EnhancedScan, cfg), 4u)
        << "the 4-thread run must spawn three workers";
}

/// Everything generateTransitionTests decides must match bit for bit.
void expectSameResult(const TransitionAtpgResult& got, const TransitionAtpgResult& want,
                      const std::string& what) {
    ASSERT_EQ(got.tests.size(), want.tests.size()) << what;
    for (std::size_t i = 0; i < got.tests.size(); ++i) {
        EXPECT_EQ(got.tests[i].v1.pis, want.tests[i].v1.pis) << what << " test " << i;
        EXPECT_EQ(got.tests[i].v1.state, want.tests[i].v1.state) << what << " test " << i;
        EXPECT_EQ(got.tests[i].v2.pis, want.tests[i].v2.pis) << what << " test " << i;
        EXPECT_EQ(got.tests[i].v2.state, want.tests[i].v2.state) << what << " test " << i;
    }
    EXPECT_EQ(got.generated, want.generated) << what;
    EXPECT_EQ(got.aborted, want.aborted) << what;
    EXPECT_EQ(got.untestable, want.untestable) << what;
    EXPECT_EQ(got.justify_failures, want.justify_failures) << what;
    EXPECT_EQ(got.coverage.detected, want.coverage.detected) << what;
    EXPECT_EQ(got.coverage.detected_mask, want.coverage.detected_mask) << what;
}

/// Runs `cfg` serially and at each thread count in `threads`, expecting the
/// parallel runs to reproduce the serial one.
void expectThreadInvariant(const Netlist& nl, TestApplication style, TransitionAtpgConfig cfg,
                           std::initializer_list<unsigned> threads) {
    const auto faults = allTransitionFaults(nl);
    cfg.threads = 1;
    const TransitionAtpgResult serial = generateTransitionTests(nl, style, faults, cfg);
    for (const unsigned t : threads) {
        cfg.threads = t;
        expectSameResult(generateTransitionTests(nl, style, faults, cfg), serial,
                         nl.name() + " " + toString(style) + " threads " + std::to_string(t));
    }
}

TEST(TransitionAtpg, ParallelTopOffMatchesSerial) {
    // Workers prepare faults speculatively and out of order; the in-order
    // commit must leave every decision exactly as the serial loop makes it.
    // 4 random pairs leave 650-700 top-off faults on s641 (two workers at
    // most) and 1000-1200 on s1423 (four), so every parallel count below
    // runs a real pool; 64 resolves to the per-fault cap.
    TransitionAtpgConfig cfg;
    cfg.random_pairs = 4;
    cfg.podem.max_backtracks = 20;
    for (const char* circuit : {"s641", "s1423"}) {
        const Netlist nl = makeCircuit(circuit, lib());
        for (const TestApplication style : {TestApplication::EnhancedScan,
                                            TestApplication::SkewedLoad,
                                            TestApplication::Broadside}) {
            expectThreadInvariant(nl, style, cfg, {1, 2, 4, 0, 64});
            cfg.threads = 2;
            EXPECT_EQ(tracedLanes(nl, style, cfg), 2u)
                << circuit << " " << toString(style) << ": no top-off pool ran";
        }
    }
}

TEST(TransitionAtpg, ParallelTopOffEdgeCases) {
    // Nothing left for the top-off after the random phase: the pool never
    // starts and the result is the random phase's alone.
    {
        const Netlist nl = makeS27(lib());
        TransitionAtpgConfig cfg;
        cfg.random_pairs = 512;
        const auto faults = allTransitionFaults(nl);
        cfg.threads = 4;
        const TransitionAtpgResult r =
            generateTransitionTests(nl, TestApplication::EnhancedScan, faults, cfg);
        EXPECT_EQ(r.coverage.detected, faults.size());
        EXPECT_EQ(r.generated, 0u);
        expectThreadInvariant(nl, TestApplication::EnhancedScan, cfg, {4, 0});
    }
    // No fill attempts: prepared faults only move the counters.
    {
        const Netlist nl = makeCircuit("s641", lib());
        TransitionAtpgConfig cfg;
        cfg.random_pairs = 4;
        cfg.justify_retries = 0;
        cfg.podem.max_backtracks = 60;
        for (const TestApplication style : {TestApplication::EnhancedScan,
                                            TestApplication::SkewedLoad,
                                            TestApplication::Broadside})
            expectThreadInvariant(nl, style, cfg, {2, 4});
    }
}

} // namespace
} // namespace flh
