#include "fault/fault_sim.hpp"
#include "sim/sequential.hpp"
#include "util/rng.hpp"
#include "iscas/circuits.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace flh {
namespace {

const Library& lib() {
    static const Library l = makeDefaultLibrary();
    return l;
}

TEST(Faults, UniverseSizes) {
    const Netlist nl = makeS27(lib());
    const auto all = allStuckAtFaults(nl);
    const auto collapsed = collapsedStuckAtFaults(nl);
    EXPECT_GT(all.size(), collapsed.size());
    EXPECT_GE(collapsed.size(), 2 * nl.netCount());
    EXPECT_EQ(allTransitionFaults(nl).size(), 2 * nl.netCount());
}

TEST(Faults, Names) {
    const Netlist nl = makeS27(lib());
    FaultSite f;
    f.net = *nl.findNet("G10");
    f.stuck_at_one = true;
    EXPECT_EQ(toString(nl, f), "G10/1");
    EXPECT_EQ(toString(nl, TransitionFault{f.net, Transition::SlowToRise}), "G10 STR");
}

TEST(Faults, TransitionEquivalentStuckAt) {
    const TransitionFault str{3, Transition::SlowToRise};
    EXPECT_FALSE(str.equivalentStuckAt().stuck_at_one);
    EXPECT_EQ(str.initialValue(), Logic::Zero);
    const TransitionFault stf{3, Transition::SlowToFall};
    EXPECT_TRUE(stf.equivalentStuckAt().stuck_at_one);
    EXPECT_EQ(stf.initialValue(), Logic::One);
}

TEST(FaultSim, DetectsObviousFault) {
    // y = NOT(a): a/0 detected by a=1, a/1 by a=0; y faults likewise.
    Netlist nl("inv", lib());
    const NetId a = nl.addPi("a");
    const NetId y = nl.addNet("y");
    nl.addGate(CellFn::Inv, {a}, y);
    nl.markPo(y);

    Pattern p0{{Logic::Zero}, {}};
    Pattern p1{{Logic::One}, {}};
    const std::vector<Pattern> pats = {p0, p1};
    const auto faults = allStuckAtFaults(nl);
    const FaultSimResult r = runStuckAtFaultSim(nl, pats, faults);
    EXPECT_EQ(r.detected, r.total); // two complementary patterns catch all
}

TEST(FaultSim, UndetectableWithoutTheRightPattern) {
    Netlist nl("inv", lib());
    const NetId a = nl.addPi("a");
    const NetId y = nl.addNet("y");
    nl.addGate(CellFn::Inv, {a}, y);
    nl.markPo(y);

    FaultSite f;
    f.net = a;
    f.stuck_at_one = true; // needs a=0 to detect
    const std::vector<Pattern> pats = {Pattern{{Logic::One}, {}}};
    const std::vector<FaultSite> faults = {f};
    EXPECT_EQ(runStuckAtFaultSim(nl, pats, faults).detected, 0u);
}

TEST(FaultSim, RandomPatternsGetHighCoverageOnS27) {
    const Netlist nl = makeS27(lib());
    const auto pats = randomPatterns(nl, 64, 5);
    const auto faults = collapsedStuckAtFaults(nl);
    const FaultSimResult r = runStuckAtFaultSim(nl, pats, faults);
    EXPECT_GT(r.coveragePct(), 90.0);
}

TEST(FaultSim, MorePatternsNeverReduceCoverage) {
    const Netlist nl = makeCircuit("s298", lib());
    const auto faults = collapsedStuckAtFaults(nl);
    const auto p32 = randomPatterns(nl, 32, 9);
    auto p128 = randomPatterns(nl, 32, 9);
    const auto more = randomPatterns(nl, 96, 10);
    p128.insert(p128.end(), more.begin(), more.end());
    const auto r32 = runStuckAtFaultSim(nl, p32, faults);
    const auto r128 = runStuckAtFaultSim(nl, p128, faults);
    EXPECT_GE(r128.detected, r32.detected);
    // Every fault detected by the prefix stays detected.
    for (std::size_t i = 0; i < faults.size(); ++i)
        if (r32.detected_mask[i]) {
            EXPECT_TRUE(r128.detected_mask[i]);
        }
}

TEST(FaultSim, PatternCountBeyond64UsesMultipleBatches) {
    const Netlist nl = makeCircuit("s298", lib());
    const auto faults = collapsedStuckAtFaults(nl);
    const auto pats = randomPatterns(nl, 130, 12); // 3 batches
    const auto r = runStuckAtFaultSim(nl, pats, faults);
    EXPECT_GT(r.coveragePct(), 50.0);
}

// ------------------------------------------------------------ two-pattern ---

TEST(TwoPatternSim, NextStateMatchesSequentialSim) {
    const Netlist nl = makeS27(lib());
    const auto pats = randomPatterns(nl, 10, 3);
    for (const Pattern& p : pats) {
        const auto ns = nextState(nl, p);
        SequentialSim seq(nl);
        std::vector<PV> st(p.state.size());
        for (std::size_t i = 0; i < st.size(); ++i) st[i] = PV::all(p.state[i]);
        seq.setState(st);
        std::vector<PV> pis(p.pis.size());
        for (std::size_t i = 0; i < pis.size(); ++i) pis[i] = PV::all(p.pis[i]);
        seq.setPis(pis);
        seq.settle();
        // response(): the settled POs, then the next state.
        const std::vector<Logic> r = response(nl, p);
        const std::vector<PV> obs = seq.observe();
        ASSERT_EQ(r.size(), nl.pos().size() + ns.size());
        ASSERT_EQ(obs.size(), r.size());
        for (std::size_t i = 0; i < r.size(); ++i) EXPECT_EQ(obs[i].get(0), r[i]);
        EXPECT_TRUE(std::equal(ns.begin(), ns.end(), r.begin() + nl.pos().size()));
        seq.clock();
        for (std::size_t i = 0; i < ns.size(); ++i) EXPECT_EQ(seq.state()[i].get(0), ns[i]);
    }
}

TEST(TwoPatternSim, ShortPatternThrowsInvalidArgument) {
    const Netlist nl = makeS27(lib());
    const Pattern good = randomPatterns(nl, 1, 5)[0];
    Pattern short_pis = good;
    short_pis.pis.pop_back();
    Pattern short_state = good;
    short_state.state.pop_back();
    EXPECT_THROW((void)nextState(nl, short_pis), std::invalid_argument);
    EXPECT_THROW((void)nextState(nl, short_state), std::invalid_argument);
    EXPECT_THROW((void)response(nl, short_pis), std::invalid_argument);
    PatternSim sim(nl);
    EXPECT_THROW(loadPattern(sim, short_state), std::invalid_argument);
    EXPECT_NO_THROW(loadPattern(sim, good));
}

TEST(TwoPatternSim, MakePairRespectsConstraints) {
    const Netlist nl = makeS27(lib());
    const auto pats = randomPatterns(nl, 5, 21);
    const std::vector<Logic> v2pis(nl.pis().size(), Logic::One);
    for (const Pattern& v1 : pats) {
        for (const TestApplication style :
             {TestApplication::EnhancedScan, TestApplication::Broadside,
              TestApplication::SkewedLoad}) {
            const TwoPattern tp = makePair(nl, style, v1, v2pis, Logic::One);
            EXPECT_TRUE(isValidPair(nl, style, tp)) << toString(style);
        }
    }
}

TEST(TwoPatternSim, SkewedLoadShiftDirectionMatchesScanChain) {
    const Netlist nl = makeS27(lib());
    Pattern v1;
    v1.pis.assign(nl.pis().size(), Logic::Zero);
    v1.state = {Logic::Zero, Logic::One, Logic::Zero};
    const TwoPattern tp =
        makePair(nl, TestApplication::SkewedLoad, v1, v1.pis, Logic::One);
    EXPECT_EQ(tp.v2.state[0], Logic::One);  // was state[1]
    EXPECT_EQ(tp.v2.state[1], Logic::Zero); // was state[2]
    EXPECT_EQ(tp.v2.state[2], Logic::One);  // the scan-in bit
}

TEST(TwoPatternSim, TransitionNeedsInitialization) {
    // y = NOT(a). Slow-to-rise at a needs V1 a=0 and V2 a=1.
    Netlist nl("inv", lib());
    const NetId a = nl.addPi("a");
    const NetId y = nl.addNet("y");
    nl.addGate(CellFn::Inv, {a}, y);
    nl.markPo(y);
    const std::vector<TransitionFault> faults = {{a, Transition::SlowToRise}};

    TwoPattern good;
    good.v1 = Pattern{{Logic::Zero}, {}};
    good.v2 = Pattern{{Logic::One}, {}};
    const std::vector<TwoPattern> ok = {good};
    EXPECT_EQ(runTransitionFaultSim(nl, ok, faults).detected, 1u);

    TwoPattern bad = good;
    bad.v1.pis[0] = Logic::One; // no 0->1 transition launched
    const std::vector<TwoPattern> nope = {bad};
    EXPECT_EQ(runTransitionFaultSim(nl, nope, faults).detected, 0u);
}

TEST(TwoPatternSim, ArbitraryPairsBeatConstrainedOnes) {
    // With the same number of random tests, enhanced-scan (arbitrary) pairs
    // should cover at least as many transition faults as broadside pairs —
    // the paper's motivating observation.
    const Netlist nl = makeCircuit("s298", lib());
    const auto faults = allTransitionFaults(nl);
    Rng rng(31);

    std::vector<TwoPattern> arb;
    std::vector<TwoPattern> brd;
    const auto v1s = randomPatterns(nl, 48, 100);
    const auto v2s = randomPatterns(nl, 48, 200);
    for (std::size_t i = 0; i < v1s.size(); ++i) {
        arb.push_back(TwoPattern{v1s[i], v2s[i]});
        brd.push_back(makePair(nl, TestApplication::Broadside, v1s[i], v2s[i].pis));
    }
    const auto r_arb = runTransitionFaultSim(nl, arb, faults);
    const auto r_brd = runTransitionFaultSim(nl, brd, faults);
    EXPECT_GE(r_arb.detected + 2, r_brd.detected); // allow tiny noise
}

} // namespace
} // namespace flh
