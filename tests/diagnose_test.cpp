#include "atpg/compaction.hpp"
#include "atpg/transition_atpg.hpp"
#include "diagnose/diagnose.hpp"
#include "dft/scan.hpp"
#include "iscas/circuits.hpp"

#include <gtest/gtest.h>

namespace flh {
namespace {

const Library& lib() {
    static const Library l = makeDefaultLibrary();
    return l;
}

Netlist scanned(const std::string& name) {
    Netlist nl = makeCircuit(name, lib());
    insertScan(nl);
    return nl;
}

// ------------------------------------------------------------- compaction --

TEST(Compaction, PreservesStuckAtCoverage) {
    const Netlist nl = scanned("s298");
    const auto faults = collapsedStuckAtFaults(nl);
    auto pats = randomPatterns(nl, 128, 5);
    const FaultSimResult before = runStuckAtFaultSim(nl, pats, faults);
    const CompactionStats st = compactStuckAtTests(nl, pats, faults);
    EXPECT_EQ(st.before, 128u);
    EXPECT_LT(st.after, st.before);
    EXPECT_EQ(st.detected, before.detected);
    const FaultSimResult after = runStuckAtFaultSim(nl, pats, faults);
    EXPECT_EQ(after.detected, before.detected);
}

TEST(Compaction, PreservesTransitionCoverage) {
    const Netlist nl = scanned("s298");
    const auto faults = allTransitionFaults(nl);
    TransitionAtpgConfig cfg;
    cfg.random_pairs = 96;
    auto r = generateTransitionTests(nl, TestApplication::EnhancedScan, faults, cfg);
    const std::size_t detected_before = r.coverage.detected;
    const CompactionStats st = compactTransitionTests(nl, r.tests, faults);
    EXPECT_EQ(st.detected, detected_before);
    EXPECT_LT(st.after, st.before);
    const FaultSimResult check = runTransitionFaultSim(nl, r.tests, faults);
    EXPECT_EQ(check.detected, detected_before);
}

TEST(Compaction, EmptyAndUselessPatterns) {
    const Netlist nl = scanned("s298");
    const auto faults = collapsedStuckAtFaults(nl);
    std::vector<Pattern> none;
    const CompactionStats st = compactStuckAtTests(nl, none, faults);
    EXPECT_EQ(st.before, 0u);
    EXPECT_EQ(st.after, 0u);
    // Duplicated patterns: only one survives.
    auto pats = randomPatterns(nl, 1, 9);
    pats.push_back(pats[0]);
    pats.push_back(pats[0]);
    const CompactionStats st2 = compactStuckAtTests(nl, pats, faults);
    EXPECT_EQ(st2.after, 1u);
}

// --------------------------------------------------------------- diagnose --

TEST(Diagnose, GoodResponsesMatchExpectedCapture) {
    const Netlist nl = scanned("s298");
    const auto pats = randomPatterns(nl, 8, 31);
    std::vector<TwoPattern> tests;
    for (std::size_t i = 0; i + 1 < pats.size(); i += 2)
        tests.push_back(TwoPattern{pats[i], pats[i + 1]});
    const auto good = simulateGoodResponses(nl, tests);
    ASSERT_EQ(good.size(), tests.size());
    for (std::size_t t = 0; t < tests.size(); ++t) {
        const auto expect_state = nextState(nl, tests[t].v2);
        // FF D part of the response (after the PO part).
        for (std::size_t i = 0; i < expect_state.size(); ++i)
            EXPECT_EQ(good[t][nl.pos().size() + i], expect_state[i]);
    }
}

TEST(Diagnose, InjectedFaultRanksFirst) {
    const Netlist nl = scanned("s298");
    const auto faults = allTransitionFaults(nl);
    TransitionAtpgConfig cfg;
    cfg.random_pairs = 64;
    const auto atpg = generateTransitionTests(nl, TestApplication::EnhancedScan, faults, cfg);

    Rng rng(77);
    int diagnosed = 0;
    int trials = 0;
    for (std::size_t f = 0; f < faults.size() && trials < 8; f += faults.size() / 8) {
        if (!atpg.coverage.detected_mask[f]) continue; // undetected => undiagnosable
        ++trials;
        const auto observed = simulateFaultyResponses(nl, atpg.tests, faults[f]);
        const DiagnosisResult d = diagnose(nl, atpg.tests, observed, faults);
        // The true fault must be in the best tie group (equivalent faults
        // can tie — that is correct behavior, not a miss).
        const std::size_t rank = d.rankOf(f);
        ASSERT_GT(rank, 0u);
        if (rank <= d.bestTieSize()) ++diagnosed;
        EXPECT_EQ(d.ranking.front().mismatching_tests,
                  d.ranking[d.rankOf(f) - 1].mismatching_tests)
            << toString(nl, faults[f]);
    }
    EXPECT_GE(trials, 4);
    EXPECT_EQ(diagnosed, trials);
}

TEST(Diagnose, GoodDieMatchesEverywhere) {
    // Diagnosing a die that matches the good machine: every candidate that
    // the tests detect must show mismatches; the ranking floor is 0 only
    // for faults the test set cannot see.
    const Netlist nl = scanned("s298");
    const auto faults = allTransitionFaults(nl);
    const auto pats = randomPatterns(nl, 32, 41);
    std::vector<TwoPattern> tests;
    for (std::size_t i = 0; i + 1 < pats.size(); i += 2)
        tests.push_back(TwoPattern{pats[i], pats[i + 1]});
    const auto good = simulateGoodResponses(nl, tests);
    const auto detected = runTransitionFaultSim(nl, tests, faults);
    const DiagnosisResult d = diagnose(nl, tests, good, faults);
    for (const Candidate& c : d.ranking) {
        if (detected.detected_mask[c.fault_index]) {
            EXPECT_GT(c.mismatching_tests, 0) << toString(nl, faults[c.fault_index]);
        } else {
            EXPECT_EQ(c.mismatching_tests, 0);
        }
    }
}

TEST(Diagnose, ShortPatternThrowsInvalidArgument) {
    const Netlist nl = scanned("s298");
    const auto faults = allTransitionFaults(nl);
    const auto pats = randomPatterns(nl, 2, 51);
    std::vector<TwoPattern> tests{TwoPattern{pats[0], pats[1]}};
    tests[0].v1.pis.pop_back();
    EXPECT_THROW((void)simulateFaultyResponses(nl, tests, faults[0]), std::invalid_argument);
    tests[0] = TwoPattern{pats[0], pats[1]};
    tests[0].v2.state.pop_back();
    EXPECT_THROW((void)simulateFaultyResponses(nl, tests, faults[0]), std::invalid_argument);
}

TEST(Diagnose, RejectsMismatchedObservations) {
    const Netlist nl = scanned("s298");
    const auto faults = allTransitionFaults(nl);
    const auto pats = randomPatterns(nl, 6, 61);
    const std::vector<TwoPattern> tests{TwoPattern{pats[0], pats[1]},
                                        TwoPattern{pats[2], pats[3]},
                                        TwoPattern{pats[4], pats[5]}};
    auto observed = simulateGoodResponses(nl, tests);
    ASSERT_EQ(observed[0].size(), nl.pos().size() + nl.flipFlops().size());
    EXPECT_NO_THROW((void)diagnose(nl, tests, observed, faults));

    // One response per test: a short list would be read past its end.
    const std::vector<Response> fewer(observed.begin(), observed.end() - 1);
    EXPECT_THROW((void)diagnose(nl, tests, fewer, faults), std::invalid_argument);
    // Each response |POs| + |FFs| wide.
    observed[1].pop_back();
    EXPECT_THROW((void)diagnose(nl, tests, observed, faults), std::invalid_argument);
}

} // namespace
} // namespace flh
