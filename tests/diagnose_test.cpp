#include "atpg/compaction.hpp"
#include "atpg/transition_atpg.hpp"
#include "diagnose/diagnose.hpp"
#include "dft/scan.hpp"
#include "iscas/circuits.hpp"
#include "sim/pattern_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>
#include <utility>

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

/// Consecutive random patterns paired into `n` two-pattern tests.
std::vector<TwoPattern> randomPairs(const Netlist& nl, std::size_t n, std::uint64_t seed) {
    const auto pats = randomPatterns(nl, 2 * n, seed);
    std::vector<TwoPattern> tests;
    for (std::size_t i = 0; i < n; ++i) tests.push_back(TwoPattern{pats[2 * i], pats[2 * i + 1]});
    return tests;
}

// ------------------------------------------- test-at-a-time references --
//
// Diagnosis and compaction as the library ran them before they graded on
// the block driver, kept as their oracles: every test is simulated alone,
// V1 and V2 in separate one-word simulators, a launched slow net is
// injected as its equivalent stuck-at fault, and compaction fault-simulates
// one test at a time in reverse order.

/// The capture of the test loaded in `v1`/`v2` on a die with `fault`
/// (nullptr: the good die). A slow net shows only when V1 sets its initial
/// value; then the capture is V2's with the net stuck at that value.
Response referenceCapture(const PatternSim& v1, PatternSim& v2, const TransitionFault* fault) {
    if (!fault || v1.get(fault->net).get(0) != fault->initialValue()) return response(v2);
    v2.injectFault(fault->equivalentStuckAt());
    v2.propagate();
    Response r = response(v2);
    v2.clearFault();
    return r;
}

std::vector<Response> referenceResponses(const Netlist& nl, std::span<const TwoPattern> tests,
                                         const TransitionFault* fault) {
    PatternSim v1(nl);
    PatternSim v2(v1.tables());
    std::vector<Response> out;
    for (const TwoPattern& tp : tests) {
        loadPattern(v1, tp.v1);
        loadPattern(v2, tp.v2);
        out.push_back(referenceCapture(v1, v2, fault));
    }
    return out;
}

/// Candidates by mismatching tests, fewest first, ties in candidate order.
std::vector<Candidate> referenceRanking(const Netlist& nl, std::span<const TwoPattern> tests,
                                        std::span<const Response> observed,
                                        std::span<const TransitionFault> candidates) {
    std::vector<Candidate> ranking(candidates.size());
    for (std::size_t c = 0; c < candidates.size(); ++c) ranking[c].fault_index = c;
    PatternSim v1(nl);
    PatternSim v2(v1.tables());
    for (std::size_t t = 0; t < tests.size(); ++t) {
        loadPattern(v1, tests[t].v1);
        loadPattern(v2, tests[t].v2);
        for (std::size_t c = 0; c < candidates.size(); ++c)
            if (referenceCapture(v1, v2, &candidates[c]) != observed[t])
                ++ranking[c].mismatching_tests;
    }
    std::stable_sort(ranking.begin(), ranking.end(), [](const Candidate& a, const Candidate& b) {
        return a.mismatching_tests < b.mismatching_tests;
    });
    return ranking;
}

/// One test graded alone by the words = 0 reference graders, which share
/// no grading code with the packed ones.
FaultSimResult gradeAlone(const Netlist& nl, const Pattern& p, std::span<const FaultSite> faults) {
    return runStuckAtFaultSim(nl, {&p, 1}, faults, FaultSimOptions{.words = 0});
}

FaultSimResult gradeAlone(const Netlist& nl, const TwoPattern& t,
                          std::span<const TransitionFault> faults) {
    return runTransitionFaultSim(nl, {&t, 1}, faults, FaultSimOptions{.words = 0});
}

/// Reverse-order greedy pass: a test is kept iff, graded alone, it detects
/// a fault that no later kept test detects.
template <typename Test, typename Fault>
CompactionStats referenceCompact(const Netlist& nl, std::vector<Test>& tests,
                                 std::span<const Fault> faults) {
    CompactionStats stats;
    stats.before = tests.size();
    std::vector<bool> covered(faults.size(), false);
    std::vector<bool> keep(tests.size(), false);
    for (std::size_t i = tests.size(); i-- > 0;) {
        const FaultSimResult r = gradeAlone(nl, tests[i], faults);
        for (std::size_t f = 0; f < faults.size(); ++f) {
            if (r.detected_mask[f] && !covered[f]) {
                covered[f] = true;
                keep[i] = true;
            }
        }
    }
    std::vector<Test> kept;
    for (std::size_t i = 0; i < tests.size(); ++i)
        if (keep[i]) kept.push_back(tests[i]);
    tests = std::move(kept);
    stats.after = tests.size();
    stats.detected = static_cast<std::size_t>(std::count(covered.begin(), covered.end(), true));
    return stats;
}

bool sameTest(const Pattern& a, const Pattern& b) {
    return a.pis == b.pis && a.state == b.state;
}

bool sameTest(const TwoPattern& a, const TwoPattern& b) {
    return sameTest(a.v1, b.v1) && sameTest(a.v2, b.v2);
}

/// Compacts `tests` with the library and the reference; both must keep the
/// same tests and report the same stats.
template <typename Test, typename Fault>
void expectCompactionMatchesReference(const Netlist& nl, const std::vector<Test>& tests,
                                      std::span<const Fault> faults, const std::string& what) {
    std::vector<Test> got = tests;
    std::vector<Test> want = tests;
    CompactionStats st;
    if constexpr (std::is_same_v<Test, Pattern>)
        st = compactStuckAtTests(nl, got, faults);
    else
        st = compactTransitionTests(nl, got, faults);
    const CompactionStats ref = referenceCompact(nl, want, faults);
    EXPECT_EQ(st.before, ref.before) << what;
    EXPECT_EQ(st.after, ref.after) << what;
    EXPECT_EQ(st.detected, ref.detected) << what;
    EXPECT_LT(st.after, st.before) << what;
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_TRUE(sameTest(got[i], want[i])) << what << ": kept test " << i << " differs";
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

TEST(Compaction, MatchesTestAtATimeReference) {
    // 300 tests span two blocks of the default width; 130 end inside the
    // third word of one block, so the last detector is read from every
    // word position.
    for (const auto& [circuit, n] : {std::pair<const char*, std::size_t>{"s298", 300},
                                     {"s641", 130},
                                     {"s1423", 130}}) {
        const Netlist nl = scanned(circuit);
        const auto stuck = collapsedStuckAtFaults(nl);
        expectCompactionMatchesReference(nl, randomPatterns(nl, n, 7),
                                         std::span<const FaultSite>(stuck),
                                         std::string(circuit) + " stuck-at");
        const auto transition = allTransitionFaults(nl);
        expectCompactionMatchesReference(nl, randomPairs(nl, n, 8),
                                         std::span<const TransitionFault>(transition),
                                         std::string(circuit) + " transition");
    }
}

TEST(Compaction, LastDetectorsMatchAcrossWidthsAndThreads) {
    const Netlist nl = scanned("s298");
    const auto faults = allTransitionFaults(nl);
    const auto tests = randomPairs(nl, 200, 91);
    const auto want = lastDetectingPatterns(nl, tests, faults);
    EXPECT_NE(std::count(want.begin(), want.end(), kNoPattern),
              static_cast<std::ptrdiff_t>(want.size()));
    for (const unsigned words : {0U, 1U, 2U, 8U})
        for (const unsigned threads : {1U, 3U}) {
            FaultSimOptions opts;
            opts.words = words;
            opts.threads = threads;
            opts.min_faults_per_worker = 0;
            EXPECT_EQ(lastDetectingPatterns(nl, tests, faults, opts), want)
                << "words " << words << " threads " << threads;
        }
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

TEST(Diagnose, MatchesOnePatternReference) {
    // Every candidate, in order, against the one-pattern ranking, for a
    // good die and for injected faults; the dies' responses against the
    // one-pattern response maker. s27's 300 random tests span two blocks.
    for (const char* circuit : {"s27", "s298", "s344"}) {
        const Netlist nl = scanned(circuit);
        const auto faults = allTransitionFaults(nl);
        std::vector<TwoPattern> tests;
        if (std::string(circuit) == "s27") {
            tests = randomPairs(nl, 300, 71);
        } else {
            TransitionAtpgConfig cfg;
            cfg.random_pairs = 32;
            tests = generateTransitionTests(nl, TestApplication::EnhancedScan, faults, cfg).tests;
        }
        const auto detected = runTransitionFaultSim(nl, tests, faults);
        const auto expectRanking = [&](std::span<const Response> observed,
                                       const std::string& die) {
            const DiagnosisResult d = diagnose(nl, tests, observed, faults);
            const std::vector<Candidate> want = referenceRanking(nl, tests, observed, faults);
            ASSERT_EQ(d.ranking.size(), want.size());
            for (std::size_t i = 0; i < want.size(); ++i) {
                EXPECT_EQ(d.ranking[i].fault_index, want[i].fault_index)
                    << circuit << " " << die << " rank " << i;
                EXPECT_EQ(d.ranking[i].mismatching_tests, want[i].mismatching_tests)
                    << circuit << " " << die << " rank " << i;
            }
        };

        const std::vector<Response> good = referenceResponses(nl, tests, nullptr);
        EXPECT_EQ(simulateGoodResponses(nl, tests), good) << circuit;
        expectRanking(good, "good die");
        int dies = 0;
        for (std::size_t f = 0; f < faults.size() && dies < 3; f += faults.size() / 5 + 1) {
            while (f < faults.size() && !detected.detected_mask[f]) ++f;
            if (f == faults.size()) break;
            ++dies;
            const std::vector<Response> observed = referenceResponses(nl, tests, &faults[f]);
            EXPECT_EQ(simulateFaultyResponses(nl, tests, faults[f]), observed)
                << circuit << " " << toString(nl, faults[f]);
            expectRanking(observed, toString(nl, faults[f]));
        }
        EXPECT_EQ(dies, 3) << circuit;
    }
}

TEST(Diagnose, MismatchCountsMatchAcrossWidthsAndThreads) {
    const Netlist nl = scanned("s298");
    const auto faults = allTransitionFaults(nl);
    const auto tests = randomPairs(nl, 200, 81);
    const auto observed = simulateFaultyResponses(nl, tests, faults[faults.size() / 2]);
    const auto want = countMismatchingTests(nl, tests, observed, faults);
    for (const unsigned words : {0U, 1U, 2U, 8U})
        for (const unsigned threads : {1U, 3U}) {
            FaultSimOptions opts;
            opts.words = words;
            opts.threads = threads;
            opts.min_faults_per_worker = 0;
            EXPECT_EQ(countMismatchingTests(nl, tests, observed, faults, opts), want)
                << "words " << words << " threads " << threads;
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
