#include "fault/parallel_sim.hpp"

#include "dft/scan.hpp"
#include "iscas/circuits.hpp"

#include <gtest/gtest.h>

namespace flh {
namespace {

const Library& lib() {
    static const Library l = makeDefaultLibrary();
    return l;
}

std::vector<TwoPattern> arbitraryPairs(const Netlist& nl, std::size_t count,
                                       std::uint64_t seed) {
    const auto v1s = randomPatterns(nl, count, seed);
    const auto v2s = randomPatterns(nl, count, seed + 1);
    std::vector<TwoPattern> tests;
    tests.reserve(count);
    for (std::size_t i = 0; i < count; ++i) tests.push_back(TwoPattern{v1s[i], v2s[i]});
    return tests;
}

FaultSimOptions threaded(unsigned n) {
    FaultSimOptions opts;
    opts.threads = n;
    opts.min_faults_per_worker = 1; // exercise the pool even on small lists
    return opts;
}

TEST(FaultSimOptions, ResolveThreads) {
    FaultSimOptions opts; // defaults: threads = 1
    EXPECT_EQ(opts.resolveThreads(100000), 1u);
    opts.threads = 8;
    EXPECT_EQ(opts.resolveThreads(100000), 8u);
    // Shrink floor: 8 requested, but 100 faults / 64 per worker -> 1.
    EXPECT_EQ(opts.resolveThreads(100), 1u);
    EXPECT_EQ(opts.resolveThreads(64 * 3), 3u);
    EXPECT_EQ(opts.resolveThreads(0), 1u); // never zero workers
    opts.threads = 0;                      // auto
    EXPECT_GE(opts.resolveThreads(100000), 1u);
}

TEST(FaultSimOptions, ResolveThreadsGuardsDegenerateKnobs) {
    // min_faults_per_worker == 0 disables the work-based clamp instead of
    // dividing by zero.
    FaultSimOptions opts;
    opts.threads = 4;
    opts.min_faults_per_worker = 0;
    EXPECT_EQ(opts.resolveThreads(1), 4u);
    EXPECT_EQ(opts.resolveThreads(0), 4u);
    // Auto thread count is >= 1 even where hardware_concurrency() reports 0.
    opts.threads = 0;
    opts.min_faults_per_worker = 1;
    EXPECT_GE(ExecPolicy::hardwareThreads(), 1u);
    EXPECT_EQ(opts.resolveThreads(1u << 20), ExecPolicy::hardwareThreads());
}

TEST(FaultSimOptions, ExecPolicyViewMirrorsLegacyFields) {
    // The legacy threads/min_faults_per_worker fields are thin aliases of
    // the shared ExecPolicy: both views must resolve identically.
    FaultSimOptions opts;
    opts.threads = 3;
    opts.min_faults_per_worker = 10;
    EXPECT_EQ(opts.exec().threads, 3u);
    EXPECT_EQ(opts.exec().min_items_per_worker, 10u);
    for (const std::size_t n : {0u, 5u, 25u, 1000u})
        EXPECT_EQ(opts.resolveThreads(n), opts.exec().resolveThreads(n)) << n;

    ExecPolicy p;
    p.threads = 7;
    p.min_items_per_worker = 2;
    opts.setExec(p);
    EXPECT_EQ(opts.threads, 7u);
    EXPECT_EQ(opts.min_faults_per_worker, 2u);
}

TEST(ParallelFaultSim, StuckAtDeterministicAcrossThreadCounts) {
    for (const char* name : {"s298", "s1423"}) {
        const Netlist nl = makeCircuit(name, lib());
        const auto pats = randomPatterns(nl, 96, 11);
        const auto faults = collapsedStuckAtFaults(nl);
        const FaultSimResult serial = runStuckAtFaultSim(nl, pats, faults);
        for (unsigned t : {2u, 4u, 8u}) {
            const FaultSimResult par = runStuckAtFaultSim(nl, pats, faults, threaded(t));
            EXPECT_EQ(par.detected, serial.detected) << name << " threads=" << t;
            EXPECT_EQ(par.detected_mask, serial.detected_mask) << name << " threads=" << t;
        }
    }
}

TEST(ParallelFaultSim, TransitionDeterministicAcrossThreadCounts) {
    for (const char* name : {"s298", "s1423"}) {
        const Netlist nl = makeCircuit(name, lib());
        const auto tests = arbitraryPairs(nl, 96, 17);
        const auto faults = allTransitionFaults(nl);
        const FaultSimResult serial = runTransitionFaultSim(nl, tests, faults);
        for (unsigned t : {2u, 4u, 8u}) {
            const FaultSimResult par = runTransitionFaultSim(nl, tests, faults, threaded(t));
            EXPECT_EQ(par.detected, serial.detected) << name << " threads=" << t;
            EXPECT_EQ(par.detected_mask, serial.detected_mask) << name << " threads=" << t;
        }
    }
}

TEST(ParallelFaultSim, AutoThreadCountMatchesSerial) {
    const Netlist nl = makeCircuit("s298", lib());
    const auto pats = randomPatterns(nl, 64, 23);
    const auto faults = collapsedStuckAtFaults(nl);
    FaultSimOptions opts;
    opts.threads = 0; // one worker per hardware thread
    const FaultSimResult par = runStuckAtFaultSim(nl, pats, faults, opts);
    const FaultSimResult serial = runStuckAtFaultSim(nl, pats, faults);
    EXPECT_EQ(par.detected_mask, serial.detected_mask);
}

TEST(ParallelFaultSim, NDetectCountsMatchBruteForce) {
    const Netlist nl = makeCircuit("s298", lib());
    const auto tests = arbitraryPairs(nl, 70, 29); // spans two 64-wide batches
    const auto faults = allTransitionFaults(nl);

    // Brute force: grade each test alone (valid mask = 1 slot) and sum.
    std::vector<std::size_t> want(faults.size(), 0);
    for (const TwoPattern& tp : tests) {
        const TwoPattern one[1] = {tp};
        const FaultSimResult r = runTransitionFaultSim(nl, one, faults);
        for (std::size_t f = 0; f < faults.size(); ++f)
            if (r.detected_mask[f]) ++want[f];
    }

    EXPECT_EQ(countTransitionDetections(nl, tests, faults), want);
    for (unsigned t : {2u, 4u}) {
        EXPECT_EQ(countTransitionDetections(nl, tests, faults, threaded(t)), want)
            << "threads=" << t;
    }
}

TEST(ParallelFaultSim, NDetectPositiveExactlyForDetectedFaults) {
    // counts[f] > 0 iff the dropping simulator reports f detected.
    const Netlist nl = makeCircuit("s298", lib());
    const auto tests = arbitraryPairs(nl, 48, 41);
    const auto faults = allTransitionFaults(nl);
    const auto counts = countTransitionDetections(nl, tests, faults, threaded(4));
    const FaultSimResult r = runTransitionFaultSim(nl, tests, faults, threaded(4));
    for (std::size_t f = 0; f < faults.size(); ++f)
        EXPECT_EQ(counts[f] > 0, r.detected_mask[f]) << "fault " << f;
}

TEST(ParallelFaultSim, EmptyFaultListAndEmptyPatternSet) {
    const Netlist nl = makeCircuit("s298", lib());
    const auto pats = randomPatterns(nl, 8, 3);
    const auto faults = collapsedStuckAtFaults(nl);
    const auto tests = arbitraryPairs(nl, 8, 5);
    const auto tfaults = allTransitionFaults(nl);
    const FaultSimOptions opts = threaded(4);

    const FaultSimResult no_faults =
        runStuckAtFaultSim(nl, pats, std::span<const FaultSite>{}, opts);
    EXPECT_EQ(no_faults.total, 0u);
    EXPECT_EQ(no_faults.detected, 0u);
    EXPECT_TRUE(no_faults.detected_mask.empty());

    const FaultSimResult no_pats =
        runStuckAtFaultSim(nl, std::span<const Pattern>{}, faults, opts);
    EXPECT_EQ(no_pats.total, faults.size());
    EXPECT_EQ(no_pats.detected, 0u);

    const FaultSimResult no_tests =
        runTransitionFaultSim(nl, std::span<const TwoPattern>{}, tfaults, opts);
    EXPECT_EQ(no_tests.detected, 0u);
    EXPECT_EQ(runTransitionFaultSim(nl, tests, std::span<const TransitionFault>{}, opts).total,
              0u);

    EXPECT_TRUE(
        countTransitionDetections(nl, tests, std::span<const TransitionFault>{}, opts).empty());
    const auto zero_counts =
        countTransitionDetections(nl, std::span<const TwoPattern>{}, tfaults, opts);
    EXPECT_EQ(zero_counts, std::vector<std::size_t>(tfaults.size(), 0));
}

TEST(ParallelFaultSim, MoreThreadsThanFaults) {
    const Netlist nl = makeS27(lib());
    const auto pats = randomPatterns(nl, 16, 7);
    const auto all = collapsedStuckAtFaults(nl);
    const std::vector<FaultSite> two(all.begin(), all.begin() + 2);
    const FaultSimResult par = runStuckAtFaultSim(nl, pats, two, threaded(16));
    const FaultSimResult serial = runStuckAtFaultSim(nl, pats, two);
    EXPECT_EQ(par.detected_mask, serial.detected_mask);
}

TEST(ParallelFaultSim, DeterministicAcrossThreadsAndWordWidths) {
    // The detected bitmap is a pure function of the pattern set: every
    // (threads, words) combination — reference grader included — must agree.
    Netlist nl = makeCircuit("s344", lib());
    insertScan(nl);
    const auto faults = allTransitionFaults(nl);
    const auto tests = arbitraryPairs(nl, 150, 17);

    FaultSimOptions oracle;
    oracle.words = 0;
    const FaultSimResult want = runTransitionFaultSim(nl, tests, faults, oracle);
    const auto want_counts = countTransitionDetections(nl, tests, faults, oracle);

    for (const unsigned threads : {1u, 2u, 4u}) {
        for (const unsigned words : {0u, 1u, 4u, 8u}) {
            FaultSimOptions opts = threaded(threads);
            opts.words = words;
            const FaultSimResult got = runTransitionFaultSim(nl, tests, faults, opts);
            ASSERT_EQ(got.detected_mask, want.detected_mask)
                << "threads " << threads << " words " << words;
            ASSERT_EQ(countTransitionDetections(nl, tests, faults, opts), want_counts)
                << "threads " << threads << " words " << words;
        }
    }
}

TEST(ParallelFaultSim, StressManyConcurrentRuns) {
    // ThreadSanitizer-friendly stress: repeated short parallel gradings with
    // maximal worker counts over the shared (read-only) netlist, including a
    // scan-inserted variant so SDFF sources are exercised concurrently too.
    Netlist nl = makeCircuit("s298", lib());
    insertScan(nl);
    const auto faults = allTransitionFaults(nl);
    const auto tests = arbitraryPairs(nl, 40, 53);
    const FaultSimResult want = runTransitionFaultSim(nl, tests, faults);
    for (int round = 0; round < 8; ++round) {
        const FaultSimResult got = runTransitionFaultSim(nl, tests, faults, threaded(8));
        ASSERT_EQ(got.detected_mask, want.detected_mask) << "round " << round;
    }
}

} // namespace
} // namespace flh
