#include "fault/parallel_sim.hpp"

#include "dft/scan.hpp"
#include "iscas/circuits.hpp"

#include "obs/telemetry.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <ostream>

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

/// `arbitraryPairs` with about 12% of the source bits set to X, as the
/// differential fuzzer does.
std::vector<TwoPattern> xLadenPairs(const Netlist& nl, std::size_t count, std::uint64_t seed) {
    std::vector<TwoPattern> tests = arbitraryPairs(nl, count, seed);
    Rng rng(seed ^ 0x5E);
    for (TwoPattern& tp : tests)
        for (Pattern* p : {&tp.v1, &tp.v2}) {
            for (Logic& b : p->pis)
                if (rng.chance(0.12)) b = Logic::X;
            for (Logic& b : p->state)
                if (rng.chance(0.12)) b = Logic::X;
        }
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

    // Brute force: grade each test alone (valid mask = 1 slot) with the
    // reference grader, which shares no detection code with the packed
    // n-detect path, and sum.
    FaultSimOptions reference;
    reference.words = 0;
    std::vector<std::size_t> want(faults.size(), 0);
    for (const TwoPattern& tp : tests) {
        const TwoPattern one[1] = {tp};
        const FaultSimResult r = runTransitionFaultSim(nl, one, faults, reference);
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

TEST(ParallelFaultSim, ShortPatternsThrowAtEveryWidth) {
    // A pattern one PI or one state bit short is rejected by every grading
    // entry point at every width: the reference grader (0) and the packed
    // loaders, which would otherwise read past its end. The bad pattern sits
    // in the second 64-pattern block.
    const Netlist nl = makeCircuit("s298", lib());
    auto pats = randomPatterns(nl, 100, 3);
    pats[70].pis.pop_back();
    auto tests = arbitraryPairs(nl, 100, 5);
    tests[70].v2.state.pop_back();
    const auto faults = collapsedStuckAtFaults(nl);
    const auto tfaults = allTransitionFaults(nl);
    for (const unsigned words : {0u, 1u, 4u}) {
        SCOPED_TRACE(::testing::Message() << "words " << words);
        FaultSimOptions opts;
        opts.words = words;
        EXPECT_THROW((void)runStuckAtFaultSim(nl, pats, faults, opts), std::invalid_argument);
        EXPECT_THROW((void)runTransitionFaultSim(nl, tests, tfaults, opts),
                     std::invalid_argument);
        EXPECT_THROW((void)countTransitionDetections(nl, tests, tfaults, opts),
                     std::invalid_argument);
        if (words == 0) continue;
        TransitionGrader grader(std::make_shared<const SimTables>(nl), words);
        EXPECT_THROW(grader.loadBlock(tests, 64, 36), std::invalid_argument);
        EXPECT_NO_THROW(grader.loadBlock(tests, 0, 64));
    }
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

TEST(ParallelFaultSim, TransitionGradingMatchesReferenceOnXPairs) {
    // The packed grader grades a net's faults with one complement excursion
    // that leaves X slots alone; the reference grader injects each fault's
    // stuck-at value, X slots included. On X-laden pairs they must agree on
    // every mask and count, whatever the order of the fault list — shuffled
    // lists break up a net's pair, and one-polarity lists and duplicates
    // give groups of one or of the same fault twice.
    Netlist nl = makeCircuit("s344", lib());
    insertScan(nl);
    const auto tests = xLadenPairs(nl, 150, 61); // three words: a ragged last block
    const auto natural = allTransitionFaults(nl);
    std::vector<TransitionFault> reversed(natural.rbegin(), natural.rend());
    std::vector<TransitionFault> shuffled = natural;
    Rng(62).shuffle(shuffled);
    std::vector<TransitionFault> one_polarity;
    for (std::size_t i = 0; i < natural.size(); ++i)
        if ((natural[i].net + (i & 1)) % 2 == 0) one_polarity.push_back(natural[i]);
    std::vector<TransitionFault> duplicates;
    for (std::size_t i = 0; i < natural.size(); ++i) {
        duplicates.push_back(natural[i]);
        if (i % 3 == 0) duplicates.push_back(natural[i]);
    }
    const std::pair<const char*, const std::vector<TransitionFault>*> lists[] = {
        {"natural", &natural},           {"reversed", &reversed},
        {"shuffled", &shuffled},         {"one-polarity", &one_polarity},
        {"duplicates", &duplicates},
    };

    FaultSimOptions reference;
    reference.words = 0;
    for (const auto& [name, faults] : lists) {
        const FaultSimResult want = runTransitionFaultSim(nl, tests, *faults, reference);
        const auto want_counts = countTransitionDetections(nl, tests, *faults, reference);
        ASSERT_GT(want.detected, 0u) << name;
        for (const unsigned threads : {1u, 3u, 4u}) {
            for (const unsigned words : {1u, 4u, 8u}) {
                FaultSimOptions opts = threaded(threads);
                opts.words = words;
                const FaultSimResult got = runTransitionFaultSim(nl, tests, *faults, opts);
                EXPECT_EQ(got.detected, want.detected)
                    << name << " threads " << threads << " words " << words;
                ASSERT_EQ(got.detected_mask, want.detected_mask)
                    << name << " threads " << threads << " words " << words;
                ASSERT_EQ(countTransitionDetections(nl, tests, *faults, opts), want_counts)
                    << name << " threads " << threads << " words " << words;
            }
        }
    }
}

/// Grades the first `n_faults` transition faults of s1423 at `threads`
/// threads against the serial reference grader, stuck-at included, and
/// returns how many stripes the packed transition run used.
std::uint64_t expectStripedRunsMatchReference(std::size_t n_faults, unsigned threads) {
    const Netlist nl = makeCircuit("s1423", lib());
    const auto tests = xLadenPairs(nl, 70, 71);
    const auto all_tf = allTransitionFaults(nl);
    const std::vector<TransitionFault> tfaults(all_tf.begin(), all_tf.begin() + n_faults);
    const auto pats = randomPatterns(nl, 70, 72);
    const auto all_sa = collapsedStuckAtFaults(nl);
    const std::vector<FaultSite> sfaults(all_sa.begin(), all_sa.begin() + n_faults);

    FaultSimOptions reference;
    reference.words = 0;
    const FaultSimResult want_tf = runTransitionFaultSim(nl, tests, tfaults, reference);
    const auto want_counts = countTransitionDetections(nl, tests, tfaults, reference);
    const FaultSimResult want_sa = runStuckAtFaultSim(nl, pats, sfaults, reference);
    // The last fault closes the last chunk, the one a stripe bound could cut.
    EXPECT_GT(want_counts.back(), 0u) << "the last transition fault is never detected";
    EXPECT_TRUE(want_sa.detected_mask.back()) << "the last stuck-at fault is never detected";

    obs::Counter& stripes = obs::counter("fault_sim.stripes");
    const bool was_enabled = obs::enabled();
    std::uint64_t used = 0;
    for (const unsigned words : {0u, 1u, 4u}) {
        FaultSimOptions opts = threaded(threads);
        opts.words = words;
        obs::setEnabled(true);
        const std::uint64_t before = stripes.value();
        const FaultSimResult got_tf = runTransitionFaultSim(nl, tests, tfaults, opts);
        used = stripes.value() - before;
        obs::setEnabled(was_enabled);
        EXPECT_EQ(got_tf.detected_mask, want_tf.detected_mask) << "words " << words;
        EXPECT_EQ(countTransitionDetections(nl, tests, tfaults, opts), want_counts)
            << "words " << words;
        EXPECT_EQ(runStuckAtFaultSim(nl, pats, sfaults, opts).detected_mask,
                  want_sa.detected_mask)
            << "words " << words;
    }
    return used;
}

TEST(ParallelFaultSim, StripeFewerFaultsThanOneChunk) {
    // 11 faults fill part of one 64-fault chunk: one stripe, run inline.
    EXPECT_EQ(expectStripedRunsMatchReference(11, 4), 1u);
}

TEST(ParallelFaultSim, StripeRaggedLastChunk) {
    // 3 full chunks and a 7-fault one over 3 workers: worker 0 takes chunks
    // 0 and 3, the short one included.
    EXPECT_EQ(expectStripedRunsMatchReference(3 * 64 + 7, 3), 3u);
}

TEST(ParallelFaultSim, StripeMoreThreadsThanChunks) {
    // 2 chunks for 8 requested threads: one worker per chunk, none idle.
    EXPECT_EQ(expectStripedRunsMatchReference(64 + 31, 8), 2u);
}

/// The four grading counters one call adds.
struct GradeCounts {
    std::uint64_t detected = 0;
    std::uint64_t dropped = 0;
    std::uint64_t batches = 0;
    std::uint64_t graded = 0;

    bool operator==(const GradeCounts&) const = default;
};

std::ostream& operator<<(std::ostream& os, const GradeCounts& c) {
    return os << "{detected " << c.detected << ", dropped " << c.dropped << ", batches "
              << c.batches << ", graded " << c.graded << "}";
}

/// The counter deltas of `run()`, with telemetry on.
template <class Fn>
GradeCounts countersOf(const Fn& run) {
    obs::Counter& detected = obs::counter("fault_sim.faults_detected");
    obs::Counter& dropped = obs::counter("fault_sim.faults_dropped");
    obs::Counter& batches = obs::counter("fault_sim.batches");
    obs::Counter& graded = obs::counter("fault_sim.faults_graded");
    const GradeCounts before{detected.value(), dropped.value(), batches.value(), graded.value()};
    const bool was_enabled = obs::enabled();
    obs::setEnabled(true);
    run();
    obs::setEnabled(was_enabled);
    return {detected.value() - before.detected, dropped.value() - before.dropped,
            batches.value() - before.batches, graded.value() - before.graded};
}

TEST(ParallelFaultSim, CountersMatchAcrossWidths) {
    // s344 + scan: 882 collapsed stuck-at and 372 transition faults, 300
    // patterns: 5 blocks of one word, 2 blocks of four. Three threads deal
    // the 6 chunks of the transition list (and the 14 of the stuck-at list)
    // out to 3 stripes, so each counts its own batches. A fault counts as
    // graded when it is handed to a grader: at words = 0 that includes the
    // transition faults no slot of the block launches, which the reference
    // grader then rejects without a propagation, so words = 0 and words = 1
    // agree on every counter.
    Netlist nl = makeCircuit("s344", lib());
    insertScan(nl);
    const auto pats = randomPatterns(nl, 300, 83);
    const auto tests = arbitraryPairs(nl, 300, 89);
    const auto sfaults = collapsedStuckAtFaults(nl);
    const auto tfaults = allTransitionFaults(nl);
    ASSERT_EQ(sfaults.size(), 882u);
    ASSERT_EQ(tfaults.size(), 372u);

    struct Want {
        unsigned words;
        GradeCounts stuck_at;   ///< batches for one thread
        GradeCounts transition; ///< batches for one thread
        GradeCounts ndetect;    ///< batches for one thread
    };
    const Want wants[] = {
        {0, {757, 2885, 5, 1525}, {327, 1283, 5, 577}, {0, 0, 5, 1860}},
        {1, {757, 2885, 5, 1525}, {327, 1283, 5, 577}, {0, 0, 5, 1860}},
        {4, {757, 747, 2, 1017}, {327, 327, 2, 417}, {0, 0, 2, 744}},
    };
    for (const Want& want : wants) {
        for (const unsigned threads : {1u, 3u}) {
            FaultSimOptions opts = threaded(threads);
            opts.words = want.words;
            const auto scaled = [threads](GradeCounts c) {
                c.batches *= threads; // every stripe walks every block
                return c;
            };
            EXPECT_EQ(countersOf([&] { (void)runStuckAtFaultSim(nl, pats, sfaults, opts); }),
                      scaled(want.stuck_at))
                << "stuck-at words " << want.words << " threads " << threads;
            EXPECT_EQ(countersOf([&] { (void)runTransitionFaultSim(nl, tests, tfaults, opts); }),
                      scaled(want.transition))
                << "transition words " << want.words << " threads " << threads;
            EXPECT_EQ(
                countersOf([&] { (void)countTransitionDetections(nl, tests, tfaults, opts); }),
                scaled(want.ndetect))
                << "n-detect words " << want.words << " threads " << threads;
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
