// Word-packed engine tests: the SIMD block kernel against the scalar cell
// evaluator, the simulator's word-count contract, multi-word simulators
// against one-word ones word-for-word (values, fault restore, toggle counts),
// and the packed fault-simulation path against the words = 0 reference grader
// bitmap-for-bitmap. The engine's per-word values and holds are checked
// against a naive oracle at several widths in sim_test.cpp.
#include "fault/parallel_sim.hpp"
#include "iscas/circuits.hpp"
#include "sim/pattern_sim.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace flh {
namespace {

const Library& lib() {
    static const Library l = makeDefaultLibrary();
    return l;
}

// Every combinational cell function with the arities the evaluator accepts.
struct FnArity {
    CellFn fn;
    std::size_t lo;
    std::size_t hi;
};

const std::vector<FnArity>& combFns() {
    static const std::vector<FnArity> fns = {
        {CellFn::Buf, 1, 1},   {CellFn::Inv, 1, 1},   {CellFn::And, 2, kMaxGateArity},
        {CellFn::Nand, 2, kMaxGateArity}, {CellFn::Or, 2, kMaxGateArity},
        {CellFn::Nor, 2, kMaxGateArity},  {CellFn::Xor, 2, kMaxGateArity},
        {CellFn::Xnor, 2, kMaxGateArity}, {CellFn::Aoi21, 3, 3}, {CellFn::Aoi22, 4, 4},
        {CellFn::Oai21, 3, 3}, {CellFn::Oai22, 4, 4},  {CellFn::Mux2, 3, 3},
    };
    return fns;
}

PV randomPv(Rng& rng) {
    const std::uint64_t x = rng.next() & rng.next(); // sparse unknowns
    return PV{rng.next() & ~x, x};
}

// The block kernel must agree with evalCell word-for-word at every width and
// at every SIMD level the host supports (scalar tail handling included).
TEST(LogicBlock, MatchesEvalCellAtEveryWidthAndSimdLevel) {
    const SimdLevel detected = detectedSimdLevel();
    Rng rng(11);
    for (const SimdLevel level : {SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512}) {
        if (level > detected) continue;
        setSimdLevel(level);
        ASSERT_EQ(activeSimdLevel(), level);
        for (const FnArity& fa : combFns()) {
            for (std::size_t arity = fa.lo; arity <= fa.hi; ++arity) {
                for (unsigned words = 1; words <= kMaxPackedWords; ++words) {
                    std::vector<std::vector<std::uint64_t>> iv(arity), ix(arity);
                    std::vector<const std::uint64_t*> pv(arity), px(arity);
                    std::vector<std::vector<PV>> per_word(words, std::vector<PV>(arity));
                    for (std::size_t i = 0; i < arity; ++i) {
                        iv[i].resize(words);
                        ix[i].resize(words);
                        for (unsigned w = 0; w < words; ++w) {
                            const PV p = randomPv(rng);
                            iv[i][w] = p.v;
                            ix[i][w] = p.x;
                            per_word[w][i] = p;
                        }
                        pv[i] = iv[i].data();
                        px[i] = ix[i].data();
                    }
                    std::vector<std::uint64_t> ov(words, ~0ULL), ox(words, ~0ULL);
                    evalCellBlock(fa.fn, pv.data(), px.data(), arity, ov.data(), ox.data(),
                                  words);
                    for (unsigned w = 0; w < words; ++w) {
                        const PV want = evalCell(fa.fn, per_word[w]);
                        ASSERT_EQ((PV{ov[w], ox[w]}), want)
                            << toString(fa.fn) << " arity " << arity << " words " << words
                            << " word " << w << " level " << toString(level);
                    }
                }
            }
        }
    }
    setSimdLevel(detected); // restore for the rest of the binary
}

TEST(PackedSim, CtorRejectsInvalidWordCounts) {
    const Netlist nl = makeS27(lib());
    EXPECT_THROW(PatternSim(nl, 0), std::invalid_argument);
    EXPECT_THROW(PatternSim(nl, kMaxPackedWords + 1), std::invalid_argument);
    EXPECT_NO_THROW(PatternSim(nl, 1));
    EXPECT_NO_THROW(PatternSim(nl, kMaxPackedWords));
}

std::vector<std::vector<PV>> randomWordSources(const Netlist& nl, unsigned words, Rng& rng) {
    // sources[w][k]: word w's PV for source k (PIs then FF outputs).
    std::vector<std::vector<PV>> s(words);
    const std::size_t n = nl.pis().size() + nl.flipFlops().size();
    for (unsigned w = 0; w < words; ++w) {
        s[w].resize(n);
        for (PV& p : s[w]) p = PV{rng.next(), 0};
    }
    return s;
}

void applyWordSources(PatternSim& sim, const std::vector<std::vector<PV>>& src) {
    const Netlist& nl = sim.netlist();
    for (unsigned w = 0; w < src.size(); ++w) {
        std::size_t k = 0;
        for (const NetId pi : nl.pis()) sim.setNet(pi, w, src[w][k++]);
        for (const GateId ff : nl.flipFlops()) sim.setNet(nl.gate(ff).output, w, src[w][k++]);
    }
}

TEST(PackedSim, EventDrivenSkipsUnaffectedLogic) {
    const Netlist nl = makeCircuit("s344", lib());
    PatternSim sim(nl, 4);
    Rng rng(303);
    applyWordSources(sim, randomWordSources(nl, 4, rng));
    const std::size_t full = sim.propagate();
    EXPECT_GT(full, 0u);
    EXPECT_EQ(sim.propagate(), 0u);
    // Flipping one word of one PI must evaluate only its cone.
    const NetId pi = nl.pis()[0];
    const PV cur = sim.get(pi, 2);
    sim.setNet(pi, 2, PV{~cur.v, 0});
    const std::size_t partial = sim.propagate();
    EXPECT_GT(partial, 0u);
    EXPECT_LT(partial, full);
}

/// Every net's value in every word, net-major.
std::vector<PV> snapshot(const PatternSim& sim) {
    std::vector<PV> out;
    for (NetId n = 0; n < sim.netlist().netCount(); ++n)
        for (unsigned w = 0; w < sim.words(); ++w) out.push_back(sim.get(n, w));
    return out;
}

// Packing must not couple words: each word of a multi-word simulator must
// match a one-word simulator fed only that word's sources, across
// re-applications on the same multi-word simulator.
void expectMatchesOneWordPerWord(const Netlist& nl, std::uint64_t seed) {
    for (const unsigned words : {2u, 4u, kMaxPackedWords}) {
        PatternSim packed(nl, words);
        Rng rng(seed + words);
        for (int round = 0; round < 6; ++round) {
            const auto src = randomWordSources(nl, words, rng);
            applyWordSources(packed, src);
            packed.propagate();
            for (unsigned w = 0; w < words; ++w) {
                PatternSim ref(nl);
                applyWordSources(ref, {src[w]});
                ref.propagate();
                for (NetId n = 0; n < nl.netCount(); ++n)
                    ASSERT_EQ(packed.get(n, w), ref.get(n)) << "net " << nl.net(n).name
                                                            << " words " << words << " word "
                                                            << w << " round " << round;
            }
        }
    }
}

TEST(PackedSim, MatchesPatternSimPerWordOnS27) { expectMatchesOneWordPerWord(makeS27(lib()), 100); }

TEST(PackedSim, MatchesPatternSimPerWordOnSyntheticCircuit) {
    expectMatchesOneWordPerWord(makeCircuit("s298", lib()), 200);
}

// Multi-word counterpart of PatternSim.ClearFaultRestoresExactPreInjectState:
// the stuck value must reach every word, and clearFault must restore every
// word bit-exact with no propagate() needed.
TEST(PackedSim, ClearFaultRestoresExactPreInjectState) {
    const Netlist nl = makeS27(lib());
    for (const unsigned words : {4u, kMaxPackedWords}) {
        PatternSim sim(nl, words);
        Rng rng(606);
        applyWordSources(sim, randomWordSources(nl, words, rng));
        sim.propagate();
        const std::vector<PV> before = snapshot(sim);

        for (const FaultSite& f : {
                 FaultSite{nl.gate(nl.topoOrder()[0]).output, kInvalidId, -1, true},
                 FaultSite{nl.pis()[0], kInvalidId, -1, false},
                 FaultSite{nl.gate(nl.topoOrder()[1]).inputs[0], nl.topoOrder()[1], 0, true},
             }) {
            sim.injectFault(f);
            sim.propagate();
            if (!f.isPinFault()) {
                for (unsigned w = 0; w < words; ++w)
                    ASSERT_EQ(sim.get(f.net, w),
                              PV::all(f.stuck_at_one ? Logic::One : Logic::Zero));
            }
            sim.clearFault();
            ASSERT_EQ(snapshot(sim), before) << "words " << words;
            EXPECT_EQ(sim.propagate(), 0u);
            ASSERT_EQ(snapshot(sim), before) << "words " << words;
        }
    }
}

// Multi-word counterpart of PatternSim.ToggleCountsImmuneToFaultGrading:
// grading faults (inject / propagate / clear) must leave the toggle counts
// of every word exactly as a fault-free run of the same stimuli would.
TEST(PackedSim, ToggleCountsImmuneToFaultGrading) {
    const Netlist nl = makeS27(lib());
    for (const unsigned words : {4u, kMaxPackedWords}) {
        Rng rng(909);
        const auto src_a = randomWordSources(nl, words, rng);
        const auto src_b = randomWordSources(nl, words, rng);

        PatternSim clean(nl, words);
        clean.enableToggleCount(true);
        applyWordSources(clean, src_a);
        clean.propagate();
        applyWordSources(clean, src_b);
        clean.propagate();

        PatternSim graded(nl, words);
        graded.enableToggleCount(true);
        applyWordSources(graded, src_a);
        graded.propagate();
        for (const GateId g : {nl.topoOrder()[0], nl.topoOrder()[2]}) {
            for (const bool sa1 : {false, true}) {
                FaultSite f;
                f.net = nl.gate(g).output;
                f.stuck_at_one = sa1;
                graded.injectFault(f);
                graded.propagate();
                graded.clearFault();
            }
        }
        applyWordSources(graded, src_b);
        graded.propagate();

        EXPECT_GT(clean.totalToggles(), 0u);
        EXPECT_EQ(graded.totalToggles(), clean.totalToggles()) << "words " << words;
        EXPECT_EQ(graded.toggleCounts(), clean.toggleCounts()) << "words " << words;
    }
}

// ---------------------------------------------------------- fault bitmaps ----

std::vector<TwoPattern> randomTests(const Netlist& nl, std::size_t count, std::uint64_t seed) {
    const auto v1 = randomPatterns(nl, count, seed);
    const auto v2 = randomPatterns(nl, count, seed ^ 0xABCD);
    std::vector<TwoPattern> tests(count);
    for (std::size_t i = 0; i < count; ++i) tests[i] = TwoPattern{v1[i], v2[i]};
    return tests;
}

// The packed engine at any width must produce the identical detected bitmap
// to the reference grader (words = 0), including for partial final blocks.
TEST(PackedFaultSim, StuckAtBitmapsMatchScalarOracle) {
    const Netlist nl = makeCircuit("s386", lib());
    const auto faults = collapsedStuckAtFaults(nl);
    for (const std::size_t count : {37u, 100u, 130u, 520u}) {
        const auto pats = randomPatterns(nl, count, 42 + count);
        FaultSimOptions reference;
        reference.words = 0;
        const FaultSimResult want = runStuckAtFaultSim(nl, pats, faults, reference);
        for (const unsigned words : {1u, 4u, 8u}) {
            FaultSimOptions opts;
            opts.words = words;
            const FaultSimResult got = runStuckAtFaultSim(nl, pats, faults, opts);
            EXPECT_EQ(got.detected, want.detected) << count << " patterns, words " << words;
            ASSERT_EQ(got.detected_mask, want.detected_mask)
                << count << " patterns, words " << words;
        }
    }
}

TEST(PackedFaultSim, TransitionBitmapsMatchScalarOracle) {
    const Netlist nl = makeCircuit("s510", lib());
    const auto faults = allTransitionFaults(nl);
    for (const std::size_t count : {50u, 130u}) {
        const auto tests = randomTests(nl, count, 7 + count);
        FaultSimOptions reference;
        reference.words = 0;
        const FaultSimResult want = runTransitionFaultSim(nl, tests, faults, reference);
        for (const unsigned words : {1u, 4u, 8u}) {
            FaultSimOptions opts;
            opts.words = words;
            const FaultSimResult got = runTransitionFaultSim(nl, tests, faults, opts);
            ASSERT_EQ(got.detected_mask, want.detected_mask)
                << count << " tests, words " << words;
        }
    }
}

TEST(PackedFaultSim, NDetectCountsMatchScalarOracle) {
    const Netlist nl = makeCircuit("s298", lib());
    const auto faults = allTransitionFaults(nl);
    const auto tests = randomTests(nl, 130, 99);
    FaultSimOptions reference;
    reference.words = 0;
    const auto want = countTransitionDetections(nl, tests, faults, reference);
    for (const unsigned words : {1u, 4u, 8u}) {
        FaultSimOptions opts;
        opts.words = words;
        const auto got = countTransitionDetections(nl, tests, faults, opts);
        ASSERT_EQ(got, want) << "words " << words;
    }
}

TEST(PackedFaultSim, ThreadCountDoesNotChangePackedBitmap) {
    const Netlist nl = makeCircuit("s386", lib());
    const auto faults = collapsedStuckAtFaults(nl);
    const auto pats = randomPatterns(nl, 200, 5);
    FaultSimOptions base;
    base.words = 8;
    base.min_faults_per_worker = 1; // force a real pool even on small lists
    const FaultSimResult want = runStuckAtFaultSim(nl, pats, faults, base);
    for (const unsigned threads : {2u, 4u}) {
        FaultSimOptions opts = base;
        opts.threads = threads;
        const FaultSimResult got = runStuckAtFaultSim(nl, pats, faults, opts);
        ASSERT_EQ(got.detected_mask, want.detected_mask) << "threads " << threads;
    }
}

} // namespace
} // namespace flh
