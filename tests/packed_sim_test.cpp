// Word-packed engine tests: the SIMD block kernel against the scalar cell
// evaluator, PackedSim against PatternSim net-for-net, and the packed
// fault-simulation path against the scalar oracle bitmap-for-bitmap.
#include "fault/parallel_sim.hpp"
#include "iscas/circuits.hpp"
#include "sim/packed_sim.hpp"
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
    EXPECT_THROW(PackedSim(nl, 0), std::invalid_argument);
    EXPECT_THROW(PackedSim(nl, kMaxPackedWords + 1), std::invalid_argument);
    EXPECT_NO_THROW(PackedSim(nl, 1));
    EXPECT_NO_THROW(PackedSim(nl, kMaxPackedWords));
}

std::vector<std::vector<PV>> randomWordSources(const Netlist& nl, unsigned words, Rng& rng,
                                               bool with_x) {
    // sources[w][k]: word w's PV for source k (PIs then FF outputs).
    std::vector<std::vector<PV>> s(words);
    const std::size_t n = nl.pis().size() + nl.flipFlops().size();
    for (unsigned w = 0; w < words; ++w) {
        s[w].resize(n);
        for (PV& p : s[w]) p = with_x ? randomPv(rng) : PV{rng.next(), 0};
    }
    return s;
}

void applyWordSources(PackedSim& sim, const std::vector<std::vector<PV>>& src) {
    const Netlist& nl = sim.netlist();
    for (unsigned w = 0; w < src.size(); ++w) {
        std::size_t k = 0;
        for (const NetId pi : nl.pis()) sim.setNet(pi, w, src[w][k++]);
        for (const GateId ff : nl.flipFlops()) sim.setNet(nl.gate(ff).output, w, src[w][k++]);
    }
}

void applySources(PatternSim& sim, const std::vector<PV>& sources) {
    const Netlist& nl = sim.netlist();
    std::size_t k = 0;
    for (const NetId pi : nl.pis()) sim.setNet(pi, sources[k++]);
    for (const GateId ff : nl.flipFlops()) sim.setNet(nl.gate(ff).output, sources[k++]);
}

// Each word of the packed engine must match an independent PatternSim run of
// that word's sources — including X-laden sources.
void expectMatchesScalarPerWord(const Netlist& nl, unsigned words, std::uint64_t seed,
                                bool with_x) {
    PackedSim packed(nl, words);
    Rng rng(seed);
    for (int round = 0; round < 6; ++round) {
        const auto src = randomWordSources(nl, words, rng, with_x);
        applyWordSources(packed, src);
        packed.propagate();
        for (unsigned w = 0; w < words; ++w) {
            PatternSim ref(nl);
            applySources(ref, src[w]);
            ref.propagate();
            for (NetId n = 0; n < nl.netCount(); ++n)
                ASSERT_EQ(packed.get(n, w), ref.get(n))
                    << "net " << nl.net(n).name << " word " << w << " round " << round;
        }
    }
}

TEST(PackedSim, MatchesPatternSimPerWordOnS27) {
    for (const unsigned words : {1u, 4u, 8u}) expectMatchesScalarPerWord(makeS27(lib()), words, 100 + words, false);
}

TEST(PackedSim, MatchesPatternSimPerWordOnSyntheticCircuit) {
    const Netlist nl = makeCircuit("s298", lib());
    for (const unsigned words : {1u, 4u, 8u}) expectMatchesScalarPerWord(nl, words, 200 + words, false);
}

TEST(PackedSim, MatchesPatternSimWithUnknowns) {
    const Netlist nl = makeCircuit("s344", lib());
    for (const unsigned words : {1u, 4u, 8u}) expectMatchesScalarPerWord(nl, words, 300 + words, true);
}

TEST(PackedSim, EventDrivenSkipsUnaffectedLogic) {
    const Netlist nl = makeCircuit("s344", lib());
    PackedSim sim(nl, 4);
    Rng rng(303);
    applyWordSources(sim, randomWordSources(nl, 4, rng, false));
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

TEST(PackedSim, ClearFaultRestoresExactPreInjectState) {
    const Netlist nl = makeS27(lib());
    PackedSim sim(nl, 4);
    Rng rng(606);
    applyWordSources(sim, randomWordSources(nl, 4, rng, false));
    sim.propagate();
    std::vector<PV> before(nl.netCount() * 4);
    for (NetId n = 0; n < nl.netCount(); ++n)
        for (unsigned w = 0; w < 4; ++w) before[n * 4 + w] = sim.get(n, w);

    for (const FaultSite& f : {
             FaultSite{nl.gate(nl.topoOrder()[0]).output, kInvalidId, -1, true},
             FaultSite{nl.pis()[0], kInvalidId, -1, false},
             FaultSite{nl.gate(nl.topoOrder()[1]).inputs[0], nl.topoOrder()[1], 0, true},
         }) {
        sim.injectFault(f);
        sim.propagate();
        if (!f.isPinFault()) {
            for (unsigned w = 0; w < 4; ++w) {
                ASSERT_EQ(sim.get(f.net, w), PV::all(f.stuck_at_one ? Logic::One : Logic::Zero));
            }
        }
        sim.clearFault();
        for (NetId n = 0; n < nl.netCount(); ++n)
            for (unsigned w = 0; w < 4; ++w)
                ASSERT_EQ(sim.get(n, w), before[n * 4 + w]) << "net " << nl.net(n).name;
        sim.propagate();
        for (NetId n = 0; n < nl.netCount(); ++n)
            for (unsigned w = 0; w < 4; ++w) ASSERT_EQ(sim.get(n, w), before[n * 4 + w]);
    }
}

TEST(PackedSim, ToggleCountsImmuneToFaultGrading) {
    // Grading faults (inject / propagate / clear) must leave toggle counts
    // exactly as a fault-free run of the same stimuli would.
    const Netlist nl = makeS27(lib());
    Rng rng(909);
    const auto src_a = randomWordSources(nl, 4, rng, false);
    const auto src_b = randomWordSources(nl, 4, rng, false);

    PackedSim clean(nl, 4);
    clean.enableToggleCount(true);
    applyWordSources(clean, src_a);
    clean.propagate();
    applyWordSources(clean, src_b);
    clean.propagate();

    PackedSim graded(nl, 4);
    graded.enableToggleCount(true);
    applyWordSources(graded, src_a);
    graded.propagate();
    for (const GateId g : {nl.topoOrder()[0], nl.topoOrder()[2]}) {
        FaultSite f;
        f.net = nl.gate(g).output;
        f.stuck_at_one = true;
        graded.injectFault(f);
        graded.propagate();
        graded.clearFault();
    }
    applyWordSources(graded, src_b);
    graded.propagate();

    EXPECT_EQ(graded.totalToggles(), clean.totalToggles());
    EXPECT_EQ(graded.toggleCounts(), clean.toggleCounts());
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
// to the scalar oracle (words = 0), including for partial final blocks.
TEST(PackedFaultSim, StuckAtBitmapsMatchScalarOracle) {
    const Netlist nl = makeCircuit("s386", lib());
    const auto faults = collapsedStuckAtFaults(nl);
    for (const std::size_t count : {37u, 100u, 130u, 520u}) {
        const auto pats = randomPatterns(nl, count, 42 + count);
        FaultSimOptions scalar;
        scalar.words = 0;
        const FaultSimResult want = runStuckAtFaultSim(nl, pats, faults, scalar);
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
        FaultSimOptions scalar;
        scalar.words = 0;
        const FaultSimResult want = runTransitionFaultSim(nl, tests, faults, scalar);
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
    FaultSimOptions scalar;
    scalar.words = 0;
    const auto want = countTransitionDetections(nl, tests, faults, scalar);
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
