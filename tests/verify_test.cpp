// Tests for the verification library (src/verify/): the DFT equivalence
// checker, the cross-engine fuzzer, the reproducer shrinker, and the
// committed corpus under tests/corpus/ (path injected as FLH_CORPUS_DIR).
#include "verify/corpus.hpp"
#include "verify/equivalence.hpp"
#include "verify/fuzz.hpp"
#include "verify/shrink.hpp"

#include "cell/cells.hpp"
#include "core/test_application.hpp"
#include "dft/scan.hpp"
#include "iscas/circuits.hpp"
#include "netlist/bench_io.hpp"
#include "sim/pattern_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace flh {
namespace {

const Library& lib() {
    static const Library l = makeDefaultLibrary();
    return l;
}

Netlist scannedFuzzCircuit(std::uint64_t seed) {
    Netlist nl = generateCircuit(fuzzSpec(seed), lib());
    insertScan(nl);
    return nl;
}

bool bitsEqual(const std::vector<Logic>& a, const std::vector<Logic>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i] != b[i]) return false;
    return true;
}

bool pairsEqual(const std::vector<TwoPattern>& a, const std::vector<TwoPattern>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (!bitsEqual(a[i].v1.pis, b[i].v1.pis) || !bitsEqual(a[i].v1.state, b[i].v1.state) ||
            !bitsEqual(a[i].v2.pis, b[i].v2.pis) || !bitsEqual(a[i].v2.state, b[i].v2.state))
            return false;
    return true;
}

/// Settled value of every net for one pattern, keyed by net name (so
/// original and gate-removed netlists can be compared structurally).
std::map<std::string, Logic> settledValues(const Netlist& nl, const Pattern& p) {
    PatternSim sim(nl);
    for (std::size_t k = 0; k < p.pis.size(); ++k) sim.setNet(nl.pis()[k], PV::all(p.pis[k]));
    for (std::size_t k = 0; k < p.state.size(); ++k)
        sim.setNet(nl.gate(nl.flipFlops()[k]).output, PV::all(p.state[k]));
    sim.evalAll();
    std::map<std::string, Logic> out;
    for (NetId n = 0; n < nl.netCount(); ++n) out[nl.net(n).name] = sim.get(n).get(0);
    return out;
}

/// A two-input purely combinational circuit (no flip-flops at all).
Netlist makeCombOnly() {
    Netlist nl("comb_only", lib());
    const NetId a = nl.addPi("A");
    const NetId b = nl.addPi("B");
    const NetId x = nl.addNet("X1");
    const NetId y = nl.addNet("Y");
    nl.addGate(CellFn::Xor, {a, b}, x);
    nl.addGate(CellFn::Nand, {x, b}, y);
    nl.markPo(y);
    nl.check();
    return nl;
}

/// Predicate that re-derives an injected mutant on a (possibly shrunk)
/// candidate netlist by output-net name, then asks the equivalence checker
/// whether the corrupted FLH variant still mismatches.
FailurePredicate mutantPredicate(const MutantInfo& info) {
    return [info](const Netlist& nl, const std::vector<TwoPattern>& pairs) {
        const auto net = nl.findNet(info.output_net);
        if (!net) return false;
        const GateId g = nl.net(*net).driver;
        if (g == kInvalidId) return false; // promoted to a primary input
        if (nl.gate(g).fn != info.original) return false;
        Netlist mutated = nl;
        mutated.replaceGate(g, info.mutated, nl.gate(g).inputs);
        EquivalenceOptions opts;
        opts.styles = {HoldStyle::Flh};
        VariantNetlists variants;
        variants.flh = &mutated;
        return !checkDftEquivalence(nl, pairs, opts, variants).ok();
    };
}

// ---- corpus ------------------------------------------------------------

TEST(CorpusTest, LoadsSeedEntries) {
    const std::vector<CorpusEntry> entries = loadCorpus(FLH_CORPUS_DIR, lib());
    ASSERT_GE(entries.size(), 3u);

    std::vector<std::string> names;
    for (const CorpusEntry& e : entries) {
        names.push_back(e.name);
        EXPECT_FALSE(e.pairs.empty()) << e.name;
        EXPECT_FALSE(e.note.empty()) << e.name << " should document what it reproduces";
    }
    EXPECT_NE(std::find(names.begin(), names.end(), "sdff_loop"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "xor_cone"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "single_ff"), names.end());
}

TEST(CorpusTest, EntriesRoundTripThroughBenchIo) {
    for (const CorpusEntry& e : loadCorpus(FLH_CORPUS_DIR, lib())) {
        const std::string once = writeBenchString(e.netlist);
        const Netlist reread = readBenchString(once, e.name, lib());
        EXPECT_EQ(writeBenchString(reread), once) << e.name;
        EXPECT_EQ(reread.pis().size(), e.netlist.pis().size()) << e.name;
        EXPECT_EQ(reread.gateCount(), e.netlist.gateCount()) << e.name;
        EXPECT_EQ(reread.flipFlops().size(), e.netlist.flipFlops().size()) << e.name;

        std::string note;
        const std::vector<TwoPattern> reparsed =
            parsePairs(pairsToString(e.pairs, e.note), &note);
        EXPECT_TRUE(pairsEqual(reparsed, e.pairs)) << e.name;
        EXPECT_EQ(note, e.note) << e.name;
    }
}

TEST(CorpusTest, EntriesSatisfyDftEquivalence) {
    for (const CorpusEntry& e : loadCorpus(FLH_CORPUS_DIR, lib())) {
        const EquivalenceReport rep = checkDftEquivalence(e.netlist, e.pairs);
        EXPECT_TRUE(rep.ok()) << e.name << ": " << rep.summary();
        EXPECT_EQ(rep.pairs_checked, e.pairs.size()) << e.name;
    }
}

TEST(CorpusTest, ParsePairsRejectsMalformedInput) {
    EXPECT_THROW((void)parsePairs("001 1\n"), std::runtime_error);       // 2 tokens, not 4
    EXPECT_THROW((void)parsePairs("0Z1 1 001 1\n"), std::runtime_error); // bad bit
    EXPECT_THROW((void)parsePairs("01 1 011 1\n"), std::runtime_error);  // V1/V2 shape mismatch
}

TEST(CorpusTest, WriteReproducerRoundTripsThroughLoadCorpus) {
    const Netlist nl = scannedFuzzCircuit(1);
    const std::vector<TwoPattern> pairs = randomTwoPatterns(nl, 3, 7);
    const std::string dir = testing::TempDir() + "/flh_corpus_rt";

    const ReproducerPaths paths = writeReproducer(dir, "entry", nl, pairs, "round-trip check");
    EXPECT_NE(paths.bench.find("entry.bench"), std::string::npos);

    const std::vector<CorpusEntry> entries = loadCorpus(dir, lib());
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].name, "entry");
    EXPECT_EQ(entries[0].note, "round-trip check");
    EXPECT_TRUE(pairsEqual(entries[0].pairs, pairs));
    EXPECT_EQ(entries[0].netlist.gateCount(), nl.gateCount());
}

// ---- equivalence checker ----------------------------------------------

TEST(EquivalenceTest, HoldsOnRandomScannedCircuits) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        const Netlist nl = scannedFuzzCircuit(seed);
        const std::vector<TwoPattern> pairs = makeEquivalencePairs(nl, 10, 4, seed);
        const EquivalenceReport rep = checkDftEquivalence(nl, pairs);
        EXPECT_TRUE(rep.ok()) << "seed " << seed << ": " << rep.summary();
        EXPECT_GT(rep.comparisons, 0u);
    }
}

TEST(EquivalenceTest, RepeatedAndAllXPairsHold) {
    const Netlist nl = scannedFuzzCircuit(4);
    TwoPattern same = randomTwoPatterns(nl, 1, 9)[0];
    same.v2 = same.v1; // V1 == V2: no transition must still capture faithfully

    TwoPattern all_x;
    all_x.v1.pis.assign(nl.pis().size(), Logic::X);
    all_x.v1.state.assign(nl.flipFlops().size(), Logic::X);
    all_x.v2 = all_x.v1;

    const std::vector<TwoPattern> pairs{same, all_x};
    const EquivalenceReport rep = checkDftEquivalence(nl, pairs);
    EXPECT_TRUE(rep.ok()) << rep.summary();
    EXPECT_EQ(rep.pairs_checked, 2u);
}

TEST(EquivalenceTest, ZeroFfCircuitCheckedThroughPos) {
    const Netlist nl = makeCombOnly();
    EXPECT_TRUE(nl.flipFlops().empty());

    // A chain-less circuit cannot be scanned...
    Netlist copy = nl;
    EXPECT_THROW((void)insertScan(copy), std::exception);

    // ...but the protocol still runs (all shift loops are empty) and the
    // primary outputs carry the whole comparison.
    std::vector<TwoPattern> pairs = randomTwoPatterns(nl, 6, 11);
    pairs.push_back(TwoPattern{Pattern{{Logic::X, Logic::One}, {}},
                               Pattern{{Logic::Zero, Logic::X}, {}}});
    const EquivalenceReport rep = checkDftEquivalence(nl, pairs);
    EXPECT_TRUE(rep.ok()) << rep.summary();
    EXPECT_GT(rep.comparisons, 0u);
}

TEST(EquivalenceTest, SingleScanCellProtocol) {
    Netlist nl("one_ff", lib());
    const NetId a = nl.addPi("A");
    const NetId q = nl.addNet("Q");
    const NetId d = nl.addNet("D");
    const NetId y = nl.addNet("Y");
    nl.addGate(CellFn::Xor, {q, a}, d);
    nl.addGate(CellFn::Or, {q, a}, y);
    nl.addDff(d, q);
    nl.markPo(y);
    nl.check();

    const ScanInfo scan = insertScan(nl);
    EXPECT_EQ(scan.chain_length, 1u);
    ASSERT_EQ(nl.flipFlops().size(), 1u);

    const EquivalenceReport rep =
        checkDftEquivalence(nl, randomTwoPatterns(nl, 8, 21));
    EXPECT_TRUE(rep.ok()) << rep.summary();
}

// ---- mutation testing --------------------------------------------------

TEST(MutantTest, CheckerCatchesInjectedMutantWithinFiveSeeds) {
    const Netlist nl = scannedFuzzCircuit(6);
    const std::vector<TwoPattern> pairs = makeEquivalencePairs(nl, 24, 8, 13);

    bool caught = false;
    for (std::uint64_t mutant_seed = 1; mutant_seed <= 5 && !caught; ++mutant_seed) {
        MutantInfo info;
        const Netlist mutated = injectMutant(nl, mutant_seed, &info);
        VariantNetlists variants;
        variants.flh = &mutated;
        const EquivalenceReport rep =
            checkDftEquivalence(nl, pairs, EquivalenceOptions{}, variants);
        if (rep.ok()) continue;
        caught = true;
        for (const EquivalenceMismatch& m : rep.mismatches)
            EXPECT_EQ(m.style, HoldStyle::Flh) << m.describe() << " (" << info.describe() << ")";
    }
    EXPECT_TRUE(caught) << "no mutant detected in 5 seeds - checker may be vacuous";
}

TEST(MutantTest, FuzzMutantModeReportsExpectedFinding) {
    FuzzOptions opts;
    opts.seeds = 5;
    opts.mutant_seed = 1;
    opts.thread_counts = {1};
    opts.random_pairs = 8;
    opts.atpg_pairs = 4;
    opts.stuck_patterns = 8;
    opts.max_faults = 48;
    opts.shrink = false;

    const FuzzReport rep = runFuzz(opts);
    ASSERT_FALSE(rep.ok()) << "injected mutant never detected";
    EXPECT_EQ(rep.findings.front().check, "dft-equivalence");
    EXPECT_NE(rep.findings.front().detail.find("injected mutant"), std::string::npos);
    EXPECT_TRUE(rep.findings.front().bench_path.empty()); // expected findings are not persisted
}

// ---- fuzzer ------------------------------------------------------------

TEST(FuzzTest, SmokeSeedsRunClean) {
    FuzzOptions opts;
    opts.start_seed = 1;
    opts.seeds = 6;
    opts.thread_counts = {1, 2};
    opts.random_pairs = 8;
    opts.atpg_pairs = 4;
    opts.stuck_patterns = 8;
    opts.max_faults = 48;
    opts.shrink = false;

    const FuzzReport rep = runFuzz(opts);
    ASSERT_TRUE(rep.ok()) << rep.findings.front().check << ": " << rep.findings.front().detail;
    EXPECT_EQ(rep.seeds_run, 6u);
    // Six checks per seed, plus podem-verdict where the sources can be
    // enumerated (at most 16 of them).
    std::size_t enumerable = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const Netlist nl = scannedFuzzCircuit(seed);
        if (nl.pis().size() + nl.flipFlops().size() <= 16) ++enumerable;
    }
    EXPECT_GT(enumerable, 0u) << "no smoke seed runs the podem-verdict check";
    EXPECT_EQ(rep.checks_run, 6u * 6u + enumerable);
}

// ---- shrinker ----------------------------------------------------------

TEST(ShrinkTest, RemoveGatePreservesSurvivingNetValues) {
    const Netlist nl = scannedFuzzCircuit(8);
    const std::vector<TwoPattern> pairs = randomTwoPatterns(nl, 4, 17);

    const GateId comb_victim = nl.combGates().front();
    const auto [comb_reduced, comb_pairs] = removeGate(nl, comb_victim, pairs);
    EXPECT_EQ(comb_reduced.gateCount(), nl.gateCount() - 1);
    EXPECT_EQ(comb_reduced.pis().size(), nl.pis().size() + 1);
    EXPECT_EQ(comb_reduced.flipFlops().size(), nl.flipFlops().size());

    const GateId ff_victim = nl.flipFlops().front();
    const auto [ff_reduced, ff_pairs] = removeGate(nl, ff_victim, pairs);
    EXPECT_EQ(ff_reduced.flipFlops().size(), nl.flipFlops().size() - 1);
    EXPECT_EQ(ff_reduced.pis().size(), nl.pis().size() + 1);

    for (std::size_t i = 0; i < pairs.size(); ++i) {
        for (const bool second : {false, true}) {
            const Pattern& orig_p = second ? pairs[i].v2 : pairs[i].v1;
            const auto orig = settledValues(nl, orig_p);
            for (const auto* red : {&comb_reduced, &ff_reduced}) {
                const std::vector<TwoPattern>& rp =
                    (red == &comb_reduced) ? comb_pairs : ff_pairs;
                const auto reduced = settledValues(*red, second ? rp[i].v2 : rp[i].v1);
                for (const auto& [name, value] : reduced)
                    EXPECT_EQ(value, orig.at(name))
                        << "net " << name << " pair " << i << (second ? " v2" : " v1");
            }
        }
    }
}

TEST(ShrinkTest, RejectsInputThatDoesNotFail) {
    const Netlist nl = scannedFuzzCircuit(2);
    const std::vector<TwoPattern> pairs = randomTwoPatterns(nl, 2, 5);
    const FailurePredicate never = [](const Netlist&, const std::vector<TwoPattern>&) {
        return false;
    };
    EXPECT_THROW((void)shrinkReproducer(nl, pairs, never), std::invalid_argument);
}

TEST(ShrinkTest, ShrinksMutantReproducerBelowGateLimit) {
    CircuitSpec spec;
    spec.name = "shrinkme";
    spec.n_pis = 4;
    spec.n_pos = 2;
    spec.n_ffs = 4;
    spec.n_comb_gates = 30;
    spec.depth = 5;
    spec.seed = 99;
    Netlist scanned = generateCircuit(spec, lib());
    insertScan(scanned);
    const std::vector<TwoPattern> pairs = makeEquivalencePairs(scanned, 16, 6, 31);

    // Find a mutant the pair set actually sensitizes, then shrink around it.
    MutantInfo info;
    FailurePredicate fails;
    bool found = false;
    for (std::uint64_t mutant_seed = 1; mutant_seed <= 8 && !found; ++mutant_seed) {
        (void)injectMutant(scanned, mutant_seed, &info);
        fails = mutantPredicate(info);
        found = fails(scanned, pairs);
    }
    ASSERT_TRUE(found) << "no sensitized mutant in 8 seeds";

    const ShrinkResult shrunk = shrinkReproducer(scanned, pairs, fails);
    EXPECT_EQ(shrunk.gates_before, scanned.gateCount());
    EXPECT_LT(shrunk.gates_after, shrunk.gates_before);
    EXPECT_LE(shrunk.gates_after, 25u) << "reproducer did not shrink below the corpus limit";
    EXPECT_GE(shrunk.pairs_after, 1u);
    EXPECT_LE(shrunk.pairs_after, shrunk.pairs_before);
    EXPECT_TRUE(fails(shrunk.netlist, shrunk.pairs)) << "shrunk candidate no longer reproduces";

    // The shrunk netlist is a writable, re-readable reproducer.
    const std::string once = writeBenchString(shrunk.netlist);
    const Netlist reread = readBenchString(once, shrunk.netlist.name(), lib());
    EXPECT_EQ(writeBenchString(reread), once);
}

} // namespace
} // namespace flh
