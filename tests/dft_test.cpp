#include "dft/chain_order.hpp"
#include "dft/design.hpp"
#include "dft/fanout_opt.hpp"
#include "dft/scan.hpp"
#include "iscas/circuits.hpp"
#include "netlist/bench_io.hpp"
#include "obs/telemetry.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <numeric>

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

/// FNV-1a over a string.
std::uint64_t fnv1a(const std::string& s) {
    std::uint64_t h = 14695981039346656037ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return h;
}

TEST(ScanInsertion, ReplacesAllFfsAndStitchesChain) {
    Netlist nl = makeCircuit("s298", lib());
    const std::size_t n_ffs = nl.flipFlops().size();
    const ScanInfo info = insertScan(nl);
    EXPECT_TRUE(isFullScan(nl));
    EXPECT_EQ(info.chain_length, n_ffs);
    // Every SDFF's SE pin is the TC net; SI pins form a chain.
    for (const GateId ff : nl.flipFlops()) {
        EXPECT_EQ(nl.gate(ff).fn, CellFn::Sdff);
        EXPECT_EQ(nl.gate(ff).inputs[2], info.test_control);
    }
    const auto& ffs = nl.flipFlops();
    for (std::size_t i = 0; i + 1 < ffs.size(); ++i)
        EXPECT_EQ(nl.gate(ffs[i]).inputs[1], nl.gate(ffs[i + 1]).output);
    EXPECT_EQ(nl.gate(ffs.back()).inputs[1], info.scan_in);
    EXPECT_EQ(info.scan_out, nl.gate(ffs.front()).output);
}

TEST(ScanInsertion, IdempotenceGuard) {
    Netlist nl = makeCircuit("s298", lib());
    insertScan(nl);
    EXPECT_THROW(insertScan(nl), std::invalid_argument);
}

TEST(ScanInsertion, NoFlipFlopsRejected) {
    Netlist nl("comb", lib());
    const NetId a = nl.addPi("a");
    const NetId y = nl.addNet("y");
    nl.addGate(CellFn::Inv, {a}, y);
    nl.markPo(y);
    EXPECT_THROW(insertScan(nl), std::invalid_argument);
}

TEST(ScanInsertion, AddsAreaButKeepsLogicDepth) {
    Netlist nl = makeCircuit("s344", lib());
    const double area0 = nl.totalAreaUm2();
    const int depth0 = nl.logicDepth();
    insertScan(nl);
    EXPECT_GT(nl.totalAreaUm2(), area0);
    EXPECT_EQ(nl.logicDepth(), depth0);
}

TEST(DftDesign, PlanShapes) {
    const Netlist nl = scanned("s298");
    EXPECT_TRUE(planDft(nl, HoldStyle::EnhancedScan).gated_gates.empty());
    const DftDesign flh = planDft(nl, HoldStyle::Flh);
    EXPECT_EQ(flh.gated_gates.size(), nl.uniqueFirstLevelGates().size());
}

TEST(DftDesign, AreaAccountsPerElement) {
    const Netlist nl = scanned("s298");
    const Tech& t = lib().tech();
    const double n_ffs = static_cast<double>(nl.flipFlops().size());
    EXPECT_DOUBLE_EQ(dftAreaUm2(nl, planDft(nl, HoldStyle::EnhancedScan)),
                     n_ffs * HoldLatchSpec{}.areaUm2(t));
    EXPECT_DOUBLE_EQ(dftAreaUm2(nl, planDft(nl, HoldStyle::MuxHold)),
                     n_ffs * MuxHoldSpec{}.areaUm2(t));
    const DftDesign flh = planDft(nl, HoldStyle::Flh);
    double flh_area = 0.0;
    for (const GateId g : flh.gated_gates) flh_area += flhGateAreaUm2(nl, g, FlhGatingSpec{});
    EXPECT_DOUBLE_EQ(dftAreaUm2(nl, flh), flh_area);
    // Per-gate proportional sizing: every gated gate costs at least the
    // nominal (drive-1) hardware.
    EXPECT_GE(flh_area,
              static_cast<double>(flh.gated_gates.size()) * FlhGatingSpec{}.areaUm2(t));
    EXPECT_DOUBLE_EQ(dftAreaUm2(nl, planDft(nl, HoldStyle::None)), 0.0);
}

class StyleComparison : public ::testing::TestWithParam<const char*> {};

TEST_P(StyleComparison, PaperOrderingsHold) {
    const Netlist nl = scanned(GetParam());
    const PowerConfig pc{50, 11};
    const DftEvaluation enh = evaluateDft(nl, planDft(nl, HoldStyle::EnhancedScan), pc);
    const DftEvaluation mux = evaluateDft(nl, planDft(nl, HoldStyle::MuxHold), pc);
    const DftEvaluation flh = evaluateDft(nl, planDft(nl, HoldStyle::Flh), pc);

    // Delay (Table II): MUX worst, FLH best.
    EXPECT_GT(mux.delay_increase_pct, enh.delay_increase_pct);
    EXPECT_LT(flh.delay_increase_pct, enh.delay_increase_pct);

    // Power (Table III): enhanced scan worst by far, FLH near zero.
    EXPECT_GT(enh.power_increase_pct, mux.power_increase_pct);
    EXPECT_LT(flh.power_increase_pct, 0.5 * mux.power_increase_pct);

    // Area (Table I): enhanced > MUX on every circuit; FLH wins except at
    // extreme unique-fanout ratios (s838-like).
    EXPECT_GT(enh.area_increase_pct, mux.area_increase_pct);
    const double ratio = static_cast<double>(nl.uniqueFirstLevelGates().size()) /
                         static_cast<double>(nl.flipFlops().size());
    if (ratio < 2.3) {
        EXPECT_LT(flh.area_increase_pct, mux.area_increase_pct);
    }
}

INSTANTIATE_TEST_SUITE_P(Circuits, StyleComparison,
                         ::testing::Values("s298", "s344", "s386", "s641", "s1196"));

TEST(DftDesign, S838IsFlhWorstCaseForArea) {
    const Netlist nl = scanned("s838"); // unique ratio 3.0
    const DftDesign enh = planDft(nl, HoldStyle::EnhancedScan);
    const DftDesign flh = planDft(nl, HoldStyle::Flh);
    EXPECT_GT(dftAreaUm2(nl, flh), dftAreaUm2(nl, enh));
}

TEST(DftDesign, FlhDelayOverheadReduction) {
    // The headline claim: ~71% average improvement in delay overhead.
    double sum = 0.0;
    int n = 0;
    for (const char* name : {"s298", "s344", "s641", "s1196"}) {
        const Netlist nl = scanned(name);
        const TimingResult base = runSta(nl);
        const TimingResult enh = runSta(nl, makeTimingOverlay(nl, planDft(nl, HoldStyle::EnhancedScan)));
        const TimingResult flh = runSta(nl, makeTimingOverlay(nl, planDft(nl, HoldStyle::Flh)));
        const double ovh_enh = enh.critical_delay_ps - base.critical_delay_ps;
        const double ovh_flh = flh.critical_delay_ps - base.critical_delay_ps;
        ASSERT_GT(ovh_enh, 0.0) << name;
        EXPECT_GE(ovh_flh, 0.0) << name;
        sum += overheadImprovementPct(ovh_enh, ovh_flh);
        ++n;
    }
    const double avg = sum / n;
    EXPECT_GT(avg, 45.0);
    EXPECT_LT(avg, 95.0);
}

TEST(DftDesign, EvaluateIsSelfConsistent) {
    const Netlist nl = scanned("s298");
    const DftEvaluation e = evaluateDft(nl, planDft(nl, HoldStyle::Flh), {30, 3});
    EXPECT_NEAR(e.area_increase_pct, 100.0 * e.dft_area_um2 / e.base_area_um2, 1e-9);
    EXPECT_NEAR(e.delay_increase_pct,
                100.0 * (e.delay_ps - e.base_delay_ps) / e.base_delay_ps, 1e-9);
}

/// Every figure of a DftEvaluation, in declaration order.
std::array<double, 9> evaluationFields(const DftEvaluation& e) {
    return {e.base_area_um2, e.dft_area_um2, e.area_increase_pct,
            e.base_delay_ps, e.delay_ps,     e.delay_increase_pct,
            e.base_power_uw, e.power_uw,     e.power_increase_pct};
}

std::string hexFloat(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

struct PinnedEvaluation {
    const char* circuit;
    HoldStyle style;
    std::array<double, 9> fields;
};

TEST(DftDesign, EvaluationIsStable) {
    // Evaluation-layer speedups must not move a single bit of Tables I-III.
    // Recorded before the switching simulation was shared across overlays.
    const PinnedEvaluation pinned[] = {
        {"s298", HoldStyle::EnhancedScan,
         {0x1.3e4dd2f1a9fbfp+4, 0x1.2a8c154c985f1p+2, 0x1.772c234f72c24p+4,
          0x1.6fbeb851eb852p+9, 0x1.909b333333334p+9, 0x1.1df2b986dd9a2p+3,
          0x1.76b796bfca86p+4, 0x1.840f315d701dep+4, 0x1.c7c1f433ce39ap+1}},
        {"s298", HoldStyle::MuxHold,
         {0x1.3e4dd2f1a9fbfp+4, 0x1.fdd031055b89ap+1, 0x1.4054bead054bep+4,
          0x1.6fbeb851eb852p+9, 0x1.9b14f1578300cp+9, 0x1.791a659c231c4p+3,
          0x1.76b796bfca86p+4, 0x1.820e0fe77eaa1p+4, 0x1.8349df114fb7dp+1}},
        {"s298", HoldStyle::Flh,
         {0x1.3e4dd2f1a9fbfp+4, 0x1.0ce978d4fdf3cp+2, 0x1.51ee58469ee59p+4,
          0x1.6fbeb851eb852p+9, 0x1.77efda8d04f94p+9, 0x1.1d225c9847c93p+1,
          0x1.76b796bfca86p+4, 0x1.77651681f7919p+4, 0x1.726924a1dc0d7p-3}},
        {"s641", HoldStyle::EnhancedScan,
         {0x1.bf81d7dbf488cp+5, 0x1.952bd3c361135p+2, 0x1.6a288b365b7d8p+3,
          0x1.20df0a3d70a3fp+11, 0x1.2ab628f5c28f6p+11, 0x1.b4073594cc2e4p+1,
          0x1.0dfa1a7c17a86p+6, 0x1.147ff97247451p+6, 0x1.354301929a665p+1}},
        {"s641", HoldStyle::MuxHold,
         {0x1.bf81d7dbf488cp+5, 0x1.59f1d81f10668p+2, 0x1.353826bff4843p+3,
          0x1.20df0a3d70a3fp+11, 0x1.2d8802ec242c8p+11, 0x1.187c5dc89703dp+2,
          0x1.0dfa1a7c17a86p+6, 0x1.137fccaf0ff84p+6, 0x1.05d1626518fe8p+1}},
        {"s641", HoldStyle::Flh,
         {0x1.bf81d7dbf488cp+5, 0x1.3585f06f69445p+2, 0x1.14aa1194b86b1p+3,
          0x1.20df0a3d70a3fp+11, 0x1.23564b7bc1f9ap+11, 0x1.b50c9d862b351p-1,
          0x1.0dfa1a7c17a86p+6, 0x1.0fea1758009cep+6, 0x1.6f6dfe74522bfp-1}},
        {"s1423", HoldStyle::EnhancedScan,
         {0x1.bb6425aee6343p+6, 0x1.8a8240b780348p+4, 0x1.63e6bde3b57c6p+4,
          0x1.d11a666666666p+11, 0x1.da64b851eb852p+11, 0x1.ff5a6f5c00f3p+0,
          0x1.10b1b47735c14p+7, 0x1.1f90c068db8b9p+7, 0x1.5d058b0911c0ep+2}},
        {"s1423", HoldStyle::MuxHold,
         {0x1.bb6425aee6343p+6, 0x1.50d744f5d3566p+4, 0x1.2fe07ebe6ec27p+4,
          0x1.d11a666666666p+11, 0x1.dd252b4ea12p+11, 0x1.4b6834f7befc2p+1,
          0x1.10b1b47735c14p+7, 0x1.1d44b5e51efep+7, 0x1.271c80ee46e27p+2}},
        {"s1423", HoldStyle::Flh,
         {0x1.bb6425aee6343p+6, 0x1.2704ea4a8c153p+4, 0x1.0a25e32a6fc16p+4,
          0x1.d11a666666666p+11, 0x1.d29acc3700e0ap+11, 0x1.4a9764ee245dfp-2,
          0x1.10b1b47735c14p+7, 0x1.1374b4e8e8362p+7, 0x1.0343f46309b57p+0}},
    };
    for (const PinnedEvaluation& p : pinned) {
        const Netlist nl = scanned(p.circuit);
        const CircuitSpec& spec = findCircuit(p.circuit);
        PowerConfig pc;
        pc.ff_hold_prob = spec.ff_hold_prob;
        pc.pi_toggle_prob = spec.piToggleProb();
        const DftEvaluation e = evaluateDft(nl, planDft(nl, p.style), pc);
        EXPECT_EQ(e.style, p.style);
        const std::array<double, 9> got = evaluationFields(e);
        std::string literal;
        for (const double v : got) literal += hexFloat(v) + ", ";
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(got[i], p.fields[i]) << p.circuit << " " << toString(p.style) << " field "
                                           << i << "; got {" << literal << "}";
    }
}

TEST(DftDesign, SwitchingActivityIsStable) {
    // The pins above stop at s1423, whose flip-flops hold at most 0.3 of the
    // time; these circuits hold 0.5-0.85, so most of their random draws are
    // hold masks. FNV-1a over the per-net toggle counts (each count's eight
    // bytes, least significant first) at the spec configuration. Recorded
    // before each settle became one level-order sweep.
    const struct {
        const char* circuit;
        std::uint64_t digest;
        std::uint64_t total;
    } pinned[] = {
        {"s5378", 0x3a7a0dace97a01f2ULL, 2459079},
        {"s9234", 0x1362334957d09054ULL, 4259765},
        {"s13207", 0x6c1f630c49265247ULL, 3641377},
    };
    for (const auto& p : pinned) {
        const Netlist nl = scanned(p.circuit);
        const CircuitSpec& spec = findCircuit(p.circuit);
        PowerConfig pc;
        pc.ff_hold_prob = spec.ff_hold_prob;
        pc.pi_toggle_prob = spec.piToggleProb();
        const SwitchingActivity a = simulateSwitching(nl, pc);
        std::string bytes;
        std::uint64_t total = 0;
        for (const std::uint64_t t : a.toggles) {
            for (int b = 0; b < 8; ++b) bytes.push_back(static_cast<char>(t >> (8 * b)));
            total += t;
        }
        const std::uint64_t digest = fnv1a(bytes);
        char got[96];
        std::snprintf(got, sizeof got, "{\"%s\", 0x%016llxULL, %llu}", p.circuit,
                      static_cast<unsigned long long>(digest),
                      static_cast<unsigned long long>(total));
        EXPECT_EQ(digest, p.digest) << got;
        EXPECT_EQ(total, p.total) << got;
        EXPECT_EQ(a.sampled_cycles, 100.0 * 64.0) << got;
    }
}

TEST(DftDesign, EvaluateSimulatesSwitchingOnce) {
    // The base and DFT overlays are accounted from one activity record.
    const Netlist nl = scanned("s298");
    obs::reset();
    obs::setEnabled(true);
    for (const HoldStyle style : {HoldStyle::EnhancedScan, HoldStyle::MuxHold, HoldStyle::Flh})
        (void)evaluateDft(nl, planDft(nl, style), {20, 5});
    obs::setEnabled(false);
    EXPECT_EQ(obs::counter("dft.power_sims").value(), 3u);
    EXPECT_NE(obs::traceJson().find("\"dft:evaluate\""), std::string::npos);
    obs::reset();
}

TEST(OverheadImprovement, Formula) {
    EXPECT_DOUBLE_EQ(overheadImprovementPct(10.0, 3.0), 70.0);
    EXPECT_DOUBLE_EQ(overheadImprovementPct(0.0, 3.0), 0.0);
}

// --------------------------------------------------------- fanout optimizer

TEST(FanoutOpt, ReducesFirstLevelGatesOnHighFanoutCircuit) {
    Netlist nl = scanned("s838"); // ratio 3.0: prime optimization target
    const FanoutOptResult r = optimizeFanout(nl);
    EXPECT_GT(r.ffs_optimized, 0u);
    EXPECT_LT(r.first_level_after, r.first_level_before);
    nl.check();
}

TEST(FanoutOpt, DelayConstraintHeld) {
    for (const char* name : {"s838", "s1423", "s298"}) {
        Netlist nl = scanned(name);
        const FanoutOptResult r = optimizeFanout(nl);
        // "No inverter is added in the critical path ... maximum circuit
        // delay is kept unaltered." Unloading critical FF outputs may even
        // speed the path up; it must never slow down.
        EXPECT_LE(r.delay_after_ps, r.delay_before_ps + 1e-6) << name;
    }
}

TEST(FanoutOpt, NetlistStaysValidAndLogicEquivalentShape) {
    Netlist nl = scanned("s838");
    const auto stats_before = computeStats(nl);
    const FanoutOptResult r = optimizeFanout(nl);
    const auto stats_after = computeStats(nl);
    EXPECT_EQ(stats_after.n_ffs, stats_before.n_ffs);
    EXPECT_EQ(stats_after.n_comb_gates, stats_before.n_comb_gates + r.inverters_added);
    EXPECT_NO_THROW(nl.check());
}

TEST(FanoutOpt, ShrinksFlhArea) {
    Netlist nl = scanned("s838");
    const double before = dftAreaUm2(nl, planDft(nl, HoldStyle::Flh));
    const Cell& inv = lib().cell(lib().find(CellFn::Inv, 1));
    const FanoutOptResult r = optimizeFanout(nl);
    const double after = dftAreaUm2(nl, planDft(nl, HoldStyle::Flh)) +
                         static_cast<double>(r.inverters_added) * inv.areaUm2(lib().tech());
    EXPECT_LT(after, before); // net win including the inverters it paid for
}

TEST(FanoutOpt, NoOpOnLowFanoutCircuit) {
    Netlist nl = scanned("s386"); // ratio 1.0: nothing to merge
    const FanoutOptResult r = optimizeFanout(nl);
    EXPECT_EQ(r.first_level_after, r.first_level_before);
}

struct PinnedFanoutOpt {
    const char* circuit;
    std::uint64_t bench_digest; ///< writeBenchString of the rewired netlist
    std::size_t ffs_optimized;
    std::size_t inverters_added;
    std::size_t first_level_before;
    std::size_t first_level_after;
    double delay_before_ps;
    double delay_after_ps;
};

TEST(FanoutOpt, OptimizedNetlistIsStable) {
    // Re-timing shortcuts must not change which FFs are rebuffered or
    // which pins move. Recorded before STA was skipped for rejected FFs;
    // the s9234 and s13207 rows before moves were re-timed incrementally.
    const PinnedFanoutOpt pinned[] = {
        {"s298", 0x7fba5443794a2e39ULL, 9, 13, 35, 21,
         0x1.6fbeb851eb852p+9, 0x1.62b1eb851eb86p+9},
        {"s838", 0xecac4b7b56bc2ee0ULL, 24, 45, 96, 52,
         0x1.7420000000001p+10, 0x1.6c06666666669p+10},
        {"s1423", 0xe54de7d2ac006de6ULL, 43, 73, 155, 87,
         0x1.d11a666666666p+11, 0x1.cc5547ae147aep+11},
        {"s5378", 0x34cac35613f8a887ULL, 23, 45, 204, 177,
         0x1.21f0f5c28f5c4p+11, 0x1.21f0f5c28f5c4p+11},
        {"s9234", 0x2edc970bd7771002ULL, 62, 117, 317, 230,
         0x1.7bb87ae147ae2p+11, 0x1.7bb87ae147ae2p+11},
        {"s13207", 0xe8a7e3c7e1768df4ULL, 226, 414, 1021, 715,
         0x1.d5cc8f5c28f5dp+12, 0x1.d5cc8f5c28f5dp+12},
    };
    for (const PinnedFanoutOpt& p : pinned) {
        Netlist nl = scanned(p.circuit);
        const FanoutOptResult r = optimizeFanout(nl);
        const std::uint64_t digest = fnv1a(writeBenchString(nl));
        char got[160];
        std::snprintf(got, sizeof got, "{\"%s\", 0x%016llxULL, %zu, %zu, %zu, %zu, %a, %a}",
                      p.circuit, static_cast<unsigned long long>(digest), r.ffs_optimized,
                      r.inverters_added, r.first_level_before, r.first_level_after,
                      r.delay_before_ps, r.delay_after_ps);
        EXPECT_EQ(digest, p.bench_digest) << got;
        EXPECT_EQ(r.ffs_optimized, p.ffs_optimized) << got;
        EXPECT_EQ(r.inverters_added, p.inverters_added) << got;
        EXPECT_EQ(r.first_level_before, p.first_level_before) << got;
        EXPECT_EQ(r.first_level_after, p.first_level_after) << got;
        EXPECT_EQ(r.delay_before_ps, p.delay_before_ps) << got;
        EXPECT_EQ(r.delay_after_ps, p.delay_after_ps) << got;
    }
}

TEST(FanoutOpt, RetimesOncePerAcceptedMove) {
    // One STA up front, one after each applied move; rejected FFs leave the
    // netlist, and so its timing, untouched.
    for (const char* name : {"s838", "s386"}) {
        Netlist nl = scanned(name);
        obs::reset();
        obs::setEnabled(true);
        const FanoutOptResult r = optimizeFanout(nl);
        obs::setEnabled(false);
        EXPECT_EQ(obs::counter("dft.fanout_opt.retimes").value(), r.ffs_optimized + 1) << name;
        EXPECT_NE(obs::traceJson().find("\"dft:fanout_opt\""), std::string::npos) << name;
        obs::reset();
    }
}

// ---------------------------------------------------------- chain ordering

TEST(ChainOrder, TransitionCountOnKnownStream) {
    // Two FFs, patterns {01, 11}: identity order has 1 transition (pattern
    // one), the other order identical by symmetry.
    std::vector<Pattern> pats(2);
    pats[0].state = {Logic::Zero, Logic::One};
    pats[1].state = {Logic::One, Logic::One};
    const std::vector<std::size_t> order = {0, 1};
    EXPECT_EQ(chainShiftTransitions(pats, order), 1u);
    const std::vector<std::size_t> rev = {1, 0};
    EXPECT_EQ(chainShiftTransitions(pats, rev), 1u);
}

TEST(ChainOrder, XBitsCarryNoTransitions) {
    std::vector<Pattern> pats(1);
    pats[0].state = {Logic::Zero, Logic::X, Logic::One};
    const std::vector<std::size_t> order = {0, 1, 2};
    EXPECT_EQ(chainShiftTransitions(pats, order), 0u);
}

TEST(ChainOrder, OptimizerNeverWorsens) {
    const Netlist nl = [] {
        Netlist n = makeCircuit("s298", lib());
        insertScan(n);
        return n;
    }();
    const auto pats = randomPatterns(nl, 40, 17);
    const ChainOrderResult r = optimizeChainOrder(pats, nl.flipFlops().size());
    EXPECT_LE(r.transitions_after, r.transitions_before);
    // The order is a permutation.
    std::vector<std::size_t> sorted = r.order;
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::size_t> expect(nl.flipFlops().size());
    std::iota(expect.begin(), expect.end(), 0);
    EXPECT_EQ(sorted, expect);
    // Reported cost matches recomputation.
    EXPECT_EQ(chainShiftTransitions(pats, r.order), r.transitions_after);
}

TEST(ChainOrder, PerfectlyCorrelatedColumnsReachZero) {
    // Columns 0/2 always equal, 1/3 always equal and inverse of 0/2: the
    // optimal order groups the pairs, leaving a single seam.
    std::vector<Pattern> pats(8);
    Rng rng(3);
    for (Pattern& p : pats) {
        const Logic a = rng.chance(0.5) ? Logic::One : Logic::Zero;
        p.state = {a, negate(a), a, negate(a)};
    }
    const ChainOrderResult r = optimizeChainOrder(pats, 4);
    EXPECT_LE(r.transitions_after, pats.size()); // one seam at most
    EXPECT_LT(r.transitions_after, r.transitions_before);
}

TEST(ChainOrder, DegenerateInputs) {
    const ChainOrderResult empty = optimizeChainOrder({}, 5);
    EXPECT_EQ(empty.transitions_before, 0u);
    EXPECT_EQ(empty.transitions_after, 0u);
    std::vector<Pattern> pats(1);
    pats[0].state = {Logic::One};
    const ChainOrderResult one = optimizeChainOrder(pats, 1);
    EXPECT_EQ(one.order.size(), 1u);
}

} // namespace
} // namespace flh
