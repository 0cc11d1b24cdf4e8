#include "core/kit.hpp"
#include "iscas/circuits.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

namespace flh {
namespace {

TEST(TestApplication, FaithfulWithFlh) {
    const DelayTestKit kit = DelayTestKit::forCircuit("s298");
    const Netlist& nl = kit.netlist();
    const auto pats = randomPatterns(nl, 8, 77);
    TwoPatternApplicator app(nl, HoldStyle::Flh);
    for (std::size_t i = 0; i + 1 < pats.size(); i += 2) {
        TwoPattern tp{pats[i], pats[i + 1]};
        const ApplicationResult r = app.apply(tp);
        EXPECT_TRUE(r.hold_intact);
        EXPECT_TRUE(r.launch_faithful);
        EXPECT_EQ(r.captured, nextState(nl, tp.v2));
        // Scan-out returns the captured response in chain order.
        EXPECT_EQ(r.scan_out, r.captured);
    }
}

TEST(TestApplication, FaithfulWithEnhancedScanAndMux) {
    const DelayTestKit kit = DelayTestKit::forCircuit("s344");
    const Netlist& nl = kit.netlist();
    const auto pats = randomPatterns(nl, 4, 78);
    for (const HoldStyle style : {HoldStyle::EnhancedScan, HoldStyle::MuxHold}) {
        TwoPatternApplicator app(nl, style);
        const TwoPattern tp{pats[0], pats[1]};
        const ApplicationResult r = app.apply(tp);
        EXPECT_TRUE(r.hold_intact) << toString(style);
        EXPECT_TRUE(r.launch_faithful) << toString(style);
        EXPECT_EQ(r.captured, nextState(nl, tp.v2)) << toString(style);
    }
}

TEST(TestApplication, PlainScanCannotHold) {
    // Without holding hardware, shifting V2 corrupts the combinational
    // state: the arbitrary V1 -> V2 launch is impossible (the paper's
    // motivation for enhanced scan / FLH).
    const DelayTestKit kit = DelayTestKit::forCircuit("s298");
    const Netlist& nl = kit.netlist();
    const auto pats = randomPatterns(nl, 8, 79);
    TwoPatternApplicator app(nl, HoldStyle::None);
    std::size_t intact = 0;
    for (std::size_t i = 0; i + 1 < pats.size(); i += 2) {
        const ApplicationResult r = app.apply(TwoPattern{pats[i], pats[i + 1]});
        if (r.hold_intact) ++intact;
        // The capture itself is still the V2 response (state got loaded).
        EXPECT_EQ(r.captured, nextState(nl, pats[i + 1]));
    }
    EXPECT_EQ(intact, 0u);
}

TEST(TestApplication, FlhBlocksCombTogglesDuringShift) {
    const DelayTestKit kit = DelayTestKit::forCircuit("s298");
    const Netlist& nl = kit.netlist();
    const auto pats = randomPatterns(nl, 2, 80);
    TwoPatternApplicator app(nl, HoldStyle::Flh);
    const ApplicationResult r = app.apply(TwoPattern{pats[0], pats[1]});
    ASSERT_EQ(r.trace.size(), 5u);
    EXPECT_EQ(r.trace[2].phase, "scan-V2");
    EXPECT_EQ(r.trace[2].comb_toggles, 0u); // the held first level blocks all
    EXPECT_GT(r.trace[3].comb_toggles, 0u); // the launch actually launches
}

TEST(TestApplication, TraceHasPaperPhases) {
    const DelayTestKit kit = DelayTestKit::forCircuit("s27");
    const auto pats = randomPatterns(kit.netlist(), 2, 81);
    TwoPatternApplicator app(kit.netlist(), HoldStyle::Flh);
    const ApplicationResult r = app.apply(TwoPattern{pats[0], pats[1]});
    ASSERT_EQ(r.trace.size(), 5u);
    EXPECT_EQ(r.trace[0].phase, "scan-V1");
    EXPECT_FALSE(r.trace[0].tc_high);
    EXPECT_EQ(r.trace[0].cycles, 3);
    EXPECT_EQ(r.trace[1].phase, "apply-V1");
    EXPECT_TRUE(r.trace[1].tc_high);
    EXPECT_EQ(r.trace[3].phase, "launch");
    EXPECT_EQ(r.trace[4].phase, "capture");
}

TEST(TestApplication, HoldFidelityGradedForPartialFlh) {
    const DelayTestKit kit = DelayTestKit::forCircuit("s298");
    const Netlist& nl = kit.netlist();
    const auto pats = randomPatterns(nl, 2, 90);
    const TwoPattern tp{pats[0], pats[1]};

    const auto all = nl.uniqueFirstLevelGates();
    TwoPatternApplicator full(nl, all);
    const ApplicationResult r_full = full.apply(tp);
    EXPECT_TRUE(r_full.hold_intact);
    EXPECT_DOUBLE_EQ(r_full.hold_fidelity_pct, 100.0);

    // Half the gating: fidelity drops but stays well above zero.
    std::vector<GateId> half(all.begin(), all.begin() + static_cast<long>(all.size() / 2));
    TwoPatternApplicator partial(nl, half);
    const ApplicationResult r_half = partial.apply(tp);
    EXPECT_LE(r_half.hold_fidelity_pct, 100.0);
    EXPECT_GT(r_half.hold_fidelity_pct, 30.0);

    // No gating at all behaves like plain scan.
    TwoPatternApplicator none(nl, std::vector<GateId>{});
    const ApplicationResult r_none = none.apply(tp);
    EXPECT_FALSE(r_none.hold_intact);
    EXPECT_LT(r_none.hold_fidelity_pct, r_full.hold_fidelity_pct);
}

TEST(TestApplication, PartialSubsetMonotoneFidelity) {
    const DelayTestKit kit = DelayTestKit::forCircuit("s344");
    const Netlist& nl = kit.netlist();
    const auto pats = randomPatterns(nl, 2, 91);
    const TwoPattern tp{pats[0], pats[1]};
    const auto all = nl.uniqueFirstLevelGates();
    double prev = -1.0;
    for (const double frac : {0.0, 0.5, 1.0}) {
        std::vector<GateId> subset(
            all.begin(), all.begin() + static_cast<long>(frac * static_cast<double>(all.size())));
        TwoPatternApplicator app(nl, subset);
        const double f = app.apply(tp).hold_fidelity_pct;
        EXPECT_GE(f + 1e-9, prev); // more gating never hurts fidelity
        prev = f;
    }
    EXPECT_DOUBLE_EQ(prev, 100.0);
}

TEST(Kit, ForCircuitInsertsScan) {
    const DelayTestKit kit = DelayTestKit::forCircuit("s298");
    EXPECT_TRUE(isFullScan(kit.netlist()));
    EXPECT_EQ(kit.scanInfo().chain_length, 14u);
    EXPECT_EQ(kit.stats().n_ffs, 14u);
}

TEST(Kit, EvaluateMatchesDirectPath) {
    const DelayTestKit kit = DelayTestKit::forCircuit("s344");
    const DftEvaluation e = kit.evaluate(HoldStyle::Flh);
    const DftEvaluation direct = evaluateDft(kit.netlist(), planDft(kit.netlist(), HoldStyle::Flh));
    EXPECT_DOUBLE_EQ(e.area_increase_pct, direct.area_increase_pct);
    EXPECT_DOUBLE_EQ(e.delay_increase_pct, direct.delay_increase_pct);
}

TEST(Kit, CampaignFlhFullyFaithful) {
    const DelayTestKit kit = DelayTestKit::forCircuit("s298");
    TransitionAtpgConfig cfg;
    cfg.random_pairs = 32;
    const CampaignResult r = kit.runDelayTestCampaign(HoldStyle::Flh, cfg, 12);
    EXPECT_GT(r.tests, 0u);
    EXPECT_GT(r.coverage_pct, 60.0);
    EXPECT_EQ(r.applied, 12u);
    EXPECT_EQ(r.holds_intact, r.applied);
    EXPECT_EQ(r.launches_faithful, r.applied);
    EXPECT_EQ(r.captures_correct, r.applied);
}

TEST(Kit, CampaignIdenticalCoverageFlhVsEnhancedScan) {
    // Section IV: "fault coverage for enhanced scan and FLH for a given
    // test set remain unchanged" — same generator seed, same coverage.
    const DelayTestKit kit = DelayTestKit::forCircuit("s344");
    TransitionAtpgConfig cfg;
    cfg.random_pairs = 32;
    const CampaignResult flh = kit.runDelayTestCampaign(HoldStyle::Flh, cfg, 8);
    const CampaignResult enh = kit.runDelayTestCampaign(HoldStyle::EnhancedScan, cfg, 8);
    EXPECT_DOUBLE_EQ(flh.coverage_pct, enh.coverage_pct);
    EXPECT_EQ(flh.tests, enh.tests);
    EXPECT_EQ(flh.holds_intact, enh.holds_intact);
}

TEST(Kit, OptimizeFanoutKeepsKitUsable) {
    DelayTestKit kit = DelayTestKit::forCircuit("s838");
    const auto before = kit.evaluate(HoldStyle::Flh, {20, 5});
    const FanoutOptResult opt = kit.optimizeFanout();
    EXPECT_LT(opt.first_level_after, opt.first_level_before);
    const auto after = kit.evaluate(HoldStyle::Flh, {20, 5});
    EXPECT_LT(after.dft_area_um2, before.dft_area_um2);
    EXPECT_NO_THROW(kit.netlist().check());
}

TEST(Kit, ScanShiftPowerOrdering) {
    const DelayTestKit kit = DelayTestKit::forCircuit("s298");
    const auto none = kit.scanShiftPower(HoldStyle::None, 4);
    const auto flh = kit.scanShiftPower(HoldStyle::Flh, 4);
    EXPECT_GT(none.comb_switching_uw, 0.0);
    EXPECT_EQ(flh.comb_toggles, 0u);
}

} // namespace
} // namespace flh
