// Cross-module integration: the complete paper flow end-to-end on several
// circuits, and consistency checks that span module boundaries.
#include "atpg/compaction.hpp"
#include "bist/bist.hpp"
#include "core/kit.hpp"
#include "diagnose/diagnose.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/verilog_io.hpp"
#include "variation/variation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

namespace flh {
namespace {

class FullFlow : public ::testing::TestWithParam<const char*> {};

TEST_P(FullFlow, PaperPipelineEndToEnd) {
    // circuit -> scan -> evaluate all styles -> fanout-opt -> ATPG ->
    // compaction -> Fig.5b application -> audit. Every stage must compose.
    DelayTestKit kit = DelayTestKit::forCircuit(GetParam());
    const NetlistStats st = kit.stats();
    ASSERT_GT(st.n_ffs, 0u);

    // Styles evaluated on the same netlist must share the base numbers.
    const PowerConfig pc{30, 7};
    const DftEvaluation enh = kit.evaluate(HoldStyle::EnhancedScan, pc);
    const DftEvaluation flh = kit.evaluate(HoldStyle::Flh, pc);
    EXPECT_DOUBLE_EQ(enh.base_area_um2, flh.base_area_um2);
    EXPECT_DOUBLE_EQ(enh.base_delay_ps, flh.base_delay_ps);
    EXPECT_DOUBLE_EQ(enh.base_power_uw, flh.base_power_uw);

    // Fanout optimization must not break any downstream stage.
    const FanoutOptResult opt = kit.optimizeFanout();
    EXPECT_LE(opt.first_level_after, opt.first_level_before);

    // ATPG + compaction + application on the optimized netlist.
    const auto faults = allTransitionFaults(kit.netlist());
    TransitionAtpgConfig cfg;
    cfg.random_pairs = 32;
    cfg.podem.max_backtracks = 100;
    auto atpg = generateTransitionTests(kit.netlist(), TestApplication::EnhancedScan, faults, cfg);
    const std::size_t detected = atpg.coverage.detected;
    compactTransitionTests(kit.netlist(), atpg.tests, faults);
    EXPECT_EQ(runTransitionFaultSim(kit.netlist(), atpg.tests, faults).detected, detected);

    TwoPatternApplicator app(kit.netlist(), HoldStyle::Flh);
    const std::size_t n_apply = std::min<std::size_t>(6, atpg.tests.size());
    for (std::size_t i = 0; i < n_apply; ++i) {
        const ApplicationResult r = app.apply(atpg.tests[i]);
        EXPECT_TRUE(r.launch_faithful);
        EXPECT_EQ(r.captured, nextState(kit.netlist(), atpg.tests[i].v2));
    }
}

INSTANTIATE_TEST_SUITE_P(Circuits, FullFlow, ::testing::Values("s27", "s298", "s344", "s386"));

TEST(Integration, BenchAndVerilogAgreeStructurally) {
    DelayTestKit kit = DelayTestKit::forCircuit("s298");
    const Netlist& nl = kit.netlist();
    // .bench round-trip preserves the structure the Verilog writer sees —
    // net *ids* (hence wire declaration order) may differ, so compare the
    // sorted instance lines.
    const Netlist back = readBenchString(writeBenchString(nl), nl.name(), nl.library());
    const auto instances = [](const std::string& v) {
        std::vector<std::string> lines;
        std::istringstream is(v);
        std::string line;
        while (std::getline(is, line))
            if (line.rfind("  FLH_", 0) == 0) lines.push_back(line);
        std::sort(lines.begin(), lines.end());
        return lines;
    };
    EXPECT_EQ(instances(writeVerilogString(back)), instances(writeVerilogString(nl)));
}

TEST(Integration, BistSignatureDiffersAfterFanoutOpt) {
    // The optimizer preserves function, so the BIST signature — a pure
    // function of applied patterns and captured responses — must NOT change.
    DelayTestKit kit = DelayTestKit::forCircuit("s344");
    BistConfig cfg;
    cfg.n_patterns = 12;
    const std::uint32_t before = runBist(kit.netlist(), cfg).signature;
    kit.optimizeFanout();
    const std::uint32_t after = runBist(kit.netlist(), cfg).signature;
    EXPECT_EQ(before, after);
}

TEST(Integration, VariationPlusDftOverlayCompose) {
    DelayTestKit kit = DelayTestKit::forCircuit("s344");
    const Netlist& nl = kit.netlist();
    VariationModel m;
    m.sigma_gate_pct = 6.0;
    const DftDesign d = planDft(nl, HoldStyle::Flh);
    const MonteCarloResult base = runTimingMonteCarlo(nl, {}, m, 30);
    const MonteCarloResult with = runTimingMonteCarlo(nl, makeTimingOverlay(nl, d), m, 30);
    // Same die samples: each die must be at least as slow with the overlay.
    ASSERT_EQ(base.delay_ps.size(), with.delay_ps.size());
    for (std::size_t i = 0; i < base.delay_ps.size(); ++i)
        EXPECT_GE(with.delay_ps[i] + 1e-9, base.delay_ps[i]);
}

TEST(Integration, DiagnoseAfterCampaign) {
    const DelayTestKit kit = DelayTestKit::forCircuit("s298");
    const Netlist& nl = kit.netlist();
    const auto faults = allTransitionFaults(nl);
    TransitionAtpgConfig cfg;
    cfg.random_pairs = 48;
    const auto atpg = generateTransitionTests(nl, TestApplication::EnhancedScan, faults, cfg);
    // Pick a detected fault, fabricate its die, diagnose it back.
    for (std::size_t f = 0; f < faults.size(); ++f) {
        if (!atpg.coverage.detected_mask[f]) continue;
        const auto observed = simulateFaultyResponses(nl, atpg.tests, faults[f]);
        const DiagnosisResult d = diagnose(nl, atpg.tests, observed, faults);
        EXPECT_LE(d.rankOf(f), d.bestTieSize());
        break;
    }
}

TEST(Integration, ScanPortsSurviveEveryTransform) {
    DelayTestKit kit = DelayTestKit::forCircuit("s838");
    const ScanInfo before = kit.scanInfo();
    kit.optimizeFanout();
    const Netlist& nl = kit.netlist();
    // The scan ports and chain order are untouched by the optimizer.
    EXPECT_EQ(nl.net(before.scan_in).name, "SCAN_IN");
    EXPECT_EQ(nl.net(before.test_control).name, "TC");
    EXPECT_TRUE(isFullScan(nl));
    const auto& ffs = nl.flipFlops();
    for (std::size_t i = 0; i + 1 < ffs.size(); ++i)
        EXPECT_EQ(nl.gate(ffs[i]).inputs[1], nl.gate(ffs[i + 1]).output);
}

} // namespace
} // namespace flh
