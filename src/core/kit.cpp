#include "core/kit.hpp"

#include "iscas/circuits.hpp"

namespace flh {

namespace {
const Library& defaultLibrary() {
    static const Library lib = makeDefaultLibrary();
    return lib;
}
} // namespace

DelayTestKit DelayTestKit::forCircuit(const std::string& name) {
    return DelayTestKit(makeCircuit(name, defaultLibrary()));
}

DelayTestKit::DelayTestKit(Netlist netlist) : nl_(std::move(netlist)) {
    if (!isFullScan(nl_)) scan_ = insertScan(nl_);
}

DftEvaluation DelayTestKit::evaluate(HoldStyle style, const PowerConfig& power) const {
    return evaluateDft(nl_, planDft(nl_, style), power);
}

FanoutOptResult DelayTestKit::optimizeFanout(const FanoutOptConfig& cfg) {
    return flh::optimizeFanout(nl_, cfg);
}

CampaignResult DelayTestKit::runDelayTestCampaign(HoldStyle style,
                                                  const TransitionAtpgConfig& cfg,
                                                  std::size_t max_applied) const {
    CampaignResult res;
    res.style = style;

    // FLH supports arbitrary pairs, exactly like enhanced scan; plain scan
    // without holding can only do broadside.
    const TestApplication app = (style == HoldStyle::None) ? TestApplication::Broadside
                                                           : TestApplication::EnhancedScan;

    const auto faults = allTransitionFaults(nl_);
    const TransitionAtpgResult atpg = generateTransitionTests(nl_, app, faults, cfg);
    res.tests = atpg.tests.size();
    res.coverage_pct = atpg.coverage.coveragePct();

    TwoPatternApplicator applicator(nl_, style);
    const std::size_t limit = std::min(max_applied, atpg.tests.size());
    for (std::size_t i = 0; i < limit; ++i) {
        const ApplicationResult r = applicator.apply(atpg.tests[i]);
        ++res.applied;
        if (r.hold_intact) ++res.holds_intact;
        if (r.launch_faithful) ++res.launches_faithful;
        if (r.captured == nextState(nl_, atpg.tests[i].v2)) ++res.captures_correct;
    }
    return res;
}

ScanShiftPowerResult DelayTestKit::scanShiftPower(HoldStyle style, int n_patterns) const {
    return measureScanShiftPower(nl_, style, n_patterns);
}

} // namespace flh
