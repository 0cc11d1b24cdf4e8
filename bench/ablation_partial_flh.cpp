// Ablation: partial FLH — gate only a fraction of the first-level gates.
//
// The paper's reference [3] (Cheng et al.) explores *partial enhanced scan*
// for the same reason: holding hardware costs area, and some state inputs
// matter more than others. Here the FLH analog: rank the first-level gates
// by downstream cone size, gate only the top fraction, and measure
//  * the DFT area saved, and
//  * how many arbitrary two-pattern tests still apply faithfully (hold
//    integrity audited by the Fig. 5b engine — unheld first-level gates let
//    the V2 shift ripple into their cones).
#include "bench_util.hpp"
#include "atpg/transition_atpg.hpp"
#include "core/test_application.hpp"
#include "util/table.hpp"

#include <algorithm>
#include <iostream>
#include <queue>

using namespace flh;
using namespace flh::bench;

namespace {

/// Downstream cone size of a gate (gates reachable through its output).
std::size_t coneSize(const Netlist& nl, GateId g) {
    std::vector<bool> seen(nl.gateCount(), false);
    std::queue<GateId> q;
    q.push(g);
    seen[g] = true;
    std::size_t n = 0;
    while (!q.empty()) {
        const GateId cur = q.front();
        q.pop();
        ++n;
        for (const PinRef& pr : nl.fanout(nl.gate(cur).output)) {
            if (isSequential(nl.gate(pr.gate).fn) || seen[pr.gate]) continue;
            seen[pr.gate] = true;
            q.push(pr.gate);
        }
    }
    return n;
}

} // namespace

int main() {
    const std::string circuit = "s838"; // the high-fanout-ratio circuit
    const Netlist nl = scannedCircuit(circuit);
    const double base_area = nl.totalAreaUm2();

    // Rank the first-level gates by cone size (descending).
    std::vector<GateId> ranked = nl.uniqueFirstLevelGates();
    std::stable_sort(ranked.begin(), ranked.end(), [&](GateId a, GateId b) {
        return coneSize(nl, a) > coneSize(nl, b);
    });

    // One shared arbitrary-pair test set.
    const auto faults = allTransitionFaults(nl);
    TransitionAtpgConfig cfg;
    cfg.random_pairs = 48;
    const auto atpg = generateTransitionTests(nl, TestApplication::EnhancedScan, faults, cfg);
    const std::size_t n_apply = std::min<std::size_t>(24, atpg.tests.size());

    std::cout << "ABLATION: PARTIAL FLH (" << circuit << ", " << ranked.size()
              << " first-level gates, " << atpg.tests.size() << "-test arbitrary-pair set)\n\n";

    TextTable table({"Gated fraction %", "Gated gates", "FLH area ovh %", "Holds intact",
                     "Hold fidelity %", "Launches faithful", "Captures correct"});
    for (const double frac : {1.0, 0.75, 0.5, 0.25, 0.0}) {
        const std::size_t k = static_cast<std::size_t>(frac * static_cast<double>(ranked.size()) + 0.5);
        std::vector<GateId> subset(ranked.begin(), ranked.begin() + static_cast<long>(k));

        DftDesign d = planDft(nl, HoldStyle::Flh);
        d.gated_gates = subset;
        const double area_pct = 100.0 * dftAreaUm2(nl, d) / base_area;

        TwoPatternApplicator app(nl, subset);
        std::size_t holds = 0;
        std::size_t launches = 0;
        std::size_t captures = 0;
        double fidelity = 0.0;
        for (std::size_t i = 0; i < n_apply; ++i) {
            const ApplicationResult r = app.apply(atpg.tests[i]);
            if (r.hold_intact) ++holds;
            if (r.launch_faithful) ++launches;
            if (r.captured == nextState(nl, atpg.tests[i].v2)) ++captures;
            fidelity += r.hold_fidelity_pct;
        }
        table.addRow({fmt(frac * 100.0, 0), std::to_string(k), fmt(area_pct),
                      std::to_string(holds) + "/" + std::to_string(n_apply),
                      fmt(fidelity / static_cast<double>(n_apply), 1),
                      std::to_string(launches) + "/" + std::to_string(n_apply),
                      std::to_string(captures) + "/" + std::to_string(n_apply)});
    }
    std::cout << table.render() << "\n";
    std::cout << "Captures stay correct (the final state is V2 regardless), but hold\n"
                 "integrity — the property that makes the launched transition exactly\n"
                 "V1 -> V2 — degrades as first-level gates lose their gating. Full FLH\n"
                 "is the paper's design point; partial FLH trades test *fidelity* for\n"
                 "area the way partial enhanced scan [3] trades coverage.\n";
    return 0;
}
