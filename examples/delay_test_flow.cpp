// End-to-end delay-test flow: generate a two-pattern transition-fault test
// set, apply it through the Fig. 5(b) protocol on an FLH-equipped circuit,
// audit every application, and finally show an actual slow gate being caught
// by comparing a faulty machine's captures against the good ones.
#include "core/kit.hpp"
#include "util/table.hpp"

#include <cstdlib>
#include <iostream>
#include <stdexcept>

using namespace flh;

int main(int argc, char** argv) {
    const std::string circuit = argc > 1 ? argv[1] : "s344";
    const DelayTestKit kit = [&] {
        try {
            return DelayTestKit::forCircuit(circuit);
        } catch (const std::out_of_range&) {
            std::cerr << "delay_test_flow: unknown circuit '" << circuit << "'\n";
            std::exit(2);
        }
    }();
    const Netlist& nl = kit.netlist();

    std::cout << "=== Delay-test flow on " << circuit << " (FLH) ===\n\n";

    // 1. Generate the test set (arbitrary pairs — FLH's whole point).
    const auto faults = allTransitionFaults(nl);
    TransitionAtpgConfig cfg;
    cfg.random_pairs = 64;
    const TransitionAtpgResult atpg =
        generateTransitionTests(nl, TestApplication::EnhancedScan, faults, cfg);
    std::cout << "ATPG: " << atpg.tests.size() << " two-pattern tests, "
              << fmt(atpg.coverage.coveragePct(), 2) << "% transition coverage ("
              << atpg.untestable << " untestable, " << atpg.aborted << " aborted)\n";

    // 2. Apply a sample through the scan protocol and audit it.
    TwoPatternApplicator app(nl, HoldStyle::Flh);
    std::size_t faithful = 0;
    const std::size_t n_apply = std::min<std::size_t>(16, atpg.tests.size());
    for (std::size_t i = 0; i < n_apply; ++i) {
        const ApplicationResult r = app.apply(atpg.tests[i]);
        if (r.launch_faithful && r.captured == nextState(nl, atpg.tests[i].v2)) ++faithful;
    }
    std::cout << "Application audit: " << faithful << "/" << n_apply
              << " tests applied with intact hold, faithful launch, correct capture\n\n";

    // 3. Demonstrate detection: one batched n-detect pass grades every
    //    (fault, test) combination at once — no per-pair re-simulation.
    const std::vector<std::size_t> n_det = countTransitionDetections(nl, atpg.tests, faults);
    TextTable table({"Fault", "Detected by # tests", "Observation"});
    int shown = 0;
    for (std::size_t fi = 0; fi < faults.size() && shown < 6; ++fi) {
        if (!atpg.coverage.detected_mask[fi] || n_det[fi] == 0) continue;
        table.addRow({toString(nl, faults[fi]), std::to_string(n_det[fi]),
                      "captured response differs from good machine"});
        ++shown;
    }
    std::cout << "Sample detections:\n" << table.render();
    std::cout << "\nThe same vectors applied with enhanced-scan hardware give identical\n"
                 "coverage (Section IV) — FLH changes the holding mechanism, not the test.\n";
    return 0;
}
