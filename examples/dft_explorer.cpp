// DFT design-space explorer: for a chosen circuit, compare the three holding
// styles, sweep the FLH sleep sizing, and run the Section-V fanout optimizer
// — the workflow of a DFT engineer deciding how to equip a design for
// two-pattern delay test. Optional CSV output for plotting.
//
// Usage: dft_explorer [circuit] [--csv]   (unknown circuit: exit 2)
#include "core/kit.hpp"
#include "util/table.hpp"

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

using namespace flh;

int main(int argc, char** argv) {
    std::string circuit = "s838";
    bool csv = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--csv") {
            csv = true;
        } else {
            circuit = arg;
        }
    }

    DelayTestKit kit = [&] {
        try {
            return DelayTestKit::forCircuit(circuit);
        } catch (const std::out_of_range&) {
            std::cerr << "dft_explorer: unknown circuit '" << circuit << "'\n";
            std::exit(2);
        }
    }();
    std::cout << "=== DFT explorer: " << circuit << " ===\n\n";

    // --- style comparison ---------------------------------------------------
    std::vector<std::vector<std::string>> rows;
    TextTable styles({"Style", "Area ovh %", "Delay ovh %", "Power ovh %"});
    for (const HoldStyle s : {HoldStyle::EnhancedScan, HoldStyle::MuxHold, HoldStyle::Flh}) {
        const DftEvaluation e = kit.evaluate(s);
        std::vector<std::string> row = {toString(s), fmt(e.area_increase_pct),
                                        fmt(e.delay_increase_pct), fmt(e.power_increase_pct)};
        styles.addRow(row);
        rows.push_back(std::move(row));
    }
    std::cout << styles.render() << "\n";

    // --- FLH sleep sizing sweep ----------------------------------------------
    TextTable sweep({"sleep_w", "Area ovh %", "Delay ovh %"});
    for (const double w : {1.0, 1.5, 1.75, 2.5, 4.0}) {
        DftSizing sizing;
        sizing.flh.sleep_w = w;
        const DftDesign d = planDft(kit.netlist(), HoldStyle::Flh, sizing);
        const TimingResult base = runSta(kit.netlist());
        const TimingResult with = runSta(kit.netlist(), makeTimingOverlay(kit.netlist(), d));
        sweep.addRow({fmt(w, 2),
                      fmt(100.0 * dftAreaUm2(kit.netlist(), d) / kit.netlist().totalAreaUm2()),
                      fmt(100.0 * (with.critical_delay_ps - base.critical_delay_ps) /
                              base.critical_delay_ps,
                          3)});
    }
    std::cout << "FLH sleep-pair sizing sweep:\n" << sweep.render() << "\n";

    // --- fanout optimization ---------------------------------------------------
    const DftEvaluation before = kit.evaluate(HoldStyle::Flh);
    const FanoutOptResult opt = kit.optimizeFanout();
    const DftEvaluation after = kit.evaluate(HoldStyle::Flh);
    std::cout << "Fanout optimization (Section V): first-level gates "
              << opt.first_level_before << " -> " << opt.first_level_after << ", FLH area ovh "
              << fmt(before.area_increase_pct) << "% -> " << fmt(after.area_increase_pct)
              << "% (+ " << opt.inverters_added << " inverters), delay "
              << fmt(opt.delay_before_ps, 1) << " -> " << fmt(opt.delay_after_ps, 1)
              << " ps\n";

    if (csv) {
        std::ostringstream os;
        writeCsv(os, {"style", "area_pct", "delay_pct", "power_pct"}, rows);
        std::cout << "\nCSV:\n" << os.str();
    }
    return 0;
}
