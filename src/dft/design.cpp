#include "dft/design.hpp"

#include "obs/telemetry.hpp"
#include "util/json.hpp"

#include <stdexcept>

namespace flh {

void DftEvaluation::writeJson(JsonWriter& w) const {
    w.beginObject();
    w.kv("style", toString(style));
    w.kv("base_area_um2", base_area_um2);
    w.kv("dft_area_um2", dft_area_um2);
    w.kv("area_increase_pct", area_increase_pct);
    w.kv("base_delay_ps", base_delay_ps);
    w.kv("delay_ps", delay_ps);
    w.kv("delay_increase_pct", delay_increase_pct);
    w.kv("base_power_uw", base_power_uw);
    w.kv("power_uw", power_uw);
    w.kv("power_increase_pct", power_increase_pct);
    w.endObject();
}

DftDesign planDft(const Netlist& nl, HoldStyle style, const DftSizing& sizing) {
    DftDesign d;
    d.style = style;
    d.sizing = sizing;
    if (style == HoldStyle::Flh) d.gated_gates = nl.uniqueFirstLevelGates();
    return d;
}

double driveUnits(const Netlist& nl, GateId g) {
    const Tech& t = nl.library().tech();
    return t.r_on_n_kohm / nl.library().cell(nl.gate(g).cell).r_out_kohm;
}

double flhGateAreaUm2(const Netlist& nl, GateId g, const FlhGatingSpec& spec) {
    return spec.areaUm2(nl.library().tech(), driveUnits(nl, g));
}

double dftAreaUm2(const Netlist& nl, const DftDesign& d) {
    const Tech& t = nl.library().tech();
    const double n_ffs = static_cast<double>(nl.flipFlops().size());
    switch (d.style) {
        case HoldStyle::None: return 0.0;
        case HoldStyle::EnhancedScan: return n_ffs * d.sizing.latch.areaUm2(t);
        case HoldStyle::MuxHold: return n_ffs * d.sizing.mux.areaUm2(t);
        case HoldStyle::Flh: {
            double area = 0.0;
            for (const GateId g : d.gated_gates) area += flhGateAreaUm2(nl, g, d.sizing.flh);
            return area;
        }
    }
    return 0.0;
}

TimingOverlay makeTimingOverlay(const Netlist& nl, const DftDesign& d) {
    const Tech& t = nl.library().tech();
    TimingOverlay ov;
    switch (d.style) {
        case HoldStyle::None:
            break;
        case HoldStyle::EnhancedScan:
            for (const GateId ff : nl.flipFlops()) {
                const NetId q = nl.gate(ff).output;
                ov.source_series_ps[q] = d.sizing.latch.seriesDelayPs(t, nl.netCapFf(q));
            }
            break;
        case HoldStyle::MuxHold:
            for (const GateId ff : nl.flipFlops()) {
                const NetId q = nl.gate(ff).output;
                ov.source_series_ps[q] = d.sizing.mux.seriesDelayPs(t, nl.netCapFf(q));
            }
            break;
        case HoldStyle::Flh:
            for (const GateId g : d.gated_gates) {
                const NetId out = nl.gate(g).output;
                const double r_out = nl.library().cell(nl.gate(g).cell).r_out_kohm;
                ov.extra_net_cap_ff[out] += d.sizing.flh.outputLoadFf(t);
                ov.gate_delay_adder_ps[g] =
                    d.sizing.flh.addedDelayPs(t, r_out, nl.netCapFf(out));
            }
            break;
    }
    return ov;
}

PowerOverlay makePowerOverlay(const Netlist& nl, const DftDesign& d) {
    const Tech& t = nl.library().tech();
    PowerOverlay ov;
    switch (d.style) {
        case HoldStyle::None:
            break;
        case HoldStyle::EnhancedScan:
            for (const GateId ff : nl.flipFlops()) {
                const NetId q = nl.gate(ff).output;
                // Transparent latch: its input cap and internal nodes switch
                // with every FF output toggle.
                ov.extra_switched_cap_ff[q] =
                    d.sizing.latch.inputCapFf(t) + d.sizing.latch.switchedCapFf(t);
            }
            ov.extra_leak_nw +=
                static_cast<double>(nl.flipFlops().size()) * d.sizing.latch.leakageNw(t);
            break;
        case HoldStyle::MuxHold:
            for (const GateId ff : nl.flipFlops()) {
                const NetId q = nl.gate(ff).output;
                ov.extra_switched_cap_ff[q] =
                    d.sizing.mux.inputCapFf(t) + d.sizing.mux.switchedCapFf(t);
            }
            ov.extra_leak_nw +=
                static_cast<double>(nl.flipFlops().size()) * d.sizing.mux.leakageNw(t);
            break;
        case HoldStyle::Flh:
            for (const GateId g : d.gated_gates) {
                const NetId out = nl.gate(g).output;
                // "The only source of power overhead is due to switching of
                // the minimum-sized inverters and the diffusion capacitance
                // added to the outputs of the first level gates" (Sec. III).
                ov.extra_net_cap_ff[out] += d.sizing.flh.outputLoadFf(t);
                ov.extra_switched_cap_ff[out] += d.sizing.flh.switchedCapFf(t);
                // ON sleep pair stacks with the gate: active leakage drops.
                ov.gate_leak_factor[g] = d.sizing.flh.activeLeakFactor(t);
                ov.extra_leak_nw += d.sizing.flh.addedLeakageNw(t);
            }
            break;
    }
    return ov;
}

DftEvaluation evaluateDft(const Netlist& nl, const DftDesign& d, const PowerConfig& power_cfg) {
    static obs::Counter& c_power_sims = obs::counter("dft.power_sims");
    obs::ScopedSpan span("dft:evaluate", "dft");
    DftEvaluation e;
    e.style = d.style;

    e.base_area_um2 = nl.totalAreaUm2();
    e.dft_area_um2 = dftAreaUm2(nl, d);
    e.area_increase_pct = 100.0 * e.dft_area_um2 / e.base_area_um2;

    const TimingResult base_t = runSta(nl);
    const TimingResult with_t = runSta(nl, makeTimingOverlay(nl, d));
    e.base_delay_ps = base_t.critical_delay_ps;
    e.delay_ps = with_t.critical_delay_ps;
    e.delay_increase_pct = 100.0 * (e.delay_ps - e.base_delay_ps) / e.base_delay_ps;

    // Overlays never reach the simulation, so one activity record serves both.
    const SwitchingActivity activity = simulateSwitching(nl, power_cfg);
    c_power_sims.add();
    const PowerResult base_p = powerFromSwitching(nl, activity);
    const PowerResult with_p = powerFromSwitching(nl, activity, makePowerOverlay(nl, d));
    e.base_power_uw = base_p.totalUw();
    e.power_uw = with_p.totalUw();
    e.power_increase_pct = 100.0 * (e.power_uw - e.base_power_uw) / e.base_power_uw;
    return e;
}

double overheadImprovementPct(double baseline_increase_pct, double flh_increase_pct) {
    if (baseline_increase_pct == 0.0) return 0.0;
    return 100.0 * (baseline_increase_pct - flh_increase_pct) / baseline_increase_pct;
}

} // namespace flh
