#include "sta/timing.hpp"

#include <algorithm>
#include <cassert>

namespace flh {

double gateDelayPs(const Netlist& nl, GateId g, const TimingOverlay& ov) {
    const Gate& gate = nl.gate(g);
    const Cell& cell = nl.library().cell(gate.cell);
    const double load = nl.netCapFf(gate.output) + ov.extraCap(gate.output);
    return cell.r_out_kohm * load + kIntrinsicStagePs + ov.gateAdder(g);
}

TimingResult runSta(const Netlist& nl, const TimingOverlay& ov) {
    return runSta(nl, ov, {});
}

TimingResult runSta(const Netlist& nl, const TimingOverlay& ov,
                    std::span<const double> gate_delay_factor) {
    const auto gd = [&](GateId g) {
        const double base = gateDelayPs(nl, g, ov);
        return gate_delay_factor.empty() ? base : base * gate_delay_factor[g];
    };

    TimingResult res;
    std::vector<double> delay_ps(nl.gateCount(), 0.0); // forward pass, reused backward
    res.arrival_ps.assign(nl.netCount(), 0.0);
    res.required_ps.assign(nl.netCount(), 0.0);
    std::vector<NetId> pred(nl.netCount(), kInvalidId);
    std::vector<int> levels_from_source(nl.netCount(), 0);

    // --- sources ---------------------------------------------------------
    for (const NetId pi : nl.pis()) res.arrival_ps[pi] = ov.sourceSeries(pi);
    for (const GateId ff : nl.flipFlops()) {
        const Gate& gate = nl.gate(ff);
        const Cell& cell = nl.library().cell(gate.cell);
        const NetId q = gate.output;
        const double clk2q =
            cell.r_out_kohm * (nl.netCapFf(q) + ov.extraCap(q)) + kIntrinsicStagePs;
        res.arrival_ps[q] = clk2q + ov.sourceSeries(q);
    }

    // --- forward propagation ----------------------------------------------
    for (const GateId g : nl.topoOrder()) {
        const Gate& gate = nl.gate(g);
        double worst = 0.0;
        NetId worst_in = kInvalidId;
        for (const NetId in : gate.inputs) {
            if (res.arrival_ps[in] > worst || worst_in == kInvalidId) {
                worst = res.arrival_ps[in];
                worst_in = in;
            }
        }
        const NetId out = gate.output;
        delay_ps[g] = gd(g);
        res.arrival_ps[out] = worst + delay_ps[g];
        pred[out] = worst_in;
        levels_from_source[out] = (worst_in == kInvalidId ? 0 : levels_from_source[worst_in]) + 1;
    }

    // --- endpoints ---------------------------------------------------------
    NetId worst_end = kInvalidId;
    const auto consider = [&](NetId n) {
        if (worst_end == kInvalidId || res.arrival_ps[n] > res.arrival_ps[worst_end])
            worst_end = n;
    };
    for (const NetId po : nl.pos()) consider(po);
    for (const GateId ff : nl.flipFlops()) consider(nl.gate(ff).inputs[0]);
    if (worst_end != kInvalidId) {
        res.critical_delay_ps = res.arrival_ps[worst_end];
        res.critical_levels = levels_from_source[worst_end];
        for (NetId n = worst_end; n != kInvalidId; n = pred[n]) res.critical_path.push_back(n);
        std::reverse(res.critical_path.begin(), res.critical_path.end());
    }

    // --- required times (backward) -----------------------------------------
    res.required_ps.assign(nl.netCount(), res.critical_delay_ps);
    const auto& topo = nl.topoOrder();
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        const Gate& gate = nl.gate(*it);
        const double req_at_inputs = res.required_ps[gate.output] - delay_ps[*it];
        for (const NetId in : gate.inputs)
            res.required_ps[in] = std::min(res.required_ps[in], req_at_inputs);
    }
    return res;
}

} // namespace flh
