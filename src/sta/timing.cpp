#include "sta/timing.hpp"

#include "obs/telemetry.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>

namespace flh {

namespace {

bool isComb(const Netlist& nl, GateId g) { return !isSequential(nl.gate(g).fn); }

/// The input whose arrival sets the gate's: the latest, first pin on ties
/// (kInvalidId for a gate without inputs).
NetId worstInput(const Gate& gate, const std::vector<double>& arrival) {
    double worst = 0.0;
    NetId worst_in = kInvalidId;
    for (const NetId in : gate.inputs) {
        if (arrival[in] > worst || worst_in == kInvalidId) {
            worst = arrival[in];
            worst_in = in;
        }
    }
    return worst_in;
}

double arrivalAt(const Gate& gate, const std::vector<double>& arrival, double delay) {
    const NetId in = worstInput(gate, arrival);
    return (in == kInvalidId ? 0.0 : arrival[in]) + delay;
}

/// Launch time of flip-flop `ff`'s Q net: clk-to-q under its load.
double clkToQPs(const Netlist& nl, GateId ff, const TimingOverlay& ov) {
    const Gate& gate = nl.gate(ff);
    const Cell& cell = nl.library().cell(gate.cell);
    const NetId q = gate.output;
    return cell.r_out_kohm * (nl.netCapFf(q) + ov.extraCap(q)) + kIntrinsicStagePs +
           ov.sourceSeries(q);
}

/// Sets critical_delay_ps, critical_levels and critical_path from the
/// arrivals: the latest endpoint (POs, then FF D pins; first wins ties),
/// traced back through each gate's worst input.
void traceCriticalPath(const Netlist& nl, TimingResult& res) {
    NetId worst_end = kInvalidId;
    const auto consider = [&](NetId n) {
        if (worst_end == kInvalidId || res.arrival_ps[n] > res.arrival_ps[worst_end])
            worst_end = n;
    };
    for (const NetId po : nl.pos()) consider(po);
    for (const GateId ff : nl.flipFlops()) consider(nl.gate(ff).inputs[0]);
    res.critical_delay_ps = 0.0;
    res.critical_levels = 0;
    res.critical_path.clear();
    if (worst_end == kInvalidId) return;
    res.critical_delay_ps = res.arrival_ps[worst_end];
    for (NetId n = worst_end; n != kInvalidId;) {
        res.critical_path.push_back(n);
        const GateId drv = nl.net(n).driver;
        if (drv == kInvalidId || !isComb(nl, drv)) break;
        ++res.critical_levels;
        n = worstInput(nl.gate(drv), res.arrival_ps);
    }
    std::reverse(res.critical_path.begin(), res.critical_path.end());
}

bool sameBits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

} // namespace

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
    TimingResult res;
    std::vector<double> delay_ps(nl.gateCount(), 0.0); // forward pass, reused backward
    res.arrival_ps.assign(nl.netCount(), 0.0);

    // --- sources ---------------------------------------------------------
    for (const NetId pi : nl.pis()) res.arrival_ps[pi] = ov.sourceSeries(pi);
    for (const GateId ff : nl.flipFlops())
        res.arrival_ps[nl.gate(ff).output] = clkToQPs(nl, ff, ov);

    // --- forward propagation ----------------------------------------------
    for (const GateId g : nl.topoOrder()) {
        const double base = gateDelayPs(nl, g, ov);
        delay_ps[g] = gate_delay_factor.empty() ? base : base * gate_delay_factor[g];
        const Gate& gate = nl.gate(g);
        res.arrival_ps[gate.output] = arrivalAt(gate, res.arrival_ps, delay_ps[g]);
    }

    traceCriticalPath(nl, res);

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

// ------------------------------------------------------------ IncrementalSta

IncrementalSta::IncrementalSta(const Netlist& nl) : nl_(&nl) { fullPass(); }

void IncrementalSta::fullPass() {
    res_ = runSta(*nl_);
    level_ = nl_->levels();
}

int IncrementalSta::netLevel(NetId n) const {
    const GateId drv = nl_->net(n).driver;
    return drv == kInvalidId ? 0 : level_[drv];
}

void IncrementalSta::retime(std::span<const NetId> touched) {
    static obs::Counter& c_retimed = obs::counter("sta.retimed_gates");
    static obs::Counter& c_fallbacks = obs::counter("sta.retime_fallbacks");
    const Netlist& nl = *nl_;
    const TimingOverlay none;
    const double crit = res_.critical_delay_ps;
    res_.arrival_ps.resize(nl.netCount(), 0.0);
    res_.required_ps.resize(nl.netCount(), crit);
    const std::size_t old_gates = level_.size();
    level_.resize(nl.gateCount(), 0); // flip-flops stay at 0
    queued_.resize(std::max(nl.gateCount(), nl.netCount()), 0);

    // --- levels: new gates and rewired readers, increases pushed forward ---
    std::vector<GateId> stack;
    for (GateId g = static_cast<GateId>(old_gates); g < nl.gateCount(); ++g)
        if (isComb(nl, g)) stack.push_back(g);
    for (const NetId n : touched)
        for (const PinRef& pr : nl.fanout(n))
            if (isComb(nl, pr.gate)) stack.push_back(pr.gate);
    while (!stack.empty()) {
        const GateId g = stack.back();
        stack.pop_back();
        int need = 1;
        for (const NetId in : nl.gate(g).inputs) need = std::max(need, netLevel(in) + 1);
        if (need <= level_[g]) continue;
        level_[g] = need;
        for (const PinRef& pr : nl.fanout(nl.gate(g).output))
            if (isComb(nl, pr.gate)) stack.push_back(pr.gate);
    }

    // --- arrivals: ascending level, so each gate is evaluated once ---------
    using Item = std::pair<int, std::uint32_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> fwd;
    const auto pushGate = [&](GateId g) {
        if (queued_[g] || !isComb(nl, g)) return;
        queued_[g] = 1;
        fwd.push({level_[g], g});
    };
    for (const NetId n : touched) {
        const GateId drv = nl.net(n).driver;
        if (drv != kInvalidId) {
            if (isComb(nl, drv))
                pushGate(drv);
            else
                res_.arrival_ps[n] = clkToQPs(nl, drv, none);
        }
        for (const PinRef& pr : nl.fanout(n)) pushGate(pr.gate);
    }
    std::uint64_t retimed = 0;
    while (!fwd.empty()) {
        const GateId g = fwd.top().second;
        fwd.pop();
        queued_[g] = 0;
        ++retimed;
        const Gate& gate = nl.gate(g);
        const double a = arrivalAt(gate, res_.arrival_ps, gateDelayPs(nl, g, none));
        if (sameBits(a, res_.arrival_ps[gate.output])) continue;
        res_.arrival_ps[gate.output] = a;
        for (const PinRef& pr : nl.fanout(gate.output)) pushGate(pr.gate);
    }

    traceCriticalPath(nl, res_);
    if (!sameBits(res_.critical_delay_ps, crit)) {
        // Every required time is relative to the critical delay.
        c_fallbacks.add();
        fullPass();
        c_retimed.add(retimed + nl.topoOrder().size());
        return;
    }
    c_retimed.add(retimed);

    // --- required times: descending level of the net's driver --------------
    // A net's required time reads its comb readers' outputs and delays; the
    // touched nets changed readers, their drivers' inputs changed delay.
    std::priority_queue<Item> bwd;
    const auto pushNet = [&](NetId n) {
        if (queued_[n]) return;
        queued_[n] = 1;
        bwd.push({netLevel(n), n});
    };
    for (const NetId n : touched) {
        pushNet(n);
        const GateId drv = nl.net(n).driver;
        if (drv != kInvalidId && isComb(nl, drv))
            for (const NetId in : nl.gate(drv).inputs) pushNet(in);
    }
    while (!bwd.empty()) {
        const NetId n = bwd.top().second;
        bwd.pop();
        queued_[n] = 0;
        double req = crit;
        for (const PinRef& pr : nl.fanout(n)) {
            if (!isComb(nl, pr.gate)) continue;
            const double at_out = res_.required_ps[nl.gate(pr.gate).output];
            req = std::min(req, at_out - gateDelayPs(nl, pr.gate, none));
        }
        if (sameBits(req, res_.required_ps[n])) continue;
        res_.required_ps[n] = req;
        const GateId drv = nl.net(n).driver;
        if (drv != kInvalidId && isComb(nl, drv))
            for (const NetId in : nl.gate(drv).inputs) pushNet(in);
    }
}

} // namespace flh
