#include "power/power.hpp"

#include "obs/telemetry.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <bit>
#include <mutex>

namespace flh {

namespace {

// Energy of one rail-to-rail toggle of capacitance c_ff (femtojoules).
double toggleEnergyFj(const Tech& t, double c_ff) { return 0.5 * c_ff * t.vdd * t.vdd; }

// Convert accumulated energy (fJ) over n_cycles at Tech::freq_mhz to uW.
double energyToUw(const Tech& t, double energy_fj, double n_cycles) {
    if (n_cycles <= 0.0) return 0.0;
    const double t_total_s = n_cycles / (t.freq_mhz * 1e6);
    return energy_fj * 1e-15 / t_total_s * 1e6;
}

std::vector<PV> randomPv(std::size_t n, Rng& rng) {
    std::vector<PV> v(n);
    for (PV& p : v) p = PV{rng.next(), 0};
    return v;
}

/// Everything the switching simulation reads, as 32-bit words: the power
/// configuration (the probabilities by bit pattern), the net count, the PI
/// and flip-flop orders, and each gate's function, output and inputs in pin
/// order. Two netlists with equal keys simulate to equal activity.
std::vector<std::uint32_t> switchingKey(const Netlist& nl, const PowerConfig& cfg) {
    std::vector<std::uint32_t> key;
    const auto push64 = [&](std::uint64_t v) {
        key.push_back(static_cast<std::uint32_t>(v));
        key.push_back(static_cast<std::uint32_t>(v >> 32));
    };
    const auto pushList = [&](const std::vector<std::uint32_t>& ids) {
        key.push_back(static_cast<std::uint32_t>(ids.size()));
        key.insert(key.end(), ids.begin(), ids.end());
    };
    key.push_back(static_cast<std::uint32_t>(cfg.n_vectors));
    push64(cfg.seed);
    push64(std::bit_cast<std::uint64_t>(cfg.pi_toggle_prob));
    push64(std::bit_cast<std::uint64_t>(cfg.ff_hold_prob));
    key.push_back(static_cast<std::uint32_t>(nl.netCount()));
    pushList(nl.pis());
    pushList(nl.flipFlops());
    for (GateId g = 0; g < nl.gateCount(); ++g) {
        const Gate& gate = nl.gate(g);
        key.push_back(static_cast<std::uint32_t>(gate.fn));
        key.push_back(gate.output);
        pushList(gate.inputs);
    }
    return key;
}

SwitchingActivity runSwitching(const Netlist& nl, const PowerConfig& cfg) {
    Rng rng(cfg.seed);

    // Settling is a full sweep, not propagate(): with 64 independent slots
    // most gates see an input change every settle, where a level-order
    // sweep is cheaper per evaluation than queueing events, and it settles
    // the same values with the same toggles (PatternSim::evalAll). Sources
    // are written with writeNet, which queues no events for the sweep to
    // drop.
    PatternSim sim(nl);
    const SimTables& t = *sim.tables();
    const std::size_t n_pis = nl.pis().size();
    const NetId* q = t.sources.data() + n_pis;           // FF Q nets
    const NetId* d = t.observed.data() + nl.pos().size(); // FF D nets
    std::vector<PV> state = randomPv(nl.flipFlops().size(), rng);
    std::vector<PV> pis = randomPv(n_pis, rng);
    const auto writeState = [&] {
        for (std::size_t i = 0; i < state.size(); ++i) sim.writeNet(q[i], state[i]);
    };
    writeState();
    for (std::size_t i = 0; i < n_pis; ++i) sim.writeNet(t.sources[i], pis[i]);
    sim.evalAll();

    sim.enableToggleCount(true);
    sim.clearToggleCounts();

    // Each pattern slot carries an independent random sequence, so one
    // simulated vector yields 64 sampled vectors. PI bits toggle with
    // pi_toggle_prob; FFs hold with ff_hold_prob (enable-gated registers).
    for (int v = 0; v < cfg.n_vectors; ++v) {
        for (std::size_t i = 0; i < n_pis; ++i) {
            pis[i].v ^= rng.bernoulliMask(cfg.pi_toggle_prob);
            sim.writeNet(t.sources[i], pis[i]);
        }
        sim.evalAll();
        for (std::size_t i = 0; i < state.size(); ++i) {
            const PV dv = sim.get(d[i]);
            const std::uint64_t hold = rng.bernoulliMask(cfg.ff_hold_prob);
            state[i] = PV{(state[i].v & hold) | (dv.v & ~hold),
                          (state[i].x & hold) | (dv.x & ~hold)};
        }
        writeState();
        sim.evalAll();
    }

    return {sim.toggleCounts(), static_cast<double>(cfg.n_vectors) * 64.0};
}

/// The last simulation's key and result. One slot serves every caller:
/// they all loop circuit-major, pricing several overlays of one netlist
/// and configuration in a row.
struct SwitchingMemo {
    std::mutex mu;
    std::vector<std::uint32_t> key; ///< empty until the first simulation
    SwitchingActivity activity;
};

} // namespace

SwitchingActivity simulateSwitching(const Netlist& nl, const PowerConfig& cfg) {
    static obs::Counter& c_reused = obs::counter("power.activity_reused");
    static SwitchingMemo memo;
    std::vector<std::uint32_t> key = switchingKey(nl, cfg);
    {
        const std::lock_guard lock(memo.mu);
        if (memo.key == key) {
            c_reused.add();
            return memo.activity;
        }
    }
    // Simulate outside the lock, so threads on different netlists overlap.
    SwitchingActivity activity = runSwitching(nl, cfg);
    const std::lock_guard lock(memo.mu);
    memo.key = std::move(key);
    memo.activity = activity;
    return activity;
}

PowerResult powerFromSwitching(const Netlist& nl, const SwitchingActivity& activity,
                               const PowerOverlay& ov) {
    const Tech& t = nl.library().tech();
    const Library& lib = nl.library();
    const std::vector<std::uint64_t>& toggles = activity.toggles;
    const double sampled_cycles = activity.sampled_cycles;

    PowerResult res;
    double energy_fj = 0.0;
    for (NetId n = 0; n < nl.netCount(); ++n) {
        if (toggles[n] == 0) continue;
        res.toggles += toggles[n];
        double cap = nl.netCapFf(n) + ov.extraCap(n) + ov.extraSwitched(n);
        // The driving cell's internal nodes switch with its output.
        if (const GateId drv = nl.net(n).driver; drv != kInvalidId)
            cap += lib.cell(nl.gate(drv).cell).c_internal_ff;
        energy_fj += static_cast<double>(toggles[n]) * toggleEnergyFj(t, cap);
    }
    res.switching_uw = energyToUw(t, energy_fj, sampled_cycles);

    // Clock power: every FF's internal clock nodes switch twice per cycle.
    double clk_energy_per_cycle_fj = 0.0;
    for (const GateId ff : nl.flipFlops())
        clk_energy_per_cycle_fj += toggleEnergyFj(t, lib.cell(nl.gate(ff).cell).c_internal_ff);
    res.clocking_uw = energyToUw(t, clk_energy_per_cycle_fj * sampled_cycles, sampled_cycles);

    // Leakage. The sleep-pair stacking saving applies to *idle* gates
    // ("active leakage reduction for the idle gates", Section III): a gate
    // that switches every cycle spends its time conducting, not stacked off,
    // so the saving is weighted by the gate's measured idleness.
    double leak_nw = ov.extra_leak_nw;
    for (GateId g = 0; g < nl.gateCount(); ++g) {
        const double f = ov.leakFactor(g);
        double eff = f;
        if (f < 1.0) {
            const double activity =
                std::min(1.0, static_cast<double>(toggles[nl.gate(g).output]) / sampled_cycles);
            eff = 1.0 - (1.0 - f) * (1.0 - activity);
        }
        leak_nw += lib.cell(nl.gate(g).cell).leakageNw(t) * eff;
    }
    res.leakage_uw = leak_nw * 1e-3;
    return res;
}

PowerResult measureNormalPower(const Netlist& nl, const PowerOverlay& ov,
                               const PowerConfig& cfg) {
    return powerFromSwitching(nl, simulateSwitching(nl, cfg), ov);
}

ScanShiftPowerResult measureScanShiftPower(const Netlist& nl, HoldStyle style, int n_patterns,
                                           std::uint64_t seed) {
    const Tech& t = nl.library().tech();
    Rng rng(seed);

    SequentialSim seq(nl, style);
    seq.setState(randomPv(nl.flipFlops().size(), rng));
    seq.setPis(randomPv(nl.pis().size(), rng));
    seq.settle();

    PatternSim& sim = seq.sim();
    sim.enableToggleCount(true);
    sim.clearToggleCounts();

    const std::size_t chain = nl.flipFlops().size();
    seq.setHolding(true);
    for (int p = 0; p < n_patterns; ++p)
        for (std::size_t i = 0; i < chain; ++i) seq.shift(PV{rng.next(), 0});
    // Stop counting before release: the single apply-pattern edge after a
    // load is functional activity, not shift activity.
    sim.enableToggleCount(false);
    seq.setHolding(false);

    const double shift_cycles = static_cast<double>(n_patterns) * static_cast<double>(chain) * 64.0;

    ScanShiftPowerResult res;
    double comb_fj = 0.0;
    double ffq_fj = 0.0;
    const auto& toggles = sim.toggleCounts();
    std::vector<bool> is_ffq(nl.netCount(), false);
    for (const GateId ff : nl.flipFlops()) is_ffq[nl.gate(ff).output] = true;
    for (NetId n = 0; n < nl.netCount(); ++n) {
        if (toggles[n] == 0) continue;
        const double e = static_cast<double>(toggles[n]) * toggleEnergyFj(t, nl.netCapFf(n));
        if (is_ffq[n]) {
            ffq_fj += e;
        } else {
            comb_fj += e;
            res.comb_toggles += toggles[n];
        }
    }
    res.comb_switching_uw = energyToUw(t, comb_fj, shift_cycles);
    res.ffq_switching_uw = energyToUw(t, ffq_fj, shift_cycles);
    return res;
}

} // namespace flh
