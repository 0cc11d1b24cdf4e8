// Power analysis: switching (dynamic), internal, and leakage power.
//
// Mirrors the paper's measurement protocol (Section III): "Power is measured
// in NanoSim by applying 100 random vectors to the inputs" — here, a seeded
// sequential simulation of N random primary-input vectors at Tech::freq_mhz,
// with per-net toggle counting. Components:
//  * net switching:      sum over nets of toggles * 1/2 C V^2 / T
//  * cell internal:      per output toggle, the cell's internal switched cap
//  * clocking:           every FF switches its internal clock nodes each cycle
//  * leakage:            per-cell subthreshold leakage, with per-gate factors
//                        (FLH's ON sleep pair reduces first-level gate leakage
//                        by the active stacking factor)
// DFT hardware contributes through a PowerOverlay built by the dft module.
//
// The measurement is two steps: simulateSwitching() runs the vectors and
// records per-net toggle counts; powerFromSwitching() turns those counts
// into power under an overlay. Overlays only add capacitance and scale
// leakage, they never change the logic, so one simulation serves every
// overlay of the same netlist and configuration. simulateSwitching keeps
// its last result and returns it again when it gets the same logic and
// configuration (counter power.activity_reused), so evaluateDft of the
// three holding styles of one circuit, and measureNormalPower of its base,
// simulate once between them.
//
// Cost: a simulation is 2 * n_vectors + 1 full sweeps of the one-word
// simulator (PatternSim::evalAll) plus 64 Bernoulli draws per primary input
// and flip-flop per vector. It is nearly all of a Tables I-IV evaluation:
// on s13207 at its workload one simulation takes about 55 ms, 40 of them
// sweeps and 9 hold masks (Release, 4-vCPU shared VM), against about 85 ms
// when each settle queued events. A circuit whose activity stays low
// loses instead: at the default rates an input change reaches about 30% of
// s298's gates per settle, so the sweep costs it some 30 us more per
// simulation. A reuse costs a pass over the netlist to build the key, a
// compare and a copy of the toggle counts.
#pragma once

#include "netlist/netlist.hpp"
#include "sim/sequential.hpp"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace flh {

/// Power side-effects of DFT hardware.
struct PowerOverlay {
    /// Extra capacitance physically attached to a net (fF) — switches
    /// whenever the net toggles (keeper input cap, latch/MUX input cap).
    std::unordered_map<NetId, double> extra_net_cap_ff;
    /// Extra *internal* capacitance switched per toggle of a net (fF) —
    /// internal nodes of a holding element driven by this net.
    std::unordered_map<NetId, double> extra_switched_cap_ff;
    /// Leakage multiplier per gate (< 1 for FLH-gated gates in normal mode).
    std::unordered_map<GateId, double> gate_leak_factor;
    /// Flat extra leakage of added DFT devices (nW).
    double extra_leak_nw = 0.0;

    [[nodiscard]] double extraCap(NetId n) const noexcept {
        const auto it = extra_net_cap_ff.find(n);
        return it == extra_net_cap_ff.end() ? 0.0 : it->second;
    }
    [[nodiscard]] double extraSwitched(NetId n) const noexcept {
        const auto it = extra_switched_cap_ff.find(n);
        return it == extra_switched_cap_ff.end() ? 0.0 : it->second;
    }
    [[nodiscard]] double leakFactor(GateId g) const noexcept {
        const auto it = gate_leak_factor.find(g);
        return it == gate_leak_factor.end() ? 1.0 : it->second;
    }
};

struct PowerResult {
    double switching_uw = 0.0; ///< net + internal switched capacitance
    double clocking_uw = 0.0;  ///< FF clock-node power (style-independent)
    double leakage_uw = 0.0;
    std::uint64_t toggles = 0; ///< total counted net toggles

    [[nodiscard]] double totalUw() const noexcept {
        return switching_uw + clocking_uw + leakage_uw;
    }

    /// Combinational-block power: what the paper's NanoSim columns measure
    /// (Table IV is headed "Combinational power"). Clock-tree/FF-internal
    /// power is identical across holding styles and excluded.
    [[nodiscard]] double logicUw() const noexcept { return switching_uw + leakage_uw; }
};

struct PowerConfig {
    int n_vectors = 100;       ///< the paper's 100 random vectors
    std::uint64_t seed = 1234; ///< vector/initial-state seed

    /// Per-cycle toggle probability of each primary input bit. Random
    /// vectors with full 0.5 activity overstate real workloads; 0.3 is a
    /// typical datapath input rate.
    double pi_toggle_prob = 0.3;

    /// Per-cycle probability that a flip-flop holds its value instead of
    /// capturing (models the enable-gated / hold registers that dominate
    /// large designs — the "many idle first level gates" of Section III).
    double ff_hold_prob = 0.0;
};

/// Switching activity of one normal-mode simulation.
struct SwitchingActivity {
    std::vector<std::uint64_t> toggles; ///< per NetId, summed over all 64 slots
    double sampled_cycles = 0.0;        ///< n_vectors * 64 sampled clock cycles
};

/// Sequential simulation of `cfg.n_vectors` random vectors, counting toggles.
/// Returns a copy of the previous call's result, without simulating, when
/// that call had the same key: every `cfg` field (the probabilities by bit
/// pattern), the net count, the PI and flip-flop orders, and each gate's
/// function, output and inputs in pin order. The key is content, compared
/// in full, so a netlist edited in place never reuses a stale result and an
/// identical copy reuses it. One slot, shared by all threads under a mutex;
/// the simulation itself runs outside the lock.
[[nodiscard]] SwitchingActivity simulateSwitching(const Netlist& nl, const PowerConfig& cfg = {});

/// Power of `nl` with DFT overlay `ov` under the recorded activity.
[[nodiscard]] PowerResult powerFromSwitching(const Netlist& nl,
                                             const SwitchingActivity& activity,
                                             const PowerOverlay& ov = {});

/// Normal-mode power: powerFromSwitching(nl, simulateSwitching(nl, cfg), ov).
[[nodiscard]] PowerResult measureNormalPower(const Netlist& nl, const PowerOverlay& ov = {},
                                             const PowerConfig& cfg = {});

/// Test-mode (scan-shift) power: energy dissipated in the combinational
/// block while a full pattern is shifted in, per the given hold style.
/// Returns the power averaged over `n_patterns` pattern loads.
struct ScanShiftPowerResult {
    double comb_switching_uw = 0.0; ///< redundant switching inside the logic
    double ffq_switching_uw = 0.0;  ///< scan-FF output / first-level input wires
    std::uint64_t comb_toggles = 0;
};
[[nodiscard]] ScanShiftPowerResult measureScanShiftPower(const Netlist& nl, HoldStyle style,
                                                         int n_patterns = 10,
                                                         std::uint64_t seed = 99);

} // namespace flh
