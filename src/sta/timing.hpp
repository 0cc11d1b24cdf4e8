// Static timing analysis with load-dependent gate delays.
//
// Delay model: a gate driving net N contributes
//     d = r_out * (C(N) + extra_cap(N)) + p_intrinsic [+ adder]
// where C(N) is the receiver pin + wire + driver diffusion capacitance.
// This is the standard RC/logical-effort model; it is calibrated so an FO4
// inverter lands in the 70 nm ballpark (see cell tests).
//
// DFT hardware enters as a TimingOverlay, computed by the dft module:
//  * enhanced-scan / MUX holding elements add a series delay at the scan-FF
//    outputs (they sit in the stimulus path, paper Fig. 1a);
//  * FLH adds a per-gate delay adder on the supply-gated first-level gates
//    and keeper load on their output nets.
// The paper's Table II is the difference of runSta() results across
// overlays on the same netlist.
#pragma once

#include "netlist/netlist.hpp"

#include <span>
#include <unordered_map>
#include <vector>

namespace flh {

/// Timing side-effects of DFT hardware (all optional).
struct TimingOverlay {
    /// Extra capacitance on a net (fF): keeper input cap, latch input cap...
    std::unordered_map<NetId, double> extra_net_cap_ff;
    /// Series delay (ps) added where a source net launches into the logic
    /// (hold latch / MUX between the scan FF and the combinational block).
    std::unordered_map<NetId, double> source_series_ps;
    /// Fixed delay adder (ps) on a specific gate (FLH sleep-pair drive
    /// degradation on first-level gates).
    std::unordered_map<GateId, double> gate_delay_adder_ps;

    [[nodiscard]] double extraCap(NetId n) const noexcept {
        const auto it = extra_net_cap_ff.find(n);
        return it == extra_net_cap_ff.end() ? 0.0 : it->second;
    }
    [[nodiscard]] double sourceSeries(NetId n) const noexcept {
        const auto it = source_series_ps.find(n);
        return it == source_series_ps.end() ? 0.0 : it->second;
    }
    [[nodiscard]] double gateAdder(GateId g) const noexcept {
        const auto it = gate_delay_adder_ps.find(g);
        return it == gate_delay_adder_ps.end() ? 0.0 : it->second;
    }
};

struct TimingResult {
    double critical_delay_ps = 0.0;
    int critical_levels = 0;           ///< logic levels on the critical path
    std::vector<NetId> critical_path;  ///< source net ... endpoint net
    std::vector<double> arrival_ps;    ///< per net (kInvalid nets = 0)
    std::vector<double> required_ps;   ///< per net, w.r.t. critical delay
    [[nodiscard]] double slackPs(NetId n) const { return required_ps.at(n) - arrival_ps.at(n); }
};

/// Intrinsic per-stage delay floor (ps) added to every gate evaluation.
inline constexpr double kIntrinsicStagePs = 1.0;

/// Delay of one gate `g` driving its output under `ov` (ps).
[[nodiscard]] double gateDelayPs(const Netlist& nl, GateId g, const TimingOverlay& ov);

/// Full-netlist STA. Endpoints are POs and FF D pins; sources are PIs
/// (arrival 0) and FF Q nets (clk-to-q + any source series delay).
///
/// The result is a pure function of the netlist and does not depend on
/// its topological order: an arrival is the max over the gate's inputs
/// (the critical path's tie rule, first input wins, depends only on pin
/// order) and a required time is the min over the net's receivers. That is
/// what lets IncrementalSta recompute only the values an edit changed and
/// still match a full pass bit for bit.
[[nodiscard]] TimingResult runSta(const Netlist& nl, const TimingOverlay& ov = {});

/// STA with a per-gate delay multiplier (indexed by GateId; empty = all 1).
/// Used by the process-variation Monte Carlo: each die sample scales every
/// gate's nominal delay by its sampled factor.
[[nodiscard]] TimingResult runSta(const Netlist& nl, const TimingOverlay& ov,
                                  std::span<const double> gate_delay_factor);

/// Keeps runSta(nl) (no overlay) current across local edits of `nl`, at a
/// cost that follows what an edit changed rather than the netlist's size.
///
/// After edits, retime() is given every net whose receivers (load) or
/// driver changed, including every net created since the last call; each
/// gate added or rewired since then must drive or read one of them. It
/// recomputes those nets' drivers and readers, propagates arrivals forward
/// in level order and required times backward in reverse level order, and
/// stops wherever a recomputed value is bit-identical to the old one. Gate
/// levels are kept here, not rebuilt by the netlist: a new gate gets
/// max(input level) + 1 and increases are pushed forward. If the critical
/// delay changes, every required time moves with it, so retime() falls
/// back to a full pass.
///
/// Counters: `sta.retimed_gates` (gates whose arrival was recomputed; a
/// fallback counts every combinational gate), `sta.retime_fallbacks`.
class IncrementalSta {
public:
    /// Runs a full pass. `nl` must outlive this object.
    explicit IncrementalSta(const Netlist& nl);

    [[nodiscard]] const TimingResult& result() const noexcept { return res_; }

    /// Bring result() up to date after edits; see the class comment for
    /// what `touched` must contain.
    void retime(std::span<const NetId> touched);

private:
    const Netlist* nl_;
    TimingResult res_;
    std::vector<int> level_; ///< per gate: comb gates > every input's driver
    std::vector<char> queued_; ///< per gate / per net scratch, all zero between calls

    void fullPass();
    [[nodiscard]] int netLevel(NetId n) const;
};

} // namespace flh
