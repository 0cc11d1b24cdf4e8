// The paper's test-application protocol (Fig. 5b), executed cycle by cycle
// on the scan-chain simulator.
//
// Phases:
//   1. scan-in V1    — TC=0: the holding hardware isolates the logic while
//                      V1's state shifts through the chain;
//   2. apply V1      — TC=1 for one cycle with V1's PI bits: the logic
//                      settles to its response to V1;
//   3. hold + scan V2— TC=0 again: FLH's gating freezes the first-level
//                      outputs (enhanced scan freezes the latch outputs)
//                      while V2 shifts in;
//   4. launch        — TC=1 with V2's PI bits: the V1 -> V2 transition
//                      launches into the settled logic;
//   5. capture       — one rated clock later the response is captured in
//                      the flip-flops (and subsequently scanned out).
//
// The applicator also *audits* the protocol: it records whether the logic
// state held faithfully during phase 3 (hold integrity) and whether the
// launch transition seen by the logic was exactly V1 -> V2 (launch
// fidelity). Plain scan (HoldStyle::None) fails both — which is precisely
// why arbitrary two-pattern application needs enhanced scan or FLH.
#pragma once

#include "fault/fault_sim.hpp"
#include "sim/sequential.hpp"

#include <string>
#include <vector>

namespace flh {

/// One row of the Fig. 5b trace.
struct PhaseRecord {
    std::string phase;         ///< "scan-V1", "apply-V1", "scan-V2", "launch", "capture"
    int cycles = 0;            ///< scan-chain cycles spent
    bool tc_high = false;      ///< test-control level during the phase
    std::uint64_t comb_toggles = 0; ///< switching inside the combinational block
};

struct ApplicationResult {
    std::vector<PhaseRecord> trace;
    bool hold_intact = false;     ///< comb state == response(V1) through phase 3
    double hold_fidelity_pct = 0.0; ///< fraction of gate outputs that held
    bool launch_faithful = false; ///< transition applied was exactly V1 -> V2
    std::vector<Logic> po_launch; ///< primary-output response after the launch settle
    std::vector<Logic> captured;  ///< FF capture after the rated clock
    std::vector<Logic> scan_out;  ///< captured state shifted back out
};

/// Executes two-pattern tests against a netlist equipped with the given
/// holding style.
class TwoPatternApplicator {
public:
    TwoPatternApplicator(const Netlist& nl, HoldStyle style);

    /// Partial FLH: hold only the given subset of first-level gates
    /// (cheaper hardware, possibly corrupted holds — the audit reports it).
    TwoPatternApplicator(const Netlist& nl, std::vector<GateId> flh_gated_gates);

    [[nodiscard]] HoldStyle style() const noexcept { return style_; }

    /// Run the full protocol for one test.
    [[nodiscard]] ApplicationResult apply(const TwoPattern& tp);

private:
    const Netlist* nl_;
    HoldStyle style_;
    std::vector<GateId> custom_gated_;
    bool use_custom_gated_ = false;
};

} // namespace flh
