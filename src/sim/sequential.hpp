// Sequential (clocked) simulation on top of PatternSim: normal-mode vector
// application and scan-chain operation with the paper's holding semantics.
//
// Scan shifting is where the three DFT styles differ (Section IV):
//  * None          — a plain scan FF drives the logic directly, so every
//                    shift cycle ripples through the combinational block
//                    (the redundant switching Gerstendorfer & Wunderlich
//                    quantify at ~78% of test energy);
//  * EnhancedScan  — the hold latches freeze the combinational inputs, so
//                    the block sees nothing during shifting;
//  * MuxHold       — same freezing, implemented at the MUX;
//  * Flh           — the FF outputs *do* toggle, but the supply-gated
//                    first-level gates hold their outputs, so nothing
//                    propagates past level 1.
#pragma once

#include "sim/pattern_sim.hpp"

#include <cstdint>
#include <vector>

namespace flh {

/// Which holding hardware the circuit carries (see header comment).
enum class HoldStyle : std::uint8_t { None, EnhancedScan, MuxHold, Flh };

[[nodiscard]] const char* toString(HoldStyle s) noexcept;

/// Clocked simulation driver. All 64 pattern slots advance in lockstep.
class SequentialSim {
public:
    explicit SequentialSim(const Netlist& nl, HoldStyle style = HoldStyle::None);

    [[nodiscard]] PatternSim& sim() noexcept { return sim_; }
    [[nodiscard]] const PatternSim& sim() const noexcept { return sim_; }
    [[nodiscard]] HoldStyle style() const noexcept { return style_; }
    [[nodiscard]] std::size_t ffCount() const noexcept { return state_.size(); }

    /// Current FF state (per FF, in scan-chain order).
    [[nodiscard]] const std::vector<PV>& state() const noexcept { return state_; }

    /// Force the FF state and drive it onto the Q nets.
    void setState(const std::vector<PV>& state);

    /// Set one primary input.
    void setPi(std::size_t index, PV v);
    void setPis(const std::vector<PV>& pis);

    /// Evaluate the combinational logic with current PIs/state.
    void settle();

    /// One functional clock: capture D into the FFs and drive Q nets.
    void clock();

    /// One scan-shift clock: state[i] <- state[i+1], last <- scan_in.
    /// Returns the bit shifted out (state[0] before the shift).
    /// Q-net visibility follows the hold style (see header comment).
    PV shift(PV scan_in);

    /// Restrict FLH holding to a subset of the first-level gates (partial
    /// FLH, the analog of partial enhanced scan). Only meaningful for
    /// HoldStyle::Flh; must not be called while holding.
    void setFlhGatedGates(std::vector<GateId> gates);

    /// Enter/leave the "hold" phase used during shifting:
    ///  * EnhancedScan/MuxHold: freeze (or release) the comb-side view of
    ///    the FF outputs;
    ///  * Flh: assert (or release) supply gating on the first-level gates;
    ///    asserting settles first, so the gated gates keep settled outputs;
    ///  * None: no effect.
    /// Releasing re-drives the current state and re-evaluates.
    void setHolding(bool holding);
    [[nodiscard]] bool holding() const noexcept { return holding_; }

    /// Observed response: PO values followed by FF D values
    /// (SimTables::observed, the capture view used to compare good/faulty
    /// machines).
    [[nodiscard]] std::vector<PV> observe() const;

private:
    void driveQ();

    PatternSim sim_;
    HoldStyle style_;
    std::vector<GateId> first_level_;
    std::vector<PV> state_;
    bool holding_ = false;
};

} // namespace flh
