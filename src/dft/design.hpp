// DFT design: which holding hardware is attached where, and what it costs.
//
// This is the evaluation harness behind the paper's Tables I-III. A DftDesign
// never rewrites the logic netlist (none of the three schemes changes the
// logic function); it records the holding hardware placement and exposes the
// derived area, and the timing/power overlays consumed by the sta and power
// modules. Comparing evaluate() results across styles on the same scanned
// netlist reproduces the paper's "% increase" columns.
#pragma once

#include "cell/dft_cells.hpp"
#include "netlist/netlist.hpp"
#include "power/power.hpp"
#include "sim/sequential.hpp"
#include "sta/timing.hpp"

#include <vector>

namespace flh {

class JsonWriter;

/// Sizing knobs for all three schemes (defaults reproduce the paper setup).
struct DftSizing {
    HoldLatchSpec latch{};
    MuxHoldSpec mux{};
    FlhGatingSpec flh{};
};

/// A holding-hardware plan for one scanned netlist.
struct DftDesign {
    HoldStyle style = HoldStyle::None;
    DftSizing sizing{};
    /// FLH only: the supply-gated gates (the unique first-level gates, or
    /// the reduced set after fanout optimization).
    std::vector<GateId> gated_gates;
};

/// Build the design for a style: latch/MUX attach one element per scan FF;
/// FLH gates every unique first-level gate.
[[nodiscard]] DftDesign planDft(const Netlist& nl, HoldStyle style, const DftSizing& sizing = {});

/// Drive strength of a gate in units of a minimum NMOS (used to size its
/// proportional sleep pair).
[[nodiscard]] double driveUnits(const Netlist& nl, GateId g);

/// Area of the FLH gating hardware on one specific gate (um^2).
[[nodiscard]] double flhGateAreaUm2(const Netlist& nl, GateId g, const FlhGatingSpec& spec);

/// Active area added by the DFT hardware (um^2).
[[nodiscard]] double dftAreaUm2(const Netlist& nl, const DftDesign& d);

/// Timing overlay (series stimulus-path delay / gated-gate degradation).
[[nodiscard]] TimingOverlay makeTimingOverlay(const Netlist& nl, const DftDesign& d);

/// Power overlay (switched caps, leakage factors).
[[nodiscard]] PowerOverlay makePowerOverlay(const Netlist& nl, const DftDesign& d);

/// One style's evaluation, all relative numbers against the plain scanned
/// netlist (style None).
struct DftEvaluation {
    HoldStyle style = HoldStyle::None;
    double base_area_um2 = 0.0;
    double dft_area_um2 = 0.0;
    double area_increase_pct = 0.0;

    double base_delay_ps = 0.0;
    double delay_ps = 0.0;
    double delay_increase_pct = 0.0;

    double base_power_uw = 0.0;
    double power_uw = 0.0;
    double power_increase_pct = 0.0;

    /// Shared writeJson(JsonWriter&) convention (util/json.hpp): one
    /// object with the style name and every absolute/relative figure.
    void writeJson(JsonWriter& w) const;
};

/// Full area/delay/power evaluation of one style on a scanned netlist: two
/// STA passes (without and with the overlay) and one switching simulation
/// whose activity prices both the base and the DFT power overlay.
[[nodiscard]] DftEvaluation evaluateDft(const Netlist& nl, const DftDesign& d,
                                        const PowerConfig& power_cfg = {});

/// Paper-style improvement of FLH over a baseline, on *overhead* (e.g. the
/// "71% improvement in delay overhead"): (base_ovh - flh_ovh) / base_ovh.
[[nodiscard]] double overheadImprovementPct(double baseline_increase_pct,
                                            double flh_increase_pct);

} // namespace flh
