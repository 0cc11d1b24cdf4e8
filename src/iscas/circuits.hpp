// ISCAS89 benchmark circuits used by the paper's evaluation.
//
// The original ISCAS89 netlists are not redistributable within this
// repository's offline build, so (per DESIGN.md Section 2) the evaluation
// circuits are *statistics-matched synthetic reconstructions*: for each
// circuit the registry records the published structural statistics
// (flip-flop count, gate count, PI/PO, critical-path logic depth, average
// flip-flop fanout, unique first-level-gate ratio from Table I) and a fixed
// seed; the generator reproduces a circuit with those statistics. The small
// s27 benchmark is embedded verbatim as a genuine reference point.
//
// Every quantity in the paper's Tables I-IV is a function of exactly these
// statistics, so the reconstruction preserves the comparisons.
#pragma once

#include "netlist/netlist.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace flh {

/// Target statistics for one synthetic ISCAS89-like circuit.
struct CircuitSpec {
    std::string name;
    int n_pis = 1;
    int n_pos = 1;
    int n_ffs = 1;
    int n_comb_gates = 10;
    int depth = 5;              ///< target critical-path logic levels
    double ff_fanout_avg = 2.3; ///< paper Table I: total fanouts / FFs
    double unique_ratio = 1.8;  ///< paper Table I: unique first-level gates / FFs
    std::uint64_t seed = 1;

    /// Workload realism: fraction of cycles each register holds its value
    /// (enable-gated / hold registers). Larger control-dominated designs
    /// idle more — this drives Section III's observation that on s13207 the
    /// FLH circuit dissipates less than the original.
    double ff_hold_prob = 0.0;

    /// Per-cycle primary-input toggle probability of the circuit's workload
    /// (PowerConfig::pi_toggle_prob): control-dominated circuits idle on the
    /// input side too. The one source of this formula for the table benches
    /// and the flow's design attributes, which spell it into cache keys.
    [[nodiscard]] double piToggleProb() const noexcept {
        return 0.3 * (1.0 - 0.8 * ff_hold_prob);
    }
};

/// The genuine s27 benchmark (embedded verbatim).
[[nodiscard]] Netlist makeS27(const Library& lib);

/// Registry of the 11 evaluation circuits (Tables I-III).
[[nodiscard]] const std::vector<CircuitSpec>& paperCircuits();

/// The 8 higher-FF-count circuits used for Table IV (fanout optimization).
[[nodiscard]] std::vector<CircuitSpec> tableIvCircuits();

/// Look up a spec by name (throws if unknown).
[[nodiscard]] const CircuitSpec& findCircuit(const std::string& name);

/// Generate the statistics-matched netlist for a spec.
[[nodiscard]] Netlist generateCircuit(const CircuitSpec& spec, const Library& lib);

/// Convenience: generate a registered circuit by name ("s27" returns the
/// genuine netlist).
[[nodiscard]] Netlist makeCircuit(const std::string& name, const Library& lib);

} // namespace flh
