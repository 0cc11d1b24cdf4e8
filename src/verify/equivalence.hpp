// DFT equivalence checking: the paper's transparency claim, made executable.
//
// First-level hold (like enhanced scan and MUX-hold before it) promises to be
// *functionally transparent*: a circuit equipped with any of the three holding
// schemes must capture exactly the same response to an arbitrary (V1, V2)
// two-pattern test as the bare combinational logic evaluated directly
// (Fig. 1b / Fig. 5b). This module drives the full five-phase protocol
// (scan V1 -> apply V1 -> hold + scan V2 -> launch -> capture) through
// SequentialSim for every holding style and compares, capture bit for capture
// bit, against the direct-evaluation oracle — plus the protocol audits (hold
// integrity, launch fidelity) that plain scan fails by construction.
//
// The checker also powers mutation testing: injectMutant() corrupts one gate
// function, and checking the corrupted netlist as one style's implementation
// against the pristine reference must produce a mismatch — the guard against
// a vacuously-passing checker.
#pragma once

#include "core/test_application.hpp"

#include <span>
#include <string>
#include <vector>

namespace flh {

/// One observed disagreement between a DFT variant and the oracle.
struct EquivalenceMismatch {
    HoldStyle style = HoldStyle::None;
    std::size_t pair = 0;     ///< index into the checked pair list
    std::string kind;         ///< "capture", "po", "scan-out", "hold-audit", "launch-audit", "shape"
    std::size_t position = 0; ///< bit index inside the compared vector
    Logic expected = Logic::X;
    Logic got = Logic::X;

    [[nodiscard]] std::string describe() const;
};

/// What to compare. Defaults check everything the paper's protocol promises.
struct EquivalenceOptions {
    std::vector<HoldStyle> styles{HoldStyle::EnhancedScan, HoldStyle::MuxHold, HoldStyle::Flh};
    bool check_pos = true;      ///< primary-output response at launch vs direct evaluation
    bool check_scan_out = true; ///< scanned-out response must equal the capture
    bool audit_protocol = true; ///< hold integrity + launch fidelity must both pass
    std::size_t max_mismatches = 8; ///< stop collecting after this many
};

/// Per-style implementation netlists. Null entries fall back to the
/// reference netlist (the normal case: the holding styles are behavioral
/// overlays on one scanned netlist). Mutation testing points one style at a
/// corrupted copy; the shrinker points all of them at candidate reductions.
struct VariantNetlists {
    const Netlist* enhanced = nullptr;
    const Netlist* mux = nullptr;
    const Netlist* flh = nullptr;

    [[nodiscard]] const Netlist& forStyle(HoldStyle s, const Netlist& reference) const noexcept;
};

struct EquivalenceReport {
    std::size_t pairs_checked = 0;
    std::size_t comparisons = 0; ///< individual bit/audit comparisons made
    std::vector<EquivalenceMismatch> mismatches;

    [[nodiscard]] bool ok() const noexcept { return mismatches.empty(); }
    [[nodiscard]] std::string summary() const;
};

/// Run the Fig. 5b protocol for every pair under every requested style and
/// compare against direct evaluation of `reference`. Pair shapes must match
/// the reference netlist (pis/state sized to pis()/flipFlops()).
[[nodiscard]] EquivalenceReport checkDftEquivalence(const Netlist& reference,
                                                    std::span<const TwoPattern> pairs,
                                                    const EquivalenceOptions& opts = {},
                                                    const VariantNetlists& variants = {});

/// Fully random (V1, V2) pairs: both halves independent, arbitrary — the
/// pairs only enhanced scan and FLH can apply.
[[nodiscard]] std::vector<TwoPattern> randomTwoPatterns(const Netlist& nl, std::size_t count,
                                                        std::uint64_t seed);

/// Random + ATPG-generated pair set for a netlist: `random_pairs` arbitrary
/// pairs followed by up to `atpg_pairs` transition tests from the
/// enhanced-scan ATPG (deterministic per seed).
[[nodiscard]] std::vector<TwoPattern> makeEquivalencePairs(const Netlist& nl,
                                                           std::size_t random_pairs,
                                                           std::size_t atpg_pairs,
                                                           std::uint64_t seed);

/// Description of an injected mutation (for reporting and for re-deriving
/// the mutant on a shrunk netlist by output-net name).
struct MutantInfo {
    GateId gate = kInvalidId;
    std::string output_net;
    CellFn original = CellFn::Inv;
    CellFn mutated = CellFn::Inv;

    [[nodiscard]] std::string describe() const;
};

/// Copy `nl` with one seeded combinational gate's function flipped to a
/// different same-arity function. Throws if the netlist has no mutable gate.
[[nodiscard]] Netlist injectMutant(const Netlist& nl, std::uint64_t seed,
                                   MutantInfo* info = nullptr);

} // namespace flh
