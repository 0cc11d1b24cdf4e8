// Delay-fault diagnosis (Section I: "Scan-based structural delay testing
// not only helps detection but also diagnosis of delay faults, and hence,
// is a popular choice").
//
// Cause-effect diagnosis: given the observed per-test responses of a
// defective die, every candidate transition fault's responses are predicted
// and scored against the observation. The arbitrary two-pattern application
// (FLH/enhanced scan) is what makes the per-test responses reproducible
// enough for this to work: each test applies a known (V1, V2). Candidates
// are graded like detection (countMismatchingTests), with the faulty V2
// capture compared against the observed one instead of the good one.
#pragma once

#include "fault/fault_sim.hpp"

#include <vector>

namespace flh {

/// Simulate the responses a die with `fault` produces under `tests`
/// (transitionResponses). Throws std::invalid_argument for a test whose
/// patterns do not fit the netlist.
[[nodiscard]] std::vector<Response> simulateFaultyResponses(const Netlist& nl,
                                                            std::span<const TwoPattern> tests,
                                                            const TransitionFault& fault);

/// Good-machine responses.
[[nodiscard]] std::vector<Response> simulateGoodResponses(const Netlist& nl,
                                                          std::span<const TwoPattern> tests);

struct Candidate {
    std::size_t fault_index = 0;
    int mismatching_tests = 0; ///< tests where candidate's prediction misses
};

struct DiagnosisResult {
    /// Candidates ranked best-first (fewest mismatches).
    std::vector<Candidate> ranking;

    /// Rank of a given fault index (1-based; 0 = not present).
    [[nodiscard]] std::size_t rankOf(std::size_t fault_index) const;
    /// Number of candidates tied at the best score.
    [[nodiscard]] std::size_t bestTieSize() const;
};

/// Rank `candidates` by how well their predicted responses explain
/// `observed` (one response per test; countMismatchingTests), fewest
/// mismatching tests first, ties in candidate order. Throws
/// std::invalid_argument unless there is one observed response per test,
/// each |POs| + |FFs| wide, and each test fits the netlist.
[[nodiscard]] DiagnosisResult diagnose(const Netlist& nl, std::span<const TwoPattern> tests,
                                       std::span<const Response> observed,
                                       std::span<const TransitionFault> candidates);

} // namespace flh
