// Two-pattern (transition-fault) test generation for the paper's three
// application styles.
//
// The generation difficulty ordering is the paper's motivation (Section I):
//  * EnhancedScan — V1 and V2 are independent PODEM problems ("allows easy
//    application of a transition and enables deterministic choice of any
//    launching pattern ... for best possible fault coverage"). FLH applies
//    the *same* vectors — the benches verify the coverage is identical.
//  * SkewedLoad — V1's state is V2's state shifted by one position, so the
//    launch pattern is highly correlated with the initialization pattern
//    ("test generation for high fault coverage can be difficult").
//  * Broadside — V2's state must be the circuit's response to V1, a
//    sequential justification problem ("can suffer from poor fault
//    coverage").
#pragma once

#include "atpg/stuck_atpg.hpp"

namespace flh {

struct TransitionAtpgConfig {
    int random_pairs = 128;
    int justify_retries = 3; ///< re-tries with different fills (constrained styles)
    PodemConfig podem{};
    std::uint64_t seed = 11;
};

struct TransitionAtpgResult {
    TestApplication style = TestApplication::EnhancedScan;
    std::vector<TwoPattern> tests;
    FaultSimResult coverage; ///< final fault-sim over all generated tests
    std::size_t generated = 0;
    std::size_t aborted = 0;
    std::size_t untestable = 0;
    /// Failed V1 attempts: one per retry whose V1 could not meet the style
    /// constraint. A deterministic failure (broadside's justification does
    /// not depend on the fill) counts once per retry, though it runs once.
    /// Enhanced-scan V1 failures are not counted: its V1 is unconstrained.
    std::size_t justify_failures = 0;
};

[[nodiscard]] TransitionAtpgResult generateTransitionTests(const Netlist& nl,
                                                           TestApplication style,
                                                           std::span<const TransitionFault> faults,
                                                           const TransitionAtpgConfig& cfg = {});

} // namespace flh
