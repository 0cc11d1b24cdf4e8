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
//
// Generation runs a seeded random phase with fault dropping, then a PODEM
// top-off over the faults it left undetected. The top-off can run on
// several threads (TransitionAtpgConfig::threads): workers speculatively
// run each fault's fill-independent searches (PODEM's V2 and, for enhanced
// scan and broadside, V1's justification) up to eight faults per worker
// ahead of the last commit, so one aborting fault does not idle the pool,
// while the calling thread commits them in fault order — every counter,
// random fill, skewed-load justification and grading decision — and
// prepares faults itself while the next one in order is still being
// searched.
// Podem resets fully on every call and the RNG is drawn only at commit, so
// test sets, counters and detected_mask are bit-identical for every
// thread count.
#pragma once

#include "atpg/stuck_atpg.hpp"

namespace flh {

struct TransitionAtpgConfig {
    int random_pairs = 128;
    int justify_retries = 3; ///< re-tries with different fills (constrained styles)
    PodemConfig podem{};
    std::uint64_t seed = 11;
    /// Top-off worker threads (ExecPolicy::threads): 1 = inline on the
    /// calling thread, no pool; 0 = one per hardware thread. At most one
    /// worker per 256 faults left after the random phase, so small top-offs
    /// stay serial. Results do not depend on it.
    unsigned threads = 1;
};

struct TransitionAtpgResult {
    TestApplication style = TestApplication::EnhancedScan;
    std::vector<TwoPattern> tests;
    FaultSimResult coverage; ///< final fault-sim over all generated tests
    std::size_t generated = 0;
    std::size_t aborted = 0;    ///< top-off faults whose V2 search aborted
    std::size_t untestable = 0; ///< top-off faults whose V2 search proved none
    /// Enhanced scan: top-off faults whose V2 search succeeded but whose V1
    /// justification of the initial value failed (other styles: 0). Each
    /// undetected fault holds one of the four top-off verdicts; a later
    /// top-off test may still detect a fault counted aborted.
    std::size_t v1_untestable = 0;
    std::size_t v1_aborted = 0;
    /// Failed V1 attempts of the constrained styles: one per retry whose V1
    /// could not meet the style constraint. A deterministic failure
    /// (broadside's justification does not depend on the fill) counts once
    /// per retry, though it runs once.
    std::size_t justify_failures = 0;
};

[[nodiscard]] TransitionAtpgResult generateTransitionTests(const Netlist& nl,
                                                           TestApplication style,
                                                           std::span<const TransitionFault> faults,
                                                           const TransitionAtpgConfig& cfg = {});

} // namespace flh
