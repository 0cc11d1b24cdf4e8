// Parallel-pattern single-fault fault simulation (PPSFP).
//
// Patterns are packed FaultSimOptions::words x 64 per simulator pass (the
// event-driven PatternSim of sim/pattern_sim.hpp at that width, evaluated by
// the runtime-dispatched SIMD kernel; words = 0 selects the reference
// grader, one word with a full observation-snapshot compare); each candidate
// fault is then injected and its cone re-propagated event-driven, comparing
// the observation points (primary outputs + flip-flop D inputs — the
// full-scan capture view) against the good machine. Every width produces
// bit-identical detected masks.
//
// Two-pattern (transition) tests follow the paper's application styles:
//  * EnhancedScan (identical for FLH): V1 and V2 are arbitrary;
//  * Broadside:   V2's state is the circuit's response to V1;
//  * SkewedLoad:  V2's state is V1's state shifted by one scan position.
// A transition fault is detected by (V1, V2) iff V1 establishes the initial
// value at the fault site and V2 detects the corresponding stuck-at fault.
#pragma once

#include "fault/faults.hpp"

#include <span>
#include <vector>

namespace flh {

class JsonWriter;

/// One full-scan test pattern: primary-input values + scan state.
struct Pattern {
    std::vector<Logic> pis;
    std::vector<Logic> state;
};

/// A two-pattern delay test.
struct TwoPattern {
    Pattern v1;
    Pattern v2;
};

/// How the second pattern is applied (paper Section I).
enum class TestApplication : std::uint8_t { EnhancedScan, Broadside, SkewedLoad };

[[nodiscard]] const char* toString(TestApplication a) noexcept;

struct FaultSimResult {
    std::size_t total = 0;
    std::size_t detected = 0;
    std::vector<bool> detected_mask; ///< per fault, aligned with the input list

    [[nodiscard]] double coveragePct() const noexcept {
        return total ? 100.0 * static_cast<double>(detected) / static_cast<double>(total) : 0.0;
    }

    /// Shared writeJson(JsonWriter&) convention (util/json.hpp): one
    /// object with totals and coverage; the per-fault mask is summarized,
    /// not dumped.
    void writeJson(JsonWriter& w) const;
};

/// Random patterns with fully specified bits.
[[nodiscard]] std::vector<Pattern> randomPatterns(const Netlist& nl, std::size_t count,
                                                  std::uint64_t seed);

/// The circuit's next state under a pattern (combinational response captured
/// into the flip-flops).
[[nodiscard]] std::vector<Logic> nextState(const Netlist& nl, const Pattern& p);

/// Construct the V2 implied by an application style (broadside derives the
/// state from V1's response; skewed-load shifts V1's state by one position
/// with `scan_in_bit` entering the chain). PIs of V2 are free and provided.
[[nodiscard]] TwoPattern makePair(const Netlist& nl, TestApplication style, const Pattern& v1,
                                  const std::vector<Logic>& v2_pis, Logic scan_in_bit = Logic::Zero);

/// True if `tp` satisfies the structural constraint of `style` (enhanced
/// scan accepts anything).
[[nodiscard]] bool isValidPair(const Netlist& nl, TestApplication style, const TwoPattern& tp);

/// Stuck-at fault simulation over a pattern set. Runs on the engine in
/// fault/parallel_sim.hpp with the default (single-threaded) options.
[[nodiscard]] FaultSimResult runStuckAtFaultSim(const Netlist& nl, std::span<const Pattern> pats,
                                                std::span<const FaultSite> faults);

/// Transition fault simulation over two-pattern tests (same engine).
[[nodiscard]] FaultSimResult runTransitionFaultSim(const Netlist& nl,
                                                   std::span<const TwoPattern> tests,
                                                   std::span<const TransitionFault> faults);

/// N-detect profile: how many of the tests detect each fault (no fault
/// dropping). Higher multiplicity means the fault is exercised through more
/// distinct paths — the standard proxy for small-delay-defect quality.
/// Batched 64 tests per pass on shared simulators (same engine).
[[nodiscard]] std::vector<std::size_t> countTransitionDetections(
    const Netlist& nl, std::span<const TwoPattern> tests,
    std::span<const TransitionFault> faults);

} // namespace flh
