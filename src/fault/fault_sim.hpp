// Parallel-pattern single-fault fault simulation (PPSFP).
//
// Patterns are packed FaultSimOptions::words x 64 per simulator pass (the
// event-driven PatternSim of sim/pattern_sim.hpp at that width, evaluated by
// the runtime-dispatched SIMD kernel; words = 0 selects the reference
// graders, one word with a full observation-snapshot compare); each candidate
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
#include "util/exec_policy.hpp"

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

/// Throws std::invalid_argument, naming `who`, unless `p` has one value per
/// PI and per flip-flop of `nl`.
void checkPatternShape(const Netlist& nl, const Pattern& p, const char* who);

/// Drive `p` onto the simulator's sources (SimTables::sources: PIs, then
/// flip-flop Q nets) in every slot of word 0, and propagate. Throws
/// std::invalid_argument unless `p` has one value per PI and per flip-flop.
void loadPattern(PatternSim& sim, const Pattern& p);

using Response = std::vector<Logic>; ///< a full-scan capture, in response() order

/// The settled full-scan response in word 0, slot 0: PO values, then
/// flip-flop D values (SimTables::observed).
[[nodiscard]] std::vector<Logic> response(const PatternSim& sim);

/// The circuit's settled response to `p`: POs, then the capture into the
/// flip-flops. Throws like loadPattern.
[[nodiscard]] std::vector<Logic> response(const Netlist& nl, const Pattern& p);

/// The circuit's next state under a pattern: the flip-flop tail of
/// response(nl, p), i.e. what a faithful capture of V2 = p must produce.
[[nodiscard]] std::vector<Logic> nextState(const Netlist& nl, const Pattern& p);

/// Construct the V2 implied by an application style (broadside derives the
/// state from V1's response; skewed-load shifts V1's state by one position
/// with `scan_in_bit` entering the chain). PIs of V2 are free and provided.
[[nodiscard]] TwoPattern makePair(const Netlist& nl, TestApplication style, const Pattern& v1,
                                  const std::vector<Logic>& v2_pis, Logic scan_in_bit = Logic::Zero);

/// True if `tp` satisfies the structural constraint of `style` (enhanced
/// scan accepts anything).
[[nodiscard]] bool isValidPair(const Netlist& nl, TestApplication style, const TwoPattern& tp);

/// Tuning knobs for the fault-simulation engine (fault/parallel_sim.hpp).
/// Worker counts resolve through the one ExecPolicy::resolveThreads
/// implementation (util/exec_policy.hpp).
struct FaultSimOptions {
    /// Worker threads. 1 = run inline on the calling thread (no spawn);
    /// 0 = one worker per hardware thread.
    unsigned threads = 1;

    /// Pool shrink floor: never spawn more workers than
    /// n_faults / min_faults_per_worker — below that the per-worker
    /// good-machine loads and thread startup dominate the grading work.
    /// 0 disables the floor.
    std::size_t min_faults_per_worker = 64;

    /// 64-bit words per packed-simulation block: each propagation pass
    /// grades words x 64 patterns (kMaxPackedWords max). 0 selects the
    /// reference graders (one word, full observation-snapshot compare); any
    /// width produces bit-identical results. Values above
    /// ceil(n_patterns / 64) are clamped, so the default never slows down
    /// single-batch runs (e.g. ATPG grading one test at a time).
    unsigned words = 4;

    /// Effective worker count for an `n_faults`-sized fault list. Always
    /// >= 1, even for threads = 0 on hardware that reports no concurrency
    /// or for min_faults_per_worker = 0.
    [[nodiscard]] unsigned resolveThreads(std::size_t n_faults) const noexcept {
        return ExecPolicy{threads, min_faults_per_worker}.resolveThreads(n_faults);
    }
};

/// Stuck-at fault simulation over a pattern set, with fault dropping, on the
/// engine of fault/parallel_sim.hpp (serial by default). Like the two
/// transition calls below, throws std::invalid_argument at every width
/// unless each pattern has one value per PI and per flip-flop.
[[nodiscard]] FaultSimResult runStuckAtFaultSim(const Netlist& nl, std::span<const Pattern> pats,
                                                std::span<const FaultSite> faults,
                                                const FaultSimOptions& opts = {});

/// Transition fault simulation over two-pattern tests, with fault dropping
/// (same engine).
[[nodiscard]] FaultSimResult runTransitionFaultSim(const Netlist& nl,
                                                   std::span<const TwoPattern> tests,
                                                   std::span<const TransitionFault> faults,
                                                   const FaultSimOptions& opts = {});

/// N-detect profile: how many of the tests detect each fault (no fault
/// dropping). Higher multiplicity means the fault is exercised through more
/// distinct paths — the standard proxy for small-delay-defect quality.
/// Counted a block at a time by popcount of each fault's hit masks (same
/// engine).
[[nodiscard]] std::vector<std::size_t> countTransitionDetections(
    const Netlist& nl, std::span<const TwoPattern> tests,
    std::span<const TransitionFault> faults, const FaultSimOptions& opts = {});

/// lastDetectingPatterns' entry for a fault no pattern detects.
inline constexpr std::size_t kNoPattern = static_cast<std::size_t>(-1);

/// Per fault, the index of the last pattern that detects it, or kNoPattern
/// (same engine, no dropping): the patterns a reverse-order greedy
/// compaction keeps (atpg/compaction.hpp).
[[nodiscard]] std::vector<std::size_t> lastDetectingPatterns(
    const Netlist& nl, std::span<const Pattern> pats, std::span<const FaultSite> faults,
    const FaultSimOptions& opts = {});
[[nodiscard]] std::vector<std::size_t> lastDetectingPatterns(
    const Netlist& nl, std::span<const TwoPattern> tests, std::span<const TransitionFault> faults,
    const FaultSimOptions& opts = {});

/// The V2 capture of each test on a die whose one defect is the slow net
/// `slow` (nullptr: the good die): the net keeps its initial value where
/// transition grading activates the fault. Throws std::invalid_argument
/// unless each pattern fits the netlist.
[[nodiscard]] std::vector<Response> transitionResponses(const Netlist& nl,
                                                        std::span<const TwoPattern> tests,
                                                        const TransitionFault* slow);

/// Per fault, how many tests' predicted captures (transitionResponses)
/// differ from `observed` in value or X-ness: an n-detect count against a
/// die (same engine; words = 0 runs one word). Throws std::invalid_argument
/// unless there is one observed response per test, each |POs| + |FFs|
/// wide, and each pattern fits the netlist.
[[nodiscard]] std::vector<std::size_t> countMismatchingTests(
    const Netlist& nl, std::span<const TwoPattern> tests, std::span<const Response> observed,
    std::span<const TransitionFault> faults, const FaultSimOptions& opts = {});

} // namespace flh
