// Multi-threaded fault-simulation engine.
//
// The fault list is split into contiguous ranges, one per worker; each
// worker owns a private simulator replica (two for two-pattern tests; all
// replicas of one call share a read-only SimTables) and grades only its
// range, block-major: for every pattern block the worker
// loads the block, snapshots the good machine, then injects each
// still-undetected fault of its range, propagates the faulty cone
// event-driven, compares observation points, and rolls the simulator back
// through the recorded event frontier (clearFault).
//
// Every path runs the one event-driven simulator (sim/pattern_sim.hpp).
// By default a block is FaultSimOptions::words x 64 patterns, evaluated
// plane-wise by the runtime-dispatched SIMD kernel (cell/logic_block.hpp),
// and a fault's detections are read from the simulator's undo log
// (faultDiffOnto). words = 0 selects the reference grader: blocks of one
// word, and detection by comparing full good and faulty observation
// snapshots, with no undo-log diff. Both produce bit-identical detected
// masks (the verdict is a pure function of the pattern set). The packed
// width is clamped per run to ceil(n_patterns / 64), so small pattern sets
// never pay for unused words.
//
// Fault dropping is shared through an atomic detected bitmap: a worker sets
// a fault's bit with a relaxed fetch_or on first detection and skips any
// fault whose bit is already set. Since faults are independent (single-fault
// assumption) and each fault's verdict is a pure function of the pattern
// set, the result is deterministic: every thread count produces the same
// detected mask, bit-identical to the serial engine (threads = 1 runs the
// identical loop inline, with no pool at all).
#pragma once

#include "fault/fault_sim.hpp"
#include "util/exec_policy.hpp"

#include <memory>

namespace flh {

/// Tuning knobs for the fault-simulation engine.
///
/// The two threading fields are kept as thin, deprecated aliases of the
/// unified flh::ExecPolicy vocabulary (util/exec_policy.hpp): `threads`
/// maps to ExecPolicy::threads and `min_faults_per_worker` to
/// ExecPolicy::min_items_per_worker. New code should build an ExecPolicy
/// and assign through exec(); resolution always goes through the single
/// ExecPolicy::resolveThreads implementation.
struct FaultSimOptions {
    /// Worker threads. 1 = run inline on the calling thread (no spawn);
    /// 0 = one worker per hardware thread. Deprecated alias of
    /// ExecPolicy::threads.
    unsigned threads = 1;

    /// Pool shrink floor: never spawn more workers than
    /// n_faults / min_faults_per_worker — below that the per-worker
    /// good-machine loads and thread startup dominate the grading work.
    /// 0 disables the floor. Deprecated alias of
    /// ExecPolicy::min_items_per_worker.
    std::size_t min_faults_per_worker = 64;

    /// 64-bit words per packed-simulation block: each propagation pass
    /// grades words x 64 patterns (kMaxPackedWords max). 0 selects the
    /// reference grader (one word, full observation-snapshot compare); any
    /// width produces bit-identical detected masks. Values above
    /// ceil(n_patterns / 64) are clamped, so the default never slows down
    /// single-batch runs (e.g. ATPG grading one test at a time).
    unsigned words = 4;

    /// The unified policy view of the knobs above.
    [[nodiscard]] ExecPolicy exec() const noexcept {
        return ExecPolicy{threads, min_faults_per_worker};
    }

    /// Replace both knobs from a policy.
    void setExec(const ExecPolicy& p) noexcept {
        threads = p.threads;
        min_faults_per_worker = p.min_items_per_worker;
    }

    /// Effective worker count for an `n_faults`-sized fault list. Always
    /// >= 1, even for threads = 0 on hardware that reports no concurrency
    /// or for min_faults_per_worker = 0.
    [[nodiscard]] unsigned resolveThreads(std::size_t n_faults) const noexcept {
        return exec().resolveThreads(n_faults);
    }
};

/// Stuck-at grading with fault dropping, partitioned across workers.
[[nodiscard]] FaultSimResult runStuckAtFaultSim(const Netlist& nl,
                                                std::span<const Pattern> pats,
                                                std::span<const FaultSite> faults,
                                                const FaultSimOptions& opts);

/// Transition grading with fault dropping, partitioned across workers.
[[nodiscard]] FaultSimResult runTransitionFaultSim(const Netlist& nl,
                                                   std::span<const TwoPattern> tests,
                                                   std::span<const TransitionFault> faults,
                                                   const FaultSimOptions& opts);

/// N-detect profile (no fault dropping): per-test detections are counted
/// 64 tests at a time via popcount of the batch hit mask, partitioned
/// across workers (each writes a disjoint slice of the counts).
[[nodiscard]] std::vector<std::size_t> countTransitionDetections(
    const Netlist& nl, std::span<const TwoPattern> tests,
    std::span<const TransitionFault> faults, const FaultSimOptions& opts);

/// The packed engine's transition grading of one block of tests, kept as an
/// object: a V1 machine gives the slots that launch each fault's initial
/// value, a V2 machine detects the equivalent stuck-at fault there. The
/// packed workers of runTransitionFaultSim and countTransitionDetections
/// each run one; the transition ATPG top-off keeps one at a single word and
/// reloads it per candidate test. A reload only re-simulates what the new
/// sources change, and every mask is a pure function of the loaded block.
class TransitionGrader {
public:
    /// Throws like PatternSim for a bad `words`.
    TransitionGrader(std::shared_ptr<const SimTables> tables, unsigned words);

    [[nodiscard]] unsigned words() const noexcept { return v1_.words(); }

    /// Load tests [base, base + count) of the V1 / V2 sequences: test i in
    /// word i / 64, slot i % 64. Slots past `count` repeat the last test, so
    /// they never detect anything the block does not.
    void loadBlock(std::span<const Pattern> v1s, std::span<const Pattern> v2s, std::size_t base,
                   std::size_t count);

    /// Fill `init_ok` (words() entries) with the slots of `valid` whose V1
    /// sets the fault site to its initial value; returns their OR over words
    /// (zero: no slot of the block can detect `tf`).
    std::uint64_t launchMask(const TransitionFault& tf, const std::uint64_t* valid,
                             std::uint64_t* init_ok) const;

    /// Fill `hit` with the slots of `init_ok` whose V2 observes the
    /// equivalent stuck-at fault; returns their OR over words.
    std::uint64_t detectMask(const TransitionFault& tf, const std::uint64_t* init_ok,
                             std::uint64_t* hit);

private:
    PatternSim v1_;
    PatternSim v2_;
    std::vector<std::uint8_t> is_obs_; ///< per net: PO or FF D input
};

} // namespace flh
