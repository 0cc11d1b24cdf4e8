// Multi-threaded fault-simulation engine.
//
// The fault list is dealt out in stripes: it is cut into fixed chunks of 64
// consecutive faults, and worker w of T takes chunks w, w + T, w + 2T, ...
// (faults with large cones cluster in the list, so round-robin chunks keep
// the workers evenly loaded where contiguous ranges did not). Each worker
// owns a private grader — one or two simulator replicas, all replicas of one
// call sharing a read-only SimTables — and grades only its stripe,
// block-major: for every pattern block the worker loads the block, then
// grades each still-open fault group of its stripe with one fault
// excursion — inject, propagate the faulty cone event-driven, compare the
// observation points, and roll the simulator back (clearFault).
//
// The grading entry points of fault/fault_sim.hpp share one block driver in
// parallel_sim.cpp. It is a template over a grader, which loads a block and
// grades one fault group, and a sink, which takes each group's verdict.
// There are five graders:
//  * packed stuck-at: FaultSimOptions::words x 64 patterns per block,
//    evaluated plane-wise by the runtime-dispatched SIMD kernel
//    (cell/logic_block.hpp), detections read from the simulator's undo log
//    (faultDiffOnto);
//  * packed transition (TransitionGrader below): a net's slow-to-rise /
//    slow-to-fall pair shares one excursion that complements the net in the
//    slots where either fault is activated;
//  * diagnosis: that excursion read out against a die's observed
//    responses instead of the good machine (TransitionGrader::excite);
//  * the reference stuck-at and transition graders (words = 0): blocks of
//    one word, their own slot-by-slot loader, stuck-at injection per fault,
//    and detection by comparing full good and faulty observation snapshots,
//    with no undo-log diff. They share only the driver with the packed
//    graders, which is what makes them an oracle for them.
// There are three sinks: dropping sets a fault's bit in a shared detected
// bitmap and closes it for later blocks; n-detect adds the popcount of a
// fault's hit masks to its count and last-detector keeps its highest hit
// slot, closing nothing. Every grader produces bit-identical verdicts (a
// pure function of the pattern set). The packed width is clamped per run
// to ceil(n_patterns / 64), so small pattern sets never pay for unused words.
//
// The bitmap is shared through relaxed atomics: a worker sets a fault's
// bit on first detection and skips any fault whose bit is already set.
// Since faults are independent (single-fault assumption) and each fault's
// verdict is a pure function of the pattern set, the result is
// deterministic: every thread count produces the same detected mask and
// counts, bit-identical to the serial engine (threads = 1 runs the
// identical loop inline, with no pool at all).
#pragma once

#include "fault/fault_sim.hpp"

#include <memory>
#include <utility>

namespace flh {

/// The one fault-grouping rule of the graders: calls fn(b, e) for each
/// group [b, e) of the faults in [lo, hi) that `open(i)` accepts. A group
/// starts at an open fault and takes the next faults, up to `max_group`,
/// while they are open and on the same net: a net's slow-to-rise /
/// slow-to-fall pair, kept adjacent by allTransitionFaults, shares one
/// TransitionGrader::grade call. Closed faults get no call.
template <class Fault, class Open, class Fn>
void forEachNetGroup(std::span<const Fault> faults, std::size_t lo, std::size_t hi,
                     std::size_t max_group, const Open& open, const Fn& fn) {
    for (std::size_t b = lo; b < hi;) {
        if (!open(b)) {
            ++b;
            continue;
        }
        std::size_t e = b + 1;
        while (e - b < max_group && e < hi && faults[e].net == faults[b].net && open(e)) ++e;
        fn(b, e);
        b = e;
    }
}

/// The packed transition grader of one block of tests, kept as an object: a
/// V1 machine gives the slots that launch each fault's initial value, a V2
/// machine the slots that activate it and, after one complement excursion
/// per net, the slots that observe it. The packed workers of
/// runTransitionFaultSim and countTransitionDetections each run one; the
/// transition ATPG top-off keeps one at a single word and reloads it per
/// candidate test. A reload only re-simulates what the new sources change,
/// and every mask is a pure function of the loaded block.
class TransitionGrader {
public:
    /// Most faults one grade() call takes: a net's two polarities.
    static constexpr std::size_t kMaxGroup = 2;

    /// Throws like PatternSim for a bad `words`.
    TransitionGrader(std::shared_ptr<const SimTables> tables, unsigned words);

    [[nodiscard]] unsigned words() const noexcept { return v1_.words(); }

    /// Load tests [base, base + count): test i in word i / 64, slot i % 64.
    /// Slots past `count` repeat the last test, so they never detect
    /// anything the block does not. Throws std::invalid_argument unless
    /// each loaded pattern has one value per PI and per flip-flop.
    void loadBlock(std::span<const TwoPattern> tests, std::size_t base, std::size_t count);

    /// Grade `group` — 1 to kMaxGroup faults on one net, in any order,
    /// duplicates allowed — in the slots of `valid` (words() masks). Fills
    /// hit[i * words() + w] with the slots of word w that detect group[i]:
    /// V1 sets its initial value, V2 the final one, and the V2 fault effect
    /// reaches an observation point. Returns a bit per fault, bit i set iff
    /// group[i] has a detecting slot. One propagation covers the whole
    /// group; a group no slot activates propagates nothing. Throws
    /// std::invalid_argument for an empty or oversized group or faults on
    /// different nets. This is the faultDiffOnto readout of excite().
    unsigned grade(std::span<const TransitionFault> group, const std::uint64_t* valid,
                   std::uint64_t* hit);

    /// The excursion under grade(): fills ok[i * words() + w] with the valid
    /// slots of word w where V1 sets group[i]'s initial value and V2 its
    /// final one. If any is set, complements the net there, propagates,
    /// calls `read(v2)` — in group[i]'s ok slots the V2 machine is its
    /// faulty machine, elsewhere the good one — rolls back and returns
    /// true; otherwise returns false. Throws like grade().
    template <class Read>
    bool excite(std::span<const TransitionFault> group, const std::uint64_t* valid,
                std::uint64_t* ok, const Read& read) {
        std::uint64_t flip[kMaxPackedWords];
        if (!activate(group, valid, ok, flip)) return false;
        v2_.injectComplement(group.front().net, flip);
        v2_.propagate();
        read(std::as_const(v2_));
        v2_.clearFault();
        return true;
    }

    /// The V2 machine of the loaded block: the good machine outside
    /// excite()'s readout.
    [[nodiscard]] const PatternSim& v2() const noexcept { return v2_; }

private:
    /// excite()'s masks: fills `ok` as excite() describes and `flip` with
    /// their union; returns whether any slot is set.
    bool activate(std::span<const TransitionFault> group, const std::uint64_t* valid,
                  std::uint64_t* ok, std::uint64_t* flip) const;

    PatternSim v1_;
    PatternSim v2_;
};

} // namespace flh
