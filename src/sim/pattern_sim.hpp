// Levelized event-driven logic simulator, W x 64 patterns wide.
//
// The one simulation engine of the repository. Every net carries W 64-bit
// words (W in [1, kMaxPackedWords], up to 512 three-valued patterns per
// pass) in two planes, value and unknown, stored per net as
// [value words | unknown words] at [net * 2W, net * 2W + 2W). A gate
// evaluation is W plane-wise bitwise ops in the runtime-dispatched SIMD
// kernel of cell/logic_block.hpp. Pattern p lives in word p / 64, slot
// p % 64; the one-word accessors setNet(net, PV) / get(net) mean word 0.
// The engine serves:
//  * normal-mode power analysis (toggle counting over random vectors),
//  * parallel-pattern fault simulation (single-fault injection + event-driven
//    propagation from the fault site), W words per block,
//  * scan-shift simulation with the paper's holding semantics (held gates
//    simply do not re-evaluate, exactly what FLH's supply gating does), and
//  * ATPG implication (good and faulty machine in two slots of one word).
//
// Only gates whose inputs actually changed are re-evaluated, processed in
// level order, so a pass costs O(affected gates). Scheduling and evaluation
// read the flattened SimTables (sim/sim_tables.hpp), never the Netlist's
// per-gate vectors.
//
// evalAll() is the dense counterpart: one sweep over every gate in level
// order, with no queues and no fanout scheduling. It is for passes where
// most gates see a change anyway — with 64 random slots, normal-mode power
// on s5378, s9234 and s13207 changes an input of 74-81% of the gates per
// settle — and there a sweep costs less than half of what queueing events
// does per evaluation. It is exact, toggle counts included: the model is
// zero-delay and level-ordered, so both paths write each net at most once
// per pass, with the same settled value, and a gate whose inputs did not
// change reproduces its planes, which writes nothing and counts no toggle.
// propagate() stays the engine for sparse changes (PODEM, fault grading,
// scan shift, BIST).
//
// Gates that must not be queued — flip-flops, held gates, and gates outside
// a restriction — are "born scheduled": their per-gate scheduled flag is
// set for good, so scheduling skips them and the per-event path never asks
// why. Held gates therefore cost nothing while nobody holds them.
//
// Restriction (restrictTo): a caller that reads only some nets can limit
// evaluation to the gates those nets depend on. Every other gate is born
// scheduled, so it is never queued and its output keeps the value it had
// (X right after reset()). The values of the gates kept are exact —
// identical to an unrestricted run — as long as the kept set is closed
// under fanin: each kept gate's combinational drivers are kept too
// (flip-flop outputs and primary inputs are sources, set directly). A kept
// gate then sees exactly the input events it would see unrestricted, in the
// same level order, so it evaluates to the same values; only nets outside
// the set go stale. PODEM restricts each call to the transitive fanin of
// the nets its search reads (atpg/podem.hpp).
#pragma once

#include "cell/logic_block.hpp"
#include "sim/sim_tables.hpp"

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace flh {

/// A single stuck-at fault site: a net (output fault) or one gate input pin
/// (input fault). `pin < 0` means the fault is on the net itself.
struct FaultSite {
    NetId net = kInvalidId;
    GateId gate = kInvalidId; ///< receiving gate for pin faults
    int pin = -1;
    bool stuck_at_one = false;

    [[nodiscard]] bool isPinFault() const noexcept { return pin >= 0; }
    [[nodiscard]] bool operator==(const FaultSite&) const noexcept = default;
};

class PatternSim {
public:
    /// Builds private tables; throws like SimTables(nl). `words` must be in
    /// [1, kMaxPackedWords]; throws std::invalid_argument otherwise.
    explicit PatternSim(const Netlist& nl, unsigned words = 1);
    /// Shares `tables` with other simulators of the same netlist.
    explicit PatternSim(std::shared_ptr<const SimTables> tables, unsigned words = 1);

    [[nodiscard]] const Netlist& netlist() const noexcept { return *t_->nl; }
    [[nodiscard]] const std::shared_ptr<const SimTables>& tables() const noexcept { return t_; }
    [[nodiscard]] unsigned words() const noexcept { return words_; }

    /// Reset every net to X in every word, clear holds/faults/toggle counts
    /// and any restriction.
    void reset();

    /// Evaluate only `gates` until the next reset(); see the header comment
    /// for when the kept values are exact. Call on a quiescent simulator
    /// (nothing pending), e.g. right after reset(). Sequential gates in the
    /// list are ignored.
    void restrictTo(std::span<const GateId> gates);

    /// Set one 64-slot word of a source net (PI or FF output) and schedule
    /// affected gates; throws std::out_of_range if `word >= words()`.
    /// Setting an internal net is allowed (used for fault injection tests)
    /// but will be overwritten by its driver on the next propagate unless
    /// the driver is held.
    void setNet(NetId net, unsigned word, PV value);
    void setNet(NetId net, PV value) { setNet(net, 0, value); }
    /// setNet(net, value) without the scheduling: the write is forced by a
    /// net fault, logged for undo and counted as toggles the same way, but
    /// no fanout is queued. For callers that settle by evalAll(), which
    /// evaluates every gate anyway and would drop the events.
    void writeNet(NetId net, PV value);

    /// Word 0 of a net.
    [[nodiscard]] PV get(NetId net) const {
        const std::size_t base = planeIndex(net);
        return PV{planes_.at(base), planes_[base + words_]};
    }
    /// One word of a net; throws std::out_of_range if `word >= words()`.
    [[nodiscard]] PV get(NetId net, unsigned word) const;
    /// Scalar value of one (word, slot) position.
    [[nodiscard]] Logic get(NetId net, unsigned word, unsigned slot) const {
        return get(net, word).get(slot);
    }

    /// Raw plane access for bulk observation (words() words each).
    [[nodiscard]] const std::uint64_t* valuePlane(NetId net) const {
        return &planes_[planeIndex(net)];
    }
    [[nodiscard]] const std::uint64_t* unknownPlane(NetId net) const {
        return &planes_[planeIndex(net) + words_];
    }

    /// Propagate all pending events in level order. Returns the number of
    /// gate evaluations performed.
    std::size_t propagate();

    /// Full evaluation: one sweep over SimTables::sweep that evaluates every
    /// combinational gate that is not held and not outside a restriction,
    /// once, in level order, and returns how many it evaluated. Pending
    /// events are dropped first (the sweep covers them) and the sweep
    /// schedules nothing, so the simulator is quiescent afterwards. The
    /// settled values, toggle counts and nets logged for undo are those
    /// propagate() would give after scheduling the same gates (see the
    /// header comment for why); only the per-evaluation cost differs. Use it
    /// where most gates see an input change, as in power simulation.
    std::size_t evalAll();

    // ---- holding (FLH supply gating / enhanced-scan freeze) -------------
    /// A held gate keeps its current output: it is never re-evaluated while
    /// held. This is the simulator-level model of a supply-gated first-level
    /// gate whose keeper retains the output state. Holding requires a
    /// quiescent simulator (throws std::logic_error while events are
    /// pending), so the held output is a settled value. Releasing
    /// re-evaluates the gate with its current inputs on the next propagate.
    void setHeld(GateId gate, bool held);
    void setHeldAll(const std::vector<GateId>& gates, bool held);
    [[nodiscard]] bool isHeld(GateId gate) const { return (scheduled_.at(gate) & kHeld) != 0; }

    // ---- undo log: checkpoints and fault excursions -----------------------
    // One undo log records the planes a net had before it was written, so
    // the simulator can be rolled back to an earlier state without
    // re-evaluating anything. checkpoint() opens a logging interval and
    // returns a mark; from then on the first write of each net in the
    // interval appends (net, old planes) to the log, so a net is recorded at
    // most once per open checkpoint. rollback(mark) replays the entries
    // written since the mark, newest first, and the restored nets are
    // recorded again on their next write. With no checkpoint open (after
    // reset(), or once clearFault() ends the outermost excursion) writes are
    // not logged.
    //
    // A fault excursion changes the simulator away from the good machine
    // and is rolled back by clearFault. Two ways start one, each taking the
    // excursion's checkpoint: injectFault forces a stuck-at fault (PODEM,
    // stuck-at grading, BIST), and injectComplement flips a net's known
    // value in chosen slots (transition grading: in a slot where a stuck-at
    // fault on the net is activated, the two produce the same faulty
    // machine, so one complement grades a net's slow-to-rise and
    // slow-to-fall faults in one propagation). Inside an excursion that took
    // no further checkpoint, the log holds each touched net once, with its
    // pre-excursion planes; faultDiffOnto compares against those. PODEM
    // checkpoints each decision and rolls back to it to flip the decision
    // (atpg/podem.hpp).

    /// A position in the undo log, returned by checkpoint().
    struct Checkpoint {
        std::size_t entries = 0;  ///< log length when the mark was taken
        std::uint32_t epoch = 0;  ///< the logging interval the mark opened
    };

    /// Open a logging interval and mark the current state. Take it on a
    /// quiescent simulator; the mark stays valid until reset() or a
    /// rollback to an earlier mark.
    [[nodiscard]] Checkpoint checkpoint() noexcept {
        return Checkpoint{undo_nets_.size(), ++epoch_};
    }

    /// Restore every net written since `cp`, newest entry first, to its
    /// planes at the mark. Evaluates nothing and schedules nothing; `cp`
    /// stays open. Roll back on a quiescent simulator, so the restored
    /// state is a settled one.
    void rollback(Checkpoint cp) noexcept;

    /// Activate a stuck-at fault for subsequent propagation. The stuck value
    /// is forced only in the pattern slots set in `slots`, in every word
    /// (all slots by default); the other slots keep simulating the
    /// fault-free machine, so one simulator can carry a good and a faulty
    /// machine side by side (PODEM puts them in slots 0 and 1). Throws
    /// std::invalid_argument if a pin fault's pin is not an input of its
    /// receiving gate. Inject from a quiescent (fully propagated) state.
    void injectFault(const FaultSite& f, std::uint64_t slots = ~0ULL);

    /// Start an excursion, with no fault active, that complements `net`'s
    /// known value in the slots set in `slots` (words() masks, one per
    /// word); X slots stay X and unmasked slots keep their value. Nothing
    /// forces the net afterwards: its driver cannot re-evaluate during the
    /// excursion, because the combinational cone of the net is acyclic and
    /// stops at flip-flops. Throws std::logic_error unless the simulator is
    /// quiescent, like setHeld.
    void injectComplement(NetId net, const std::uint64_t* slots);

    /// End the excursion: roll back to its checkpoint (the state it had
    /// when injectFault / injectComplement began it) and close that
    /// checkpoint. Only the nets the excursion touched are written; nothing
    /// is re-evaluated. setNet calls made during the excursion are rolled
    /// back too; sessions that keep a fault active permanently (BIST, PODEM)
    /// discard the log via reset() instead. A no-op with no fault active.
    void clearFault();

    /// Per-word detection diff against the pre-fault state: for every net
    /// touched since the excursion began whose `is_obs[net]` flag is set, OR
    /// `(good_v ^ cur_v) & ~good_x & ~cur_x` into m[0..words()). The undo
    /// log already holds each touched net's fault-free planes (gradings
    /// start from a quiescent good state), and an untouched observation
    /// point cannot differ, so this is exactly the classical good-vs-faulty
    /// observation compare — but its cost scales with the fault cone, not
    /// with the number of observation points times words. Call between
    /// propagate() and clearFault(), with no checkpoint taken since the
    /// excursion began; `is_obs` needs netCount() entries; `m` (words()
    /// entries) is overwritten.
    void faultDiffOnto(const std::uint8_t* is_obs, std::uint64_t* m) const;

    // ---- toggle accounting ----------------------------------------------
    /// When enabled, every known-value bit flip on a net is counted
    /// (per-net, summed over slots and words). Counting is suspended while a
    /// checkpoint is open (every fault excursion takes one): rolled-back
    /// flips never happened, so PPSFP fault grading leaves toggle counts
    /// exactly as a fault-free run of the same patterns would.
    void enableToggleCount(bool on) { count_toggles_ = on; }
    void clearToggleCounts() { toggles_.assign(t_->nl->netCount(), 0); }
    [[nodiscard]] const std::vector<std::uint64_t>& toggleCounts() const noexcept {
        return toggles_;
    }
    [[nodiscard]] std::uint64_t totalToggles() const noexcept;

private:
    /// scheduled_ flag bits; any set bit keeps a gate off the queues.
    /// kFixed equals SimTables::sequential's 1, so reset() copies that table.
    static constexpr std::uint8_t kFixed = 1;  ///< flip-flop, or outside a restriction
    static constexpr std::uint8_t kQueued = 2; ///< pending in queue_by_level_
    static constexpr std::uint8_t kHeld = 4;   ///< held by setHeld

    [[nodiscard]] std::size_t planeIndex(NetId net) const {
        return static_cast<std::size_t>(net) * 2 * words_;
    }
    [[nodiscard]] bool quiescent() const noexcept {
        return static_cast<std::size_t>(min_pending_level_) == queue_by_level_.size();
    }
    void schedule(const SimTables& t, GateId g);
    void scheduleFanout(NetId net);
    /// Empty the level queues and clear their gates' kQueued bits.
    void dropPending() noexcept;
    // The *W members come in two instances: kW = 1 (PODEM, the ATPG
    // top-off grader, SequentialSim) inlines the one-word scalar kernel and
    // copies fixed-size planes; kW = 0 reads the width from words_ and calls
    // the dispatched SIMD kernel. Both compute the same values.
    template <unsigned kW>
    std::size_t propagateW();
    template <unsigned kW>
    std::size_t sweepW();
    /// Evaluate gate `g` on the current planes into `out` (2W words), with
    /// an active pin fault's stuck value forced onto its pin.
    template <unsigned kW>
    void evalGateW(const SimTables& t, GateId g, BlockKernelFn kernel, std::uint64_t* out) const;
    /// Write `planes` (2W words: value then unknown) to `net`, logging the
    /// net's old planes on its first write since the open checkpoint and
    /// counting its toggles. Returns false, writing nothing, when the
    /// planes are unchanged.
    template <unsigned kW>
    bool writeW(NetId net, const std::uint64_t* planes);
    /// writeW, then schedule the net's fanout if it changed.
    template <unsigned kW>
    void applyValueW(NetId net, const std::uint64_t* planes) {
        if (writeW<kW>(net, planes)) scheduleFanout(net);
    }
    void applyValue(NetId net, const std::uint64_t* planes); ///< picks the instance
    /// `in` (2W words) with the stuck value forced into the fault's slots.
    template <unsigned kW>
    void forceStuckW(const std::uint64_t* in, std::uint64_t* out) const noexcept;

    std::shared_ptr<const SimTables> t_;
    unsigned words_;
    std::vector<std::uint64_t> planes_; ///< netCount * 2W, see header comment
    /// Per gate: kFixed / kQueued / kHeld bits; zero means "free to queue".
    std::vector<std::uint8_t> scheduled_;
    std::vector<std::vector<GateId>> queue_by_level_; ///< index: level
    /// Lowest level with a pending gate; queue_by_level_.size() when
    /// nothing is pending.
    int min_pending_level_ = 0;

    bool fault_active_ = false;
    FaultSite fault_{};
    std::uint64_t fault_slots_ = ~0ULL;
    NetId stuck_net_ = kInvalidId;   ///< net of an active net fault
    GateId stuck_gate_ = kInvalidId; ///< receiving gate of an active pin fault
    /// Undo log: `undo_nets_[k]`'s earlier planes live at
    /// [k * 2W, (k + 1) * 2W) of undo_planes_, laid out like planes_.
    std::vector<NetId> undo_nets_;
    std::vector<std::uint64_t> undo_planes_;
    /// Per net: the epoch of its newest log entry, or 0. A write logs the
    /// net unless this equals epoch_; rollback zeroes it for every net it
    /// restores.
    std::vector<std::uint32_t> logged_in_;
    /// The open logging interval, 0 when none is open. rollback(cp) sets it
    /// to cp.epoch, so epochs above it belong to no live entry.
    std::uint32_t epoch_ = 0;
    Checkpoint excursion_{}; ///< taken by the first injectFault/injectComplement

    bool count_toggles_ = false;
    std::vector<std::uint64_t> toggles_;
};

} // namespace flh
