// Levelized event-driven logic simulator, 64 patterns wide.
//
// The simulator evaluates 64 three-valued patterns per pass (PPSFP-style).
// It is the shared engine for:
//  * normal-mode power analysis (toggle counting over random vectors),
//  * parallel-pattern fault simulation (single-fault injection + event-driven
//    propagation from the fault site),
//  * scan-shift simulation with the paper's holding semantics (held gates
//    simply do not re-evaluate, exactly what FLH's supply gating does), and
//  * ATPG implication (one pattern per word, X-aware).
//
// Only gates whose inputs actually changed are re-evaluated, processed in
// level order, so a pass costs O(affected gates). Scheduling and evaluation
// read the flattened SimTables (sim/sim_tables.hpp), never the Netlist's
// per-gate vectors.
//
// Restriction (restrictTo): a caller that reads only some nets can limit
// evaluation to the gates those nets depend on. Every other gate is marked
// scheduled for good, the way flip-flops always are, so it is never queued
// and its output keeps the value it had (X right after reset()). The values
// of the gates kept are exact — identical to an unrestricted run — as long
// as the kept set is closed under fanin: each kept gate's combinational
// drivers are kept too (flip-flop outputs and primary inputs are sources,
// set directly). A kept gate then sees exactly the input events it would
// see unrestricted, in the same level order, so it evaluates to the same
// values; only nets outside the set go stale. PODEM restricts each call to
// the transitive fanin of the nets its search reads (atpg/podem.hpp).
#pragma once

#include "cell/logic.hpp"
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
    /// Builds private tables; throws like SimTables(nl).
    explicit PatternSim(const Netlist& nl);
    /// Shares `tables` with other simulators of the same netlist.
    explicit PatternSim(std::shared_ptr<const SimTables> tables);

    [[nodiscard]] const Netlist& netlist() const noexcept { return *t_->nl; }
    [[nodiscard]] const std::shared_ptr<const SimTables>& tables() const noexcept { return t_; }

    /// Reset every net to X, clear holds/faults/toggle counts and any
    /// restriction.
    void reset();

    /// Evaluate only `gates` until the next reset(); see the header comment
    /// for when the kept values are exact. Call on a quiescent simulator
    /// (nothing pending), e.g. right after reset(). Sequential gates in the
    /// list are ignored.
    void restrictTo(std::span<const GateId> gates);

    /// Set a source net (PI or FF output) and schedule affected gates.
    /// Setting an internal net is allowed (used for fault injection tests)
    /// but will be overwritten by its driver on the next propagate unless
    /// the driver is held.
    void setNet(NetId net, PV value);

    [[nodiscard]] PV get(NetId net) const { return values_.at(net); }

    /// Propagate all pending events in level order. Returns the number of
    /// gate evaluations performed.
    std::size_t propagate();

    /// Full evaluation: schedule every combinational gate, then propagate.
    std::size_t evalAll();

    // ---- holding (FLH supply gating / enhanced-scan freeze) -------------
    /// A held gate keeps its current output: it is never re-evaluated while
    /// held. This is the simulator-level model of a supply-gated first-level
    /// gate whose keeper retains the output state.
    void setHeld(GateId gate, bool held);
    void setHeldAll(const std::vector<GateId>& gates, bool held);
    [[nodiscard]] bool isHeld(GateId gate) const { return held_.at(gate) != 0; }

    // ---- single-fault injection (PPSFP) ---------------------------------
    /// Activate a stuck-at fault for subsequent propagation. The stuck value
    /// is forced only in the pattern slots set in `slots` (all 64 by
    /// default); the other slots keep simulating the fault-free machine, so
    /// one simulator can carry a good and a faulty machine side by side
    /// (PODEM puts them in slots 0 and 1). While a fault is active every net
    /// change is recorded in an undo log (at most one entry per net), so
    /// clearFault can restore the pre-fault state without re-propagating.
    /// Inject from a quiescent (fully propagated) state.
    void injectFault(const FaultSite& f, std::uint64_t slots = ~0ULL);

    /// Deactivate the fault and roll the simulator back to the exact state
    /// it had when injectFault was called, by restoring the recorded event
    /// frontier — only the nets the faulty excursion actually touched are
    /// written; nothing is re-evaluated. setNet calls made while the fault
    /// was active are rolled back too; sessions that keep a fault active
    /// permanently (BIST, PODEM) discard the log via reset() instead.
    void clearFault();

    // ---- toggle accounting ----------------------------------------------
    /// When enabled, every known-value bit flip on a net is counted
    /// (per-net, summed over pattern slots). Counting is suspended while a
    /// fault is active, so PPSFP fault grading leaves toggle counts exactly
    /// as a fault-free run of the same patterns would.
    void enableToggleCount(bool on);
    void clearToggleCounts();
    [[nodiscard]] const std::vector<std::uint64_t>& toggleCounts() const noexcept {
        return toggles_;
    }
    [[nodiscard]] std::uint64_t totalToggles() const noexcept;

private:
    void schedule(const SimTables& t, GateId g);
    void scheduleFanout(NetId net);
    void applyValue(NetId net, PV value);
    /// `v` with the stuck value forced into the fault's slots.
    [[nodiscard]] PV forceStuck(PV v) const noexcept;

    std::shared_ptr<const SimTables> t_;
    std::vector<PV> values_;
    std::vector<std::uint8_t> held_;
    /// Per gate: queued, or never to be queued (flip-flops, and gates
    /// outside a restriction).
    std::vector<std::uint8_t> scheduled_;
    std::vector<std::vector<GateId>> queue_by_level_; ///< index: level
    int min_pending_level_ = 0;

    bool fault_active_ = false;
    FaultSite fault_{};
    std::uint64_t fault_slots_ = ~0ULL;
    /// Event-frontier undo log: pre-fault value of every net the faulty
    /// excursion touched, recorded on first change. clearFault restores
    /// these directly instead of re-propagating the good cone.
    struct FaultUndo {
        NetId net;
        PV value;
    };
    std::vector<FaultUndo> undo_;
    std::vector<std::uint8_t> undo_mark_; ///< per net: already in undo_

    bool count_toggles_ = false;
    std::vector<std::uint64_t> toggles_;
};

} // namespace flh
