// Word-packed levelized event-driven logic simulator: W x 64 patterns wide.
//
// PackedSim generalizes PatternSim's 64-slot PPSFP pass to W machine words
// per net (W in [1, kMaxPackedWords], i.e. up to 512 patterns per pass).
// Each net carries two planes of W words — value and unknown — stored
// plane-major per net ([net * W, net * W + W)), so a gate evaluation is W
// plane-wise bitwise ops handled by the runtime-dispatched SIMD kernel in
// cell/logic_block.hpp. Slots are addressed as (word, slot) pairs: pattern
// p lives in word p / 64, slot p % 64.
//
// The fault-simulation semantics mirror PatternSim exactly (same event
// scheduling, same single-fault injection with an event-frontier undo log,
// same Kleene formulas), which is what makes the packed engine bit-identical
// to the scalar oracle — enforced by tests/packed_sim_test.cpp and the
// flh_fuzz cross-engine differential checks. Gate holding (FLH supply
// gating) is deliberately not modelled here; scan-shift simulation stays on
// PatternSim.
//
// Toggle counting follows the fixed PatternSim semantics: flips are only
// counted while no fault is active, so faulty excursions never contaminate
// the power numbers built on totalToggles().
//
// Scheduling and evaluation read the same flattened SimTables as
// PatternSim (sim/sim_tables.hpp).
#pragma once

#include "cell/logic_block.hpp"
#include "sim/pattern_sim.hpp"

#include <cstdint>
#include <memory>
#include <vector>

namespace flh {

class PackedSim {
public:
    /// `words` must be in [1, kMaxPackedWords]; throws std::invalid_argument
    /// otherwise, or if any combinational gate exceeds kMaxGateArity.
    PackedSim(const Netlist& nl, unsigned words);
    /// Shares `tables` with other simulators of the same netlist.
    PackedSim(std::shared_ptr<const SimTables> tables, unsigned words);

    [[nodiscard]] const Netlist& netlist() const noexcept { return *t_->nl; }
    [[nodiscard]] unsigned words() const noexcept { return words_; }

    /// Reset every net to X in every word, clear fault state and toggles.
    void reset();

    /// Set one 64-slot word of a source net and schedule affected gates.
    void setNet(NetId net, unsigned word, PV value);

    [[nodiscard]] PV get(NetId net, unsigned word) const {
        const std::size_t base = planeIndex(net, word);
        return PV{v_[base], x_[base]};
    }

    /// Scalar value of one (word, slot) position.
    [[nodiscard]] Logic get(NetId net, unsigned word, unsigned slot) const {
        return get(net, word).get(slot);
    }

    /// Raw plane access for bulk observation (W words per net).
    [[nodiscard]] const std::uint64_t* valuePlane(NetId net) const {
        return &v_[planeIndex(net, 0)];
    }
    [[nodiscard]] const std::uint64_t* unknownPlane(NetId net) const {
        return &x_[planeIndex(net, 0)];
    }

    /// Propagate all pending events in level order; returns gate evaluations.
    std::size_t propagate();

    /// Schedule every combinational gate, then propagate.
    std::size_t evalAll();

    // ---- single-fault injection (PPSFP) ---------------------------------
    /// Same contract as PatternSim::injectFault: the stuck value applies to
    /// every slot of every word; inject from a quiescent state. While the
    /// fault is active, first-touch pre-fault planes are recorded so
    /// clearFault can restore the exact state without re-propagating.
    void injectFault(const FaultSite& f);
    void clearFault();

    /// Per-word detection diff against the pre-fault state: for every net
    /// touched since injectFault whose `is_obs[net]` flag is set, OR
    /// `(good_v ^ cur_v) & ~good_x & ~cur_x` into m[0..words()). The undo
    /// log already holds each touched net's fault-free planes (gradings
    /// start from a quiescent good state), and an untouched observation
    /// point cannot differ, so this is exactly the classical good-vs-faulty
    /// observation compare — but its cost scales with the fault cone, not
    /// with the number of observation points times words. Call between
    /// propagate() and clearFault(); `is_obs` needs netCount() entries; `m`
    /// (words() entries) is overwritten.
    void faultDiffOnto(const std::uint8_t* is_obs, std::uint64_t* m) const;

    // ---- toggle accounting ----------------------------------------------
    void enableToggleCount(bool on) { count_toggles_ = on; }
    void clearToggleCounts() { toggles_.assign(t_->nl->netCount(), 0); }
    [[nodiscard]] const std::vector<std::uint64_t>& toggleCounts() const noexcept {
        return toggles_;
    }
    [[nodiscard]] std::uint64_t totalToggles() const noexcept;

private:
    [[nodiscard]] std::size_t planeIndex(NetId net, unsigned word) const {
        return static_cast<std::size_t>(net) * words_ + word;
    }
    void schedule(const SimTables& t, GateId g);
    void scheduleFanout(NetId net);
    void applyValue(NetId net, const std::uint64_t* nv, const std::uint64_t* nx);
    void recordUndo(NetId net);

    std::shared_ptr<const SimTables> t_;
    unsigned words_;
    std::vector<std::uint64_t> v_; ///< value planes, netCount * words_
    std::vector<std::uint64_t> x_; ///< unknown planes, netCount * words_
    std::vector<std::uint8_t> scheduled_;
    std::vector<std::vector<GateId>> queue_by_level_;
    int min_pending_level_ = 0;

    bool fault_active_ = false;
    FaultSite fault_{};
    /// Event-frontier undo log: `undo_nets_[k]`'s pre-fault planes live at
    /// [k * words_, (k + 1) * words_) in undo_v_ / undo_x_.
    std::vector<NetId> undo_nets_;
    std::vector<std::uint64_t> undo_v_;
    std::vector<std::uint64_t> undo_x_;
    std::vector<std::uint8_t> undo_mark_;

    bool count_toggles_ = false;
    std::vector<std::uint64_t> toggles_;
};

} // namespace flh
