#include "sim/pattern_sim.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace flh {

PatternSim::PatternSim(const Netlist& nl) : PatternSim(std::make_shared<const SimTables>(nl)) {}

PatternSim::PatternSim(std::shared_ptr<const SimTables> tables) : t_(std::move(tables)) {
    reset();
}

void PatternSim::reset() {
    const std::size_t n_nets = t_->nl->netCount();
    values_.assign(n_nets, PV::all(Logic::X));
    held_.assign(t_->fn.size(), 0);
    scheduled_ = t_->sequential; // flip-flops are born scheduled
    queue_by_level_.resize(static_cast<std::size_t>(t_->depth) + 1);
    for (auto& q : queue_by_level_) q.clear();
    min_pending_level_ = 0;
    fault_active_ = false;
    fault_ = FaultSite{};
    fault_slots_ = ~0ULL;
    undo_.clear();
    undo_mark_.assign(n_nets, 0);
    toggles_.assign(n_nets, 0);
}

void PatternSim::restrictTo(std::span<const GateId> gates) {
    assert(std::all_of(queue_by_level_.begin(), queue_by_level_.end(),
                       [](const auto& q) { return q.empty(); }));
    std::fill(scheduled_.begin(), scheduled_.end(), std::uint8_t{1});
    for (const GateId g : gates) scheduled_[g] = t_->sequential[g];
}

void PatternSim::schedule(const SimTables& t, GateId g) {
    if (scheduled_[g]) return; // also flip-flops and gates outside a restriction
    scheduled_[g] = 1;
    const int lvl = t.level[g];
    queue_by_level_[static_cast<std::size_t>(lvl)].push_back(g);
    if (lvl < min_pending_level_) min_pending_level_ = lvl;
}

void PatternSim::scheduleFanout(NetId net) {
    // The tables reference is hoisted so the loop does not reload t_ after
    // every scheduled_ store.
    const SimTables& t = *t_;
    for (const GateId g : t.fanout(net)) schedule(t, g);
}

PV PatternSim::forceStuck(PV v) const noexcept {
    v.v = fault_.stuck_at_one ? (v.v | fault_slots_) : (v.v & ~fault_slots_);
    v.x &= ~fault_slots_;
    return v;
}

void PatternSim::applyValue(NetId net, PV value) {
    if (fault_active_ && !fault_.isPinFault() && fault_.net == net) value = forceStuck(value);
    PV& cur = values_[net];
    if (cur == value) return;
    if (fault_active_ && !undo_mark_[net]) {
        undo_mark_[net] = 1;
        undo_.push_back({net, cur});
    }
    // Toggle counting is suspended while a fault is active: the faulty
    // excursion's flips are rolled back by clearFault, so counting them (and
    // counting the rollback writes, which bypass applyValue) would
    // contaminate the power numbers derived from totalToggles().
    if (count_toggles_ && !fault_active_) {
        const std::uint64_t flips = (cur.v ^ value.v) & ~cur.x & ~value.x;
        toggles_[net] += static_cast<std::uint64_t>(std::popcount(flips));
    }
    cur = value;
    scheduleFanout(net);
}

void PatternSim::setNet(NetId net, PV value) { applyValue(net, value); }

std::size_t PatternSim::propagate() {
    const SimTables& t = *t_;
    const GateId pin_fault_gate =
        fault_active_ && fault_.isPinFault() ? fault_.gate : kInvalidId;
    std::size_t evals = 0;
    for (std::size_t lvl = static_cast<std::size_t>(std::max(min_pending_level_, 0));
         lvl < queue_by_level_.size(); ++lvl) {
        auto& q = queue_by_level_[lvl];
        // Gates scheduled during this pass land at strictly higher levels,
        // so draining level by level visits each gate at most once.
        for (std::size_t i = 0; i < q.size(); ++i) {
            const GateId g = q[i];
            scheduled_[g] = 0;
            if (held_[g]) continue;
            const std::span<const NetId> inputs = t.inputs(g);
            PV ins[kMaxGateArity]; // arity checked by SimTables
            for (std::size_t p = 0; p < inputs.size(); ++p) ins[p] = values_[inputs[p]];
            if (g == pin_fault_gate && static_cast<std::size_t>(fault_.pin) < inputs.size()) {
                PV& pin = ins[static_cast<std::size_t>(fault_.pin)];
                pin = forceStuck(pin);
            }
            ++evals;
            applyValue(t.out[g], evalCell(t.fn[g], {ins, inputs.size()}));
        }
        q.clear();
    }
    min_pending_level_ = static_cast<int>(queue_by_level_.size());
    return evals;
}

std::size_t PatternSim::evalAll() {
    for (const GateId g : t_->nl->topoOrder()) schedule(*t_, g);
    return propagate();
}

void PatternSim::setHeld(GateId gate, bool held) {
    held_.at(gate) = held ? 1 : 0;
    if (!held) schedule(*t_, gate); // re-evaluate with current inputs on release
}

void PatternSim::setHeldAll(const std::vector<GateId>& gates, bool held) {
    for (GateId g : gates) setHeld(g, held);
}

void PatternSim::injectFault(const FaultSite& f, std::uint64_t slots) {
    fault_active_ = true;
    fault_ = f;
    fault_slots_ = slots;
    if (f.isPinFault()) {
        schedule(*t_, f.gate);
    } else {
        // Force the stuck value at the net right away; applyValue records
        // the good value in the undo log before overwriting it.
        applyValue(f.net, values_[f.net]); // applyValue overrides via fault
    }
}

void PatternSim::clearFault() {
    if (!fault_active_) return;
    fault_active_ = false;
    // Restore the recorded event frontier: only nets the faulty excursion
    // touched are written back, nothing is re-evaluated. Toggle counts need
    // no compensation: counting was suspended while the fault was active.
    for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
        values_[it->net] = it->value;
        undo_mark_[it->net] = 0;
    }
    undo_.clear();
}

void PatternSim::enableToggleCount(bool on) { count_toggles_ = on; }

void PatternSim::clearToggleCounts() { toggles_.assign(t_->nl->netCount(), 0); }

std::uint64_t PatternSim::totalToggles() const noexcept {
    std::uint64_t sum = 0;
    for (const std::uint64_t t : toggles_) sum += t;
    return sum;
}

} // namespace flh
