#include "sim/pattern_sim.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

namespace flh {

PatternSim::PatternSim(const Netlist& nl) : nl_(&nl) {
    // Hard arity check, not just the debug assert in propagate(): the hot
    // loop evaluates gates into a fixed kMaxGateArity-entry input buffer, so
    // a wider combinational gate would silently corrupt the stack in release
    // builds. Netlist::addGate rejects such gates too, but a Library built
    // directly (Library::add takes any cell) can still smuggle one in.
    for (GateId g = 0; g < nl.gateCount(); ++g) {
        const Gate& gate = nl.gate(g);
        if (!isSequential(gate.fn) && gate.inputs.size() > kMaxGateArity)
            throw std::invalid_argument(
                "PatternSim: gate '" + nl.net(gate.output).name + "' has arity " +
                std::to_string(gate.inputs.size()) + " > " + std::to_string(kMaxGateArity));
    }
    (void)nl_->topoOrder(); // force levelization (throws on comb loops)
    reset();
}

void PatternSim::reset() {
    values_.assign(nl_->netCount(), PV::all(Logic::X));
    held_.assign(nl_->gateCount(), 0);
    scheduled_.assign(nl_->gateCount(), 0);
    queue_by_level_.assign(static_cast<std::size_t>(nl_->logicDepth()) + 1, {});
    min_pending_level_ = 0;
    fault_active_ = false;
    fault_ = FaultSite{};
    fault_slots_ = ~0ULL;
    undo_.clear();
    undo_mark_.assign(nl_->netCount(), 0);
    toggles_.assign(nl_->netCount(), 0);
}

void PatternSim::schedule(GateId g) {
    if (isSequential(nl_->gate(g).fn)) return;
    if (scheduled_[g]) return;
    scheduled_[g] = 1;
    const int lvl = nl_->levels()[g];
    queue_by_level_[static_cast<std::size_t>(lvl)].push_back(g);
    if (lvl < min_pending_level_) min_pending_level_ = lvl;
}

void PatternSim::scheduleFanout(NetId net) {
    for (const PinRef& pr : nl_->fanout(net)) schedule(pr.gate);
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
            const Gate& gate = nl_->gate(g);
            PV ins[kMaxGateArity];
            assert(gate.inputs.size() <= kMaxGateArity); // enforced in ctor
            for (std::size_t p = 0; p < gate.inputs.size(); ++p) {
                PV v = values_[gate.inputs[p]];
                if (fault_active_ && fault_.isPinFault() && fault_.gate == g &&
                    fault_.pin == static_cast<int>(p))
                    v = forceStuck(v);
                ins[p] = v;
            }
            ++evals;
            applyValue(gate.output, evalCell(gate.fn, {ins, gate.inputs.size()}));
        }
        q.clear();
    }
    min_pending_level_ = static_cast<int>(queue_by_level_.size());
    return evals;
}

std::size_t PatternSim::evalAll() {
    for (const GateId g : nl_->topoOrder()) schedule(g);
    return propagate();
}

void PatternSim::setHeld(GateId gate, bool held) {
    held_.at(gate) = held ? 1 : 0;
    if (!held) schedule(gate); // re-evaluate with current inputs on release
}

void PatternSim::setHeldAll(const std::vector<GateId>& gates, bool held) {
    for (GateId g : gates) setHeld(g, held);
}

void PatternSim::injectFault(const FaultSite& f, std::uint64_t slots) {
    fault_active_ = true;
    fault_ = f;
    fault_slots_ = slots;
    if (f.isPinFault()) {
        schedule(f.gate);
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

void PatternSim::clearToggleCounts() { toggles_.assign(nl_->netCount(), 0); }

std::uint64_t PatternSim::totalToggles() const noexcept {
    std::uint64_t sum = 0;
    for (const std::uint64_t t : toggles_) sum += t;
    return sum;
}

} // namespace flh
