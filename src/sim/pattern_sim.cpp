#include "sim/pattern_sim.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>

namespace flh {

PatternSim::PatternSim(const Netlist& nl, unsigned words)
    : PatternSim(std::make_shared<const SimTables>(nl), words) {}

PatternSim::PatternSim(std::shared_ptr<const SimTables> tables, unsigned words)
    : t_(std::move(tables)), words_(words) {
    if (words < 1 || words > kMaxPackedWords)
        throw std::invalid_argument("PatternSim: words must be in [1, " +
                                    std::to_string(kMaxPackedWords) + "], got " +
                                    std::to_string(words));
    reset();
}

void PatternSim::reset() {
    const std::size_t n_nets = t_->nl->netCount();
    const unsigned W = words_;
    planes_.resize(n_nets * 2 * W);
    for (std::size_t base = 0; base < planes_.size(); base += 2 * W) {
        std::fill_n(&planes_[base], W, 0ULL);      // value plane
        std::fill_n(&planes_[base + W], W, ~0ULL); // unknown plane: all X
    }
    scheduled_ = t_->sequential; // flip-flops are born scheduled (kFixed)
    // Clear in place: PODEM resets on every call, so the queues keep their
    // capacity instead of being reallocated.
    queue_by_level_.resize(static_cast<std::size_t>(t_->depth) + 1);
    for (auto& q : queue_by_level_) q.clear();
    min_pending_level_ = static_cast<int>(queue_by_level_.size());
    fault_active_ = false;
    fault_ = FaultSite{};
    fault_slots_ = ~0ULL;
    stuck_net_ = kInvalidId;
    stuck_gate_ = kInvalidId;
    undo_nets_.clear();
    undo_planes_.clear();
    undo_mark_.assign(n_nets, 0);
    toggles_.assign(n_nets, 0);
}

void PatternSim::restrictTo(std::span<const GateId> gates) {
    assert(quiescent());
    for (std::uint8_t& s : scheduled_) s = static_cast<std::uint8_t>((s & kHeld) | kFixed);
    for (const GateId g : gates)
        scheduled_[g] = static_cast<std::uint8_t>((scheduled_[g] & kHeld) | t_->sequential[g]);
}

void PatternSim::schedule(const SimTables& t, GateId g) {
    if (scheduled_[g]) return; // queued, flip-flop, held, or outside a restriction
    scheduled_[g] = kQueued;
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

void PatternSim::forceStuck(const std::uint64_t* in, std::uint64_t* out) const noexcept {
    const unsigned W = words_;
    const std::uint64_t slots = fault_slots_;
    for (unsigned w = 0; w < W; ++w) {
        out[w] = fault_.stuck_at_one ? (in[w] | slots) : (in[w] & ~slots);
        out[W + w] = in[W + w] & ~slots; // the stuck value is known
    }
}

void PatternSim::recordUndo(NetId net) {
    if (undo_mark_[net]) return;
    undo_mark_[net] = 1;
    undo_nets_.push_back(net);
    const std::uint64_t* cur = &planes_[planeIndex(net)];
    undo_planes_.insert(undo_planes_.end(), cur, cur + 2 * words_);
}

void PatternSim::applyValue(NetId net, const std::uint64_t* planes) {
    const unsigned W = words_;
    std::uint64_t forced[2 * kMaxPackedWords];
    if (net == stuck_net_) {
        forceStuck(planes, forced);
        planes = forced;
    }
    std::uint64_t* cur = &planes_[planeIndex(net)];
    std::uint64_t delta = 0;
    for (unsigned k = 0; k < 2 * W; ++k) delta |= cur[k] ^ planes[k];
    if (!delta) return;
    if (fault_active_) recordUndo(net);
    // Toggle counting is suspended while a fault is active: the faulty
    // excursion's flips are rolled back by clearFault, so counting them (and
    // counting the rollback writes, which bypass applyValue) would
    // contaminate the power numbers derived from totalToggles().
    if (count_toggles_ && !fault_active_) {
        std::uint64_t flips = 0;
        for (unsigned w = 0; w < W; ++w)
            flips += static_cast<std::uint64_t>(
                std::popcount((cur[w] ^ planes[w]) & ~cur[W + w] & ~planes[W + w]));
        toggles_[net] += flips;
    }
    std::memcpy(cur, planes, 2 * W * sizeof(std::uint64_t));
    scheduleFanout(net);
}

void PatternSim::setNet(NetId net, unsigned word, PV value) {
    if (word >= words_) throw std::out_of_range("PatternSim::setNet: word out of range");
    // Route through applyValue so net-fault overrides, undo logging, and
    // toggle accounting all behave exactly like a full-width write.
    std::uint64_t planes[2 * kMaxPackedWords];
    std::memcpy(planes, &planes_.at(planeIndex(net)), 2 * words_ * sizeof(std::uint64_t));
    planes[word] = value.v;
    planes[words_ + word] = value.x;
    applyValue(net, planes);
}

PV PatternSim::get(NetId net, unsigned word) const {
    if (word >= words_) throw std::out_of_range("PatternSim::get: word out of range");
    const std::size_t base = planeIndex(net);
    return PV{planes_.at(base + word), planes_[base + words_ + word]};
}

std::size_t PatternSim::propagate() {
    const SimTables& t = *t_;
    const unsigned W = words_;
    // Resolve the SIMD kernel once per pass; per-gate dispatch through the
    // table is measurable at fault-cone sizes (a few gates per grading).
    const BlockKernelFn kernel = activeBlockKernel();
    const std::uint64_t* in_v[kMaxGateArity]; // arity checked by SimTables
    const std::uint64_t* in_x[kMaxGateArity];
    std::uint64_t out[2 * kMaxPackedWords];
    std::uint64_t pin[2 * kMaxPackedWords];
    std::size_t evals = 0;
    for (std::size_t lvl = static_cast<std::size_t>(min_pending_level_);
         lvl < queue_by_level_.size(); ++lvl) {
        auto& q = queue_by_level_[lvl];
        // Gates scheduled during this pass land at strictly higher levels,
        // so draining level by level visits each gate at most once.
        for (std::size_t i = 0; i < q.size(); ++i) {
            const GateId g = q[i];
            scheduled_[g] = 0;
            const std::span<const NetId> inputs = t.inputs(g);
            const std::size_t arity = inputs.size();
            for (std::size_t p = 0; p < arity; ++p) {
                const std::uint64_t* n = &planes_[planeIndex(inputs[p])];
                in_v[p] = n;
                in_x[p] = n + W;
            }
            if (g == stuck_gate_) { // pin checked against the arity by injectFault
                const auto p = static_cast<std::size_t>(fault_.pin);
                forceStuck(in_v[p], pin);
                in_v[p] = pin;
                in_x[p] = pin + W;
            }
            ++evals;
            kernel(t.fn[g], in_v, in_x, arity, out, out + W, W);
            applyValue(t.out[g], out);
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
    std::uint8_t& s = scheduled_.at(gate);
    if (held) {
        // A held gate is born scheduled; one already queued would escape
        // the hold, so only a settled simulator may hold.
        if (!quiescent())
            throw std::logic_error("PatternSim::setHeld: propagate() before holding a gate");
        s = static_cast<std::uint8_t>(s | kHeld);
    } else {
        s = static_cast<std::uint8_t>(s & ~kHeld);
        schedule(*t_, gate); // re-evaluate with current inputs on release
    }
}

void PatternSim::setHeldAll(const std::vector<GateId>& gates, bool held) {
    for (GateId g : gates) setHeld(g, held);
}

void PatternSim::injectFault(const FaultSite& f, std::uint64_t slots) {
    if (f.isPinFault() && (f.gate >= t_->fn.size() ||
                           static_cast<std::size_t>(f.pin) >= t_->inputs(f.gate).size()))
        throw std::invalid_argument("PatternSim::injectFault: pin " + std::to_string(f.pin) +
                                    " is not an input of gate " + std::to_string(f.gate));
    fault_active_ = true;
    fault_ = f;
    fault_slots_ = slots;
    if (f.isPinFault()) {
        stuck_net_ = kInvalidId;
        stuck_gate_ = f.gate;
        schedule(*t_, f.gate);
    } else {
        stuck_net_ = f.net;
        stuck_gate_ = kInvalidId;
        // Force the stuck value at the net right away; applyValue records
        // the good planes in the undo log before overwriting them.
        applyValue(f.net, &planes_[planeIndex(f.net)]);
    }
}

void PatternSim::faultDiffOnto(const std::uint8_t* is_obs, std::uint64_t* m) const {
    const unsigned W = words_;
    for (unsigned w = 0; w < W; ++w) m[w] = 0;
    for (std::size_t k = 0; k < undo_nets_.size(); ++k) {
        const NetId net = undo_nets_[k];
        if (!is_obs[net]) continue;
        const std::uint64_t* good = &undo_planes_[k * 2 * W];
        const std::uint64_t* cur = &planes_[planeIndex(net)];
        for (unsigned w = 0; w < W; ++w)
            m[w] |= (good[w] ^ cur[w]) & ~good[W + w] & ~cur[W + w];
    }
}

void PatternSim::clearFault() {
    if (!fault_active_) return;
    fault_active_ = false;
    stuck_net_ = kInvalidId;
    stuck_gate_ = kInvalidId;
    // Restore the recorded event frontier: only nets the faulty excursion
    // touched are written back, nothing is re-evaluated. Toggle counts need
    // no compensation: counting was suspended while the fault was active.
    const std::size_t stride = 2 * words_;
    for (std::size_t k = undo_nets_.size(); k-- > 0;) {
        const NetId net = undo_nets_[k];
        std::memcpy(&planes_[planeIndex(net)], &undo_planes_[k * stride],
                    stride * sizeof(std::uint64_t));
        undo_mark_[net] = 0;
    }
    undo_nets_.clear();
    undo_planes_.clear();
}

std::uint64_t PatternSim::totalToggles() const noexcept {
    std::uint64_t sum = 0;
    for (const std::uint64_t t : toggles_) sum += t;
    return sum;
}

} // namespace flh
