#include "sim/packed_sim.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>

namespace flh {

PackedSim::PackedSim(const Netlist& nl, unsigned words)
    : PackedSim(std::make_shared<const SimTables>(nl), words) {}

PackedSim::PackedSim(std::shared_ptr<const SimTables> tables, unsigned words)
    : t_(std::move(tables)), words_(words) {
    if (words < 1 || words > kMaxPackedWords)
        throw std::invalid_argument("PackedSim: words must be in [1, " +
                                    std::to_string(kMaxPackedWords) + "], got " +
                                    std::to_string(words));
    reset();
}

void PackedSim::reset() {
    const std::size_t n_nets = t_->nl->netCount();
    const std::size_t planes = n_nets * static_cast<std::size_t>(words_);
    v_.assign(planes, 0);
    x_.assign(planes, ~0ULL);
    scheduled_ = t_->sequential; // flip-flops are born scheduled
    queue_by_level_.assign(static_cast<std::size_t>(t_->depth) + 1, {});
    min_pending_level_ = 0;
    fault_active_ = false;
    fault_ = FaultSite{};
    undo_nets_.clear();
    undo_v_.clear();
    undo_x_.clear();
    undo_mark_.assign(n_nets, 0);
    toggles_.assign(n_nets, 0);
}

void PackedSim::schedule(const SimTables& t, GateId g) {
    if (scheduled_[g]) return; // sequential gates are born scheduled
    scheduled_[g] = 1;
    const int lvl = t.level[g];
    queue_by_level_[static_cast<std::size_t>(lvl)].push_back(g);
    if (lvl < min_pending_level_) min_pending_level_ = lvl;
}

void PackedSim::scheduleFanout(NetId net) {
    // The tables reference is hoisted so the loop does not reload t_ after
    // every scheduled_ store.
    const SimTables& t = *t_;
    for (const GateId g : t.fanout(net)) schedule(t, g);
}

void PackedSim::recordUndo(NetId net) {
    if (undo_mark_[net]) return;
    undo_mark_[net] = 1;
    undo_nets_.push_back(net);
    const std::size_t base = planeIndex(net, 0);
    undo_v_.insert(undo_v_.end(), v_.begin() + static_cast<std::ptrdiff_t>(base),
                   v_.begin() + static_cast<std::ptrdiff_t>(base + words_));
    undo_x_.insert(undo_x_.end(), x_.begin() + static_cast<std::ptrdiff_t>(base),
                   x_.begin() + static_cast<std::ptrdiff_t>(base + words_));
}

void PackedSim::applyValue(NetId net, const std::uint64_t* nv, const std::uint64_t* nx) {
    static constexpr std::uint64_t kZeroPlane[kMaxPackedWords] = {};
    const std::uint64_t stuck_v = fault_.stuck_at_one ? ~0ULL : 0;
    std::uint64_t forced_v[kMaxPackedWords];
    if (fault_active_ && !fault_.isPinFault() && fault_.net == net) {
        for (unsigned w = 0; w < words_; ++w) forced_v[w] = stuck_v;
        nv = forced_v;
        nx = kZeroPlane; // stuck value is fully known: x plane = 0
    }
    const std::size_t base = planeIndex(net, 0);
    std::uint64_t* cv = &v_[base];
    std::uint64_t* cx = &x_[base];
    std::uint64_t delta = 0;
    for (unsigned w = 0; w < words_; ++w) delta |= (cv[w] ^ nv[w]) | (cx[w] ^ nx[w]);
    if (!delta) return;
    if (fault_active_) recordUndo(net);
    // Toggle counting is suspended while a fault is active: the faulty
    // excursion's flips (and their rollback) must not contaminate the
    // power numbers derived from totalToggles().
    if (count_toggles_ && !fault_active_) {
        std::uint64_t flips = 0;
        for (unsigned w = 0; w < words_; ++w)
            flips += static_cast<std::uint64_t>(
                std::popcount((cv[w] ^ nv[w]) & ~cx[w] & ~nx[w]));
        toggles_[net] += flips;
    }
    for (unsigned w = 0; w < words_; ++w) {
        cv[w] = nv[w];
        cx[w] = nx[w];
    }
    scheduleFanout(net);
}

void PackedSim::setNet(NetId net, unsigned word, PV value) {
    if (word >= words_) throw std::out_of_range("PackedSim::setNet: word out of range");
    // Route through applyValue so net-fault overrides, undo logging, and
    // toggle accounting all behave exactly like a full-width write.
    std::uint64_t nv[kMaxPackedWords];
    std::uint64_t nx[kMaxPackedWords];
    const std::size_t base = planeIndex(net, 0);
    std::memcpy(nv, &v_[base], words_ * sizeof(std::uint64_t));
    std::memcpy(nx, &x_[base], words_ * sizeof(std::uint64_t));
    nv[word] = value.v;
    nx[word] = value.x;
    applyValue(net, nv, nx);
}

std::size_t PackedSim::propagate() {
    const SimTables& t = *t_;
    std::size_t evals = 0;
    const unsigned W = words_;
    // Resolve the SIMD kernel once per pass; per-gate dispatch through the
    // table is measurable at fault-cone sizes (a few gates per grading).
    const BlockKernelFn kernel = activeBlockKernel();
    const std::uint64_t* in_v[kMaxGateArity];
    const std::uint64_t* in_x[kMaxGateArity];
    std::uint64_t out_v[kMaxPackedWords];
    std::uint64_t out_x[kMaxPackedWords];
    std::uint64_t pin_v[kMaxPackedWords];
    std::uint64_t pin_x[kMaxPackedWords];
    for (std::size_t lvl = static_cast<std::size_t>(std::max(min_pending_level_, 0));
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
                const std::size_t base = planeIndex(inputs[p], 0);
                in_v[p] = &v_[base];
                in_x[p] = &x_[base];
            }
            if (fault_active_ && fault_.isPinFault() && fault_.gate == g) {
                const std::uint64_t stuck_v = fault_.stuck_at_one ? ~0ULL : 0;
                for (unsigned w = 0; w < W; ++w) {
                    pin_v[w] = stuck_v;
                    pin_x[w] = 0;
                }
                in_v[static_cast<std::size_t>(fault_.pin)] = pin_v;
                in_x[static_cast<std::size_t>(fault_.pin)] = pin_x;
            }
            ++evals;
            kernel(t.fn[g], in_v, in_x, arity, out_v, out_x, W);
            applyValue(t.out[g], out_v, out_x);
        }
        q.clear();
    }
    min_pending_level_ = static_cast<int>(queue_by_level_.size());
    return evals;
}

std::size_t PackedSim::evalAll() {
    for (const GateId g : t_->nl->topoOrder()) schedule(*t_, g);
    return propagate();
}

void PackedSim::injectFault(const FaultSite& f) {
    fault_active_ = true;
    fault_ = f;
    if (f.isPinFault()) {
        schedule(*t_, f.gate);
    } else {
        // Force the stuck value at the net right away; applyValue records
        // the good planes in the undo log before overwriting them.
        const std::size_t base = planeIndex(f.net, 0);
        applyValue(f.net, &v_[base], &x_[base]); // overridden via the fault
    }
}

void PackedSim::faultDiffOnto(const std::uint8_t* is_obs, std::uint64_t* m) const {
    const unsigned W = words_;
    for (unsigned w = 0; w < W; ++w) m[w] = 0;
    for (std::size_t k = 0; k < undo_nets_.size(); ++k) {
        const NetId net = undo_nets_[k];
        if (!is_obs[net]) continue;
        const std::uint64_t* gv = &undo_v_[k * W];
        const std::uint64_t* gx = &undo_x_[k * W];
        const std::uint64_t* fv = &v_[planeIndex(net, 0)];
        const std::uint64_t* fx = &x_[planeIndex(net, 0)];
        for (unsigned w = 0; w < W; ++w) m[w] |= (gv[w] ^ fv[w]) & ~gx[w] & ~fx[w];
    }
}

void PackedSim::clearFault() {
    if (!fault_active_) return;
    fault_active_ = false;
    for (std::size_t k = undo_nets_.size(); k-- > 0;) {
        const NetId net = undo_nets_[k];
        const std::size_t src = k * words_;
        const std::size_t dst = planeIndex(net, 0);
        std::memcpy(&v_[dst], &undo_v_[src], words_ * sizeof(std::uint64_t));
        std::memcpy(&x_[dst], &undo_x_[src], words_ * sizeof(std::uint64_t));
        undo_mark_[net] = 0;
    }
    undo_nets_.clear();
    undo_v_.clear();
    undo_x_.clear();
}

std::uint64_t PackedSim::totalToggles() const noexcept {
    std::uint64_t sum = 0;
    for (const std::uint64_t t : toggles_) sum += t;
    return sum;
}

} // namespace flh
