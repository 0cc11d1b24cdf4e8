#include "sim/sequential.hpp"

#include <cassert>
#include <stdexcept>

namespace flh {

const char* toString(HoldStyle s) noexcept {
    switch (s) {
        case HoldStyle::None: return "none";
        case HoldStyle::EnhancedScan: return "enhanced-scan";
        case HoldStyle::MuxHold: return "mux-hold";
        case HoldStyle::Flh: return "flh";
    }
    return "?";
}

SequentialSim::SequentialSim(const Netlist& nl, HoldStyle style)
    : sim_(nl), style_(style) {
    // Only FLH holds gates; the other styles never read the set.
    if (style == HoldStyle::Flh) first_level_ = nl.uniqueFirstLevelGates();
    state_.assign(nl.flipFlops().size(), PV::all(Logic::X));
}

void SequentialSim::setState(const std::vector<PV>& state) {
    if (state.size() != state_.size()) throw std::invalid_argument("state size mismatch");
    state_ = state;
    if (!holding_ || style_ == HoldStyle::None || style_ == HoldStyle::Flh) driveQ();
}

void SequentialSim::setPi(std::size_t index, PV v) {
    sim_.setNet(sim_.netlist().pis().at(index), v);
}

void SequentialSim::setPis(const std::vector<PV>& pis) {
    const auto& nets = sim_.netlist().pis();
    if (pis.size() != nets.size()) throw std::invalid_argument("pi count mismatch");
    for (std::size_t i = 0; i < pis.size(); ++i) sim_.setNet(nets[i], pis[i]);
}

void SequentialSim::driveQ() {
    // Q nets are the tail of the sources, after the PIs.
    const NetId* q = sim_.tables()->sources.data() + sim_.netlist().pis().size();
    for (std::size_t i = 0; i < state_.size(); ++i) sim_.setNet(q[i], state_[i]);
}

void SequentialSim::settle() { sim_.propagate(); }

void SequentialSim::clock() {
    settle();
    // D nets are the tail of the observation points, after the POs.
    const NetId* d = sim_.tables()->observed.data() + sim_.netlist().pos().size();
    for (std::size_t i = 0; i < state_.size(); ++i) state_[i] = sim_.get(d[i]);
    driveQ();
    settle();
}

PV SequentialSim::shift(PV scan_in) {
    const PV out = state_.empty() ? PV::all(Logic::X) : state_.front();
    for (std::size_t i = 0; i + 1 < state_.size(); ++i) state_[i] = state_[i + 1];
    if (!state_.empty()) state_.back() = scan_in;

    switch (style_) {
        case HoldStyle::None:
            // Plain scan: the logic sees every intermediate shift state.
            driveQ();
            settle();
            break;
        case HoldStyle::EnhancedScan:
        case HoldStyle::MuxHold:
            // Hold latches / MUXes freeze the comb inputs: Q-side nets keep
            // the held snapshot, nothing to simulate.
            if (!holding_) {
                driveQ();
                settle();
            }
            break;
        case HoldStyle::Flh:
            // FF outputs toggle (their wire/pin energy is real) but the held
            // first-level gates stop all propagation.
            driveQ();
            settle();
            break;
    }
    return out;
}

void SequentialSim::setFlhGatedGates(std::vector<GateId> gates) {
    if (holding_) throw std::logic_error("cannot change gated set while holding");
    first_level_ = std::move(gates);
}

void SequentialSim::setHolding(bool holding) {
    if (holding == holding_) return;
    holding_ = holding;
    switch (style_) {
        case HoldStyle::None:
            break;
        case HoldStyle::EnhancedScan:
        case HoldStyle::MuxHold:
            if (!holding) {
                // Latches open: the current state becomes visible.
                driveQ();
                settle();
            }
            break;
        case HoldStyle::Flh:
            // The gated gates keep the outputs they settled to (and
            // PatternSim holds only a quiescent simulator).
            if (holding) settle();
            sim_.setHeldAll(first_level_, holding);
            if (!holding) settle();
            break;
    }
}

std::vector<PV> SequentialSim::observe() const {
    const std::vector<NetId>& obs = sim_.tables()->observed;
    std::vector<PV> out(obs.size());
    for (std::size_t k = 0; k < obs.size(); ++k) out[k] = sim_.get(obs[k]);
    return out;
}

} // namespace flh
