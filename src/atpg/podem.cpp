#include "atpg/podem.hpp"

#include "obs/telemetry.hpp"

#include <algorithm>
#include <stdexcept>

namespace flh {

static_assert(2 * kMaxGateArity <= 64, "backtrace packs two candidates per input into a PV");

Podem::Podem(const Netlist& nl, PodemConfig cfg)
    : Podem(std::make_shared<const SimTables>(nl), cfg) {}

Podem::Podem(std::shared_ptr<const SimTables> tables, PodemConfig cfg)
    : nl_(tables->nl), cfg_(cfg), sim_(std::move(tables)) {
    const Netlist& nl = *nl_;
    frozen_.assign(nl.netCount(), Logic::X);
    assigned_.assign(nl.netCount(), Logic::X);
    topo_pos_.assign(nl.gateCount(), 0);
    const auto& topo = nl.topoOrder();
    for (std::size_t i = 0; i < topo.size(); ++i) topo_pos_[topo[i]] = i;
    in_cone_.assign(nl.gateCount(), 0);
    in_region_.assign(nl.gateCount(), 0);
}

void Podem::freeze(NetId net, Logic value) {
    if (!isSource(net)) throw std::invalid_argument("freeze: not a source net");
    frozen_.at(net) = value;
}

void Podem::clearFrozen() { frozen_.assign(nl_->netCount(), Logic::X); }

bool Podem::isSource(NetId n) const {
    const Net& net = nl_->net(n);
    return net.is_pi || (net.driver != kInvalidId && isSequential(nl_->gate(net.driver).fn));
}

void Podem::restrictToFanin(std::span<const NetId> seeds) {
    region_.clear();
    std::vector<NetId>& work = region_work_;
    work.assign(seeds.begin(), seeds.end());
    const SimTables& t = *sim_.tables();
    while (!work.empty()) {
        const GateId g = nl_->net(work.back()).driver;
        work.pop_back();
        // Primary inputs have no driver; flip-flop outputs are sources too.
        if (g == kInvalidId || t.sequential[g] || in_region_[g]) continue;
        in_region_[g] = 1;
        region_.push_back(g);
        for (const NetId in : t.inputs(g)) work.push_back(in);
    }
    for (const GateId g : region_) in_region_[g] = 0;
}

void Podem::flushCounters() const {
    static obs::Counter& c_calls = obs::counter("podem.calls");
    static obs::Counter& c_gate_evals = obs::counter("podem.gate_evals");
    static obs::Counter& c_region_gates = obs::counter("podem.region_gates");
    static obs::Counter& c_decisions = obs::counter("podem.decisions");
    static obs::Counter& c_backtracks = obs::counter("podem.backtracks");
    c_calls.add(1);
    c_gate_evals.add(gate_evals_);
    c_region_gates.add(region_.size());
    c_decisions.add(decisions_);
    c_backtracks.add(backtracks_);
}

void Podem::resetState() {
    sim_.reset();
    sim_.restrictTo(region_);
    gate_evals_ = 0;
    assigned_.assign(nl_->netCount(), Logic::X);
    stack_.clear();
    decisions_ = 0;
    backtracks_ = 0;
    if (fault_active_) sim_.injectFault(fault_, 0b10); // slot 1 = faulty machine
    for (const NetId s : sim_.tables()->sources) {
        if (frozen_[s] != Logic::X) {
            assigned_[s] = frozen_[s];
            sim_.setNet(s, PV::all(frozen_[s]));
        }
    }
    gate_evals_ += sim_.propagate();
}

void Podem::assignSource(NetId source, Logic v) {
    assigned_[source] = v;
    sim_.setNet(source, PV::all(v));
    gate_evals_ += sim_.propagate();
}

Logic Podem::goodValue(NetId n) const { return sim_.get(n).get(0); }

bool Podem::hasD(NetId n) const {
    // Slots 0 (good) and 1 (faulty) both decided and different.
    const PV p = sim_.get(n);
    return (p.x & 0b11) == 0 && ((p.v ^ (p.v >> 1)) & 1) != 0;
}

std::optional<std::pair<NetId, Logic>> Podem::backtrace(NetId net, Logic v) {
    // Walk toward the sources on the good machine, at each gate choosing an
    // unassigned input whose value can still produce the objective. The
    // choice only steers the search — a poor pick is corrected by
    // backtracking, so the generic rule is sound for every cell function.
    for (int guard = 0; guard < static_cast<int>(nl_->netCount()) + 8; ++guard) {
        if (isSource(net)) {
            if (assigned_[net] != Logic::X || frozen_[net] != Logic::X) return std::nullopt;
            return std::make_pair(net, v);
        }
        const GateId g = nl_->net(net).driver;
        if (g == kInvalidId) return std::nullopt;
        const Gate& gate = nl_->gate(g);
        const std::size_t arity = gate.inputs.size();

        // Every candidate in one packed evaluation: slot 2p + b holds the
        // gate with input p set to b and the others at their good values.
        PV ins[kMaxGateArity];
        for (std::size_t p = 0; p < arity; ++p) {
            ins[p] = PV::all(goodValue(gate.inputs[p]));
            ins[p].set(static_cast<unsigned>(2 * p), Logic::Zero);
            ins[p].set(static_cast<unsigned>(2 * p + 1), Logic::One);
        }
        const PV r = evalCell(gate.fn, {ins, arity});

        std::optional<std::pair<std::size_t, Logic>> forcing;
        std::optional<std::pair<std::size_t, Logic>> possible;
        for (std::size_t p = 0; p < arity && !forcing; ++p) {
            if (goodValue(gate.inputs[p]) != Logic::X) continue;
            for (const Logic b : {Logic::Zero, Logic::One}) {
                const Logic rb = r.get(static_cast<unsigned>(2 * p + (b == Logic::One)));
                if (rb == v) {
                    forcing = {p, b};
                    break;
                }
                if (rb == Logic::X && !possible) possible = {p, b};
            }
        }
        const auto choice = forcing ? forcing : possible;
        if (!choice) return std::nullopt;
        net = gate.inputs[choice->first];
        v = choice->second;
    }
    return std::nullopt;
}

void Podem::buildCone(const FaultSite& fault) {
    cone_gates_.clear();
    cone_obs_.clear();
    std::vector<NetId> work;
    const auto visitGate = [&](GateId g) {
        if (isSequential(nl_->gate(g).fn) || in_cone_[g]) return;
        in_cone_[g] = 1;
        cone_gates_.push_back(g);
        work.push_back(nl_->gate(g).output);
    };
    const std::vector<std::uint8_t>& is_obs = sim_.tables()->is_obs;
    const auto visitNet = [&](NetId n) {
        if (is_obs[n]) cone_obs_.push_back(n);
        for (const PinRef& pr : nl_->fanout(n)) visitGate(pr.gate);
    };
    // A pin fault differs only from its receiving gate onward; the input net
    // itself never carries D.
    if (fault.isPinFault())
        visitGate(fault.gate);
    else
        visitNet(fault.net);
    while (!work.empty()) {
        const NetId n = work.back();
        work.pop_back();
        visitNet(n);
    }
    for (const GateId g : cone_gates_) in_cone_[g] = 0;
    std::sort(cone_gates_.begin(), cone_gates_.end(),
              [&](GateId a, GateId b) { return topo_pos_[a] < topo_pos_[b]; });
}

std::optional<std::pair<NetId, Logic>> Podem::frontierObjective() const {
    for (const GateId g : cone_gates_) {
        const Gate& gate = nl_->gate(g);
        // Both slots decided: the difference died here or already passed.
        if ((sim_.get(gate.output).x & 0b11) == 0) continue;
        bool d_in = false;
        for (const NetId in : gate.inputs)
            if (hasD(in)) {
                d_in = true;
                break;
            }
        // A pin fault creates its difference *inside* the receiving gate.
        if (!d_in && fault_.isPinFault() && fault_.gate == g &&
            goodValue(fault_.net) != Logic::X)
            d_in = true;
        if (!d_in) continue;
        // Set an X input to its non-controlling-ish value (backtrace fixes
        // bad guesses).
        for (const NetId in : gate.inputs) {
            if (goodValue(in) != Logic::X) continue;
            const Logic nc =
                (gate.fn == CellFn::And || gate.fn == CellFn::Nand) ? Logic::One : Logic::Zero;
            return std::make_pair(in, nc);
        }
    }
    return std::nullopt; // frontier empty or saturated
}

bool Podem::faultObserved() const {
    for (const NetId n : cone_obs_)
        if (hasD(n)) return true;
    return false;
}

Pattern Podem::extractPattern() const {
    const std::vector<NetId>& src = sim_.tables()->sources;
    const std::size_t n_pis = nl_->pis().size();
    Pattern p;
    p.pis.reserve(n_pis);
    p.state.reserve(src.size() - n_pis);
    for (std::size_t k = 0; k < n_pis; ++k) p.pis.push_back(assigned_[src[k]]);
    for (std::size_t k = n_pis; k < src.size(); ++k) p.state.push_back(assigned_[src[k]]);
    return p;
}

template <typename GoalFn, typename ObjectiveFn>
PodemOutcome Podem::decisionLoop(GoalFn goal, ObjectiveFn next_objective, Pattern& out) {
    // Popped decisions only clear assigned_; the flipped decision rolls the
    // simulator back to the checkpoint taken before it was first assigned
    // (all later assignments undone) and implies the negated value alone.
    const auto backtrack = [&]() -> bool {
        ++backtracks_;
        while (!stack_.empty()) {
            Decision& d = stack_.back();
            if (!d.tried_both) {
                d.tried_both = true;
                d.value = negate(d.value);
                sim_.rollback(d.mark);
                assignSource(d.source, d.value);
                return true;
            }
            assigned_[d.source] = Logic::X;
            stack_.pop_back();
        }
        return false;
    };

    for (;;) {
        if (backtracks_ > static_cast<std::size_t>(cfg_.max_backtracks))
            return PodemOutcome::Aborted;

        const int state = goal();
        if (state > 0) {
            out = extractPattern();
            return PodemOutcome::Success;
        }
        bool dead = state < 0;

        std::optional<std::pair<NetId, Logic>> assign;
        if (!dead) {
            const auto obj = next_objective();
            if (!obj) {
                dead = true;
            } else {
                assign = backtrace(obj->first, obj->second);
                if (!assign) dead = true;
            }
        }
        if (dead) {
            if (!backtrack()) return PodemOutcome::Untestable;
            continue;
        }
        ++decisions_;
        stack_.push_back(Decision{assign->first, assign->second, false, sim_.checkpoint()});
        assignSource(assign->first, assign->second);
    }
}

PodemOutcome Podem::generate(const FaultSite& fault, Pattern& out) {
    fault_active_ = true;
    fault_ = fault;
    buildCone(fault);
    // The search reads the site, the cone's gates and inputs, and backtraces
    // from those: all within the fanin of the site and the cone's outputs.
    std::vector<NetId>& seeds = region_seeds_;
    seeds.assign(1, fault.net);
    for (const GateId g : cone_gates_) seeds.push_back(nl_->gate(g).output);
    restrictToFanin(seeds);
    resetState();

    const Logic activate = fault.stuck_at_one ? Logic::Zero : Logic::One;

    const auto goal = [&]() -> int {
        if (faultObserved()) return 1;
        const Logic site = goodValue(fault.net);
        if (site != Logic::X && site != activate) return -1; // cannot activate
        return 0;
    };
    const auto next_objective = [&]() -> std::optional<std::pair<NetId, Logic>> {
        // 1) Activate the fault; 2) advance the D-frontier.
        if (goodValue(fault.net) == Logic::X) return std::make_pair(fault.net, activate);
        return frontierObjective();
    };

    const PodemOutcome r = decisionLoop(goal, next_objective, out);
    fault_active_ = false;
    flushCounters();
    return r;
}

PodemOutcome Podem::justify(NetId net, Logic value, Pattern& out) {
    return justifyAll({{net, value}}, out);
}

PodemOutcome Podem::justifyAll(const std::vector<std::pair<NetId, Logic>>& objectives,
                               Pattern& out) {
    fault_active_ = false;
    // Goal, objectives and backtraces read only the objective nets' fanin.
    std::vector<NetId>& seeds = region_seeds_;
    seeds.clear();
    for (const auto& [net, v] : objectives) seeds.push_back(net);
    restrictToFanin(seeds);
    resetState();

    const auto goal = [&]() -> int {
        bool all = true;
        for (const auto& [net, v] : objectives) {
            const Logic cur = goodValue(net);
            if (cur == Logic::X) {
                all = false;
            } else if (cur != v) {
                return -1;
            }
        }
        return all ? 1 : 0;
    };
    const auto next_objective = [&]() -> std::optional<std::pair<NetId, Logic>> {
        for (const auto& [net, v] : objectives)
            if (goodValue(net) == Logic::X) return std::make_pair(net, v);
        return std::nullopt;
    };
    const PodemOutcome r = decisionLoop(goal, next_objective, out);
    flushCounters();
    return r;
}

} // namespace flh
