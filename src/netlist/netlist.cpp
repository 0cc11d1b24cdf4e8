#include "netlist/netlist.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <stdexcept>
#include <unordered_set>

namespace flh {

namespace {

/// The order buildFanout gives every fanout list: by gate, then by pin.
bool canonicalLess(const PinRef& a, const PinRef& b) noexcept {
    return a.gate != b.gate ? a.gate < b.gate : a.pin < b.pin;
}

} // namespace

Netlist::Netlist(std::string name, const Library& lib) : name_(std::move(name)), lib_(&lib) {}

NetId Netlist::addNet(const std::string& name) {
    if (by_name_.contains(name)) throw std::invalid_argument("duplicate net name: " + name);
    const NetId id = static_cast<NetId>(nets_.size());
    nets_.push_back(Net{name, kInvalidId, false});
    by_name_.emplace(name, id);
    // A new net has no receivers and changes no gate's inputs.
    if (fanout_valid_) fanout_.emplace_back();
    return id;
}

NetId Netlist::addPi(const std::string& name) {
    const NetId id = addNet(name);
    nets_[id].is_pi = true;
    pis_.push_back(id);
    return id;
}

void Netlist::markPo(NetId net) {
    if (net >= nets_.size()) throw std::out_of_range("markPo: bad net");
    if (std::find(pos_.begin(), pos_.end(), net) == pos_.end()) pos_.push_back(net);
}

GateId Netlist::addGate(CellFn fn, const std::vector<NetId>& inputs, NetId output) {
    if (!isSequential(fn) && inputs.size() > kMaxGateArity)
        throw std::invalid_argument("addGate: arity " + std::to_string(inputs.size()) +
                                    " exceeds kMaxGateArity (" +
                                    std::to_string(kMaxGateArity) +
                                    "); decompose wide gates (see readBench)");
    const CellId cell = lib_->find(fn, static_cast<int>(inputs.size()));
    if (output >= nets_.size()) throw std::out_of_range("addGate: bad output net");
    if (nets_[output].driver != kInvalidId || nets_[output].is_pi)
        throw std::invalid_argument("addGate: net already driven: " + nets_[output].name);
    for (NetId in : inputs)
        if (in >= nets_.size()) throw std::out_of_range("addGate: bad input net");

    const GateId id = static_cast<GateId>(gates_.size());
    gates_.push_back(Gate{cell, fn, inputs, output});
    nets_[output].driver = id;
    if (isSequential(fn)) ffs_.push_back(id);
    // The new gate has the highest id, so its pins go last on each list.
    if (fanout_valid_)
        for (int pin = 0; pin < static_cast<int>(inputs.size()); ++pin)
            fanout_[inputs[static_cast<std::size_t>(pin)]].push_back(PinRef{id, pin});
    topo_valid_ = false;
    return id;
}

GateId Netlist::addDff(NetId d, NetId q) { return addGate(CellFn::Dff, {d}, q); }

void Netlist::rewireInput(GateId gate, int pin, NetId net) {
    Gate& g = gates_.at(gate);
    if (net >= nets_.size()) throw std::out_of_range("rewireInput: bad net");
    NetId& slot = g.inputs.at(static_cast<std::size_t>(pin));
    if (fanout_valid_) {
        const PinRef ref{gate, pin};
        std::vector<PinRef>& from = fanout_[slot];
        from.erase(std::find(from.begin(), from.end(), ref));
        std::vector<PinRef>& to = fanout_[net];
        to.insert(std::lower_bound(to.begin(), to.end(), ref, canonicalLess), ref);
    }
    slot = net;
    topo_valid_ = false;
}

void Netlist::replaceGate(GateId g, CellFn fn, const std::vector<NetId>& inputs) {
    Gate& gate = gates_.at(g);
    if (isSequential(gate.fn) != isSequential(fn))
        throw std::invalid_argument("replaceGate must not change sequential status");
    if (!isSequential(fn) && inputs.size() > kMaxGateArity)
        throw std::invalid_argument("replaceGate: arity " + std::to_string(inputs.size()) +
                                    " exceeds kMaxGateArity (" +
                                    std::to_string(kMaxGateArity) + ")");
    const CellId cell = lib_->find(fn, static_cast<int>(inputs.size()));
    for (NetId in : inputs)
        if (in >= nets_.size()) throw std::out_of_range("replaceGate: bad input net");
    gate.cell = cell;
    gate.fn = fn;
    gate.inputs = inputs;
    invalidateCaches();
}

std::vector<GateId> Netlist::combGates() const {
    std::vector<GateId> out;
    out.reserve(gates_.size() - ffs_.size());
    for (GateId i = 0; i < gates_.size(); ++i)
        if (!isSequential(gates_[i].fn)) out.push_back(i);
    return out;
}

std::optional<NetId> Netlist::findNet(const std::string& name) const {
    const auto it = by_name_.find(name);
    if (it == by_name_.end()) return std::nullopt;
    return it->second;
}

const std::vector<PinRef>& Netlist::fanout(NetId net) const {
    if (!fanout_valid_) buildFanout();
    return fanout_.at(net);
}

void Netlist::buildFanout() const {
    // Count first so every list is allocated once, at its exact size, and
    // free the old lists (and any capacity addNet's growth left) before.
    // Each list comes out in canonical order (gate, then pin), which addGate
    // and rewireInput preserve.
    std::vector<std::uint32_t> count(nets_.size(), 0);
    for (const Gate& gate : gates_)
        for (const NetId in : gate.inputs) ++count[in];
    std::vector<std::vector<PinRef>>().swap(fanout_);
    fanout_.resize(nets_.size());
    for (NetId n = 0; n < nets_.size(); ++n) fanout_[n].reserve(count[n]);
    for (GateId g = 0; g < gates_.size(); ++g) {
        const Gate& gate = gates_[g];
        for (int pin = 0; pin < static_cast<int>(gate.inputs.size()); ++pin)
            fanout_[gate.inputs[static_cast<std::size_t>(pin)]].push_back(PinRef{g, pin});
    }
    fanout_valid_ = true;
}

void Netlist::buildTopo() const {
    // Kahn's algorithm over combinational gates. FF outputs and PIs are
    // already "known", so a gate becomes ready when all its input nets are
    // either sources or driven by already-ordered gates.
    if (!fanout_valid_) buildFanout();
    topo_.clear();
    levels_.assign(gates_.size(), 0);

    std::vector<int> pending(gates_.size(), 0);
    std::deque<GateId> ready;
    std::size_t n_comb = 0;

    const auto sourceNet = [&](NetId n) {
        const Net& net = nets_[n];
        return net.is_pi || (net.driver != kInvalidId && isSequential(gates_[net.driver].fn));
    };

    for (GateId g = 0; g < gates_.size(); ++g) {
        if (isSequential(gates_[g].fn)) continue;
        ++n_comb;
        int deps = 0;
        for (NetId in : gates_[g].inputs)
            if (!sourceNet(in)) ++deps;
        pending[g] = deps;
        if (deps == 0) ready.push_back(g);
    }

    std::vector<int> net_level(nets_.size(), 0);
    while (!ready.empty()) {
        const GateId g = ready.front();
        ready.pop_front();
        topo_.push_back(g);
        int lvl = 0;
        for (NetId in : gates_[g].inputs) lvl = std::max(lvl, net_level[in]);
        levels_[g] = lvl + 1;
        net_level[gates_[g].output] = lvl + 1;
        for (const PinRef& pr : fanout_[gates_[g].output]) {
            if (isSequential(gates_[pr.gate].fn)) continue;
            if (--pending[pr.gate] == 0) ready.push_back(pr.gate);
        }
    }

    if (topo_.size() != n_comb)
        throw std::runtime_error("netlist '" + name_ + "' has a combinational loop");
    topo_valid_ = true;
}

const std::vector<GateId>& Netlist::topoOrder() const {
    if (!topo_valid_) buildTopo();
    return topo_;
}

const std::vector<int>& Netlist::levels() const {
    if (!topo_valid_) buildTopo();
    return levels_;
}

int Netlist::logicDepth() const {
    const auto& lv = levels();
    int depth = 0;
    for (int l : lv) depth = std::max(depth, l);
    return depth;
}

double Netlist::totalAreaUm2() const {
    double area = 0.0;
    for (const Gate& g : gates_) area += lib_->cell(g.cell).areaUm2(lib_->tech());
    return area;
}

double Netlist::netCapFf(NetId net) const {
    const double c_wire = lib_->tech().c_wire_ff_per_fanout;
    double cap = 0.0;
    for (const PinRef& pr : fanout(net)) {
        cap += lib_->pinCapFf(gates_[pr.gate].cell, pr.pin);
        cap += c_wire;
    }
    const Net& n = nets_[net];
    if (n.driver != kInvalidId) cap += lib_->outputParasiticFf(gates_[n.driver].cell);
    return cap;
}

std::vector<GateId> Netlist::uniqueFirstLevelGates() const {
    std::unordered_set<GateId> seen;
    std::vector<GateId> out;
    for (GateId ff : ffs_) {
        for (const PinRef& pr : fanout(gates_[ff].output)) {
            if (isSequential(gates_[pr.gate].fn)) continue;
            if (seen.insert(pr.gate).second) out.push_back(pr.gate);
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::size_t Netlist::totalFfFanout() const {
    // Logic fanout only: scan-chain SI pins and FF D pins are not part of
    // the paper's "fanouts" columns.
    std::size_t total = 0;
    for (GateId ff : ffs_) {
        for (const PinRef& pr : fanout(gates_[ff].output))
            if (!isSequential(gates_[pr.gate].fn)) ++total;
    }
    return total;
}

void Netlist::check() const {
    for (NetId n = 0; n < nets_.size(); ++n) {
        const Net& net = nets_[n];
        if (net.is_pi && net.driver != kInvalidId)
            throw std::runtime_error("PI net also gate-driven: " + net.name);
        if (!net.is_pi && net.driver == kInvalidId)
            throw std::runtime_error("undriven net: " + net.name);
        if (net.driver != kInvalidId && gates_.at(net.driver).output != n)
            throw std::runtime_error("driver mismatch on net: " + net.name);
    }
    for (GateId g = 0; g < gates_.size(); ++g) {
        const Gate& gate = gates_[g];
        const Cell& cell = lib_->cell(gate.cell);
        if (static_cast<int>(gate.inputs.size()) != cell.n_inputs)
            throw std::runtime_error("arity mismatch on gate " + std::to_string(g));
        if (gate.fn != cell.fn)
            throw std::runtime_error("cell/function mismatch on gate " + std::to_string(g));
    }
    (void)topoOrder(); // throws on combinational loops
}

void Netlist::invalidateCaches() const {
    fanout_valid_ = false;
    topo_valid_ = false;
}

NetlistStats computeStats(const Netlist& nl) {
    NetlistStats s;
    s.n_pis = nl.pis().size();
    s.n_pos = nl.pos().size();
    s.n_ffs = nl.flipFlops().size();
    s.n_comb_gates = nl.gateCount() - s.n_ffs;
    s.total_ff_fanout = nl.totalFfFanout();
    s.unique_first_level = nl.uniqueFirstLevelGates().size();
    s.logic_depth = nl.logicDepth();
    s.area_um2 = nl.totalAreaUm2();
    return s;
}

} // namespace flh
