#include "fault/path_delay.hpp"

#include <algorithm>
#include <functional>
#include <map>

namespace flh {

namespace {

/// Endpoint nets: POs and FF D inputs.
std::vector<bool> endpointMask(const Netlist& nl) {
    std::vector<bool> is_end(nl.netCount(), false);
    for (const NetId po : nl.pos()) is_end[po] = true;
    for (const GateId ff : nl.flipFlops()) is_end[nl.gate(ff).inputs[0]] = true;
    return is_end;
}

} // namespace

std::vector<DelayPath> enumerateCriticalPaths(const Netlist& nl, const TimingOverlay& ov,
                                              double slack_window_ps, std::size_t max_paths) {
    const TimingResult sta = runSta(nl, ov);
    const double threshold = sta.critical_delay_ps - slack_window_ps;
    const auto is_end = endpointMask(nl);

    // downstream[n]: max remaining delay from net n to any endpoint.
    std::vector<double> downstream(nl.netCount(), -1e18);
    for (NetId n = 0; n < nl.netCount(); ++n)
        if (is_end[n]) downstream[n] = 0.0;
    const auto& topo = nl.topoOrder();
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        const Gate& g = nl.gate(*it);
        if (downstream[g.output] < -1e17) continue;
        const double d = gateDelayPs(nl, *it, ov) + downstream[g.output];
        for (const NetId in : g.inputs) downstream[in] = std::max(downstream[in], d);
    }

    std::vector<DelayPath> found;
    long budget = 500000; // DFS step guard

    struct Frame {
        NetId net;
        double prefix;
    };
    DelayPath current;

    const std::function<void(NetId, double)> dfs = [&](NetId net, double prefix) {
        if (--budget < 0 || found.size() >= max_paths * 4) return;
        if (prefix + downstream[net] < threshold - 1e-9) return;
        current.nets.push_back(net);
        if (is_end[net] && prefix >= threshold - 1e-9) {
            DelayPath p = current;
            p.delay_ps = prefix;
            found.push_back(std::move(p));
        }
        for (const PinRef& pr : nl.fanout(net)) {
            if (isSequential(nl.gate(pr.gate).fn)) continue;
            current.gates.push_back(pr.gate);
            dfs(nl.gate(pr.gate).output, prefix + gateDelayPs(nl, pr.gate, ov));
            current.gates.pop_back();
        }
        current.nets.pop_back();
    };

    for (const NetId pi : nl.pis()) dfs(pi, sta.arrival_ps[pi]);
    for (const GateId ff : nl.flipFlops()) {
        const NetId q = nl.gate(ff).output;
        dfs(q, sta.arrival_ps[q]); // arrival already includes clk2q + series
    }

    std::sort(found.begin(), found.end(),
              [](const DelayPath& a, const DelayPath& b) { return a.delay_ps > b.delay_ps; });
    if (found.size() > max_paths) found.resize(max_paths);
    return found;
}

namespace {

/// Side-input requirements for propagating through `gate` via input `pin`.
/// Empty value = no constraint on that pin. Returns false if the function
/// cannot be sensitized pin-locally.
bool sideRequirements(CellFn fn, std::size_t pin, std::size_t arity,
                      std::vector<std::pair<std::size_t, Logic>>& req) {
    req.clear();
    switch (fn) {
        case CellFn::Buf:
        case CellFn::Inv:
            return true;
        case CellFn::And:
        case CellFn::Nand:
            for (std::size_t p = 0; p < arity; ++p)
                if (p != pin) req.push_back({p, Logic::One});
            return true;
        case CellFn::Or:
        case CellFn::Nor:
            for (std::size_t p = 0; p < arity; ++p)
                if (p != pin) req.push_back({p, Logic::Zero});
            return true;
        case CellFn::Xor:
        case CellFn::Xnor:
            // Pin any side value; zero keeps the polarity bookkeeping simple.
            for (std::size_t p = 0; p < arity; ++p)
                if (p != pin) req.push_back({p, Logic::Zero});
            return true;
        case CellFn::Aoi21: // !((a&b)|c)
            if (pin == 0) req = {{1, Logic::One}, {2, Logic::Zero}};
            if (pin == 1) req = {{0, Logic::One}, {2, Logic::Zero}};
            if (pin == 2) req = {{0, Logic::Zero}};
            return true;
        case CellFn::Aoi22: // !((a&b)|(c&d))
            if (pin == 0) req = {{1, Logic::One}, {2, Logic::Zero}};
            if (pin == 1) req = {{0, Logic::One}, {2, Logic::Zero}};
            if (pin == 2) req = {{3, Logic::One}, {0, Logic::Zero}};
            if (pin == 3) req = {{2, Logic::One}, {0, Logic::Zero}};
            return true;
        case CellFn::Oai21: // !((a|b)&c)
            if (pin == 0) req = {{1, Logic::Zero}, {2, Logic::One}};
            if (pin == 1) req = {{0, Logic::Zero}, {2, Logic::One}};
            if (pin == 2) req = {{0, Logic::One}};
            return true;
        case CellFn::Oai22: // !((a|b)&(c|d))
            if (pin == 0) req = {{1, Logic::Zero}, {2, Logic::One}};
            if (pin == 1) req = {{0, Logic::Zero}, {2, Logic::One}};
            if (pin == 2) req = {{3, Logic::Zero}, {0, Logic::One}};
            if (pin == 3) req = {{2, Logic::Zero}, {0, Logic::One}};
            return true;
        case CellFn::Mux2: // (a, b, s)
            if (pin == 0) req = {{2, Logic::Zero}};
            if (pin == 1) req = {{2, Logic::One}};
            if (pin == 2) req = {{0, Logic::Zero}, {1, Logic::One}};
            return true;
        case CellFn::Dff:
        case CellFn::Sdff:
            return false;
    }
    return false;
}

} // namespace

bool sensitizationConstraints(const Netlist& nl, const DelayPath& path,
                              std::vector<std::pair<NetId, Logic>>& out) {
    out.clear();
    std::map<NetId, Logic> merged;
    for (std::size_t i = 0; i < path.gates.size(); ++i) {
        const Gate& g = nl.gate(path.gates[i]);
        // Locate the on-path pin (first occurrence).
        std::size_t pin = g.inputs.size();
        for (std::size_t p = 0; p < g.inputs.size(); ++p) {
            if (g.inputs[p] == path.nets[i]) {
                pin = p;
                break;
            }
        }
        if (pin == g.inputs.size()) return false;

        std::vector<std::pair<std::size_t, Logic>> req;
        if (!sideRequirements(g.fn, pin, g.inputs.size(), req)) return false;
        for (const auto& [p, v] : req) {
            const NetId n = g.inputs[p];
            // A side requirement on an on-path net is checked later against
            // the on-path values; collect it all the same.
            const auto it = merged.find(n);
            if (it != merged.end() && it->second != v) return false; // conflict
            merged[n] = v;
        }
    }
    // On-path nets must not carry side constraints that contradict the
    // transition values; verify against both polarities' value chains later
    // (callers pair this with onPathValues).
    out.assign(merged.begin(), merged.end());
    return true;
}

std::vector<Logic> onPathValues(const Netlist& nl, const DelayPath& path, bool rising_at_input) {
    std::vector<std::pair<NetId, Logic>> cons;
    if (!sensitizationConstraints(nl, path, cons)) return {};
    std::map<NetId, Logic> side(cons.begin(), cons.end());

    std::vector<Logic> values(path.nets.size(), Logic::X);
    values[0] = rising_at_input ? Logic::One : Logic::Zero;
    for (std::size_t i = 0; i < path.gates.size(); ++i) {
        const Gate& g = nl.gate(path.gates[i]);
        Logic ins[kMaxGateArity];
        for (std::size_t p = 0; p < g.inputs.size(); ++p) {
            const NetId n = g.inputs[p];
            if (n == path.nets[i]) {
                ins[p] = values[i];
            } else if (const auto it = side.find(n); it != side.end()) {
                ins[p] = it->second;
            } else {
                ins[p] = Logic::X;
            }
        }
        const Logic out = evalCellScalar(g.fn, {ins, g.inputs.size()});
        if (out == Logic::X) return {}; // sensitization insufficient
        values[i + 1] = out;
    }
    // Check on-path nets against side constraints (no contradictions).
    for (std::size_t i = 0; i < path.nets.size(); ++i) {
        const auto it = side.find(path.nets[i]);
        if (it != side.end() && it->second != values[i]) return {};
    }
    return values;
}

bool testsPath(const Netlist& nl, const PathDelayFault& fault, const TwoPattern& tp) {
    const auto values = onPathValues(nl, fault.path, fault.rising);
    if (values.empty()) return false;
    std::vector<std::pair<NetId, Logic>> cons;
    if (!sensitizationConstraints(nl, fault.path, cons)) return false;

    // One simulator for both halves: loading V2 over V1 settles to the same
    // values as a fresh load.
    PatternSim sim(nl);
    // V1: the path input holds the pre-transition value.
    loadPattern(sim, tp.v1);
    if (sim.get(fault.path.nets[0]).get(0) != negate(values[0])) return false;
    // V2: sensitized path, post-transition values along it.
    loadPattern(sim, tp.v2);
    for (const auto& [n, v] : cons)
        if (sim.get(n).get(0) != v) return false;
    for (std::size_t i = 0; i < fault.path.nets.size(); ++i)
        if (sim.get(fault.path.nets[i]).get(0) != values[i]) return false;
    return true;
}

} // namespace flh
