#include "sim/sim_tables.hpp"

#include <stdexcept>
#include <string>

namespace flh {

SimTables::SimTables(const Netlist& nl) : nl(&nl) {
    const std::size_t n_nets = nl.netCount();
    const std::size_t n_gates = nl.gateCount();
    // Hard arity check, not an assert: the propagate hot loops gather inputs
    // into fixed kMaxGateArity-entry buffers, so a wider combinational gate
    // would silently corrupt the stack in release builds. Netlist::addGate
    // rejects such gates too, but a Library built directly (Library::add
    // takes any cell) can still smuggle one in.
    for (GateId g = 0; g < n_gates; ++g) {
        const Gate& gate = nl.gate(g);
        if (!isSequential(gate.fn) && gate.inputs.size() > kMaxGateArity)
            throw std::invalid_argument(
                "simulator: gate '" + nl.net(gate.output).name + "' has arity " +
                std::to_string(gate.inputs.size()) + " > " + std::to_string(kMaxGateArity));
    }
    const std::vector<int>& levels = nl.levels(); // throws on combinational loops
    depth = nl.logicDepth();

    fan_off.assign(n_nets + 1, 0);
    for (NetId n = 0; n < n_nets; ++n)
        fan_off[n + 1] = fan_off[n] + static_cast<std::uint32_t>(nl.fanout(n).size());
    fan_gate.reserve(fan_off.back());
    for (NetId n = 0; n < n_nets; ++n)
        for (const PinRef& pr : nl.fanout(n)) fan_gate.push_back(pr.gate);

    level.assign(levels.begin(), levels.end());
    fn.resize(n_gates);
    out.resize(n_gates);
    sequential.assign(n_gates, 0);
    in_off.assign(n_gates + 1, 0);
    for (GateId g = 0; g < n_gates; ++g) {
        const Gate& gate = nl.gate(g);
        fn[g] = gate.fn;
        out[g] = gate.output;
        sequential[g] = isSequential(gate.fn) ? 1 : 0;
        in_off[g + 1] = in_off[g] + static_cast<std::uint32_t>(gate.inputs.size());
    }
    in_net.reserve(in_off.back());
    for (GateId g = 0; g < n_gates; ++g)
        for (const NetId in : nl.gate(g).inputs) in_net.push_back(in);

    // Counting sort on (level, fn), ids ascending within a bucket: a
    // comparison sort here cost more than the rest of the tables together.
    constexpr std::size_t kFns = static_cast<std::size_t>(CellFn::Sdff) + 1;
    const auto bucket = [&](GateId g) {
        return static_cast<std::size_t>(level[g]) * kFns + static_cast<std::size_t>(fn[g]);
    };
    std::vector<std::uint32_t> next((static_cast<std::size_t>(depth) + 1) * kFns + 1, 0);
    for (GateId g = 0; g < n_gates; ++g)
        if (!sequential[g]) ++next[bucket(g) + 1];
    for (std::size_t b = 1; b < next.size(); ++b) next[b] += next[b - 1];
    sweep.resize(next.back());
    for (GateId g = 0; g < n_gates; ++g)
        if (!sequential[g]) sweep[next[bucket(g)]++] = g;

    const auto& ffs = nl.flipFlops();
    sources.assign(nl.pis().begin(), nl.pis().end());
    observed.assign(nl.pos().begin(), nl.pos().end());
    for (const GateId ff : ffs) sources.push_back(nl.gate(ff).output);
    for (const GateId ff : ffs) observed.push_back(nl.gate(ff).inputs[0]);
    is_obs.assign(n_nets, 0);
    for (const NetId n : observed) is_obs[n] = 1;
}

} // namespace flh
