// Flattened netlist tables shared by event-driven simulators.
//
// PatternSim schedules and evaluates gates on every event.
// Reading the Netlist there would chase a heap-allocated vector per gate
// (Gate::inputs) and per net (fanout lists) on every event. SimTables
// copies what the hot paths read — per-net fanout gates, per-gate level,
// function, output net and input nets — into contiguous CSR arrays, once
// per netlist. Simulators hold the tables through a shared_ptr, so the two
// machines of a transition grader or the PODEM instances of a parallel
// top-off share one copy instead of building their own.
//
// The tables are a snapshot: edit the Netlist and they are stale. Build
// them after the netlist is final, like any simulator.
#pragma once

#include "netlist/netlist.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace flh {

struct SimTables {
    /// Throws std::invalid_argument if a combinational gate has more than
    /// kMaxGateArity inputs (the simulators gather inputs into fixed-size
    /// buffers), and whatever Netlist::topoOrder throws on a combinational
    /// loop.
    explicit SimTables(const Netlist& nl);

    [[nodiscard]] std::span<const GateId> fanout(NetId net) const {
        return {fan_gate.data() + fan_off[net], fan_off[net + 1] - fan_off[net]};
    }
    [[nodiscard]] std::span<const NetId> inputs(GateId g) const {
        return {in_net.data() + in_off[g], in_off[g + 1] - in_off[g]};
    }

    const Netlist* nl;
    std::vector<std::uint32_t> fan_off; ///< netCount + 1 offsets into fan_gate
    std::vector<GateId> fan_gate;       ///< receiving gate of every fanout pin
    std::vector<std::int32_t> level;    ///< per gate: Netlist::levels()
    std::vector<CellFn> fn;             ///< per gate
    std::vector<NetId> out;             ///< per gate: output net
    std::vector<std::uint32_t> in_off;  ///< gateCount + 1 offsets into in_net
    std::vector<NetId> in_net;          ///< input nets of every gate, in pin order
    /// Per gate: 1 for flip-flops. A simulator's per-gate "scheduled" flags
    /// start as a copy of this, so sequential gates are born scheduled and
    /// the per-event path never asks whether a gate is sequential.
    std::vector<std::uint8_t> sequential;
    int depth = 0; ///< Netlist::logicDepth()
};

} // namespace flh
