// Flattened netlist tables shared by event-driven simulators.
//
// PatternSim schedules and evaluates gates on every event.
// Reading the Netlist there would chase a heap-allocated vector per gate
// (Gate::inputs) and per net (fanout lists) on every event. SimTables
// copies what the hot paths read — per-net fanout gates, per-gate level,
// function, output net and input nets — into contiguous CSR arrays, once
// per netlist, together with the order of a full sweep (PatternSim::evalAll).
// Simulators hold the tables through a shared_ptr, so the two machines of a
// transition grader or the PODEM instances of a parallel top-off share one
// copy instead of building their own.
//
// The tables also own the full-scan view of the paper's test protocol
// (scan in PIs + state, launch, capture POs + flip-flop D inputs): `sources`
// is the order of Pattern::pis then Pattern::state, `observed` the order of
// a captured response, `is_obs` the same points as a per-net flag. Every
// loader and reader of a full-scan pattern goes through these three
// (fault/fault_sim.hpp: loadPattern, response). Two oracles deliberately
// keep their own derivation so tests can compare against them: the
// words = 0 reference fault grader (fault/parallel_sim.cpp) and the fuzzer's
// naive scalar evaluator (verify/fuzz.cpp).
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
    /// Every combinational gate, by level, then by CellFn within a level
    /// (then by id): the order of PatternSim::evalAll's sweep. Gates of one
    /// level read only lower levels, so any order within a level settles
    /// the same values; grouping by function keeps the kernel's switch on
    /// one case for long runs.
    std::vector<GateId> sweep;
    /// PI nets, then flip-flop Q nets: where Pattern::pis + Pattern::state go.
    std::vector<NetId> sources;
    /// PO nets, then flip-flop D nets: the capture order of a response.
    std::vector<NetId> observed;
    /// Per net: 1 for a net in `observed`.
    std::vector<std::uint8_t> is_obs;
};

} // namespace flh
