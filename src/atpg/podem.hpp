// PODEM (Path-Oriented DEcision Making) test generation.
//
// Combinational, over the full-scan view: the controllable sources are the
// primary inputs and the flip-flop outputs (scan state); the observation
// points are the primary outputs and the flip-flop D inputs.
//
// Good and faulty machines run side by side in two pattern slots of one
// event-driven simulator: slot 0 is fault-free and the fault is injected
// into slot 1 only (PatternSim::injectFault with a slot mask). That gives
// the classical D-algebra for free — a net carries "D" when the two slots
// hold definite, different values — and each decision costs a single
// propagation. justify/justifyAll inject no fault, so slot 1 simply mirrors
// slot 0. Backtracing uses a generic gate-agnostic objective rule (try each
// unassigned input with each value; prefer the one that forces the
// objective), so complex cells (AOI/OAI/MUX) need no special cases.
//
// Only the fault's transitive fanout cone can ever differ between the two
// slots, so generate() collects that cone once — its gates in topological
// order, stopping at flip-flops, plus the observation points inside it —
// and the D-frontier and observation checks scan only those lists. The
// first frontier gate is the same one a whole-netlist scan would find.
// Backtracking un-assigns every popped decision and then propagates once,
// with the flipped value: combinational steady state depends only on the
// source values, so every decision point sees the same state as it would
// after one propagation per un-assignment.
//
// Sources can be frozen to fixed values before generation — that is how the
// skewed-load ATPG constrains V1's state to be the shifted V2 state, and how
// broadside justification pins the required next-state bits.
//
// Each call also restricts the simulator to the gates the search can read
// (PatternSim::restrictTo). generate() reads the fault site, the cone's
// gates, their inputs and its observation points, and backtraces from those
// nets toward the sources; justify/justifyAll read the objective nets and
// backtrace from them. All of that lies in the transitive fanin, stopping at
// flip-flops, of the site plus the cone's gate outputs (generate) or of the
// objective nets (justifyAll). That fanin is closed, so its values depend
// only on its own gates and the sources, and simulating only it leaves every
// value the search reads — hence every decision, backtrack and pattern —
// exactly as a whole-circuit simulation would. On s5378 the region is about
// half the combinational gates. Counters podem.calls, podem.gate_evals and
// podem.region_gates (summed per call, flushed once per call) show the
// saving in a traced run: region_gates / calls is the mean region.
//
// Implication runs the simulator at one word (PatternSim's default width):
// PODEM implies a single candidate assignment at a time (two slots of one
// word), so wider planes would only add memory traffic. Grading the
// generated tests runs the same engine (runStuckAtFaultSim, and the
// transition top-off's TransitionGrader) on a single word.
#pragma once

#include "fault/fault_sim.hpp"

#include <memory>
#include <optional>
#include <span>
#include <vector>

namespace flh {

struct PodemConfig {
    int max_backtracks = 300;
};

/// Outcome classification for one generation attempt.
enum class PodemOutcome : std::uint8_t { Success, Untestable, Aborted };

class Podem {
public:
    explicit Podem(const Netlist& nl, PodemConfig cfg = {});
    /// Shares the simulator tables, e.g. among the parallel top-off's Podems.
    explicit Podem(std::shared_ptr<const SimTables> tables, PodemConfig cfg = {});

    /// Freeze a source (PI or FF output) net to a value for all subsequent
    /// calls; pass Logic::X to unfreeze. Throws if `net` is not a source.
    void freeze(NetId net, Logic value);
    void clearFrozen();

    /// Generate a pattern detecting `fault`. On success the pattern has
    /// Logic::X in positions PODEM never needed (caller random-fills).
    PodemOutcome generate(const FaultSite& fault, Pattern& out);

    /// Justify `value` on `net` (no fault, no propagation requirement).
    PodemOutcome justify(NetId net, Logic value, Pattern& out);

    /// Justify several (net, value) requirements simultaneously.
    PodemOutcome justifyAll(const std::vector<std::pair<NetId, Logic>>& objectives, Pattern& out);

    [[nodiscard]] std::size_t backtracksUsed() const noexcept { return backtracks_; }

private:
    struct Decision {
        NetId source;
        Logic value;
        bool tried_both;
    };

    /// Restrict the simulator to the transitive fanin of `seeds` (region_).
    void restrictToFanin(std::span<const NetId> seeds);
    /// Reset the simulator under the current region, inject the active
    /// fault, apply frozen sources and propagate.
    void resetState();
    void flushCounters() const;
    void assignSource(NetId source, Logic v);
    [[nodiscard]] Logic goodValue(NetId n) const;
    [[nodiscard]] bool hasD(NetId n) const;
    [[nodiscard]] bool isSource(NetId n) const;

    /// Walk an objective back to an unassigned, unfrozen source.
    [[nodiscard]] std::optional<std::pair<NetId, Logic>> backtrace(NetId net, Logic v);

    /// Collect the fault's fanout cone into cone_gates_ / cone_obs_.
    void buildCone(const FaultSite& fault);

    /// Objective advancing the first D-frontier gate (D on an input, no
    /// decided output) that still has an X input; nullopt if none does.
    [[nodiscard]] std::optional<std::pair<NetId, Logic>> frontierObjective() const;

    /// True if some observation point carries D.
    [[nodiscard]] bool faultObserved() const;

    /// Shared decision loop; `goal` returns +1 done, 0 keep going, -1 dead end.
    template <typename GoalFn, typename ObjectiveFn>
    PodemOutcome decisionLoop(GoalFn goal, ObjectiveFn next_objective, Pattern& out);

    Pattern extractPattern() const;

    const Netlist* nl_;
    PodemConfig cfg_;
    PatternSim sim_; ///< slot 0 good machine, slot 1 faulty machine
    std::vector<NetId> sources_;
    std::vector<std::size_t> topo_pos_; ///< per gate: index in topoOrder()
    std::vector<std::uint8_t> is_obs_;  ///< per net: PO or FF D input
    std::vector<std::uint8_t> in_cone_; ///< per gate: mark during buildCone
    std::vector<GateId> cone_gates_;    ///< fault's fanout cone, topological
    std::vector<NetId> cone_obs_;       ///< observation points in the cone
    std::vector<GateId> region_;        ///< the gates this call simulates
    std::vector<std::uint8_t> in_region_; ///< per gate: mark during restrictToFanin
    std::vector<NetId> region_seeds_;   ///< scratch: restrictToFanin's seeds
    std::vector<NetId> region_work_;    ///< scratch: restrictToFanin's walk
    std::uint64_t gate_evals_ = 0;      ///< this call's propagate() total
    std::vector<Logic> frozen_;   ///< per net (X = not frozen)
    std::vector<Logic> assigned_; ///< per net (X = unassigned), sources only
    std::vector<Decision> stack_;
    std::size_t backtracks_ = 0;
    bool fault_active_ = false;
    FaultSite fault_{};
};

} // namespace flh
