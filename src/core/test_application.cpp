#include "core/test_application.hpp"

#include <algorithm>

namespace flh {

namespace {

std::vector<PV> toPv(const std::vector<Logic>& bits) {
    std::vector<PV> out(bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i) out[i] = PV::all(bits[i]);
    return out;
}

std::vector<Logic> combSnapshot(const SequentialSim& seq) {
    const Netlist& nl = seq.sim().netlist();
    std::vector<Logic> snap;
    snap.reserve(nl.topoOrder().size());
    for (const GateId g : nl.topoOrder()) snap.push_back(seq.sim().get(nl.gate(g).output).get(0));
    return snap;
}

bool snapshotsMatch(const std::vector<Logic>& ref, const std::vector<Logic>& now) {
    for (std::size_t i = 0; i < ref.size(); ++i) {
        if (ref[i] == Logic::X) continue;
        if (now[i] != ref[i]) return false;
    }
    return true;
}

double snapshotFidelityPct(const std::vector<Logic>& ref, const std::vector<Logic>& now) {
    std::size_t definite = 0;
    std::size_t held = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        if (ref[i] == Logic::X) continue;
        ++definite;
        if (now[i] == ref[i]) ++held;
    }
    return definite ? 100.0 * static_cast<double>(held) / static_cast<double>(definite) : 100.0;
}

} // namespace

TwoPatternApplicator::TwoPatternApplicator(const Netlist& nl, HoldStyle style)
    : nl_(&nl), style_(style) {}

TwoPatternApplicator::TwoPatternApplicator(const Netlist& nl, std::vector<GateId> flh_gated_gates)
    : nl_(&nl),
      style_(HoldStyle::Flh),
      custom_gated_(std::move(flh_gated_gates)),
      use_custom_gated_(true) {}

ApplicationResult TwoPatternApplicator::apply(const TwoPattern& tp) {
    ApplicationResult res;
    SequentialSim seq(*nl_, style_);
    if (use_custom_gated_) seq.setFlhGatedGates(custom_gated_);
    PatternSim& sim = seq.sim();
    sim.enableToggleCount(true);

    const std::size_t n = seq.ffCount();
    const auto combToggles = [&] {
        std::uint64_t total = 0;
        for (const GateId g : nl_->topoOrder()) total += sim.toggleCounts()[nl_->gate(g).output];
        return total;
    };
    const auto phase = [&](const std::string& name, int cycles, bool tc,
                           std::uint64_t toggles_before) {
        res.trace.push_back(PhaseRecord{name, cycles, tc, combToggles() - toggles_before});
    };

    // Start from an all-zero state, logic settled.
    seq.setState(std::vector<PV>(n, PV::all(Logic::Zero)));
    seq.setPis(toPv(tp.v1.pis));
    seq.settle();

    // Phase 1: scan in V1 with the logic isolated (TC = 0).
    std::uint64_t mark = combToggles();
    seq.setHolding(true);
    for (std::size_t i = 0; i < n; ++i) seq.shift(PV::all(tp.v1.state[i]));
    phase("scan-V1", static_cast<int>(n), false, mark);

    // Phase 2: apply V1 (TC = 1 for one cycle), logic settles to its
    // response; that response is the hold reference.
    mark = combToggles();
    seq.setHolding(false);
    seq.setPis(toPv(tp.v1.pis));
    seq.settle();
    const std::vector<Logic> v1_response = combSnapshot(seq);
    phase("apply-V1", 1, true, mark);

    // Phase 3: hold and scan in V2.
    mark = combToggles();
    seq.setHolding(true);
    for (std::size_t i = 0; i < n; ++i) seq.shift(PV::all(tp.v2.state[i]));
    const std::vector<Logic> after_shift = combSnapshot(seq);
    res.hold_intact = snapshotsMatch(v1_response, after_shift);
    res.hold_fidelity_pct = snapshotFidelityPct(v1_response, after_shift);
    phase("scan-V2", static_cast<int>(n), false, mark);

    // Phase 4: launch V1 -> V2 (TC = 1, V2's PI bits applied).
    // Launch fidelity: the pre-launch logic state must still be V1's
    // response, and the chain must hold exactly V2's state.
    bool state_is_v2 = true;
    for (std::size_t i = 0; i < n; ++i)
        if (seq.state()[i].get(0) != tp.v2.state[i]) state_is_v2 = false;
    res.launch_faithful = res.hold_intact && state_is_v2;

    mark = combToggles();
    seq.setPis(toPv(tp.v2.pis));
    seq.setHolding(false);
    seq.settle();
    res.po_launch.reserve(nl_->pos().size());
    for (const NetId po : nl_->pos()) res.po_launch.push_back(sim.get(po).get(0));
    phase("launch", 1, true, mark);

    // Phase 5: capture at the rated clock.
    mark = combToggles();
    seq.clock();
    res.captured.resize(n);
    for (std::size_t i = 0; i < n; ++i) res.captured[i] = seq.state()[i].get(0);
    phase("capture", 1, true, mark);

    // Scan the response out (isolated again).
    seq.setHolding(true);
    for (std::size_t i = 0; i < n; ++i)
        res.scan_out.push_back(seq.shift(PV::all(Logic::Zero)).get(0));
    seq.setHolding(false);
    return res;
}

} // namespace flh
