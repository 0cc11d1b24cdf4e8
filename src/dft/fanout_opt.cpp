#include "dft/fanout_opt.hpp"

#include "obs/telemetry.hpp"
#include "sta/timing.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>

namespace flh {

namespace {

/// Comb gates driven by `q`, with the pins each occupies.
std::unordered_map<GateId, std::vector<int>> combReceivers(const Netlist& nl, NetId q) {
    std::unordered_map<GateId, std::vector<int>> out;
    for (const PinRef& pr : nl.fanout(q)) {
        if (isSequential(nl.gate(pr.gate).fn)) continue; // scan-chain SI / FF D pins stay put
        out[pr.gate].push_back(pr.pin);
    }
    return out;
}

/// True if gate `g` has an input driven by any flip-flop other than `ff`.
bool fedByOtherFf(const Netlist& nl, GateId g, GateId ff) {
    for (const NetId in : nl.gate(g).inputs) {
        const GateId drv = nl.net(in).driver;
        if (drv != kInvalidId && drv != ff && isSequential(nl.gate(drv).fn)) return true;
    }
    return false;
}

/// An existing inverter whose (single) input is `q`, if any.
GateId findExistingInverter(const Netlist& nl, NetId q) {
    for (const PinRef& pr : nl.fanout(q))
        if (nl.gate(pr.gate).fn == CellFn::Inv) return pr.gate;
    return kInvalidId;
}

} // namespace

FanoutOptResult optimizeFanout(Netlist& nl, const FanoutOptConfig& cfg) {
    static obs::Counter& c_retimes = obs::counter("dft.fanout_opt.retimes");
    obs::ScopedSpan span("dft:fanout_opt", "dft");
    const Tech& t = nl.library().tech();
    const Library& lib = nl.library();
    const Cell& inv = lib.cell(lib.find(CellFn::Inv, 1));

    FanoutOptResult res;
    res.first_level_before = nl.uniqueFirstLevelGates().size();
    // STA is a pure function of the netlist: re-time only after a move, and
    // then only what the move changed.
    IncrementalSta timer(nl);
    const TimingResult& sta = timer.result();
    c_retimes.add();
    res.delay_before_ps = sta.critical_delay_ps;

    // Process FFs in descending comb-fanout order (the paper targets "scan
    // flip flops with higher fanouts" first). The keys are taken on the
    // netlist as it stands before any move.
    std::vector<GateId> ffs = nl.flipFlops();
    std::vector<std::size_t> n_receivers(nl.gateCount());
    for (const GateId ff : ffs) n_receivers[ff] = combReceivers(nl, nl.gate(ff).output).size();
    std::stable_sort(ffs.begin(), ffs.end(),
                     [&](GateId a, GateId b) { return n_receivers[a] > n_receivers[b]; });

    int name_seq = 0;
    for (const GateId ff : ffs) {
        const NetId q = nl.gate(ff).output;
        const auto receivers = combReceivers(nl, q);
        if (static_cast<int>(receivers.size()) < cfg.min_fanout) continue;

        const GateId reuse_inv = findExistingInverter(nl, q);

        // Estimate the rebuffer penalty: two inverter stages (or one if an
        // inverter is reused) in front of the displaced pins.
        double moved_load = 0.0;
        std::vector<std::pair<GateId, std::vector<int>>> candidates;
        for (const auto& [g, pins] : receivers) {
            if (g == reuse_inv) continue; // the reused inverter stays on q
            double pin_cap = 0.0;
            for (const int p : pins)
                pin_cap += lib.cell(nl.gate(g).cell).pinCapFf(t, p) + t.c_wire_ff_per_fanout;
            candidates.push_back({g, pins});
            moved_load += pin_cap;
        }
        // The displaced pins traverse two inverter stages either way; reusing
        // an existing inverter saves *area*, not delay (its output is not
        // where the moved pins used to hang).
        const double c_stage1 =
            (reuse_inv != kInvalidId
                 ? nl.netCapFf(nl.gate(reuse_inv).output) + inv.pinCapFf(t, 0) +
                       t.c_wire_ff_per_fanout
                 : inv.pinCapFf(t, 0) + inv.outputParasiticFf(t) + t.c_wire_ff_per_fanout);
        const double d_stage1 = inv.r_out_kohm * c_stage1 + kIntrinsicStagePs;
        const double d_stage2 =
            inv.r_out_kohm * (moved_load + inv.outputParasiticFf(t)) + kIntrinsicStagePs;
        const double penalty = d_stage1 + d_stage2 + cfg.slack_margin_ps;

        // Reusing an inverter loads its output with one more pin; paths
        // through its *other* fanouts must absorb that too.
        if (reuse_inv != kInvalidId) {
            const double extra = inv.r_out_kohm * (inv.pinCapFf(t, 0) + t.c_wire_ff_per_fanout);
            if (sta.slackPs(nl.gate(reuse_inv).output) < extra + cfg.slack_margin_ps) continue;
        }

        // Movable: every displaced path must absorb the penalty.
        std::vector<std::pair<GateId, std::vector<int>>> movable;
        std::size_t sole = 0; // gates first-level only because of this FF
        for (const auto& cand : candidates) {
            if (sta.slackPs(nl.gate(cand.first).output) < penalty) continue;
            movable.push_back(cand);
            if (!fedByOtherFf(nl, cand.first, ff)) ++sole;
        }
        if (movable.size() < 2 || sole == 0) continue;

        // If the new first-stage inverter loads q by more than the moved
        // pins unload it, the *remaining* paths through q slow down; they
        // must have the slack for it (slack(q) covers the worst of them).
        if (reuse_inv == kInvalidId) {
            double moved_caps = 0.0;
            for (const auto& [g, pins] : movable)
                for (const int p : pins)
                    moved_caps += lib.cell(nl.gate(g).cell).pinCapFf(t, p) + t.c_wire_ff_per_fanout;
            const double delta_q = inv.pinCapFf(t, 0) + t.c_wire_ff_per_fanout - moved_caps;
            if (delta_q > 0.0) {
                const GateId drv = nl.net(q).driver;
                const double r_drv = lib.cell(nl.gate(drv).cell).r_out_kohm;
                if (sta.slackPs(q) < r_drv * delta_q + cfg.slack_margin_ps) continue;
            }
        }

        // Area win: gating hardware saved vs inverters added.
        const int added_inv = reuse_inv != kInvalidId ? 1 : 2;
        const std::size_t new_first_level = reuse_inv != kInvalidId ? 0 : 1;
        const double saving = static_cast<double>(sole - (sole ? new_first_level : 0)) *
                                  cfg.flh.areaUm2(t) -
                              static_cast<double>(added_inv) * inv.areaUm2(t);
        if (saving <= 0.0) continue;

        // --- mutate -------------------------------------------------------
        NetId stage1_out;
        if (reuse_inv != kInvalidId) {
            stage1_out = nl.gate(reuse_inv).output;
        } else {
            stage1_out = nl.addNet("fopt_a" + std::to_string(name_seq));
            nl.addGate(CellFn::Inv, {q}, stage1_out);
        }
        const NetId stage2_out = nl.addNet("fopt_b" + std::to_string(name_seq));
        nl.addGate(CellFn::Inv, {stage1_out}, stage2_out);
        ++name_seq;
        for (const auto& [g, pins] : movable)
            for (const int p : pins) nl.rewireInput(g, p, stage2_out);

        res.inverters_added += static_cast<std::size_t>(added_inv);
        ++res.ffs_optimized;
        // q, stage 1's output and stage 2's output changed receivers; the
        // new inverters drive the last two.
        const NetId touched[] = {q, stage1_out, stage2_out};
        timer.retime(touched);
        c_retimes.add();
    }

    // Every decision above read the re-timer's slacks, so it must end where
    // a full pass over the final netlist does; a net left out of `touched`
    // shows here as a stale arrival or required time.
#ifndef NDEBUG
    const TimingResult fresh = runSta(nl);
    assert(fresh.arrival_ps == sta.arrival_ps && fresh.required_ps == sta.required_ps);
#endif

    nl.check();
    res.first_level_after = nl.uniqueFirstLevelGates().size();
    res.delay_after_ps = sta.critical_delay_ps;
    return res;
}

} // namespace flh
