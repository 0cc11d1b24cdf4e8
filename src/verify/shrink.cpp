#include "verify/shrink.hpp"

#include "obs/telemetry.hpp"

#include <stdexcept>
#include <unordered_map>

namespace flh {

namespace {

/// Settled value of `net` under pattern `p`, slot 0.
Logic settledValue(const Netlist& nl, const Pattern& p, NetId net) {
    PatternSim sim(nl);
    loadPattern(sim, p);
    return sim.get(net).get(0);
}

} // namespace

std::pair<Netlist, std::vector<TwoPattern>> removeGate(const Netlist& nl, GateId victim,
                                                       const std::vector<TwoPattern>& pairs) {
    const Gate& vg = nl.gate(victim);
    const bool victim_is_ff = isSequential(vg.fn);
    std::size_t ff_index = 0;
    if (victim_is_ff) {
        while (nl.flipFlops().at(ff_index) != victim) ++ff_index;
    }

    Netlist out(nl.name(), nl.library());
    std::unordered_map<NetId, NetId> remap;
    remap.reserve(nl.netCount());

    // Original primary inputs keep their order; the orphaned output net
    // becomes one more input at the end.
    for (const NetId pi : nl.pis()) remap.emplace(pi, out.addPi(nl.net(pi).name));
    remap.emplace(vg.output, out.addPi(nl.net(vg.output).name));
    for (GateId g = 0; g < nl.gateCount(); ++g) {
        if (g == victim) continue;
        const NetId o = nl.gate(g).output;
        remap.emplace(o, out.addNet(nl.net(o).name));
    }

    // Gates in original order (flip-flop order, and therefore state-vector
    // indexing, survives minus the victim).
    for (GateId g = 0; g < nl.gateCount(); ++g) {
        if (g == victim) continue;
        const Gate& gate = nl.gate(g);
        std::vector<NetId> ins;
        ins.reserve(gate.inputs.size());
        for (const NetId in : gate.inputs) ins.push_back(remap.at(in));
        out.addGate(gate.fn, ins, remap.at(gate.output));
    }
    for (const NetId po : nl.pos()) out.markPo(remap.at(po));
    out.check();

    std::vector<TwoPattern> new_pairs;
    new_pairs.reserve(pairs.size());
    for (const TwoPattern& tp : pairs) {
        const auto remapPattern = [&](const Pattern& p) {
            Pattern np;
            np.pis = p.pis;
            np.pis.push_back(victim_is_ff ? p.state.at(ff_index)
                                          : settledValue(nl, p, vg.output));
            np.state = p.state;
            if (victim_is_ff)
                np.state.erase(np.state.begin() + static_cast<std::ptrdiff_t>(ff_index));
            return np;
        };
        new_pairs.push_back(TwoPattern{remapPattern(tp.v1), remapPattern(tp.v2)});
    }
    return {std::move(out), std::move(new_pairs)};
}

ShrinkResult shrinkReproducer(Netlist nl, std::vector<TwoPattern> pairs,
                              const FailurePredicate& still_fails, const ShrinkOptions& opts) {
    if (!still_fails(nl, pairs))
        throw std::invalid_argument("shrinkReproducer: inputs do not exhibit the failure");

    static obs::Counter& c_gates = obs::counter("verify.shrink.gates_removed");
    static obs::Counter& c_pairs = obs::counter("verify.shrink.pairs_removed");
    obs::ScopedSpan span("shrink-" + nl.name(), "verify.shrink");

    const std::size_t gates_before = nl.gateCount();
    const std::size_t pairs_before = pairs.size();
    std::size_t rounds = 0;

    for (std::size_t round = 0; round < opts.max_rounds; ++round) {
        bool changed = false;

        // Drop pairs (keep at least one: a reproducer needs a stimulus).
        for (std::size_t i = pairs.size(); i-- > 0 && pairs.size() > 1;) {
            std::vector<TwoPattern> candidate = pairs;
            candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
            if (still_fails(nl, candidate)) {
                pairs = std::move(candidate);
                changed = true;
                c_pairs.add(1);
            }
        }

        // Drop gates. Gate order is preserved by removeGate, so after a
        // successful removal index g already names the next candidate.
        for (GateId g = 0; g < nl.gateCount();) {
            auto [cand_nl, cand_pairs] = removeGate(nl, g, pairs);
            if (still_fails(cand_nl, cand_pairs)) {
                nl = std::move(cand_nl);
                pairs = std::move(cand_pairs);
                changed = true;
                c_gates.add(1);
            } else {
                ++g;
            }
        }

        ++rounds;
        if (!changed) break;
    }

    const std::size_t gates_after = nl.gateCount();
    const std::size_t pairs_after = pairs.size();
    return ShrinkResult{std::move(nl), std::move(pairs), rounds,
                        gates_before, gates_after, pairs_before, pairs_after};
}

} // namespace flh
