#include "atpg/path_atpg.hpp"

#include "atpg/stuck_atpg.hpp"
#include "util/rng.hpp"

namespace flh {

PathAtpgResult generatePathDelayTests(const Netlist& nl, std::span<const DelayPath> paths,
                                      TestApplication style, const PathAtpgConfig& cfg) {
    PathAtpgResult res;
    Podem podem(nl, cfg.podem);
    Rng rng(cfg.seed);
    const auto& ffs = nl.flipFlops();

    for (const DelayPath& path : paths) {
        for (const bool rising : {true, false}) {
            ++res.attempted;
            const PathDelayFault fault{path, rising};

            const auto values = onPathValues(nl, path, rising);
            std::vector<std::pair<NetId, Logic>> cons;
            if (values.empty() || !sensitizationConstraints(nl, path, cons)) {
                ++res.unsensitizable;
                continue;
            }

            // V2 objectives: sensitization + post-transition input value.
            std::vector<std::pair<NetId, Logic>> v2_obj = cons;
            v2_obj.push_back({path.nets[0], values[0]});
            podem.clearFrozen();
            Pattern v2;
            const PodemOutcome v2_out = podem.justifyAll(v2_obj, v2);
            if (v2_out == PodemOutcome::Untestable) {
                ++res.infeasible; // a false path: no input can sensitize it
                continue;
            }
            if (v2_out == PodemOutcome::Aborted) {
                ++res.aborted;
                continue;
            }

            bool added = false;
            for (int attempt = 0; attempt < cfg.justify_retries && !added; ++attempt) {
                Pattern v2f = v2;
                fillRandom(v2f, rng);
                TwoPattern tp;
                tp.v2 = v2f;

                const Logic v1_value = negate(values[0]);
                bool justified = false;
                switch (style) {
                    case TestApplication::EnhancedScan: {
                        podem.clearFrozen();
                        Pattern v1;
                        if (podem.justify(path.nets[0], v1_value, v1) != PodemOutcome::Success)
                            break;
                        justified = true;
                        fillRandom(v1, rng);
                        tp.v1 = std::move(v1);
                        break;
                    }
                    case TestApplication::SkewedLoad: {
                        podem.clearFrozen();
                        for (std::size_t i = 0; i + 1 < ffs.size(); ++i)
                            podem.freeze(nl.gate(ffs[i + 1]).output, v2f.state[i]);
                        Pattern v1;
                        if (podem.justify(path.nets[0], v1_value, v1) != PodemOutcome::Success)
                            break;
                        justified = true;
                        fillRandom(v1, rng);
                        // The pair must be structurally exact.
                        tp = makePair(nl, style, v1, v2f.pis,
                                      v2f.state.empty() ? Logic::Zero : v2f.state.back());
                        break;
                    }
                    case TestApplication::Broadside: {
                        // V1's capture must produce V2's specified state
                        // bits; the filled ones are free.
                        std::vector<std::pair<NetId, Logic>> v1_obj;
                        for (std::size_t i = 0; i < ffs.size(); ++i)
                            if (v2.state[i] != Logic::X)
                                v1_obj.push_back({nl.gate(ffs[i]).inputs[0], v2.state[i]});
                        v1_obj.push_back({path.nets[0], v1_value});
                        podem.clearFrozen();
                        Pattern v1;
                        if (podem.justifyAll(v1_obj, v1) != PodemOutcome::Success) break;
                        justified = true;
                        fillRandom(v1, rng);
                        tp = makePair(nl, style, v1, v2f.pis);
                        break;
                    }
                }
                if (!justified) break;
                if (testsPath(nl, fault, tp)) {
                    res.tests.push_back({fault, tp});
                    ++res.tested;
                    added = true;
                }
            }
            if (!added) ++res.justify_failed;
        }
    }
    return res;
}

} // namespace flh
