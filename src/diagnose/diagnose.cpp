#include "diagnose/diagnose.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace flh {

std::vector<Response> simulateGoodResponses(const Netlist& nl,
                                            std::span<const TwoPattern> tests) {
    std::vector<Response> out;
    out.reserve(tests.size());
    PatternSim sim(nl);
    for (const TwoPattern& tp : tests) {
        loadPattern(sim, tp.v2);
        out.push_back(response(sim));
    }
    return out;
}

std::vector<Response> simulateFaultyResponses(const Netlist& nl,
                                              std::span<const TwoPattern> tests,
                                              const TransitionFault& fault) {
    // A slow net manifests only when the test launches the late transition:
    // V1 must establish the initial value. If it does, the capture equals
    // the V2 response with the net stuck at its old value; otherwise the
    // die responds like the good machine.
    std::vector<Response> out;
    out.reserve(tests.size());
    PatternSim sim_v1(nl);
    PatternSim sim_v2(sim_v1.tables());
    for (const TwoPattern& tp : tests) {
        loadPattern(sim_v1, tp.v1);
        const bool launched = sim_v1.get(fault.net).get(0) == fault.initialValue();
        loadPattern(sim_v2, tp.v2);
        if (launched) {
            sim_v2.injectFault(fault.equivalentStuckAt());
            sim_v2.propagate();
        }
        out.push_back(response(sim_v2));
        sim_v2.clearFault(); // back to the good V2 state; a no-op when not launched
    }
    return out;
}

std::size_t DiagnosisResult::rankOf(std::size_t fault_index) const {
    for (std::size_t i = 0; i < ranking.size(); ++i)
        if (ranking[i].fault_index == fault_index) return i + 1;
    return 0;
}

std::size_t DiagnosisResult::bestTieSize() const {
    if (ranking.empty()) return 0;
    std::size_t n = 0;
    while (n < ranking.size() && ranking[n].mismatching_tests == ranking[0].mismatching_tests)
        ++n;
    return n;
}

DiagnosisResult diagnose(const Netlist& nl, std::span<const TwoPattern> tests,
                         std::span<const Response> observed,
                         std::span<const TransitionFault> candidates) {
    if (observed.size() != tests.size())
        throw std::invalid_argument("diagnose: " + std::to_string(observed.size()) +
                                    " observed responses for " +
                                    std::to_string(tests.size()) + " tests");
    const std::size_t width = nl.pos().size() + nl.flipFlops().size();
    for (std::size_t t = 0; t < observed.size(); ++t)
        if (observed[t].size() != width)
            throw std::invalid_argument("diagnose: response " + std::to_string(t) + " has " +
                                        std::to_string(observed[t].size()) + " values, " +
                                        nl.name() + " captures " + std::to_string(width));
    DiagnosisResult res;
    res.ranking.reserve(candidates.size());
    for (std::size_t c = 0; c < candidates.size(); ++c) {
        const auto predicted = simulateFaultyResponses(nl, tests, candidates[c]);
        int mismatches = 0;
        for (std::size_t t = 0; t < tests.size(); ++t)
            if (predicted[t] != observed[t]) ++mismatches;
        res.ranking.push_back(Candidate{c, mismatches});
    }
    std::stable_sort(res.ranking.begin(), res.ranking.end(),
                     [](const Candidate& a, const Candidate& b) {
                         return a.mismatching_tests < b.mismatching_tests;
                     });
    return res;
}

} // namespace flh
