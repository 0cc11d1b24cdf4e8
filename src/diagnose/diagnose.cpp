#include "diagnose/diagnose.hpp"

#include <algorithm>

namespace flh {

std::vector<Response> simulateGoodResponses(const Netlist& nl,
                                            std::span<const TwoPattern> tests) {
    return transitionResponses(nl, tests, nullptr);
}

std::vector<Response> simulateFaultyResponses(const Netlist& nl,
                                              std::span<const TwoPattern> tests,
                                              const TransitionFault& fault) {
    return transitionResponses(nl, tests, &fault);
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
    const std::vector<std::size_t> mismatches =
        countMismatchingTests(nl, tests, observed, candidates);
    DiagnosisResult res;
    res.ranking.reserve(candidates.size());
    for (std::size_t c = 0; c < candidates.size(); ++c)
        res.ranking.push_back(Candidate{c, static_cast<int>(mismatches[c])});
    std::stable_sort(res.ranking.begin(), res.ranking.end(),
                     [](const Candidate& a, const Candidate& b) {
                         return a.mismatching_tests < b.mismatching_tests;
                     });
    return res;
}

} // namespace flh
