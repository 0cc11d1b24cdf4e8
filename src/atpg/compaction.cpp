#include "atpg/compaction.hpp"

#include <algorithm>

namespace flh {

namespace {

/// One test graded alone.
FaultSimResult gradeAlone(const Netlist& nl, const Pattern& p,
                          std::span<const FaultSite> faults) {
    return runStuckAtFaultSim(nl, {&p, 1}, faults);
}

FaultSimResult gradeAlone(const Netlist& nl, const TwoPattern& t,
                          std::span<const TransitionFault> faults) {
    return runTransitionFaultSim(nl, {&t, 1}, faults);
}

/// Shared reverse-order greedy pass: a test is kept iff, graded alone, it
/// detects a fault that no later kept test detects.
template <typename Test, typename Fault>
CompactionStats compact(const Netlist& nl, std::vector<Test>& tests,
                        std::span<const Fault> faults) {
    CompactionStats stats;
    stats.before = tests.size();
    std::vector<bool> covered(faults.size(), false);
    std::vector<bool> keep(tests.size(), false);
    for (std::size_t i = tests.size(); i-- > 0;) {
        const FaultSimResult r = gradeAlone(nl, tests[i], faults);
        for (std::size_t f = 0; f < faults.size(); ++f) {
            if (r.detected_mask[f] && !covered[f]) {
                covered[f] = true;
                keep[i] = true;
            }
        }
    }
    std::vector<Test> kept;
    kept.reserve(tests.size());
    for (std::size_t i = 0; i < tests.size(); ++i)
        if (keep[i]) kept.push_back(std::move(tests[i]));
    tests = std::move(kept);
    stats.after = tests.size();
    stats.detected = static_cast<std::size_t>(std::count(covered.begin(), covered.end(), true));
    return stats;
}

} // namespace

CompactionStats compactStuckAtTests(const Netlist& nl, std::vector<Pattern>& patterns,
                                    std::span<const FaultSite> faults) {
    return compact(nl, patterns, faults);
}

CompactionStats compactTransitionTests(const Netlist& nl, std::vector<TwoPattern>& tests,
                                       std::span<const TransitionFault> faults) {
    return compact(nl, tests, faults);
}

} // namespace flh
