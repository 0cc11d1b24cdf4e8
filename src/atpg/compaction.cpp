#include "atpg/compaction.hpp"

namespace flh {

namespace {

/// Keep, in set order, the tests that are the last detector of some fault.
template <typename Test, typename Fault>
CompactionStats compact(const Netlist& nl, std::vector<Test>& tests,
                        std::span<const Fault> faults) {
    CompactionStats stats;
    stats.before = tests.size();
    std::vector<bool> keep(tests.size(), false);
    for (const std::size_t last : lastDetectingPatterns(nl, std::span<const Test>(tests), faults)) {
        if (last == kNoPattern) continue;
        keep[last] = true;
        ++stats.detected;
    }
    std::vector<Test> kept;
    kept.reserve(tests.size());
    for (std::size_t i = 0; i < tests.size(); ++i)
        if (keep[i]) kept.push_back(std::move(tests[i]));
    tests = std::move(kept);
    stats.after = tests.size();
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
