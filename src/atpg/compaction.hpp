// Static test-set compaction (reverse-order pass).
//
// ATPG emits patterns greedily, so late patterns (generated for the hard
// faults) often cover many of the faults the early random patterns were
// kept for. The classical fix: fault-simulate the set in reverse order and
// keep only the patterns that detect something new. Coverage is preserved
// exactly; test time (scan cycles) drops with the pattern count — relevant
// because enhanced-scan/FLH tests cost *two* chain loads each (Fig. 5b).
// Walking backwards, a test detects a fault first iff it is the fault's
// last detector, so one grading run (lastDetectingPatterns) finds the tests
// the pass keeps.
#pragma once

#include "fault/fault_sim.hpp"

#include <vector>

namespace flh {

struct CompactionStats {
    std::size_t before = 0;
    std::size_t after = 0;
    std::size_t detected = 0; ///< faults detected (unchanged by compaction)

    [[nodiscard]] double reductionPct() const noexcept {
        return before ? 100.0 * static_cast<double>(before - after) /
                            static_cast<double>(before)
                      : 0.0;
    }
};

/// Keep only stuck-at patterns that detect a new fault (reverse order).
CompactionStats compactStuckAtTests(const Netlist& nl, std::vector<Pattern>& patterns,
                                    std::span<const FaultSite> faults);

/// Keep only two-pattern tests that detect a new transition fault.
CompactionStats compactTransitionTests(const Netlist& nl, std::vector<TwoPattern>& tests,
                                       std::span<const TransitionFault> faults);

} // namespace flh
