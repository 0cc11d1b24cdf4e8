// Layer probes: direct calls into one layer, timed call by call. Workloads
// run them after their traced passes, so the per-call histograms (PODEM,
// one-test grading, simulator kernels) come from the same public functions
// the workloads drive, without spans inside the program.
#pragma once

#include "harness.hpp"

#include "atpg/podem.hpp"
#include "fault/fault_sim.hpp"
#include "netlist/netlist.hpp"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// A registry circuit with full scan inserted and its transition faults.
struct ScannedCircuit {
    std::string name;
    flh::Netlist nl;
    std::vector<flh::TransitionFault> faults;
};
[[nodiscard]] ScannedCircuit scannedCircuit(const std::string& name);

/// `n` seeded enhanced-scan pairs (independent random V1 and V2).
[[nodiscard]] std::vector<flh::TwoPattern> randomPairs(const flh::Netlist& nl, std::size_t n,
                                                      std::uint64_t seed);

/// Outcome tally of the PODEM probe calls (times are in the spans).
struct PodemTally {
    std::size_t success = 0;
    std::size_t untestable = 0;
    std::size_t aborted = 0;
    std::size_t backtracks = 0;
    double aborted_ms = 0.0;
};

/// PODEM as top-off calls it. The targets are the faults that
/// `random_tests` leave undetected: the random phase of the workload's own
/// ATPG result (its first random_pairs tests). At most `max_faults` of them
/// are probed, evenly spaced. Each gets Podem::generate on V2's stuck-at
/// fault and, on success, V1's justification as `style`'s top-off does it:
/// Podem::justify (enhanced scan), sources frozen to V2's shifted state and
/// Podem::justify (skewed load), or Podem::justifyAll over V2's next-state
/// bits and the initial value (broadside). `seed` fills V2's don't-cares
/// before a skewed-load freeze. Spans "podem.generate" / "podem.justify".
void podemTopoffProbe(const ScannedCircuit& c, flh::TestApplication style,
                      std::span<const flh::TwoPattern> random_tests, const flh::PodemConfig& pc,
                      std::size_t max_faults, std::uint64_t seed, PodemTally& tally, Result& r);

/// Sets the podem.* metrics from the spans and the tally.
void setPodemMetrics(const PodemTally& tally, Result& r);

/// One-test grading (the shape top-off uses): `n` calls of
/// runTransitionFaultSim over a single seeded pair.
/// Sets fault.single_test_grade_us_p50/_p99.
void singleTestGradeProbe(const ScannedCircuit& c, int n, std::uint64_t seed, Result& r);

/// PackedSim gate evaluations per second at `words` words
/// (sim.packed_gate_evals_per_s.w<words>): evalAll over random sources.
void packedSimProbe(const ScannedCircuit& c, unsigned words, int reps, std::uint64_t seed,
                    Result& r);

/// PatternSim single-source setNet + propagate, PODEM's implication shape
/// (sim.event_propagate_us_p50).
void eventPropagateProbe(const ScannedCircuit& c, int n, std::uint64_t seed, Result& r);

/// SequentialSim: one functional cycle (set PIs, settle, clock)
/// (sim.sequential_cycle_us, the median).
void sequentialCycleProbe(const ScannedCircuit& c, int n, std::uint64_t seed, Result& r);

/// Circuit generation and .bench write/parse of `circuits`
/// (iscas.generate_ms, netlist.bench_write_ms, netlist.bench_parse_ms).
void netlistProbe(const std::vector<std::string>& circuits, Result& r);

} // namespace perfbench
