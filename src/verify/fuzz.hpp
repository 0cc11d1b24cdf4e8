// Cross-engine differential fuzzing.
//
// A seeded loop over random circuit specs; each seed cross-checks every
// independent computation of the same fact the repository offers:
//
//  1. per-net values — a naive scalar topological evaluator (written here,
//     sharing no code with the event-driven engine) vs PatternSim::evalAll,
//     on several pattern slots including X-laden ones;
//  2. packed per-net values — the word-packed PackedSim (SIMD kernel) vs the
//     same scalar reference at every requested word width, including an
//     all-X pattern and the padded tail slots;
//  3. sequential capture — SequentialSim::clock vs the nextState oracle;
//  4. detection bitmaps — the scalar serial stuck-at / transition engine
//     (words = 0) vs the engine at every requested thread count x word
//     width (threads forced into a real pool via min_items_per_worker = 1),
//     mask bit for mask bit, with stuck-at sites on PI and PO nets always
//     present in the fault list;
//  5. n-detect counts — countTransitionDetections across thread counts and
//     word widths;
//  6. DFT equivalence — the Fig. 5b protocol under enhanced scan, MUX-hold,
//     and FLH vs direct evaluation (verify/equivalence.hpp), on random and
//     ATPG-generated pairs;
//  7. PODEM verdicts — on circuits with at most 16 sources (PIs + FFs):
//     every generate() "Success" pattern must detect its stuck-at fault
//     under the scalar fault simulator, no "Untestable" fault may be
//     detected by any of the enumerated source assignments, and every
//     successful justify() pattern must produce its value under the naive
//     evaluator of check 1. Aborts are counted (FuzzReport::podem_aborts),
//     not failed.
//
// Any mismatch becomes a FuzzFinding; with a corpus directory configured it
// is greedily shrunk (verify/shrink.hpp) and written out as a standalone
// .bench + .pairs reproducer. Per-seed work is wrapped in telemetry spans
// (category "verify.seed") with verify.* counters, so `flh_fuzz --trace`
// shows where a budget went.
#pragma once

#include "iscas/circuits.hpp"
#include "verify/equivalence.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace flh {

struct FuzzOptions {
    std::uint64_t start_seed = 1;
    std::size_t seeds = 100;

    std::size_t random_pairs = 12; ///< arbitrary (V1, V2) pairs per seed
    std::size_t atpg_pairs = 6;    ///< ATPG-generated pairs per seed
    std::size_t stuck_patterns = 16;
    std::size_t max_faults = 96; ///< fault-list cap per seed (cost control)
    std::vector<unsigned> thread_counts{1, 4};

    /// Packed word widths to cross-check against the scalar (words = 0)
    /// oracle; each bitmap/n-detect check runs every width at every thread
    /// count, plus words = 0 itself (pure thread-determinism of the oracle).
    std::vector<unsigned> word_widths{1, 4, 8};

    bool shrink = true;
    std::size_t shrink_rounds = 6;
    std::string corpus_dir; ///< non-empty: write shrunk reproducers here

    /// Non-zero: corrupt the FLH variant with injectMutant(seed ^ this) —
    /// the mutation-testing mode where a finding is the *expected* outcome.
    std::uint64_t mutant_seed = 0;

    bool stop_on_first = true;
};

struct FuzzFinding {
    std::uint64_t seed = 0;
    std::string check; ///< "per-net", "packed-pernet", "seq-capture",
                       ///< "stuck-bitmap", "transition-bitmap", "n-detect",
                       ///< "dft-equivalence", "podem-verdict"
    std::string detail;
    std::string bench_path; ///< written reproducer (empty when not shrunk)
    std::string pairs_path;
    std::size_t shrunk_gates = 0;
};

struct FuzzReport {
    std::size_t seeds_run = 0;
    std::size_t checks_run = 0;
    std::size_t podem_aborts = 0; ///< aborted PODEM calls of the podem-verdict check
    std::vector<FuzzFinding> findings;

    [[nodiscard]] bool ok() const noexcept { return findings.empty(); }
};

/// The deterministic spec fuzzed for a seed (exported so tests and the CLI
/// can rebuild the exact circuit behind a finding).
[[nodiscard]] CircuitSpec fuzzSpec(std::uint64_t seed);

[[nodiscard]] FuzzReport runFuzz(const FuzzOptions& opts = {});

} // namespace flh
