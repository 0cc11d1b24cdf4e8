// Unified parallelism policy.
//
// Every engine in the repository that fans work out over a thread pool
// (fault-simulation stripes, the flow stage scheduler, the bench
// thread sweeps) used to carry its own "threads" knob and its own
// resolution rules. ExecPolicy is the one shared vocabulary: a requested
// worker count (0 = one per hardware thread) plus a shrink floor that
// keeps the pool from out-numbering the work, and a single
// resolveThreads() implementation with all the edge cases handled in one
// place — n_items == 0, min_items_per_worker == 0, and platforms where
// std::thread::hardware_concurrency() reports 0. The resolved count is
// always >= 1.
#pragma once

#include <cstddef>

namespace flh {

struct ExecPolicy {
    /// Requested worker threads. 1 = run inline on the calling thread
    /// (no pool); 0 = one worker per hardware thread.
    unsigned threads = 1;

    /// Pool shrink floor: never resolve to more workers than
    /// n_items / min_items_per_worker — below that the per-worker setup
    /// cost dominates the work itself. 0 disables the floor.
    std::size_t min_items_per_worker = 1;

    /// Hardware thread count, never 0 (hardware_concurrency() may report
    /// 0 on platforms where it is unknowable; treat that as 1).
    [[nodiscard]] static unsigned hardwareThreads() noexcept;

    /// Effective worker count for an `n_items`-sized work list. Always
    /// >= 1 regardless of the knob values.
    [[nodiscard]] unsigned resolveThreads(std::size_t n_items) const noexcept;
};

} // namespace flh
