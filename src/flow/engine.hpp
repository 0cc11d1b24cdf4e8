// Flow engine: schedules a FlowGraph over a list of designs on a bounded
// worker pool, with a persistent content-addressed result cache and
// per-stage observability.
//
// Scheduling model: every (design, stage) pair is one task; edges are the
// stage dependencies within a design (designs never depend on each other).
// Workers pull ready tasks from a shared queue, so independent stages of
// one design and all stages of different designs overlap freely up to
// `threads`. Stage functions receive `sim_threads` as their inner
// fault-simulation and ATPG top-off budget.
//
// Determinism: the report is assembled from the (design, stage)-indexed
// record table after the pool drains, artifacts are canonical (see
// artifact.hpp), and every stage function is required to be deterministic —
// so reportJson() is bit-identical across scheduler thread counts, across
// cold/warm runs, and across repeated runs. All wall-clock observability
// (stage timing, cache hit/miss, throughput) lives in profileJson(), which
// is explicitly non-deterministic.
//
// Interruption: artifacts are persisted as each stage finishes, so a killed
// sweep resumes where it stopped — the next run replays finished stages
// from the cache and recomputes only the remainder (checkpoint/resume for
// free).
#pragma once

#include "flow/cache.hpp"
#include "flow/graph.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

#include <memory>
#include <span>
#include <string>
#include <vector>

namespace flh {

/// One design to push through the graph.
struct DesignInput {
    std::string name;   ///< display name (not cache-relevant)
    std::string source; ///< netlist text (.bench) — cache-relevant
    std::string attrs;  ///< "k=v;k=v" design attributes — cache-relevant
};

struct FlowOptions {
    /// Scheduler workers, the calling thread among them (1 spawns no
    /// thread); 0 = one per hardware thread.
    unsigned threads = 1;
    /// Inner fault-simulation and ATPG top-off budget handed to each stage.
    unsigned sim_threads = 1;
    /// Result-cache configuration (directory, enabled flag).
    CacheConfig cache;
    /// An open cache handle. When set it is used as-is (`cache` is
    /// ignored), so the caller can read the handle's stats() after the run.
    std::shared_ptr<FlowCache> cache_handle;
};

/// Outcome of one (design, stage) task.
struct StageRecord {
    std::string design;
    std::string stage;
    std::string key;    ///< content-addressed cache key (32 hex chars)
    std::string digest; ///< artifact content digest (32 hex chars)
    Artifact artifact;
    bool cache_hit = false;
    bool failed = false;
    std::string error;
    double wall_ms = 0.0;      ///< profile only — excluded from reportJson
    double work_items = 0.0;   ///< from meta "work_items" (e.g. faults graded)

    /// Deterministic report entry (design, stage, key, digest, metrics) —
    /// the shared writeJson(JsonWriter&) convention (see util/json.hpp).
    void writeJson(JsonWriter& w) const;

    /// Non-deterministic profile entry (cache verdict, wall time,
    /// items/sec). Kept separate so the determinism split stays explicit.
    void writeProfileJson(JsonWriter& w) const;

    /// Items/sec when the stage actually ran, else 0.
    [[nodiscard]] double itemsPerSecond() const noexcept {
        return (work_items > 0 && wall_ms > 0) ? work_items / (wall_ms / 1000.0) : 0.0;
    }
};

class RunReport {
public:
    RunReport() = default; ///< empty report
    RunReport(std::string code_version, std::vector<StageRecord> records, unsigned threads,
              unsigned sim_threads);

    [[nodiscard]] const std::vector<StageRecord>& records() const noexcept { return records_; }

    [[nodiscard]] std::size_t hits() const noexcept;
    [[nodiscard]] std::size_t misses() const noexcept;
    [[nodiscard]] std::size_t failures() const noexcept;
    [[nodiscard]] double hitRate() const noexcept; ///< hits / (hits + misses)
    [[nodiscard]] double totalWallMs() const noexcept;

    /// Largest "n_tests" meta across stages (the sweep's peak test count).
    [[nodiscard]] std::int64_t peakTests() const noexcept;

    /// Deterministic run report: per design/stage the cache key, artifact
    /// digest, and metrics. Bit-identical across thread counts and cache
    /// states. Ends with a newline.
    [[nodiscard]] std::string reportJson() const;

    /// Non-deterministic observability: wall time, cache hit/miss,
    /// items/sec per stage plus run totals. Ends with a newline.
    [[nodiscard]] std::string profileJson() const;

    /// Bench-trajectory export (schema flh.bench.flow/1): per-stage wall
    /// time and items/sec plus aggregate faults/sec over the stages that
    /// actually ran — the root-level BENCH_flow.json contract consumed by
    /// CI. Non-deterministic (timing). Ends with a newline.
    [[nodiscard]] std::string benchJson() const;

    /// Console view of the profile.
    [[nodiscard]] TextTable table() const;

private:
    std::string code_version_;
    std::vector<StageRecord> records_; ///< sorted by (design, stage order)
    unsigned threads_ = 1;
    unsigned sim_threads_ = 1;
};

/// Run `graph` over `designs`. Throws only on engine-level misuse (empty
/// graph); stage failures are recorded per task and poison exactly their
/// downstream cone.
[[nodiscard]] RunReport runFlow(const FlowGraph& graph, std::span<const DesignInput> designs,
                                const FlowOptions& opts = {});

} // namespace flh
