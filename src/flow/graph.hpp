// Typed DAG pipeline model.
//
// A FlowGraph is a set of named stages; each stage declares the stages it
// consumes (`deps`), a config string that enters its cache key, and a run
// function. The engine (engine.hpp) instantiates the graph once per design
// and schedules (design, stage) tasks across a bounded worker pool; within
// one design the dependency edges order execution, across designs every
// task is independent.
#pragma once

#include "flow/artifact.hpp"

#include <functional>
#include <string>
#include <vector>

namespace flh {

/// Everything a stage's run function may look at. Stage functions must be
/// pure in this context (plus their config): the cache replays their
/// artifact without re-running them.
class StageContext {
public:
    StageContext(std::string design, const std::string& source, const std::string& attrs,
                 unsigned sim_threads)
        : design_(std::move(design)), source_(source), attrs_(attrs),
          sim_threads_(sim_threads) {}

    /// Design (circuit) name — identification only; never cache-relevant.
    [[nodiscard]] const std::string& design() const noexcept { return design_; }

    /// The design's source netlist text (.bench).
    [[nodiscard]] const std::string& source() const noexcept { return source_; }

    /// Free-form design attributes ("k=v;..."), part of the cache key.
    [[nodiscard]] const std::string& attrs() const noexcept { return attrs_; }

    /// Inner parallelism budget (feeds FaultSimOptions::threads and
    /// TransitionAtpgConfig::threads). Never cache-relevant: results are
    /// deterministic across thread counts.
    [[nodiscard]] unsigned simThreads() const noexcept { return sim_threads_; }

    /// Artifact of a declared dependency; throws if `stage` was not declared.
    [[nodiscard]] const Artifact& input(const std::string& stage) const;

    /// Numeric attribute lookup ("ff_hold_prob") with a default.
    [[nodiscard]] double attrNum(const std::string& key, double fallback) const;

    void addInput(const std::string& stage, const Artifact* art) {
        inputs_.emplace_back(stage, art);
    }

private:
    std::string design_;
    const std::string& source_;
    const std::string& attrs_;
    unsigned sim_threads_;
    std::vector<std::pair<std::string, const Artifact*>> inputs_;
};

using StageFn = std::function<Artifact(const StageContext&)>;

struct StageDef {
    std::string name;
    std::string config;            ///< serialized stage config (cache-key component)
    std::vector<std::string> deps; ///< names of consumed stages
    StageFn run;
};

class FlowGraph {
public:
    /// Register a stage. Throws on duplicate names, self-deps, or a dep that
    /// is not yet registered (which also forces the graph to be declared in
    /// topological order and therefore acyclic by construction).
    FlowGraph& addStage(StageDef def);

    [[nodiscard]] const std::vector<StageDef>& stages() const noexcept { return stages_; }
    [[nodiscard]] std::size_t size() const noexcept { return stages_.size(); }

    /// Index of a stage by name; throws std::out_of_range if unknown.
    [[nodiscard]] std::size_t indexOf(const std::string& name) const;
    [[nodiscard]] bool hasStage(const std::string& name) const;

private:
    std::vector<StageDef> stages_;
};

} // namespace flh
