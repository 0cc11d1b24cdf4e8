// Shared helpers for the experiment drivers (one binary per paper table /
// figure; see DESIGN.md Section 4 and EXPERIMENTS.md for results).
#pragma once

#include "dft/design.hpp"
#include "obs/benchio.hpp"
#include "power/power.hpp"
#include "dft/scan.hpp"
#include "iscas/circuits.hpp"
#include "util/json.hpp"

#include <iostream>
#include <string>
#include <utility>
#include <vector>

namespace flh::bench {

inline const Library& lib() {
    static const Library l = makeDefaultLibrary();
    return l;
}

/// A paper circuit with full scan inserted (the common substrate of all
/// three holding styles).
inline Netlist scannedCircuit(const std::string& name) {
    Netlist nl = makeCircuit(name, lib());
    insertScan(nl);
    return nl;
}

/// Power configuration with the circuit's workload-realism activity knobs.
inline PowerConfig powerConfigFor(const std::string& name, std::uint64_t seed = 1234) {
    PowerConfig cfg;
    cfg.seed = seed;
    if (name != "s27") {
        const CircuitSpec& spec = findCircuit(name);
        cfg.ff_hold_prob = spec.ff_hold_prob;
        cfg.pi_toggle_prob = spec.piToggleProb();
    }
    return cfg;
}

inline std::vector<std::string> paperCircuitNames() {
    std::vector<std::string> names;
    for (const CircuitSpec& s : paperCircuits()) names.push_back(s.name);
    return names;
}

/// Per-circuit evaluations collected by a table bench, exported through the
/// shared writeJson convention (util/json.hpp) so every BENCH_*.json file
/// carries identical DftEvaluation objects.
using DftEvalRows = std::vector<std::pair<std::string, std::vector<DftEvaluation>>>;

/// Writes the table export inside the shared provenance envelope
/// (obs/benchio.hpp): the legacy {"schema", "circuits"} payload nests under
/// "results", and the path resolves through --out / FLH_BENCH_OUT.
inline void writeDftEvalExport(const std::string& filename, const std::string& schema,
                               const DftEvalRows& rows,
                               const std::string& out_flag = "") {
    JsonWriter w;
    w.beginObject();
    w.kv("schema", schema);
    w.key("circuits");
    w.beginArray();
    for (const auto& [name, evals] : rows) {
        w.beginObject();
        w.kv("circuit", name);
        w.key("evaluations");
        w.beginArray();
        for (const DftEvaluation& ev : evals) ev.writeJson(w);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();

    obs::BenchWriter bw(schema);
    bw.setResults(w.str());
    bw.writeFile(filename, out_flag);
}

} // namespace flh::bench
