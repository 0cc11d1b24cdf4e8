#include "flow/paper_flow.hpp"

#include "atpg/transition_atpg.hpp"
#include "dft/design.hpp"
#include "dft/fanout_opt.hpp"
#include "dft/scan.hpp"
#include "fault/parallel_sim.hpp"
#include "iscas/circuits.hpp"
#include "netlist/bench_io.hpp"
#include "util/json.hpp"

#include <array>
#include <stdexcept>

namespace flh {

namespace {

const Library& sharedLib() {
    static const Library lib = makeDefaultLibrary();
    return lib;
}

Logic charToLogic(char c) {
    switch (c) {
        case '0': return Logic::Zero;
        case '1': return Logic::One;
        case 'X': return Logic::X;
        default: throw std::runtime_error(std::string("bad logic char '") + c + "'");
    }
}

void appendBits(std::string& out, const std::vector<Logic>& bits) {
    for (const Logic b : bits) out += toChar(b);
}

std::vector<Logic> parseBits(std::string_view s) {
    std::vector<Logic> out;
    out.reserve(s.size());
    for (const char c : s) out.push_back(charToLogic(c));
    return out;
}

/// Rebuild the scanned netlist a downstream stage operates on.
Netlist scannedFrom(const StageContext& ctx) {
    return readBenchString(ctx.input("scan").blob("bench"), ctx.design(), sharedLib());
}

PowerConfig powerConfigFrom(const StageContext& ctx, const PaperFlowConfig& cfg) {
    PowerConfig pc;
    pc.n_vectors = cfg.power_vectors;
    pc.seed = cfg.power_seed;
    pc.ff_hold_prob = ctx.attrNum("ff_hold_prob", 0.0);
    pc.pi_toggle_prob = ctx.attrNum("pi_toggle_prob", pc.pi_toggle_prob);
    return pc;
}

StageDef dftStage(const std::string& name, HoldStyle style, const PaperFlowConfig& cfg,
                  const std::string& config) {
    return StageDef{
        name, config, {"scan"}, [style, cfg](const StageContext& ctx) {
            const Netlist nl = scannedFrom(ctx);
            const DftDesign plan = planDft(nl, style);
            const DftEvaluation ev = evaluateDft(nl, plan, powerConfigFrom(ctx, cfg));
            Artifact art;
            art.setStr("style", toString(style));
            art.setInt("gated_gates", static_cast<std::int64_t>(plan.gated_gates.size()));
            art.setNum("base_area_um2", ev.base_area_um2);
            art.setNum("dft_area_um2", ev.dft_area_um2);
            art.setNum("area_increase_pct", ev.area_increase_pct);
            art.setNum("delay_increase_pct", ev.delay_increase_pct);
            art.setNum("power_increase_pct", ev.power_increase_pct);
            return art;
        }};
}

} // namespace

FlowGraph buildPaperFlow(const PaperFlowConfig& cfg) {
    // Stage configs are serialized with the JSON writer so every knob that
    // can change a stage's output is spelled into its cache key.
    const auto atpgConfig = [&] {
        JsonWriter w;
        w.beginObject();
        w.kv("random_pairs", cfg.random_pairs);
        w.kv("seed", cfg.atpg_seed);
        w.endObject();
        return w.str();
    }();
    const auto powerConfig = [&] {
        JsonWriter w;
        w.beginObject();
        w.kv("power_vectors", cfg.power_vectors);
        w.kv("power_seed", cfg.power_seed);
        w.endObject();
        return w.str();
    }();

    FlowGraph g;

    g.addStage({"netlist", "", {}, [](const StageContext& ctx) {
                    const Netlist nl = readBenchString(ctx.source(), ctx.design(), sharedLib());
                    const NetlistStats st = computeStats(nl);
                    Artifact art;
                    art.setInt("n_pis", static_cast<std::int64_t>(st.n_pis));
                    art.setInt("n_pos", static_cast<std::int64_t>(st.n_pos));
                    art.setInt("n_ffs", static_cast<std::int64_t>(st.n_ffs));
                    art.setInt("n_comb_gates", static_cast<std::int64_t>(st.n_comb_gates));
                    art.setInt("logic_depth", st.logic_depth);
                    art.setInt("total_ff_fanout", static_cast<std::int64_t>(st.total_ff_fanout));
                    art.setInt("unique_first_level",
                               static_cast<std::int64_t>(st.unique_first_level));
                    art.setNum("area_um2", st.area_um2);
                    // Canonical text: downstream keys chain off this blob.
                    art.setBlob("bench", writeBenchString(nl));
                    return art;
                }});

    g.addStage({"scan", "", {"netlist"}, [](const StageContext& ctx) {
                    Netlist nl = readBenchString(ctx.input("netlist").blob("bench"),
                                                 ctx.design(), sharedLib());
                    const ScanInfo si = insertScan(nl);
                    Artifact art;
                    art.setInt("chain_length", static_cast<std::int64_t>(si.chain_length));
                    art.setInt("unique_first_level",
                               static_cast<std::int64_t>(nl.uniqueFirstLevelGates().size()));
                    art.setBlob("bench", writeBenchString(nl));
                    return art;
                }});

    g.addStage(dftStage("dft_enh", HoldStyle::EnhancedScan, cfg, powerConfig));
    g.addStage(dftStage("dft_mux", HoldStyle::MuxHold, cfg, powerConfig));
    g.addStage(dftStage("dft_flh", HoldStyle::Flh, cfg, powerConfig));

    g.addStage({"fanout_opt", "", {"scan"}, [](const StageContext& ctx) {
                    Netlist nl = scannedFrom(ctx);
                    const FanoutOptResult r = optimizeFanout(nl);
                    Artifact art;
                    art.setInt("ffs_optimized", static_cast<std::int64_t>(r.ffs_optimized));
                    art.setInt("inverters_added", static_cast<std::int64_t>(r.inverters_added));
                    art.setInt("first_level_before",
                               static_cast<std::int64_t>(r.first_level_before));
                    art.setInt("first_level_after",
                               static_cast<std::int64_t>(r.first_level_after));
                    art.setNum("delay_before_ps", r.delay_before_ps);
                    art.setNum("delay_after_ps", r.delay_after_ps);
                    art.setBlob("bench", writeBenchString(nl));
                    return art;
                }});

    g.addStage({"atpg", atpgConfig, {"scan"}, [cfg](const StageContext& ctx) {
                    const Netlist nl = scannedFrom(ctx);
                    const auto faults = allTransitionFaults(nl);
                    TransitionAtpgConfig acfg;
                    acfg.random_pairs = cfg.random_pairs;
                    acfg.seed = cfg.atpg_seed;
                    // Thread-invariant results, so the budget stays out of
                    // the cache key like fault_sim's.
                    acfg.threads = ctx.simThreads();
                    const TransitionAtpgResult r = generateTransitionTests(
                        nl, TestApplication::EnhancedScan, faults, acfg);
                    Artifact art;
                    art.setInt("n_tests", static_cast<std::int64_t>(r.tests.size()));
                    art.setInt("n_faults", static_cast<std::int64_t>(faults.size()));
                    art.setNum("atpg_coverage_pct", r.coverage.coveragePct());
                    art.setInt("untestable", static_cast<std::int64_t>(r.untestable));
                    art.setInt("aborted", static_cast<std::int64_t>(r.aborted));
                    art.setBlob("tests", serializeTests(r.tests));
                    return art;
                }});

    g.addStage({"fault_sim", "", {"scan", "atpg"}, [](const StageContext& ctx) {
                    const Netlist nl = scannedFrom(ctx);
                    const auto tests = parseTests(ctx.input("atpg").blob("tests"));
                    const auto faults = allTransitionFaults(nl);
                    FaultSimOptions opts;
                    opts.threads = ctx.simThreads();
                    const FaultSimResult r = runTransitionFaultSim(nl, tests, faults, opts);
                    Artifact art;
                    art.setInt("n_tests", static_cast<std::int64_t>(tests.size()));
                    art.setInt("total_faults", static_cast<std::int64_t>(r.total));
                    art.setInt("detected", static_cast<std::int64_t>(r.detected));
                    art.setNum("coverage_pct", r.coveragePct());
                    // Throughput denominator for the engine's faults/sec view.
                    art.setInt("work_items", static_cast<std::int64_t>(r.total));
                    return art;
                }});

    return g;
}

DesignInput designInputFor(const std::string& name_or_path) {
    DesignInput d;
    if (name_or_path.size() > 6 &&
        name_or_path.rfind(".bench") == name_or_path.size() - 6) {
        const Netlist nl = readBenchFile(name_or_path, sharedLib());
        d.name = nl.name();
        d.source = writeBenchString(nl);
        return d;
    }
    const Netlist nl = makeCircuit(name_or_path, sharedLib());
    d.name = name_or_path;
    d.source = writeBenchString(nl);
    if (name_or_path != "s27") {
        // The same workload knobs as bench_util's powerConfigFor.
        const CircuitSpec& spec = findCircuit(name_or_path);
        d.attrs = "ff_hold_prob=" + formatNumber(spec.ff_hold_prob) +
                  ";pi_toggle_prob=" + formatNumber(spec.piToggleProb());
    }
    return d;
}

std::string serializeTests(const std::vector<TwoPattern>& tests) {
    std::string out;
    for (const TwoPattern& tp : tests) {
        appendBits(out, tp.v1.pis);
        out += '|';
        appendBits(out, tp.v1.state);
        out += '|';
        appendBits(out, tp.v2.pis);
        out += '|';
        appendBits(out, tp.v2.state);
        out += '\n';
    }
    return out;
}

std::vector<TwoPattern> parseTests(const std::string& text) {
    std::vector<TwoPattern> tests;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t end = text.find('\n', pos);
        if (end == std::string::npos) end = text.size();
        const std::string_view line{text.data() + pos, end - pos};
        pos = end + 1;
        if (line.empty()) continue;
        std::array<std::string_view, 4> parts;
        std::size_t start = 0, part = 0;
        for (std::size_t i = 0; i <= line.size(); ++i) {
            if (i == line.size() || line[i] == '|') {
                if (part >= parts.size()) throw std::runtime_error("bad test line");
                parts[part++] = line.substr(start, i - start);
                start = i + 1;
            }
        }
        if (part != parts.size()) throw std::runtime_error("bad test line");
        TwoPattern tp;
        tp.v1.pis = parseBits(parts[0]);
        tp.v1.state = parseBits(parts[1]);
        tp.v2.pis = parseBits(parts[2]);
        tp.v2.state = parseBits(parts[3]);
        tests.push_back(std::move(tp));
    }
    return tests;
}

} // namespace flh
