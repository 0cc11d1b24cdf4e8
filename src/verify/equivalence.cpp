#include "verify/equivalence.hpp"

#include "atpg/transition_atpg.hpp"
#include "obs/telemetry.hpp"
#include "util/rng.hpp"

#include <sstream>
#include <stdexcept>

namespace flh {

namespace {

/// Compare two Logic vectors; X compares equal only to X (the oracle and the
/// protocol must agree even about what is unknown).
void compareBits(const std::vector<Logic>& expected, const std::vector<Logic>& got,
                 HoldStyle style, std::size_t pair, const char* kind,
                 EquivalenceReport& rep, const EquivalenceOptions& opts) {
    if (expected.size() != got.size()) {
        if (rep.mismatches.size() < opts.max_mismatches)
            rep.mismatches.push_back(EquivalenceMismatch{style, pair, "shape", 0,
                                                         Logic::X, Logic::X});
        return;
    }
    for (std::size_t i = 0; i < expected.size(); ++i) {
        ++rep.comparisons;
        if (expected[i] == got[i]) continue;
        if (rep.mismatches.size() < opts.max_mismatches)
            rep.mismatches.push_back(
                EquivalenceMismatch{style, pair, kind, i, expected[i], got[i]});
    }
}

} // namespace

std::string EquivalenceMismatch::describe() const {
    std::ostringstream os;
    os << "pair " << pair << " style " << toString(style) << " " << kind;
    if (kind == "capture" || kind == "po" || kind == "scan-out")
        os << "[" << position << "]: expected " << toChar(expected) << " got " << toChar(got);
    return os.str();
}

std::string EquivalenceReport::summary() const {
    std::ostringstream os;
    os << pairs_checked << " pairs, " << comparisons << " comparisons, "
       << mismatches.size() << " mismatches";
    for (const EquivalenceMismatch& m : mismatches) os << "; " << m.describe();
    return os.str();
}

const Netlist& VariantNetlists::forStyle(HoldStyle s, const Netlist& reference) const noexcept {
    switch (s) {
        case HoldStyle::EnhancedScan: return enhanced ? *enhanced : reference;
        case HoldStyle::MuxHold: return mux ? *mux : reference;
        case HoldStyle::Flh: return flh ? *flh : reference;
        case HoldStyle::None: break;
    }
    return reference;
}

EquivalenceReport checkDftEquivalence(const Netlist& reference, std::span<const TwoPattern> pairs,
                                      const EquivalenceOptions& opts,
                                      const VariantNetlists& variants) {
    static obs::Counter& c_pairs = obs::counter("verify.equivalence.pairs");
    static obs::Counter& c_mismatches = obs::counter("verify.equivalence.mismatches");
    obs::ScopedSpan span("check-" + reference.name(), "verify.equivalence");

    EquivalenceReport rep;
    for (std::size_t p = 0; p < pairs.size(); ++p) {
        const TwoPattern& tp = pairs[p];
        // The oracle: V2's response evaluated directly, POs then capture.
        std::vector<Logic> oracle_capture = response(reference, tp.v2);
        const auto n_pos = static_cast<std::ptrdiff_t>(reference.pos().size());
        const std::vector<Logic> oracle_po(oracle_capture.begin(),
                                           oracle_capture.begin() + n_pos);
        oracle_capture.erase(oracle_capture.begin(), oracle_capture.begin() + n_pos);

        for (const HoldStyle style : opts.styles) {
            const Netlist& impl = variants.forStyle(style, reference);
            TwoPatternApplicator app(impl, style);
            const ApplicationResult res = app.apply(tp);

            compareBits(oracle_capture, res.captured, style, p, "capture", rep, opts);
            if (opts.check_pos) compareBits(oracle_po, res.po_launch, style, p, "po", rep, opts);
            if (opts.check_scan_out)
                compareBits(res.captured, res.scan_out, style, p, "scan-out", rep, opts);
            if (opts.audit_protocol) {
                ++rep.comparisons;
                if (!res.hold_intact && rep.mismatches.size() < opts.max_mismatches)
                    rep.mismatches.push_back(EquivalenceMismatch{style, p, "hold-audit", 0,
                                                                 Logic::One, Logic::Zero});
                ++rep.comparisons;
                if (!res.launch_faithful && rep.mismatches.size() < opts.max_mismatches)
                    rep.mismatches.push_back(EquivalenceMismatch{style, p, "launch-audit", 0,
                                                                 Logic::One, Logic::Zero});
            }
        }
        ++rep.pairs_checked;
        if (rep.mismatches.size() >= opts.max_mismatches) break;
    }
    c_pairs.add(rep.pairs_checked);
    c_mismatches.add(rep.mismatches.size());
    return rep;
}

std::vector<TwoPattern> randomTwoPatterns(const Netlist& nl, std::size_t count,
                                          std::uint64_t seed) {
    const std::vector<Pattern> v1 = randomPatterns(nl, count, seed);
    const std::vector<Pattern> v2 = randomPatterns(nl, count, seed ^ 0x9E3779B97F4A7C15ULL);
    std::vector<TwoPattern> out(count);
    for (std::size_t i = 0; i < count; ++i) out[i] = TwoPattern{v1[i], v2[i]};
    return out;
}

std::vector<TwoPattern> makeEquivalencePairs(const Netlist& nl, std::size_t random_pairs,
                                             std::size_t atpg_pairs, std::uint64_t seed) {
    std::vector<TwoPattern> pairs = randomTwoPatterns(nl, random_pairs, seed);
    if (atpg_pairs > 0) {
        // Deterministic transition ATPG over a truncated fault sample keeps
        // the per-circuit cost bounded; the tests it emits exercise launch
        // paths random pairs rarely hit.
        std::vector<TransitionFault> faults = allTransitionFaults(nl);
        Rng rng(seed ^ 0xA7);
        rng.shuffle(faults);
        faults.resize(std::min<std::size_t>(faults.size(), 4 * atpg_pairs));
        TransitionAtpgConfig cfg;
        cfg.random_pairs = 0;
        cfg.seed = seed ^ 0xA8;
        const TransitionAtpgResult atpg =
            generateTransitionTests(nl, TestApplication::EnhancedScan, faults, cfg);
        for (std::size_t i = 0; i < atpg.tests.size() && i < atpg_pairs; ++i)
            pairs.push_back(atpg.tests[i]);
    }
    return pairs;
}

std::string MutantInfo::describe() const {
    std::ostringstream os;
    os << "gate " << gate << " (" << output_net << "): " << toString(original) << " -> "
       << toString(mutated);
    return os.str();
}

Netlist injectMutant(const Netlist& nl, std::uint64_t seed, MutantInfo* info) {
    // Same-arity alternatives per function; the library stocks all of them.
    static const std::vector<std::vector<CellFn>> kGroups = {
        {CellFn::Buf, CellFn::Inv},
        {CellFn::And, CellFn::Nand, CellFn::Or, CellFn::Nor, CellFn::Xor, CellFn::Xnor},
        {CellFn::Aoi21, CellFn::Oai21, CellFn::Mux2},
        {CellFn::Aoi22, CellFn::Oai22},
    };
    const auto groupOf = [](CellFn fn) -> const std::vector<CellFn>* {
        for (const auto& g : kGroups)
            for (const CellFn f : g)
                if (f == fn) return &g;
        return nullptr;
    };

    // Alternatives the library can actually implement at the gate's arity
    // (XOR/XNOR, say, are only stocked 2-input; a 3-input NAND must not
    // mutate into them).
    const auto alternativesOf = [&](GateId g) {
        std::vector<CellFn> alts;
        const Gate& gate = nl.gate(g);
        if (const std::vector<CellFn>* group = groupOf(gate.fn))
            for (const CellFn fn : *group)
                if (fn != gate.fn && nl.library().has(fn, static_cast<int>(gate.inputs.size())))
                    alts.push_back(fn);
        return alts;
    };

    std::vector<GateId> candidates;
    for (const GateId g : nl.combGates())
        if (!alternativesOf(g).empty()) candidates.push_back(g);
    if (candidates.empty())
        throw std::invalid_argument("injectMutant: no mutable gate in " + nl.name());

    Rng rng(seed);
    const GateId victim = candidates[rng.below(candidates.size())];
    const CellFn original = nl.gate(victim).fn;
    const std::vector<CellFn> alts = alternativesOf(victim);
    const CellFn mutated = alts[rng.below(alts.size())];

    Netlist out = nl;
    out.replaceGate(victim, mutated, nl.gate(victim).inputs);
    if (info) *info = MutantInfo{victim, nl.net(nl.gate(victim).output).name, original, mutated};
    return out;
}

} // namespace flh
