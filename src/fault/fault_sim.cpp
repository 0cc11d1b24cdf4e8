#include "fault/fault_sim.hpp"

#include "util/json.hpp"
#include "util/rng.hpp"

#include <stdexcept>
#include <string>

namespace flh {

void FaultSimResult::writeJson(JsonWriter& w) const {
    w.beginObject();
    w.kv("total_faults", static_cast<std::int64_t>(total));
    w.kv("detected", static_cast<std::int64_t>(detected));
    w.kv("coverage_pct", coveragePct());
    w.endObject();
}

const char* toString(TestApplication a) noexcept {
    switch (a) {
        case TestApplication::EnhancedScan: return "enhanced-scan";
        case TestApplication::Broadside: return "broadside";
        case TestApplication::SkewedLoad: return "skewed-load";
    }
    return "?";
}

std::vector<Pattern> randomPatterns(const Netlist& nl, std::size_t count, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<Pattern> out(count);
    for (Pattern& p : out) {
        p.pis.resize(nl.pis().size());
        p.state.resize(nl.flipFlops().size());
        for (Logic& b : p.pis) b = rng.chance(0.5) ? Logic::One : Logic::Zero;
        for (Logic& b : p.state) b = rng.chance(0.5) ? Logic::One : Logic::Zero;
    }
    return out;
}

void checkPatternShape(const Netlist& nl, const Pattern& p, const char* who) {
    if (p.pis.size() != nl.pis().size() || p.state.size() != nl.flipFlops().size())
        throw std::invalid_argument(std::string(who) + ": pattern has " +
                                    std::to_string(p.pis.size()) + " PIs + " +
                                    std::to_string(p.state.size()) + " state bits, " +
                                    nl.name() + " has " + std::to_string(nl.pis().size()) +
                                    " + " + std::to_string(nl.flipFlops().size()));
}

void loadPattern(PatternSim& sim, const Pattern& p) {
    checkPatternShape(sim.netlist(), p, "loadPattern");
    const std::vector<NetId>& src = sim.tables()->sources;
    const std::size_t n_pis = p.pis.size();
    for (std::size_t k = 0; k < n_pis; ++k) sim.setNet(src[k], PV::all(p.pis[k]));
    for (std::size_t k = 0; k < p.state.size(); ++k)
        sim.setNet(src[n_pis + k], PV::all(p.state[k]));
    sim.propagate();
}

std::vector<Logic> response(const PatternSim& sim) {
    const std::vector<NetId>& obs = sim.tables()->observed;
    std::vector<Logic> r(obs.size());
    for (std::size_t k = 0; k < obs.size(); ++k) r[k] = sim.get(obs[k]).get(0);
    return r;
}

std::vector<Logic> response(const Netlist& nl, const Pattern& p) {
    PatternSim sim(nl);
    loadPattern(sim, p);
    return response(sim);
}

std::vector<Logic> nextState(const Netlist& nl, const Pattern& p) {
    std::vector<Logic> r = response(nl, p);
    r.erase(r.begin(), r.begin() + static_cast<std::ptrdiff_t>(nl.pos().size()));
    return r;
}

TwoPattern makePair(const Netlist& nl, TestApplication style, const Pattern& v1,
                    const std::vector<Logic>& v2_pis, Logic scan_in_bit) {
    if (v1.pis.size() != nl.pis().size() || v1.state.size() != nl.flipFlops().size())
        throw std::invalid_argument("makePair: V1 shape mismatch");
    TwoPattern tp;
    tp.v1 = v1;
    tp.v2.pis = v2_pis;
    switch (style) {
        case TestApplication::EnhancedScan:
            // Caller supplies an arbitrary V2 state afterwards; default to
            // V1's state so the pair is always well-formed.
            tp.v2.state = v1.state;
            break;
        case TestApplication::Broadside:
            tp.v2.state = nextState(nl, v1);
            break;
        case TestApplication::SkewedLoad:
            // One more shift toward the scan-out end: state[i] <- state[i+1].
            tp.v2.state = v1.state;
            for (std::size_t i = 0; i + 1 < tp.v2.state.size(); ++i)
                tp.v2.state[i] = v1.state[i + 1];
            if (!tp.v2.state.empty()) tp.v2.state.back() = scan_in_bit;
            break;
    }
    return tp;
}

bool isValidPair(const Netlist& nl, TestApplication style, const TwoPattern& tp) {
    if (tp.v1.state.size() != nl.flipFlops().size() ||
        tp.v2.state.size() != nl.flipFlops().size())
        return false;
    switch (style) {
        case TestApplication::EnhancedScan:
            return true;
        case TestApplication::Broadside:
            return tp.v2.state == nextState(nl, tp.v1);
        case TestApplication::SkewedLoad: {
            for (std::size_t i = 0; i + 1 < tp.v2.state.size(); ++i)
                if (tp.v2.state[i] != tp.v1.state[i + 1]) return false;
            return true; // the scan-in bit is free
        }
    }
    return false;
}

} // namespace flh
