#include "iscas/circuits.hpp"
#include "netlist/bench_io.hpp"
#include "obs/telemetry.hpp"
#include "power/power.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace flh {
namespace {

const Library& lib() {
    static const Library l = makeDefaultLibrary();
    return l;
}

TEST(Power, PositiveComponents) {
    const Netlist nl = makeCircuit("s298", lib());
    const PowerResult p = measureNormalPower(nl);
    EXPECT_GT(p.switching_uw, 0.0);
    EXPECT_GT(p.clocking_uw, 0.0);
    EXPECT_GT(p.leakage_uw, 0.0);
    EXPECT_GT(p.toggles, 0u);
    EXPECT_NEAR(p.totalUw(), p.switching_uw + p.clocking_uw + p.leakage_uw, 1e-12);
}

TEST(Power, DeterministicForFixedSeed) {
    const Netlist nl = makeCircuit("s298", lib());
    const PowerResult a = measureNormalPower(nl, {}, {100, 7});
    const PowerResult b = measureNormalPower(nl, {}, {100, 7});
    EXPECT_EQ(a.toggles, b.toggles);
    EXPECT_DOUBLE_EQ(a.totalUw(), b.totalUw());
}

TEST(Power, SeedChangesActivityOnlySlightly) {
    const Netlist nl = makeCircuit("s344", lib());
    const PowerResult a = measureNormalPower(nl, {}, {100, 1});
    const PowerResult b = measureNormalPower(nl, {}, {100, 2});
    EXPECT_NE(a.toggles, b.toggles);
    EXPECT_NEAR(a.totalUw() / b.totalUw(), 1.0, 0.1); // 6400 sampled vectors: stable
}

TEST(Power, ScalesWithCircuitSize) {
    const PowerResult small = measureNormalPower(makeCircuit("s298", lib()));
    const PowerResult big = measureNormalPower(makeCircuit("s1423", lib()));
    EXPECT_GT(big.totalUw(), 2.0 * small.totalUw());
}

TEST(Power, ExtraSwitchedCapIncreasesPower) {
    const Netlist nl = makeCircuit("s298", lib());
    const PowerResult base = measureNormalPower(nl);
    PowerOverlay ov;
    for (const GateId ff : nl.flipFlops()) ov.extra_switched_cap_ff[nl.gate(ff).output] = 5.0;
    const PowerResult with = measureNormalPower(nl, ov);
    EXPECT_GT(with.switching_uw, base.switching_uw);
    EXPECT_DOUBLE_EQ(with.leakage_uw, base.leakage_uw);
}

TEST(Power, LeakFactorReducesLeakage) {
    // The stacking saving is weighted by each gate's idleness, so a 0.5
    // factor lands between half the base leakage (all-idle) and the base
    // (all-toggling).
    const Netlist nl = makeCircuit("s298", lib());
    const PowerResult base = measureNormalPower(nl);
    PowerOverlay ov;
    for (GateId g = 0; g < nl.gateCount(); ++g) ov.gate_leak_factor[g] = 0.5;
    const PowerResult with = measureNormalPower(nl, ov);
    EXPECT_LT(with.leakage_uw, base.leakage_uw);
    EXPECT_GE(with.leakage_uw, 0.5 * base.leakage_uw - 1e-9);
}

TEST(Power, FullyIdleGateGetsFullStackingSaving) {
    // A circuit with frozen inputs never toggles; the factor applies fully.
    Netlist nl("idle", lib());
    const NetId a = nl.addPi("a");
    const NetId y = nl.addNet("y");
    const NetId q = nl.addNet("q");
    nl.addGate(CellFn::Nand, {a, q}, y);
    nl.addDff(y, q);
    nl.markPo(y);
    PowerConfig cfg;
    cfg.pi_toggle_prob = 0.0;
    cfg.ff_hold_prob = 1.0;
    const PowerResult base = measureNormalPower(nl, {}, cfg);
    PowerOverlay ov;
    ov.gate_leak_factor[0] = 0.5;
    const PowerResult with = measureNormalPower(nl, ov, cfg);
    const Tech& t = lib().tech();
    const double gate_leak_uw = lib().cell(nl.gate(0).cell).leakageNw(t) * 1e-3;
    EXPECT_NEAR(base.leakage_uw - with.leakage_uw, 0.5 * gate_leak_uw, 1e-9);
}

TEST(Power, ExtraLeakAdds) {
    const Netlist nl = makeCircuit("s298", lib());
    PowerOverlay ov;
    ov.extra_leak_nw = 1000.0;
    const PowerResult base = measureNormalPower(nl);
    const PowerResult with = measureNormalPower(nl, ov);
    EXPECT_NEAR(with.leakage_uw - base.leakage_uw, 1.0, 1e-9);
}

/// simulateSwitching's loop replayed on the event-driven engine: every
/// settle is SequentialSim::settle() (PatternSim::propagate) and every
/// Bernoulli mask is 64 Rng::chance() draws, the code both replaced.
std::vector<std::uint64_t> switchingOnEventSettle(const Netlist& nl, const PowerConfig& cfg) {
    Rng rng(cfg.seed);
    const auto randomPv = [&](std::size_t n) {
        std::vector<PV> v(n);
        for (PV& p : v) p = PV{rng.next(), 0};
        return v;
    };
    const auto mask = [&](double p) -> std::uint64_t {
        if (p >= 1.0) return ~0ULL;
        if (p <= 0.0) return 0;
        std::uint64_t m = 0;
        for (int i = 0; i < 64; ++i)
            if (rng.chance(p)) m |= 1ULL << i;
        return m;
    };

    SequentialSim seq(nl);
    std::vector<PV> state = randomPv(nl.flipFlops().size());
    std::vector<PV> pis = randomPv(nl.pis().size());
    seq.setState(state);
    seq.setPis(pis);
    seq.settle();
    PatternSim& sim = seq.sim();
    sim.enableToggleCount(true);
    sim.clearToggleCounts();
    for (int v = 0; v < cfg.n_vectors; ++v) {
        for (PV& p : pis) p.v ^= mask(cfg.pi_toggle_prob);
        seq.setPis(pis);
        seq.settle();
        std::vector<PV> next = state;
        for (std::size_t i = 0; i < state.size(); ++i) {
            const PV d = sim.get(nl.gate(nl.flipFlops()[i]).inputs[0]);
            const std::uint64_t hold = mask(cfg.ff_hold_prob);
            next[i] = PV{(state[i].v & hold) | (d.v & ~hold), (state[i].x & hold) | (d.x & ~hold)};
        }
        state = std::move(next);
        seq.setState(state);
        seq.settle();
    }
    return sim.toggleCounts();
}

TEST(Power, SwitchingMatchesEventDrivenSettle) {
    // simulateSwitching settles by full sweeps and draws masks by integer
    // compares; both must count exactly the toggles of the event-driven
    // settle with per-bit draws, on every registry circuit at its own
    // workload (s27 at the defaults).
    std::vector<std::string> names = {"s27"};
    for (const CircuitSpec& spec : paperCircuits()) names.push_back(spec.name);
    for (const std::string& name : names) {
        const Netlist nl = makeCircuit(name, lib());
        PowerConfig cfg;
        if (name != "s27") {
            cfg.ff_hold_prob = findCircuit(name).ff_hold_prob;
            cfg.pi_toggle_prob = findCircuit(name).piToggleProb();
        }
        for (const std::uint64_t seed : {1234ULL, 77ULL}) {
            cfg.seed = seed;
            const SwitchingActivity a = simulateSwitching(nl, cfg);
            EXPECT_EQ(a.toggles, switchingOnEventSettle(nl, cfg)) << name << " seed " << seed;
        }
    }
}

// simulateSwitching keeps its last result and returns it again for the
// same logic and configuration (counter power.activity_reused). Every test
// checks the returned toggles against the event-driven replay, so a stale
// reuse shows as a wrong answer, and reads the counter to tell a reuse
// from a new simulation.
class SwitchingReuse : public ::testing::Test {
protected:
    void SetUp() override {
        obs::reset();
        obs::setEnabled(true);
    }
    void TearDown() override {
        obs::setEnabled(false);
        obs::reset();
    }

    /// simulateSwitching, checked against the oracle; `reused` says whether
    /// it reused the previous activity.
    static std::vector<std::uint64_t> simulate(const Netlist& nl, const PowerConfig& cfg,
                                               bool* reused) {
        const std::uint64_t before = reuses();
        const SwitchingActivity a = simulateSwitching(nl, cfg);
        *reused = reuses() != before;
        EXPECT_EQ(a.toggles, switchingOnEventSettle(nl, cfg));
        EXPECT_EQ(a.sampled_cycles, cfg.n_vectors * 64.0);
        return a.toggles;
    }
    static std::uint64_t reuses() { return obs::counter("power.activity_reused").value(); }

    static PowerConfig config() {
        PowerConfig cfg;
        cfg.n_vectors = 20;
        cfg.seed = 5;
        cfg.ff_hold_prob = 0.25;
        return cfg;
    }
};

TEST_F(SwitchingReuse, SameNetlistTwiceSimulatesOnce) {
    const Netlist nl = makeCircuit("s298", lib());
    bool reused = false;
    (void)simulate(nl, config(), &reused);
    const std::uint64_t before = reuses();
    const std::vector<std::uint64_t> again = simulate(nl, config(), &reused);
    EXPECT_TRUE(reused);
    EXPECT_EQ(reuses(), before + 1);
    // measureNormalPower goes through the same slot.
    EXPECT_EQ(measureNormalPower(nl, {}, config()).toggles,
              powerFromSwitching(nl, {again, 20 * 64.0}).toggles);
    EXPECT_EQ(reuses(), before + 2);
}

TEST_F(SwitchingReuse, InPlaceEditsNeverReuse) {
    // The key is the netlist's content, not its address: the same object
    // edited in place simulates again.
    Netlist nl = makeCircuit("s298", lib());
    bool reused = true;
    const std::vector<std::uint64_t> before = simulate(nl, config(), &reused);

    // Rewire one pin of the first two-input gate to another primary input;
    // the net and gate counts stay the same.
    GateId g = 0;
    while (nl.gate(g).inputs.size() < 2) ++g;
    const NetId old_in = nl.gate(g).inputs[1];
    const NetId new_in = nl.pis()[0] == old_in ? nl.pis()[1] : nl.pis()[0];
    nl.rewireInput(g, 1, new_in);
    const std::vector<std::uint64_t> rewired = simulate(nl, config(), &reused);
    EXPECT_FALSE(reused);
    EXPECT_NE(rewired, before);

    const NetId extra = nl.addNet("extra");
    (void)nl.addGate(CellFn::And, {nl.pis()[0], nl.pis()[1]}, extra);
    const std::vector<std::uint64_t> grown = simulate(nl, config(), &reused);
    EXPECT_FALSE(reused);
    EXPECT_EQ(grown.size(), nl.netCount());
}

TEST_F(SwitchingReuse, EachConfigFieldIsPartOfTheKey) {
    const Netlist nl = makeCircuit("s298", lib());
    const PowerConfig base = config();
    std::vector<PowerConfig> changed(4, base);
    changed[0].n_vectors = 21;
    changed[1].seed = 6;
    changed[2].pi_toggle_prob = 0.5;
    changed[3].ff_hold_prob = 0.75;
    bool reused = false;
    for (const PowerConfig& cfg : changed) {
        const std::vector<std::uint64_t> b = simulate(nl, base, &reused);
        const std::vector<std::uint64_t> c = simulate(nl, cfg, &reused);
        EXPECT_FALSE(reused) << "n_vectors " << cfg.n_vectors << " seed " << cfg.seed;
        EXPECT_NE(c, b);
    }
}

TEST_F(SwitchingReuse, ReparsedCopyReuses) {
    // Each of the flow's dft stages parses the one cached .bench text of
    // the scanned circuit into its own Netlist. (The parser numbers nets in
    // text order, so a parsed copy of the generator's netlist renumbers
    // them and simulates anew; two parses of one text are identical.)
    const std::string text = writeBenchString(makeCircuit("s298", lib()));
    const Netlist first = readBenchString(text, "first", lib());
    const Netlist second = readBenchString(text, "second", lib());
    bool reused = false;
    const std::vector<std::uint64_t> a = simulate(first, config(), &reused);
    const std::vector<std::uint64_t> b = simulate(second, config(), &reused);
    EXPECT_TRUE(reused);
    EXPECT_EQ(a, b);
}

TEST_F(SwitchingReuse, ConcurrentCallersMatchSerial) {
    // Four threads alternate between two netlists, so the slot is read and
    // replaced concurrently all the time.
    const Netlist nets[2] = {makeCircuit("s298", lib()), makeCircuit("s344", lib())};
    PowerConfig cfg = config();
    cfg.n_vectors = 4;
    const std::vector<std::uint64_t> serial[2] = {switchingOnEventSettle(nets[0], cfg),
                                                  switchingOnEventSettle(nets[1], cfg)};
    constexpr int kThreads = 4;
    constexpr int kCalls = 500;
    std::vector<int> wrong(kThreads, 0);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back([&, t] {
            for (int i = 0; i < kCalls; ++i) {
                const int k = (t + i) % 2;
                if (simulateSwitching(nets[k], cfg).toggles != serial[k]) ++wrong[t];
            }
        });
    for (std::thread& th : pool) th.join();
    for (int t = 0; t < kThreads; ++t) EXPECT_EQ(wrong[t], 0) << "thread " << t;
}

class ScanShiftPower : public ::testing::TestWithParam<const char*> {};

TEST_P(ScanShiftPower, HoldingElimatesRedundantCombSwitching) {
    const Netlist nl = makeCircuit(GetParam(), lib());
    const auto plain = measureScanShiftPower(nl, HoldStyle::None, 4);
    const auto enh = measureScanShiftPower(nl, HoldStyle::EnhancedScan, 4);
    const auto flh = measureScanShiftPower(nl, HoldStyle::Flh, 4);

    // Section IV: blocking propagation eliminates the redundant switching;
    // FLH "is equally effective in completely eliminating redundant
    // switching power in the combinational logic".
    EXPECT_GT(plain.comb_switching_uw, 0.0);
    EXPECT_EQ(enh.comb_toggles, 0u);
    EXPECT_EQ(flh.comb_toggles, 0u);
    // The ~78% context (Gerstendorfer & Wunderlich): the comb block burns a
    // large share of shift power when unprotected.
    const double share = plain.comb_switching_uw /
                         (plain.comb_switching_uw + plain.ffq_switching_uw);
    EXPECT_GT(share, 0.5) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Circuits, ScanShiftPower, ::testing::Values("s298", "s344", "s641"));

TEST(ScanShiftPowerTest, FlhKeepsFfWireActivityButEnhancedFreezesIt) {
    const Netlist nl = makeCircuit("s298", lib());
    const auto enh = measureScanShiftPower(nl, HoldStyle::EnhancedScan, 4);
    const auto flh = measureScanShiftPower(nl, HoldStyle::Flh, 4);
    EXPECT_EQ(enh.ffq_switching_uw, 0.0);
    EXPECT_GT(flh.ffq_switching_uw, 0.0);
}

} // namespace
} // namespace flh
