#include "iscas/circuits.hpp"
#include "sim/sequential.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

namespace flh {
namespace {

const Library& lib() {
    static const Library l = makeDefaultLibrary();
    return l;
}

// Oracle: straight topological evaluation with fresh state.
std::vector<PV> oracleEval(const Netlist& nl, const std::vector<PV>& sources) {
    // sources: values for PIs then FF outputs, in order.
    std::vector<PV> val(nl.netCount(), PV::all(Logic::X));
    std::size_t k = 0;
    for (const NetId pi : nl.pis()) val[pi] = sources[k++];
    for (const GateId ff : nl.flipFlops()) val[nl.gate(ff).output] = sources[k++];
    for (const GateId g : nl.topoOrder()) {
        const Gate& gate = nl.gate(g);
        std::vector<PV> ins;
        for (const NetId in : gate.inputs) ins.push_back(val[in]);
        val[gate.output] = evalCell(gate.fn, ins);
    }
    return val;
}

std::vector<PV> randomSources(const Netlist& nl, Rng& rng) {
    std::vector<PV> s(nl.pis().size() + nl.flipFlops().size());
    for (PV& v : s) v = PV{rng.next(), 0};
    return s;
}

void applySources(PatternSim& sim, const std::vector<PV>& sources) {
    const Netlist& nl = sim.netlist();
    std::size_t k = 0;
    for (const NetId pi : nl.pis()) sim.setNet(pi, sources[k++]);
    for (const GateId ff : nl.flipFlops()) sim.setNet(nl.gate(ff).output, sources[k++]);
}

TEST(PatternSim, MatchesOracleOnS27) {
    const Netlist nl = makeS27(lib());
    PatternSim sim(nl);
    Rng rng(101);
    for (int round = 0; round < 20; ++round) {
        const auto src = randomSources(nl, rng);
        applySources(sim, src);
        sim.propagate();
        const auto want = oracleEval(nl, src);
        for (NetId n = 0; n < nl.netCount(); ++n)
            ASSERT_EQ(sim.get(n), want[n]) << "net " << nl.net(n).name << " round " << round;
    }
}

TEST(PatternSim, MatchesOracleOnSyntheticCircuit) {
    const Netlist nl = makeCircuit("s298", lib());
    PatternSim sim(nl);
    Rng rng(202);
    for (int round = 0; round < 10; ++round) {
        const auto src = randomSources(nl, rng);
        applySources(sim, src);
        sim.propagate();
        const auto want = oracleEval(nl, src);
        for (NetId n = 0; n < nl.netCount(); ++n) ASSERT_EQ(sim.get(n), want[n]);
    }
}

TEST(PatternSim, EventDrivenSkipsUnaffectedLogic) {
    const Netlist nl = makeCircuit("s344", lib());
    PatternSim sim(nl);
    Rng rng(303);
    applySources(sim, randomSources(nl, rng));
    const std::size_t full = sim.propagate();
    EXPECT_GT(full, 0u);
    // Re-applying the identical sources must evaluate nothing.
    EXPECT_EQ(sim.propagate(), 0u);
    // Flipping one PI must evaluate only its cone.
    const NetId pi = nl.pis()[0];
    const PV cur = sim.get(pi);
    sim.setNet(pi, PV{~cur.v, 0});
    const std::size_t partial = sim.propagate();
    EXPECT_GT(partial, 0u);
    EXPECT_LT(partial, full);
}

TEST(PatternSim, HeldGateFreezesOutput) {
    const Netlist nl = makeS27(lib());
    PatternSim sim(nl);
    Rng rng(404);
    const auto src = randomSources(nl, rng);
    applySources(sim, src);
    sim.propagate();

    const GateId g = nl.uniqueFirstLevelGates()[0];
    const NetId out = nl.gate(g).output;
    const PV before = sim.get(out);

    sim.setHeld(g, true);
    // Change every source; the held gate's output must not move.
    auto flipped = src;
    for (PV& v : flipped) v = PV{~v.v, 0};
    applySources(sim, flipped);
    sim.propagate();
    EXPECT_EQ(sim.get(out), before);

    // Releasing re-evaluates with the *current* inputs.
    sim.setHeld(g, false);
    sim.propagate();
    const auto want = oracleEval(nl, flipped);
    EXPECT_EQ(sim.get(out), want[out]);
}

TEST(PatternSim, OutputStuckFaultForcesNet) {
    const Netlist nl = makeS27(lib());
    PatternSim sim(nl);
    Rng rng(505);
    applySources(sim, randomSources(nl, rng));
    sim.propagate();

    const GateId g = nl.topoOrder()[0];
    const NetId out = nl.gate(g).output;
    FaultSite f;
    f.net = out;
    f.stuck_at_one = true;
    sim.injectFault(f);
    sim.propagate();
    EXPECT_EQ(sim.get(out), PV::all(Logic::One));

    sim.clearFault();
    sim.propagate();
    // Good value restored.
    PatternSim fresh(nl);
    applySources(fresh, randomSources(nl, rng)); // NOTE: rng advanced; reseed below
    // Rebuild the reference deterministically instead:
    Rng rng2(505);
    const auto src = randomSources(nl, rng2);
    PatternSim ref(nl);
    applySources(ref, src);
    ref.propagate();
    for (NetId n = 0; n < nl.netCount(); ++n) EXPECT_EQ(sim.get(n), ref.get(n));
}

TEST(PatternSim, PinStuckFaultAffectsOnlyThatBranch) {
    // Build: y1 = NOT(a) ; y2 = NOT(a). Stuck fault on y1's input pin must
    // leave y2 healthy (that is what distinguishes pin from net faults).
    Netlist nl("branch", lib());
    const NetId a = nl.addPi("a");
    const NetId y1 = nl.addNet("y1");
    const NetId y2 = nl.addNet("y2");
    const GateId g1 = nl.addGate(CellFn::Inv, {a}, y1);
    nl.addGate(CellFn::Inv, {a}, y2);
    nl.markPo(y1);
    nl.markPo(y2);

    PatternSim sim(nl);
    sim.setNet(a, PV::all(Logic::Zero));
    sim.propagate();
    EXPECT_EQ(sim.get(y1), PV::all(Logic::One));

    FaultSite f;
    f.net = a;
    f.gate = g1;
    f.pin = 0;
    f.stuck_at_one = true;
    sim.injectFault(f);
    sim.propagate();
    EXPECT_EQ(sim.get(y1), PV::all(Logic::Zero)); // faulty branch
    EXPECT_EQ(sim.get(y2), PV::all(Logic::One));  // healthy branch
}

TEST(PatternSim, SlotMaskedFaultLeavesOtherSlotsGood) {
    // A slot-masked fault forces only the masked slots: they must match a
    // run with the fault in every slot, and every other slot must match a
    // fault-free run. Covers a net fault and a pin fault.
    const Netlist nl = makeS27(lib());
    Rng rng(606);
    const auto src = randomSources(nl, rng);
    PatternSim good(nl);
    applySources(good, src);
    good.propagate();

    // Output fault on the first gate; pin fault on the last gate's pin 0.
    const GateId first = nl.topoOrder().front();
    const GateId last = nl.topoOrder().back();
    const FaultSite net_fault{nl.gate(first).output, kInvalidId, -1, true};
    const FaultSite pin_fault{nl.gate(last).inputs[0], last, 0, false};

    const std::uint64_t mask = 0x00F0'0000'0000'0F02ULL;
    const auto sameIn = [](PV a, PV b, std::uint64_t m) {
        return ((a.v ^ b.v) & m) == 0 && ((a.x ^ b.x) & m) == 0;
    };
    for (const FaultSite& f : {net_fault, pin_fault}) {
        PatternSim full(nl);
        applySources(full, src);
        full.propagate();
        full.injectFault(f);
        full.propagate();

        PatternSim sim(nl);
        applySources(sim, src);
        sim.propagate();
        sim.injectFault(f, mask);
        sim.propagate();
        if (!f.isPinFault()) {
            EXPECT_TRUE(sameIn(sim.get(f.net), PV::all(f.stuck_at_one ? Logic::One : Logic::Zero),
                               mask));
        }
        bool differs = false;
        for (NetId n = 0; n < nl.netCount(); ++n) {
            EXPECT_TRUE(sameIn(sim.get(n), full.get(n), mask)) << nl.net(n).name;
            EXPECT_TRUE(sameIn(sim.get(n), good.get(n), ~mask)) << nl.net(n).name;
            differs = differs || !sameIn(full.get(n), good.get(n), mask);
        }
        EXPECT_TRUE(differs) << "fault never excited in the masked slots";

        // reset() drops the fault and its mask.
        sim.reset();
        applySources(sim, src);
        sim.propagate();
        for (NetId n = 0; n < nl.netCount(); ++n) EXPECT_EQ(sim.get(n), good.get(n));
    }
}

TEST(PatternSim, ClearFaultRestoresExactPreInjectState) {
    // clearFault restores via the recorded event frontier: every net must
    // come back bit-exact immediately, with no propagate() needed.
    const Netlist nl = makeS27(lib());
    PatternSim sim(nl);
    Rng rng(606);
    applySources(sim, randomSources(nl, rng));
    sim.propagate();
    std::vector<PV> before(nl.netCount());
    for (NetId n = 0; n < nl.netCount(); ++n) before[n] = sim.get(n);

    for (const FaultSite& f : {
             FaultSite{nl.gate(nl.topoOrder()[0]).output, kInvalidId, -1, true},
             FaultSite{nl.pis()[0], kInvalidId, -1, false},
             FaultSite{nl.gate(nl.topoOrder()[1]).inputs[0], nl.topoOrder()[1], 0, true},
         }) {
        sim.injectFault(f);
        sim.propagate();
        sim.clearFault();
        for (NetId n = 0; n < nl.netCount(); ++n)
            ASSERT_EQ(sim.get(n), before[n]) << "net " << nl.net(n).name;
        // A follow-up propagate must also be a no-op.
        sim.propagate();
        for (NetId n = 0; n < nl.netCount(); ++n) ASSERT_EQ(sim.get(n), before[n]);
    }
}

TEST(PatternSim, ResetClearsFaultState) {
    // Regression: a net-fault restore value recorded before reset() must not
    // leak into a clearFault() issued after the reset.
    const Netlist nl = makeS27(lib());
    PatternSim sim(nl);
    Rng rng(707);
    const auto src_a = randomSources(nl, rng);
    applySources(sim, src_a);
    sim.propagate();

    FaultSite f;
    f.net = nl.pis()[0]; // source net: old code restored a saved value
    f.stuck_at_one = true;
    sim.injectFault(f);
    sim.propagate();

    sim.reset();
    const auto src_b = randomSources(nl, rng);
    applySources(sim, src_b);
    sim.propagate();
    sim.clearFault(); // no fault active: must be a complete no-op
    sim.propagate();

    PatternSim ref(nl);
    applySources(ref, src_b);
    ref.propagate();
    for (NetId n = 0; n < nl.netCount(); ++n)
        EXPECT_EQ(sim.get(n), ref.get(n)) << "net " << nl.net(n).name;
}

TEST(PatternSim, ResetThenReinjectGradesCleanly) {
    // PODEM-style usage: reset, re-inject, assign sources with the fault
    // active. The stale undo log from before the reset must be gone.
    const Netlist nl = makeS27(lib());
    PatternSim sim(nl);
    Rng rng(808);
    applySources(sim, randomSources(nl, rng));
    sim.propagate();
    FaultSite f;
    f.net = nl.gate(nl.topoOrder()[0]).output;
    f.stuck_at_one = true;
    sim.injectFault(f);
    sim.propagate();

    sim.reset();
    sim.injectFault(f);
    const auto src = randomSources(nl, rng);
    applySources(sim, src);
    sim.propagate();
    EXPECT_EQ(sim.get(f.net), PV::all(Logic::One)); // fault holds

    // clearFault rolls back to the post-reset state (the sources were set
    // while the fault was active); re-applying them must give the good
    // machine with no residue of the faulty excursion.
    sim.clearFault();
    applySources(sim, src);
    sim.propagate();
    PatternSim ref(nl);
    applySources(ref, src);
    ref.propagate();
    for (NetId n = 0; n < nl.netCount(); ++n)
        EXPECT_EQ(sim.get(n), ref.get(n)) << "net " << nl.net(n).name;
}

TEST(PatternSim, ToggleCounting) {
    Netlist nl("t", lib());
    const NetId a = nl.addPi("a");
    const NetId y = nl.addNet("y");
    nl.addGate(CellFn::Inv, {a}, y);
    nl.markPo(y);

    PatternSim sim(nl);
    sim.enableToggleCount(true);
    sim.setNet(a, PV::all(Logic::Zero));
    sim.propagate();
    sim.clearToggleCounts(); // ignore the X->known initialization edge
    sim.setNet(a, PV::all(Logic::One));
    sim.propagate();
    // 64 slots flipped on both nets.
    EXPECT_EQ(sim.toggleCounts()[a], 64u);
    EXPECT_EQ(sim.toggleCounts()[y], 64u);
    EXPECT_EQ(sim.totalToggles(), 128u);
}

TEST(PatternSim, ToggleCountsImmuneToFaultGrading) {
    // Regression: toggle counting used to keep running while a fault was
    // injected, so PPSFP grading contaminated the power numbers with faulty
    // excursions. Counting is now suspended while a fault is active: grading
    // must leave the counts exactly as a fault-free run of the same stimuli.
    const Netlist nl = makeS27(lib());
    Rng rng(1001);
    const auto src_a = randomSources(nl, rng);
    const auto src_b = randomSources(nl, rng);

    PatternSim clean(nl);
    clean.enableToggleCount(true);
    applySources(clean, src_a);
    clean.propagate();
    applySources(clean, src_b);
    clean.propagate();

    PatternSim graded(nl);
    graded.enableToggleCount(true);
    applySources(graded, src_a);
    graded.propagate();
    for (const GateId g : {nl.topoOrder()[0], nl.topoOrder()[2]}) {
        for (const bool sa1 : {false, true}) {
            FaultSite f;
            f.net = nl.gate(g).output;
            f.stuck_at_one = sa1;
            graded.injectFault(f);
            graded.propagate();
            graded.clearFault();
        }
    }
    applySources(graded, src_b);
    graded.propagate();

    EXPECT_EQ(graded.totalToggles(), clean.totalToggles());
    EXPECT_EQ(graded.toggleCounts(), clean.toggleCounts());
}

TEST(PatternSim, XToKnownIsNotAToggle) {
    Netlist nl("t", lib());
    const NetId a = nl.addPi("a");
    const NetId y = nl.addNet("y");
    nl.addGate(CellFn::Inv, {a}, y);
    PatternSim sim(nl);
    sim.enableToggleCount(true);
    sim.setNet(a, PV::all(Logic::One));
    sim.propagate();
    EXPECT_EQ(sim.totalToggles(), 0u);
}

// ------------------------------------------------------------ sequential ----

TEST(SequentialSim, ClockCapturesNextState) {
    const Netlist nl = makeS27(lib());
    SequentialSim seq(nl);
    seq.setState(std::vector<PV>(3, PV::all(Logic::Zero)));
    std::vector<PV> pis(4, PV::all(Logic::Zero));
    seq.setPis(pis);
    seq.settle();
    // Next state must equal the D-net values before the clock.
    std::vector<PV> expect_d;
    for (const GateId ff : nl.flipFlops()) expect_d.push_back(seq.sim().get(nl.gate(ff).inputs[0]));
    seq.clock();
    EXPECT_EQ(seq.state(), expect_d);
}

TEST(SequentialSim, SequentialTrajectoryMatchesScalarReplay) {
    const Netlist nl = makeS27(lib());
    SequentialSim a(nl), b(nl);
    a.setState(std::vector<PV>(3, PV::all(Logic::Zero)));
    b.setState(std::vector<PV>(3, PV::all(Logic::Zero)));
    Rng rng(7);
    for (int cyc = 0; cyc < 30; ++cyc) {
        std::vector<PV> pis(4);
        for (PV& p : pis) p = PV{rng.next(), 0};
        a.setPis(pis);
        a.clock();
        b.setPis(pis);
        b.clock();
        EXPECT_EQ(a.state(), b.state());
        EXPECT_EQ(a.observe(), b.observe());
    }
}

TEST(SequentialSim, ShiftMovesStateAlongChain) {
    const Netlist nl = makeS27(lib());
    SequentialSim seq(nl);
    std::vector<PV> st = {PV::all(Logic::Zero), PV::all(Logic::One), PV::all(Logic::Zero)};
    seq.setState(st);
    const PV out = seq.shift(PV::all(Logic::One));
    EXPECT_EQ(out, PV::all(Logic::Zero)); // old head
    EXPECT_EQ(seq.state()[0], PV::all(Logic::One));
    EXPECT_EQ(seq.state()[1], PV::all(Logic::Zero));
    EXPECT_EQ(seq.state()[2], PV::all(Logic::One)); // scan-in arrived
}

TEST(SequentialSim, FullLoadThroughScanChain) {
    const Netlist nl = makeS27(lib());
    SequentialSim seq(nl);
    seq.setState(std::vector<PV>(3, PV::all(Logic::Zero)));
    // Shift in 1,0,1 (last bit shifted ends nearest scan-in).
    seq.shift(PV::all(Logic::One));
    seq.shift(PV::all(Logic::Zero));
    seq.shift(PV::all(Logic::One));
    EXPECT_EQ(seq.state()[0], PV::all(Logic::One));
    EXPECT_EQ(seq.state()[1], PV::all(Logic::Zero));
    EXPECT_EQ(seq.state()[2], PV::all(Logic::One));
}

class ShiftActivity : public ::testing::TestWithParam<HoldStyle> {};

TEST_P(ShiftActivity, CombTogglesFollowHoldStyle) {
    const HoldStyle style = GetParam();
    const Netlist nl = makeCircuit("s298", lib());
    SequentialSim seq(nl, style);
    Rng rng(99);
    std::vector<PV> st(seq.ffCount());
    for (PV& p : st) p = PV{rng.next(), 0};
    seq.setState(st);
    std::vector<PV> pis(nl.pis().size(), PV::all(Logic::Zero));
    seq.setPis(pis);
    seq.settle();

    seq.sim().enableToggleCount(true);
    seq.sim().clearToggleCounts();
    seq.setHolding(true);
    for (int i = 0; i < 20; ++i) seq.shift(PV{rng.next(), 0});

    // Count toggles on nets *inside* the combinational block (gate outputs
    // beyond level 1 and first-level outputs).
    std::uint64_t comb_toggles = 0;
    std::uint64_t ffq_toggles = 0;
    for (const GateId g : nl.topoOrder())
        comb_toggles += seq.sim().toggleCounts()[nl.gate(g).output];
    for (const GateId ff : nl.flipFlops())
        ffq_toggles += seq.sim().toggleCounts()[nl.gate(ff).output];

    switch (style) {
        case HoldStyle::None:
            EXPECT_GT(comb_toggles, 0u);
            EXPECT_GT(ffq_toggles, 0u);
            break;
        case HoldStyle::EnhancedScan:
        case HoldStyle::MuxHold:
            EXPECT_EQ(comb_toggles, 0u);
            EXPECT_EQ(ffq_toggles, 0u); // frozen at the holding element
            break;
        case HoldStyle::Flh:
            EXPECT_EQ(comb_toggles, 0u); // held first level blocks all of it
            EXPECT_GT(ffq_toggles, 0u);  // but the FF outputs themselves move
            break;
    }
    seq.setHolding(false);
}

INSTANTIATE_TEST_SUITE_P(AllStyles, ShiftActivity,
                         ::testing::Values(HoldStyle::None, HoldStyle::EnhancedScan,
                                           HoldStyle::MuxHold, HoldStyle::Flh));

TEST(SequentialSim, FlhHoldAndReleaseRestoresConsistency) {
    const Netlist nl = makeCircuit("s344", lib());
    SequentialSim seq(nl, HoldStyle::Flh);
    Rng rng(5);
    std::vector<PV> v1(seq.ffCount());
    for (PV& p : v1) p = PV{rng.next(), 0};
    seq.setState(v1);
    std::vector<PV> pis(nl.pis().size());
    for (PV& p : pis) p = PV{rng.next(), 0};
    seq.setPis(pis);
    seq.settle();

    // Hold, scramble the state (simulating scan of V2), then release.
    seq.setHolding(true);
    std::vector<PV> v2(seq.ffCount());
    for (PV& p : v2) p = PV{rng.next(), 0};
    seq.setState(v2);
    seq.settle();
    seq.setHolding(false);
    seq.settle();

    // After release the circuit must agree with a fresh simulation of V2.
    SequentialSim ref(nl);
    ref.setState(v2);
    ref.setPis(pis);
    ref.settle();
    EXPECT_EQ(seq.observe(), ref.observe());
}

} // namespace
} // namespace flh
