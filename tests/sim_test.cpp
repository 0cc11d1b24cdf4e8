#include "iscas/circuits.hpp"
#include "sim/sequential.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

namespace flh {
namespace {

const Library& lib() {
    static const Library l = makeDefaultLibrary();
    return l;
}

// Widths the engine tests run at: one word, and several words (the packed
// SIMD path, with every word carrying different stimuli).
constexpr unsigned kWidths[] = {1, 4};

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

/// Per-word stimuli: src[w] holds word w's values for the PIs, then the FF
/// outputs.
using Sources = std::vector<std::vector<PV>>;

Sources randomSources(const Netlist& nl, Rng& rng, unsigned words = 1, bool with_x = false) {
    Sources s(words, std::vector<PV>(nl.pis().size() + nl.flipFlops().size()));
    for (auto& word : s)
        for (PV& v : word) {
            const std::uint64_t x = with_x ? rng.next() & rng.next() : 0; // sparse unknowns
            v = PV{rng.next() & ~x, x};
        }
    return s;
}

Sources flipped(Sources s) {
    for (auto& word : s)
        for (PV& v : word) v = PV{~v.v, 0};
    return s;
}

void applySources(PatternSim& sim, const Sources& src) {
    const Netlist& nl = sim.netlist();
    for (unsigned w = 0; w < src.size(); ++w) {
        std::size_t k = 0;
        for (const NetId pi : nl.pis()) sim.setNet(pi, w, src[w][k++]);
        for (const GateId ff : nl.flipFlops()) sim.setNet(nl.gate(ff).output, w, src[w][k++]);
    }
}

/// Every net's value in every word, net-major.
std::vector<PV> snapshot(const PatternSim& sim) {
    std::vector<PV> out;
    for (NetId n = 0; n < sim.netlist().netCount(); ++n)
        for (unsigned w = 0; w < sim.words(); ++w) out.push_back(sim.get(n, w));
    return out;
}

/// True if `a` and `b` agree (both planes) in the slots of `m`.
bool sameIn(PV a, PV b, std::uint64_t m) {
    return ((a.v ^ b.v) & m) == 0 && ((a.x ^ b.x) & m) == 0;
}

/// A simulator at `words` words fed `src`, fully propagated.
PatternSim settled(const Netlist& nl, const Sources& src) {
    PatternSim sim(nl, static_cast<unsigned>(src.size()));
    applySources(sim, src);
    sim.propagate();
    return sim;
}

/// Each word of the engine must match an independent oracle run of that
/// word's sources, across re-applications on the same simulator.
void expectMatchesOraclePerWord(const Netlist& nl, std::uint64_t seed, int rounds, bool with_x) {
    for (const unsigned words : {1u, 4u, kMaxPackedWords}) {
        PatternSim sim(nl, words);
        Rng rng(seed + words);
        for (int round = 0; round < rounds; ++round) {
            const Sources src = randomSources(nl, rng, words, with_x);
            applySources(sim, src);
            sim.propagate();
            for (unsigned w = 0; w < words; ++w) {
                const auto want = oracleEval(nl, src[w]);
                for (NetId n = 0; n < nl.netCount(); ++n)
                    ASSERT_EQ(sim.get(n, w), want[n]) << "net " << nl.net(n).name << " words "
                                                      << words << " word " << w << " round "
                                                      << round;
            }
        }
    }
}

TEST(PatternSim, MatchesOracleOnS27) { expectMatchesOraclePerWord(makeS27(lib()), 101, 20, false); }

TEST(PatternSim, MatchesOracleOnSyntheticCircuit) {
    expectMatchesOraclePerWord(makeCircuit("s298", lib()), 202, 10, false);
}

TEST(PatternSim, MatchesOracleWithUnknowns) {
    expectMatchesOraclePerWord(makeCircuit("s344", lib()), 300, 6, true);
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

/// Combinational gates in the transitive fanin of `nets`, stopping at
/// flip-flops and primary inputs: a set closed under fanin.
std::vector<GateId> faninCone(const Netlist& nl, std::vector<NetId> nets) {
    std::vector<char> seen(nl.gateCount(), 0);
    std::vector<GateId> cone;
    while (!nets.empty()) {
        const GateId g = nl.net(nets.back()).driver;
        nets.pop_back();
        if (g == kInvalidId || seen[g] || isSequential(nl.gate(g).fn)) continue;
        seen[g] = 1;
        cone.push_back(g);
        for (const NetId in : nl.gate(g).inputs) nets.push_back(in);
    }
    return cone;
}

TEST(PatternSim, WriteNetIsSetNetWithoutScheduling) {
    // writeNet writes, counts toggles and logs for undo like setNet, but
    // queues nothing; evalAll then settles what propagate() settles.
    const Netlist nl = makeCircuit("s641", lib());
    for (const unsigned W : kWidths) {
        const std::string at = "W " + std::to_string(W);
        Rng rng(707 + W);
        const Sources start = randomSources(nl, rng, W);
        PatternSim queued = settled(nl, start);
        PatternSim written = settled(nl, start);
        queued.enableToggleCount(true);
        written.enableToggleCount(true);
        const std::vector<PV> word0 = randomSources(nl, rng).front();
        std::size_t k = 0;
        for (const NetId src : written.tables()->sources) {
            queued.setNet(src, word0[k]);
            written.writeNet(src, word0[k++]);
        }
        EXPECT_EQ(written.propagate(), 0u) << at;
        EXPECT_GT(queued.propagate(), 0u) << at;
        written.evalAll();
        EXPECT_EQ(snapshot(written), snapshot(queued)) << at;
        EXPECT_EQ(written.toggleCounts(), queued.toggleCounts()) << at;

        const std::vector<PV> before = snapshot(written);
        const PatternSim::Checkpoint cp = written.checkpoint();
        for (const NetId src : written.tables()->sources) written.writeNet(src, PV{~0ULL, 0});
        written.rollback(cp);
        EXPECT_EQ(snapshot(written), before) << at;
    }
}

TEST(PatternSim, EvalAllMatchesPropagate) {
    // evalAll's sweep against the event path, each on its own simulator fed
    // the same stimuli with events queued: identical planes and toggle
    // counts, one evaluation per free gate, and nothing left pending.
    const Netlist nl = makeCircuit("s641", lib());
    const std::size_t n_comb = nl.topoOrder().size();
    const std::vector<GateId> first_level = nl.uniqueFirstLevelGates();
    const std::vector<GateId> cone =
        faninCone(nl, {nl.pos()[0], nl.pos()[1], nl.gate(nl.flipFlops()[0]).inputs[0]});
    ASSERT_GT(cone.size(), 0u);
    ASSERT_LT(cone.size(), n_comb);
    for (const unsigned W : kWidths) {
        for (const bool restricted : {false, true}) {
            const std::string at = "W " + std::to_string(W) + (restricted ? " restricted" : "");
            PatternSim sweep(nl, W);
            PatternSim events(nl, W);
            if (restricted) {
                sweep.restrictTo(cone);
                events.restrictTo(cone);
            }
            const std::size_t n_free = restricted ? cone.size() : n_comb;
            sweep.enableToggleCount(true);
            events.enableToggleCount(true);
            Rng rng(606 + W);
            const auto step = [&](const Sources& src, std::size_t want_evals,
                                  const std::string& what) {
                applySources(sweep, src);
                applySources(events, src);
                EXPECT_EQ(sweep.evalAll(), want_evals) << at << " " << what;
                events.propagate();
                EXPECT_EQ(sweep.propagate(), 0u) << at << " " << what << ": events left queued";
                EXPECT_EQ(snapshot(sweep), snapshot(events)) << at << " " << what;
                EXPECT_EQ(sweep.toggleCounts(), events.toggleCounts()) << at << " " << what;
            };
            for (int round = 0; round < 3; ++round)
                step(randomSources(nl, rng, W, round == 1), n_free, "round " + std::to_string(round));

            // FLH holding: held gates keep their outputs through new
            // sources and are not evaluated; released, they catch up.
            std::size_t n_held = 0;
            for (const GateId g : first_level) {
                sweep.setHeld(g, true);
                events.setHeld(g, true);
                if (!restricted || std::find(cone.begin(), cone.end(), g) != cone.end()) ++n_held;
            }
            const Sources held_src = randomSources(nl, rng, W);
            step(held_src, n_free - n_held, "held");
            step(flipped(held_src), n_free - n_held, "held, flipped");
            for (const GateId g : first_level) {
                sweep.setHeld(g, false);
                events.setHeld(g, false);
            }
            EXPECT_EQ(sweep.evalAll(), n_free) << at << " released";
            events.propagate();
            EXPECT_EQ(snapshot(sweep), snapshot(events)) << at << " released";
            EXPECT_EQ(sweep.toggleCounts(), events.toggleCounts()) << at << " released";
            EXPECT_GT(sweep.totalToggles(), 0u) << at;
        }
    }
}

TEST(PatternSim, HeldGateFreezesOutput) {
    const Netlist nl = makeS27(lib());
    const GateId g = nl.uniqueFirstLevelGates()[0];
    const NetId out = nl.gate(g).output;
    for (const unsigned W : kWidths) {
        Rng rng(404);
        const Sources src = randomSources(nl, rng, W);
        PatternSim sim = settled(nl, src);
        std::vector<PV> before(W);
        for (unsigned w = 0; w < W; ++w) before[w] = sim.get(out, w);

        sim.setHeld(g, true);
        EXPECT_TRUE(sim.isHeld(g));
        // Change every source; the held gate's output must not move.
        applySources(sim, flipped(src));
        sim.propagate();
        for (unsigned w = 0; w < W; ++w) EXPECT_EQ(sim.get(out, w), before[w]) << "W " << W;

        // Releasing re-evaluates with the *current* inputs.
        sim.setHeld(g, false);
        EXPECT_FALSE(sim.isHeld(g));
        sim.propagate();
        for (unsigned w = 0; w < W; ++w)
            EXPECT_EQ(sim.get(out, w), oracleEval(nl, flipped(src)[w])[out]) << "W " << W;
    }
}

TEST(PatternSim, HoldRequiresQuiescentSimulator) {
    // A held gate is never queued, so holding with events pending would let
    // an already-queued gate escape the hold: it is refused instead.
    const Netlist nl = makeS27(lib());
    const GateId g = nl.uniqueFirstLevelGates()[0];
    PatternSim sim(nl);
    Rng rng(405);
    applySources(sim, randomSources(nl, rng));
    EXPECT_THROW(sim.setHeld(g, true), std::logic_error);
    EXPECT_FALSE(sim.isHeld(g));
    sim.propagate();
    sim.setHeld(g, true);
    EXPECT_TRUE(sim.isHeld(g));
    // Releasing needs no settled state, and reset() drops every hold.
    sim.setNet(nl.pis()[0], PV::all(Logic::One));
    sim.setHeld(g, false);
    EXPECT_FALSE(sim.isHeld(g));
    sim.propagate();
    sim.setHeld(g, true);
    sim.reset();
    EXPECT_FALSE(sim.isHeld(g));
}

TEST(PatternSim, OutputStuckFaultForcesNet) {
    const Netlist nl = makeS27(lib());
    Rng rng(505);
    const Sources src = randomSources(nl, rng);
    PatternSim sim = settled(nl, src);

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
    EXPECT_EQ(snapshot(sim), snapshot(settled(nl, src)));
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

    for (const unsigned W : kWidths) {
        PatternSim sim(nl, W);
        for (unsigned w = 0; w < W; ++w) sim.setNet(a, w, PV::all(Logic::Zero));
        sim.propagate();
        EXPECT_EQ(sim.get(y1, W - 1), PV::all(Logic::One));

        FaultSite f;
        f.net = a;
        f.gate = g1;
        f.pin = 0;
        f.stuck_at_one = true;
        sim.injectFault(f);
        sim.propagate();
        for (unsigned w = 0; w < W; ++w) {
            EXPECT_EQ(sim.get(y1, w), PV::all(Logic::Zero)) << "W " << W; // faulty branch
            EXPECT_EQ(sim.get(y2, w), PV::all(Logic::One)) << "W " << W;  // healthy branch
        }
    }
}

TEST(PatternSim, PinFaultOutsideGateInputsIsRejected) {
    // A pin fault names an input pin of its receiving gate; any other pin
    // (or no gate at all) is refused up front instead of being evaluated.
    const Netlist nl = makeS27(lib());
    const GateId g = nl.topoOrder()[1];
    const int arity = static_cast<int>(nl.gate(g).inputs.size());
    for (const unsigned W : kWidths) {
        Rng rng(515);
        const Sources src = randomSources(nl, rng, W);
        PatternSim sim = settled(nl, src);
        const std::vector<PV> before = snapshot(sim);
        for (const FaultSite& f : {
                 FaultSite{nl.gate(g).inputs[0], g, arity, true},
                 FaultSite{nl.gate(g).inputs[0], g, static_cast<int>(kMaxGateArity) + 3, false},
                 FaultSite{nl.gate(g).inputs[0], kInvalidId, 0, true},
             }) {
            EXPECT_THROW(sim.injectFault(f), std::invalid_argument) << "pin " << f.pin;
            EXPECT_EQ(sim.propagate(), 0u);
            EXPECT_EQ(snapshot(sim), before);
        }
        // The last pin is still a valid site.
        sim.injectFault(FaultSite{nl.gate(g).inputs.back(), g, arity - 1, true});
        sim.propagate();
        sim.clearFault();
        EXPECT_EQ(snapshot(sim), before);
    }
}

TEST(PatternSim, WordIndexOutOfRangeThrows) {
    const Netlist nl = makeS27(lib());
    const NetId pi = nl.pis()[0];
    for (const unsigned W : kWidths) {
        PatternSim sim(nl, W);
        EXPECT_NO_THROW((void)sim.get(pi, W - 1));
        EXPECT_THROW((void)sim.get(pi, W), std::out_of_range);
        EXPECT_THROW((void)sim.get(pi, W, 0), std::out_of_range);
        EXPECT_THROW(sim.setNet(pi, W, PV::all(Logic::One)), std::out_of_range);
        // The one-word accessor checks the net only.
        EXPECT_THROW((void)sim.get(static_cast<NetId>(nl.netCount())), std::out_of_range);
    }
}

TEST(PatternSim, SlotMaskedFaultLeavesOtherSlotsGood) {
    // A slot-masked fault forces only the masked slots of every word: they
    // must match a run with the fault in every slot, and every other slot
    // must match a fault-free run. Covers a net fault and a pin fault.
    const Netlist nl = makeS27(lib());
    // Output fault on the first gate; pin fault on the last gate's pin 0.
    const GateId first = nl.topoOrder().front();
    const GateId last = nl.topoOrder().back();
    const FaultSite net_fault{nl.gate(first).output, kInvalidId, -1, true};
    const FaultSite pin_fault{nl.gate(last).inputs[0], last, 0, false};

    const std::uint64_t mask = 0x00F0'0000'0000'0F02ULL;
    for (const unsigned W : kWidths) {
        Rng rng(606);
        const Sources src = randomSources(nl, rng, W);
        const PatternSim good = settled(nl, src);
        for (const FaultSite& f : {net_fault, pin_fault}) {
            PatternSim full = settled(nl, src);
            full.injectFault(f);
            full.propagate();

            PatternSim sim = settled(nl, src);
            sim.injectFault(f, mask);
            sim.propagate();
            bool differs = false;
            for (unsigned w = 0; w < W; ++w) {
                if (!f.isPinFault()) {
                    EXPECT_TRUE(sameIn(sim.get(f.net, w),
                                       PV::all(f.stuck_at_one ? Logic::One : Logic::Zero), mask));
                }
                for (NetId n = 0; n < nl.netCount(); ++n) {
                    EXPECT_TRUE(sameIn(sim.get(n, w), full.get(n, w), mask)) << nl.net(n).name;
                    EXPECT_TRUE(sameIn(sim.get(n, w), good.get(n, w), ~mask)) << nl.net(n).name;
                    differs = differs || !sameIn(full.get(n, w), good.get(n, w), mask);
                }
            }
            EXPECT_TRUE(differs) << "fault never excited in the masked slots";

            // reset() drops the fault and its mask.
            sim.reset();
            applySources(sim, src);
            sim.propagate();
            EXPECT_EQ(snapshot(sim), snapshot(good));
        }
    }
}

TEST(PatternSim, ClearFaultRestoresExactPreInjectState) {
    // clearFault restores via the recorded event frontier: every net must
    // come back bit-exact immediately, with no propagate() needed. The
    // multi-word case is in packed_sim_test.cpp.
    const Netlist nl = makeS27(lib());
    Rng rng(606);
    PatternSim sim = settled(nl, randomSources(nl, rng));
    const std::vector<PV> before = snapshot(sim);

    for (const FaultSite& f : {
             FaultSite{nl.gate(nl.topoOrder()[0]).output, kInvalidId, -1, true},
             FaultSite{nl.pis()[0], kInvalidId, -1, false},
             FaultSite{nl.gate(nl.topoOrder()[1]).inputs[0], nl.topoOrder()[1], 0, true},
         }) {
        sim.injectFault(f);
        sim.propagate();
        if (!f.isPinFault()) {
            ASSERT_EQ(sim.get(f.net), PV::all(f.stuck_at_one ? Logic::One : Logic::Zero));
        }
        sim.clearFault();
        ASSERT_EQ(snapshot(sim), before);
        // A follow-up propagate must also be a no-op.
        EXPECT_EQ(sim.propagate(), 0u);
        ASSERT_EQ(snapshot(sim), before);
    }
}

// ---- complement excursions (transition grading) ---------------------------

/// One random slot mask per word.
std::vector<std::uint64_t> randomSlots(Rng& rng, unsigned W) {
    std::vector<std::uint64_t> slots(W);
    for (std::uint64_t& m : slots) m = rng.next();
    return slots;
}

TEST(PatternSim, ComplementFlipsOnlyKnownMaskedSlots) {
    // Complementing a PI in some slots must equal re-simulating with that
    // PI's known masked slots flipped at the source: X slots keep both
    // planes, and every net keeps its value in the unmasked slots.
    const Netlist nl = makeS27(lib());
    const NetId pi = nl.pis()[0];
    for (const unsigned W : kWidths) {
        Rng rng(707);
        const Sources src = randomSources(nl, rng, W, /*with_x=*/true);
        const std::vector<std::uint64_t> slots = randomSlots(rng, W);
        const PatternSim good = settled(nl, src);
        PatternSim sim = settled(nl, src);
        sim.injectComplement(pi, slots.data());
        sim.propagate();

        Sources flipped_src = src;
        for (unsigned w = 0; w < W; ++w) {
            PV& p = flipped_src[w][0]; // PI 0 comes first
            p.v ^= slots[w] & ~p.x;
        }
        EXPECT_EQ(snapshot(sim), snapshot(settled(nl, flipped_src))) << "W " << W;

        bool masked_x = false;
        for (unsigned w = 0; w < W; ++w) {
            const PV before = good.get(pi, w);
            const PV after = sim.get(pi, w);
            EXPECT_EQ(after.x, before.x) << "X slots must stay X, W " << W;
            EXPECT_EQ(after.v & before.x, before.v & before.x) << "W " << W;
            EXPECT_EQ((after.v ^ before.v) & ~before.x, slots[w] & ~before.x) << "W " << W;
            masked_x = masked_x || (slots[w] & before.x) != 0;
            for (NetId n = 0; n < nl.netCount(); ++n)
                EXPECT_TRUE(sameIn(sim.get(n, w), good.get(n, w), ~slots[w]))
                    << nl.net(n).name << " W " << W << " word " << w;
        }
        EXPECT_TRUE(masked_x) << "no X slot was masked: the X case went untested";
    }
}

TEST(PatternSim, ComplementMatchesStuckAtInActivatedSlots) {
    // On an internal net, complementing the slots where the good value is 1
    // (0) builds the stuck-at-0 (stuck-at-1) machine there. Where the net is
    // X the complement leaves the good machine, while the stuck value may
    // make downstream nets known — so the two agree on every net in the
    // net's known slots, and the complement equals the good machine in its
    // X slots.
    const Netlist nl = makeS27(lib());
    for (const unsigned W : kWidths) {
        Rng rng(808);
        const Sources src = randomSources(nl, rng, W, /*with_x=*/true);
        const PatternSim good = settled(nl, src);
        for (const GateId g : {nl.topoOrder()[0], nl.topoOrder()[3], nl.topoOrder()[6]}) {
            const NetId net = nl.gate(g).output;
            for (const bool stuck_one : {false, true}) {
                std::vector<std::uint64_t> active(W);
                for (unsigned w = 0; w < W; ++w) {
                    const PV pv = good.get(net, w);
                    active[w] = (stuck_one ? ~pv.v : pv.v) & ~pv.x;
                }
                PatternSim comp = settled(nl, src);
                comp.injectComplement(net, active.data());
                comp.propagate();
                PatternSim stuck = settled(nl, src);
                stuck.injectFault(FaultSite{net, kInvalidId, -1, stuck_one});
                stuck.propagate();
                for (unsigned w = 0; w < W; ++w) {
                    const std::uint64_t x = good.get(net, w).x;
                    for (NetId n = 0; n < nl.netCount(); ++n) {
                        EXPECT_TRUE(sameIn(comp.get(n, w), stuck.get(n, w), ~x))
                            << nl.net(n).name << " W " << W << " stuck-at-" << stuck_one;
                        EXPECT_TRUE(sameIn(comp.get(n, w), good.get(n, w), x))
                            << nl.net(n).name << " W " << W << " stuck-at-" << stuck_one;
                    }
                }
            }
        }
    }
}

TEST(PatternSim, ClearFaultRestoresStateBeforeComplement) {
    // The complement goes through the undo log: clearFault restores every
    // net bit-exact with nothing left to propagate, and faultDiffOnto sees
    // the excursion like a stuck-at one.
    const Netlist nl = makeS27(lib());
    std::vector<std::uint8_t> is_obs(nl.netCount(), 0);
    for (const NetId po : nl.pos()) is_obs[po] = 1;
    for (const unsigned W : kWidths) {
        Rng rng(909);
        PatternSim sim = settled(nl, randomSources(nl, rng, W, /*with_x=*/true));
        const std::vector<PV> before = snapshot(sim);
        bool observed = false;
        for (const NetId net : {nl.pis()[0], nl.gate(nl.topoOrder()[2]).output}) {
            const std::vector<std::uint64_t> slots = randomSlots(rng, W);
            sim.injectComplement(net, slots.data());
            sim.propagate();
            EXPECT_NE(snapshot(sim), before) << "W " << W;
            std::uint64_t diff[kMaxPackedWords];
            sim.faultDiffOnto(is_obs.data(), diff);
            for (unsigned w = 0; w < W; ++w) {
                std::uint64_t want = 0;
                for (const NetId po : nl.pos()) {
                    const PV g = before[po * W + w];
                    const PV c = sim.get(po, w);
                    want |= (g.v ^ c.v) & ~g.x & ~c.x;
                }
                EXPECT_EQ(diff[w], want) << "W " << W << " word " << w;
                observed = observed || want != 0;
            }
            sim.clearFault();
            ASSERT_EQ(snapshot(sim), before) << "W " << W;
            EXPECT_EQ(sim.propagate(), 0u);
        }
        EXPECT_TRUE(observed) << "no complement reached an output, W " << W;
    }
}

TEST(PatternSim, ComplementRequiresQuiescentSimulator) {
    // Pending events would be evaluated inside the excursion and then
    // rolled back by clearFault, losing them: the call is refused instead.
    const Netlist nl = makeS27(lib());
    PatternSim sim(nl, 4);
    Rng rng(1001);
    applySources(sim, randomSources(nl, rng, 4));
    const std::uint64_t slots[4] = {~0ULL, ~0ULL, ~0ULL, ~0ULL};
    EXPECT_THROW(sim.injectComplement(nl.pis()[0], slots), std::logic_error);
    sim.propagate();
    const std::vector<PV> settled_state = snapshot(sim);
    sim.injectComplement(nl.pis()[0], slots);
    sim.propagate();
    sim.clearFault();
    EXPECT_EQ(snapshot(sim), settled_state);
}

TEST(PatternSim, RollbackRestoresEveryCheckpoint) {
    // Nested checkpoints, each followed by new sources: rolling back to a
    // mark must give exactly a fresh simulator's state for the sources at
    // that mark (with the same fault, if one is injected), without
    // evaluating anything. Writing new sources after a rollback and rolling
    // back to the same mark again checks that restored nets are logged
    // anew. clearFault after the rollbacks must restore the pre-excursion
    // good machine.
    const Netlist nl = makeCircuit("s298", lib());
    const FaultSite fault{nl.gate(nl.topoOrder()[5]).output, kInvalidId, -1, true};
    for (const unsigned W : kWidths) {
        for (const bool with_fault : {false, true}) {
            SCOPED_TRACE(::testing::Message() << "words " << W << " fault " << with_fault);
            Rng rng(909 + W);
            const auto reference = [&](const Sources& src) {
                PatternSim fresh(nl, W);
                if (with_fault) fresh.injectFault(fault);
                applySources(fresh, src);
                fresh.propagate();
                return snapshot(fresh);
            };
            // Half the sources change per level, some to X, so levels
            // rewrite nets an outer level already logged.
            const auto perturb = [&](Sources src) {
                for (auto& word : src)
                    for (PV& v : word)
                        if (rng.chance(0.5)) v = rng.chance(0.2) ? PV::all(Logic::X) : PV{rng.next(), 0};
                return src;
            };
            const Sources base = randomSources(nl, rng, W);
            PatternSim sim = settled(nl, base);
            const std::vector<PV> good = snapshot(sim);
            if (with_fault) {
                sim.injectFault(fault);
                sim.propagate();
            }

            constexpr int kLevels = 4;
            std::vector<PatternSim::Checkpoint> marks;
            std::vector<Sources> at_mark;
            Sources cur = base;
            for (int level = 0; level < kLevels; ++level) {
                marks.push_back(sim.checkpoint());
                at_mark.push_back(cur);
                cur = perturb(cur);
                applySources(sim, cur);
                sim.propagate();
                ASSERT_EQ(snapshot(sim), reference(cur)) << "level " << level;
            }
            for (int level = kLevels - 1; level >= 0; --level) {
                const auto k = static_cast<std::size_t>(level);
                sim.rollback(marks[k]);
                ASSERT_EQ(snapshot(sim), reference(at_mark[k])) << "rollback to " << level;
                EXPECT_EQ(sim.propagate(), 0u) << "rollback left work at " << level;
                applySources(sim, perturb(at_mark[k]));
                sim.propagate();
                sim.rollback(marks[k]);
                ASSERT_EQ(snapshot(sim), reference(at_mark[k])) << "second rollback to " << level;
            }
            sim.clearFault();
            EXPECT_EQ(snapshot(sim), good);
        }
    }
}

TEST(PatternSim, ResetClearsFaultState) {
    // Regression: a net-fault restore value recorded before reset() must not
    // leak into a clearFault() issued after the reset.
    const Netlist nl = makeS27(lib());
    Rng rng(707);
    PatternSim sim = settled(nl, randomSources(nl, rng));

    FaultSite f;
    f.net = nl.pis()[0]; // source net: old code restored a saved value
    f.stuck_at_one = true;
    sim.injectFault(f);
    sim.propagate();

    sim.reset();
    const Sources src_b = randomSources(nl, rng);
    applySources(sim, src_b);
    sim.propagate();
    sim.clearFault(); // no fault active: must be a complete no-op
    sim.propagate();

    EXPECT_EQ(snapshot(sim), snapshot(settled(nl, src_b)));
}

TEST(PatternSim, ResetThenReinjectGradesCleanly) {
    // PODEM-style usage: reset, re-inject, assign sources with the fault
    // active. The stale undo log from before the reset must be gone.
    const Netlist nl = makeS27(lib());
    Rng rng(808);
    PatternSim sim = settled(nl, randomSources(nl, rng));
    FaultSite f;
    f.net = nl.gate(nl.topoOrder()[0]).output;
    f.stuck_at_one = true;
    sim.injectFault(f);
    sim.propagate();

    sim.reset();
    sim.injectFault(f);
    const Sources src = randomSources(nl, rng);
    applySources(sim, src);
    sim.propagate();
    EXPECT_EQ(sim.get(f.net), PV::all(Logic::One)); // fault holds

    // clearFault rolls back to the post-reset state (the sources were set
    // while the fault was active); re-applying them must give the good
    // machine with no residue of the faulty excursion.
    sim.clearFault();
    applySources(sim, src);
    sim.propagate();
    EXPECT_EQ(snapshot(sim), snapshot(settled(nl, src)));
}

TEST(PatternSim, ToggleCounting) {
    Netlist nl("t", lib());
    const NetId a = nl.addPi("a");
    const NetId y = nl.addNet("y");
    nl.addGate(CellFn::Inv, {a}, y);
    nl.markPo(y);

    for (const unsigned W : kWidths) {
        PatternSim sim(nl, W);
        sim.enableToggleCount(true);
        for (unsigned w = 0; w < W; ++w) sim.setNet(a, w, PV::all(Logic::Zero));
        sim.propagate();
        sim.clearToggleCounts(); // ignore the X->known initialization edge
        for (unsigned w = 0; w < W; ++w) sim.setNet(a, w, PV::all(Logic::One));
        sim.propagate();
        // 64 slots of every word flipped on both nets.
        EXPECT_EQ(sim.toggleCounts()[a], 64u * W);
        EXPECT_EQ(sim.toggleCounts()[y], 64u * W);
        EXPECT_EQ(sim.totalToggles(), 128u * W);
    }
}

TEST(PatternSim, ToggleCountsImmuneToFaultGrading) {
    // Regression: toggle counting used to keep running while a fault was
    // injected, so PPSFP grading contaminated the power numbers with faulty
    // excursions. Counting is now suspended while a fault is active: grading
    // must leave the counts exactly as a fault-free run of the same stimuli.
    // The multi-word case is in packed_sim_test.cpp.
    const Netlist nl = makeS27(lib());
    Rng rng(1001);
    const Sources src_a = randomSources(nl, rng);
    const Sources src_b = randomSources(nl, rng);

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

    EXPECT_GT(clean.totalToggles(), 0u);
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

TEST(SequentialSim, FlhHoldKeepsSettledOutputsOfPendingState) {
    // Holding settles first: a state driven but not yet propagated reaches
    // the first level before the supply gating freezes it, so a scan load
    // started right after setState holds the logic of that state.
    const Netlist nl = makeCircuit("s344", lib());
    Rng rng(6);
    std::vector<PV> st(nl.flipFlops().size());
    for (PV& p : st) p = PV{rng.next(), 0};
    const std::vector<PV> pis(nl.pis().size(), PV::all(Logic::Zero));

    SequentialSim seq(nl, HoldStyle::Flh);
    seq.setPis(pis);
    seq.setState(st);
    seq.setHolding(true);
    for (std::size_t i = 0; i < seq.ffCount(); ++i) seq.shift(PV{rng.next(), 0});

    SequentialSim ref(nl);
    ref.setPis(pis);
    ref.setState(st);
    ref.settle();
    for (const GateId g : nl.uniqueFirstLevelGates()) {
        EXPECT_TRUE(seq.sim().isHeld(g));
        EXPECT_EQ(seq.sim().get(nl.gate(g).output), ref.sim().get(nl.gate(g).output));
    }
}

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
