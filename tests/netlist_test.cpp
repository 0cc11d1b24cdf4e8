#include "cell/logic.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/netlist.hpp"
#include "dft/fanout_opt.hpp"
#include "dft/scan.hpp"
#include "iscas/circuits.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

namespace flh {
namespace {

const Library& lib() {
    static const Library l = makeDefaultLibrary();
    return l;
}

// A tiny hand-built circuit: 2 PIs, 1 FF, 3 gates.
Netlist tiny() {
    Netlist nl("tiny", lib());
    const NetId a = nl.addPi("a");
    const NetId b = nl.addPi("b");
    const NetId q = nl.addNet("q");
    const NetId n1 = nl.addNet("n1");
    const NetId n2 = nl.addNet("n2");
    const NetId d = nl.addNet("d");
    nl.addGate(CellFn::Nand, {a, q}, n1);
    nl.addGate(CellFn::Inv, {n1}, n2);
    nl.addGate(CellFn::Nor, {n2, b}, d);
    nl.addDff(d, q);
    nl.markPo(n2);
    return nl;
}

TEST(Netlist, BasicConstruction) {
    const Netlist nl = tiny();
    EXPECT_EQ(nl.netCount(), 6u);
    EXPECT_EQ(nl.gateCount(), 4u);
    EXPECT_EQ(nl.flipFlops().size(), 1u);
    EXPECT_EQ(nl.combGates().size(), 3u);
    EXPECT_NO_THROW(nl.check());
}

TEST(Netlist, DuplicateNetNameRejected) {
    Netlist nl("x", lib());
    nl.addNet("n");
    EXPECT_THROW(nl.addNet("n"), std::invalid_argument);
}

TEST(Netlist, DoubleDriveRejected) {
    Netlist nl("x", lib());
    const NetId a = nl.addPi("a");
    const NetId o = nl.addNet("o");
    nl.addGate(CellFn::Inv, {a}, o);
    EXPECT_THROW(nl.addGate(CellFn::Inv, {a}, o), std::invalid_argument);
    EXPECT_THROW(nl.addGate(CellFn::Inv, {o}, a), std::invalid_argument); // PI as output
}

TEST(Netlist, FanoutTracksRewire) {
    Netlist nl = tiny();
    const NetId a = *nl.findNet("a");
    const NetId b = *nl.findNet("b");
    EXPECT_EQ(nl.fanout(a).size(), 1u);
    EXPECT_EQ(nl.fanout(b).size(), 1u);
    // Rewire the NOR's b-input to a.
    const GateId nor = nl.net(*nl.findNet("d")).driver;
    nl.rewireInput(nor, 1, a);
    EXPECT_EQ(nl.fanout(a).size(), 2u);
    EXPECT_TRUE(nl.fanout(b).empty());
}

TEST(Netlist, RewireToBadNetRejected) {
    Netlist nl = tiny();
    const GateId nor = nl.net(*nl.findNet("d")).driver;
    const NetId b = *nl.findNet("b");
    EXPECT_THROW(nl.rewireInput(nor, 1, static_cast<NetId>(nl.netCount())), std::out_of_range);
    EXPECT_THROW(nl.rewireInput(nor, 1, kInvalidId), std::out_of_range);
    // The rejected call left the netlist untouched.
    EXPECT_EQ(nl.gate(nor).inputs[1], b);
    EXPECT_EQ(nl.fanout(b).size(), 1u);
    EXPECT_NO_THROW(nl.check());
}

TEST(Netlist, TopoOrderRespectsDependencies) {
    const Netlist nl = tiny();
    const auto& order = nl.topoOrder();
    ASSERT_EQ(order.size(), 3u);
    // NAND (level 1) must precede INV (level 2) must precede NOR (level 3).
    const auto& lv = nl.levels();
    EXPECT_EQ(lv[order[0]], 1);
    EXPECT_EQ(lv[order[1]], 2);
    EXPECT_EQ(lv[order[2]], 3);
    EXPECT_EQ(nl.logicDepth(), 3);
}

TEST(Netlist, CombinationalLoopDetected) {
    Netlist nl("loop", lib());
    const NetId a = nl.addPi("a");
    const NetId x = nl.addNet("x");
    const NetId y = nl.addNet("y");
    nl.addGate(CellFn::Nand, {a, y}, x);
    nl.addGate(CellFn::Inv, {x}, y);
    EXPECT_THROW((void)nl.topoOrder(), std::runtime_error);
}

TEST(Netlist, FlipFlopBreaksLoop) {
    // The tiny circuit loops through the FF; that must be fine.
    const Netlist nl = tiny();
    EXPECT_NO_THROW((void)nl.topoOrder());
}

TEST(Netlist, UniqueFirstLevelGates) {
    Netlist nl("fl", lib());
    const NetId a = nl.addPi("a");
    const NetId q0 = nl.addNet("q0");
    const NetId q1 = nl.addNet("q1");
    const NetId d = nl.addNet("d");
    const NetId n1 = nl.addNet("n1");
    const NetId n2 = nl.addNet("n2");
    // Both FFs feed the same NAND -> 1 unique first-level gate, fanout 2.
    const GateId g = nl.addGate(CellFn::Nand, {q0, q1}, n1);
    nl.addGate(CellFn::Inv, {n1}, n2);
    nl.addGate(CellFn::Inv, {n2}, d);
    nl.addDff(d, q0);
    nl.addDff(a, q1);
    nl.markPo(n2);
    const auto fl = nl.uniqueFirstLevelGates();
    ASSERT_EQ(fl.size(), 1u);
    EXPECT_EQ(fl[0], g);
    EXPECT_EQ(nl.totalFfFanout(), 2u);
}

TEST(Netlist, AreaAndCaps) {
    const Netlist nl = tiny();
    EXPECT_GT(nl.totalAreaUm2(), 0.0);
    const NetId n1 = *nl.findNet("n1");
    EXPECT_GT(nl.netCapFf(n1), 0.0);
}

TEST(Netlist, StatsComputed) {
    const NetlistStats s = computeStats(tiny());
    EXPECT_EQ(s.n_pis, 2u);
    EXPECT_EQ(s.n_pos, 1u);
    EXPECT_EQ(s.n_ffs, 1u);
    EXPECT_EQ(s.n_comb_gates, 3u);
    EXPECT_EQ(s.logic_depth, 3);
    EXPECT_GT(s.area_um2, 0.0);
}

// ------------------------------------------------------------- bench IO ----

TEST(BenchIo, ParseSimple) {
    const std::string text = R"(
# comment
INPUT(a)
INPUT(b)
OUTPUT(y)
q = DFF(d)
n1 = NAND(a, q)
y = NOT(n1)
d = NOR(y, b)
)";
    const Netlist nl = readBenchString(text, "t", lib());
    EXPECT_EQ(nl.pis().size(), 2u);
    EXPECT_EQ(nl.pos().size(), 1u);
    EXPECT_EQ(nl.flipFlops().size(), 1u);
    EXPECT_EQ(nl.combGates().size(), 3u);
}

TEST(BenchIo, ForwardReferencesResolve) {
    const std::string text = "INPUT(a)\nOUTPUT(y)\ny = NOT(x)\nx = NOT(a)\n";
    const Netlist nl = readBenchString(text, "t", lib());
    EXPECT_EQ(nl.combGates().size(), 2u);
}

TEST(BenchIo, ComplexGateExtensions) {
    const std::string text =
        "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\n"
        "y = AOI22(a, b, c, d)\nz = MUX2(a, b, c)\nOUTPUT(z)\n";
    const Netlist nl = readBenchString(text, "t", lib());
    EXPECT_EQ(nl.combGates().size(), 2u);
    EXPECT_EQ(nl.gate(0).fn, CellFn::Aoi22);
    EXPECT_EQ(nl.gate(1).fn, CellFn::Mux2);
}

TEST(BenchIo, MalformedLinesThrow) {
    EXPECT_THROW((void)readBenchString("INPUT a\n", "t", lib()), std::runtime_error);
    EXPECT_THROW((void)readBenchString("y = FROB(a)\n", "t", lib()), std::runtime_error);
    EXPECT_THROW((void)readBenchString("y = NOT()\n", "t", lib()), std::runtime_error);
    EXPECT_THROW((void)readBenchString("y NOT(a)\n", "t", lib()), std::runtime_error);
}

TEST(BenchIo, UnknownOutputThrows) {
    EXPECT_THROW((void)readBenchString("INPUT(a)\nOUTPUT(nope)\n", "t", lib()),
                 std::runtime_error);
}

TEST(BenchIo, RoundTrip) {
    const Netlist nl = tiny();
    const std::string text = writeBenchString(nl);
    const Netlist back = readBenchString(text, "tiny", lib());
    EXPECT_EQ(back.netCount(), nl.netCount());
    EXPECT_EQ(back.gateCount(), nl.gateCount());
    EXPECT_EQ(back.pis().size(), nl.pis().size());
    EXPECT_EQ(back.pos().size(), nl.pos().size());
    EXPECT_EQ(back.flipFlops().size(), nl.flipFlops().size());
    EXPECT_EQ(back.logicDepth(), nl.logicDepth());
    // Second round-trip must be textually identical (canonical form).
    EXPECT_EQ(writeBenchString(back), writeBenchString(nl));
}

TEST(BenchIo, CaseInsensitiveOperatorsAndComments) {
    const std::string text =
        "# header\nINPUT(a)\nOUTPUT(y)\ny = nand(a, x) # trailing comment\nx = not(a)\n";
    const Netlist nl = readBenchString(text, "t", lib());
    EXPECT_EQ(nl.combGates().size(), 2u);
    EXPECT_EQ(nl.gate(0).fn, CellFn::Nand);
}

TEST(BenchIo, SdffRoundTrips) {
    const std::string text =
        "INPUT(d)\nINPUT(si)\nINPUT(se)\nOUTPUT(q)\nq = SDFF(d, si, se)\n";
    const Netlist nl = readBenchString(text, "t", lib());
    EXPECT_EQ(nl.flipFlops().size(), 1u);
    EXPECT_EQ(nl.gate(0).fn, CellFn::Sdff);
    const Netlist back = readBenchString(writeBenchString(nl), "t", lib());
    EXPECT_EQ(back.flipFlops().size(), 1u);
}

TEST(BenchIo, SdffWrongArityRejected) {
    EXPECT_THROW(
        (void)readBenchString("INPUT(d)\nOUTPUT(q)\nq = SDFF(d)\n", "t", lib()),
        std::runtime_error);
}

TEST(BenchIo, NetNamesStartingWithKeywordsAreNotDeclarations) {
    // Regression: prefix matching used to swallow these gate lines as
    // INPUT/OUTPUT declarations.
    const std::string text = R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
INPUT1 = AND(a, b)
OUTPUTX = NOT(INPUT1)
y = NOR(OUTPUTX, b)
)";
    const Netlist nl = readBenchString(text, "t", lib());
    EXPECT_EQ(nl.pis().size(), 2u);
    EXPECT_EQ(nl.pos().size(), 1u);
    EXPECT_EQ(nl.combGates().size(), 3u);
    ASSERT_TRUE(nl.findNet("INPUT1").has_value());
    EXPECT_EQ(nl.gate(nl.net(*nl.findNet("INPUT1")).driver).fn, CellFn::And);
    ASSERT_TRUE(nl.findNet("OUTPUTX").has_value());
    // Whitespace between the keyword and '(' is still a declaration; a
    // non-'(' continuation is not.
    const Netlist ws = readBenchString("INPUT (a)\nOUTPUT (y)\ny = NOT(a)\n", "t", lib());
    EXPECT_EQ(ws.pis().size(), 1u);
    EXPECT_THROW((void)readBenchString("INPUTS(a)\n", "t", lib()), std::runtime_error);
}

TEST(BenchIo, IdentifierEdgeCasesRoundTrip) {
    // Names with operator/keyword prefixes, exact operator names, and
    // bus-like "[0]" suffixes are all legal .bench identifiers and must
    // survive write -> read unchanged.
    const std::string text = R"(
INPUT(in[0])
INPUT(in[1])
INPUT(NAND)
OUTPUT(out[0])
OUTPUT(NOT)
NOTa = NOT(in[0])
AND = AND(NOTa, NAND)
out[0] = NAND(AND, in[1])
NOT = BUFF(out[0])
DFF1 = DFF(NOTa)
OUTPUT2 = XOR(DFF1, AND)
)";
    const Netlist nl = readBenchString(text, "edge", lib());
    EXPECT_EQ(nl.pis().size(), 3u);
    EXPECT_EQ(nl.pos().size(), 2u);
    EXPECT_EQ(nl.flipFlops().size(), 1u);
    for (const char* name : {"in[0]", "in[1]", "NAND", "out[0]", "NOT", "NOTa", "AND",
                             "DFF1", "OUTPUT2"})
        EXPECT_TRUE(nl.findNet(name).has_value()) << name;

    const std::string round = writeBenchString(nl);
    const Netlist back = readBenchString(round, "edge", lib());
    EXPECT_EQ(back.netCount(), nl.netCount());
    EXPECT_EQ(back.gateCount(), nl.gateCount());
    EXPECT_EQ(back.flipFlops().size(), nl.flipFlops().size());
    for (NetId n = 0; n < nl.netCount(); ++n)
        EXPECT_TRUE(back.findNet(nl.net(n).name).has_value()) << nl.net(n).name;
    EXPECT_EQ(writeBenchString(back), round); // canonical after one pass
}

TEST(BenchIo, ScannedNetlistRoundTripsThroughBench) {
    // Full DFF -> SDFF scan insertion must survive writeBench -> readBench:
    // same scan structure, flip-flops registered, canonical re-emit.
    Netlist nl = tiny();
    const ScanInfo info = insertScan(nl);
    ASSERT_TRUE(isFullScan(nl));

    const std::string text = writeBenchString(nl);
    const Netlist back = readBenchString(text, "tiny", lib());
    EXPECT_EQ(back.netCount(), nl.netCount());
    EXPECT_EQ(back.gateCount(), nl.gateCount());
    ASSERT_EQ(back.flipFlops().size(), nl.flipFlops().size());
    EXPECT_TRUE(isFullScan(back));
    for (std::size_t i = 0; i < nl.flipFlops().size(); ++i) {
        const Gate& a = nl.gate(nl.flipFlops()[i]);
        const Gate& b = back.gate(back.flipFlops()[i]);
        EXPECT_EQ(b.fn, CellFn::Sdff);
        ASSERT_EQ(b.inputs.size(), 3u);
        for (std::size_t p = 0; p < 3; ++p)
            EXPECT_EQ(back.net(b.inputs[p]).name, nl.net(a.inputs[p]).name);
        EXPECT_EQ(back.net(b.output).name, nl.net(a.output).name);
    }
    // Scan ports survive: TC and SCAN_IN as PIs, SCAN_OUT as PO.
    EXPECT_TRUE(back.findNet("TC").has_value());
    EXPECT_TRUE(back.findNet("SCAN_IN").has_value());
    const auto so = back.findNet(nl.net(info.scan_out).name);
    ASSERT_TRUE(so.has_value());
    EXPECT_NE(std::find(back.pos().begin(), back.pos().end(), *so), back.pos().end());
    EXPECT_EQ(writeBenchString(back), text);
}

TEST(BenchIo, MixedDffSdffRoundTrip) {
    Netlist nl("mix", lib());
    const NetId a = nl.addPi("a");
    const NetId se = nl.addPi("se");
    const NetId q1 = nl.addNet("q1");
    const NetId q2 = nl.addNet("q2");
    const NetId d = nl.addNet("d");
    nl.addGate(CellFn::Inv, {a}, d);
    nl.addDff(d, q1);
    nl.addGate(CellFn::Sdff, {d, q1, se}, q2);
    nl.markPo(q2);

    const Netlist back = readBenchString(writeBenchString(nl), "mix", lib());
    ASSERT_EQ(back.flipFlops().size(), 2u);
    EXPECT_EQ(back.gate(back.flipFlops()[0]).fn, CellFn::Dff);
    EXPECT_EQ(back.gate(back.flipFlops()[1]).fn, CellFn::Sdff);
    EXPECT_EQ(writeBenchString(back), writeBenchString(nl));
}

TEST(Netlist, ReplaceGateValidation) {
    Netlist nl = tiny();
    const GateId ff = nl.flipFlops()[0];
    const GateId comb = nl.combGates()[0];
    // Sequential status must not change.
    EXPECT_THROW(nl.replaceGate(ff, CellFn::Inv, {nl.pis()[0]}), std::invalid_argument);
    EXPECT_THROW(nl.replaceGate(comb, CellFn::Dff, {nl.pis()[0]}), std::invalid_argument);
    // Arity must resolve to a library cell.
    EXPECT_THROW(nl.replaceGate(comb, CellFn::Nand, {nl.pis()[0]}), std::out_of_range);
    // A valid replacement keeps the output net and updates function.
    const NetId out = nl.gate(comb).output;
    nl.replaceGate(comb, CellFn::Nor, {nl.pis()[0], nl.pis()[1]});
    EXPECT_EQ(nl.gate(comb).fn, CellFn::Nor);
    EXPECT_EQ(nl.gate(comb).output, out);
    EXPECT_NO_THROW(nl.check());
}

TEST(Netlist, NetCapGrowsWithFanout) {
    Netlist nl("f", lib());
    const NetId a = nl.addPi("a");
    const NetId y1 = nl.addNet("y1");
    nl.addGate(CellFn::Inv, {a}, y1);
    nl.markPo(y1);
    const double one = nl.netCapFf(a);
    const NetId y2 = nl.addNet("y2");
    nl.addGate(CellFn::Inv, {a}, y2);
    nl.markPo(y2);
    EXPECT_GT(nl.netCapFf(a), one);
}

TEST(Netlist, FanoutStaysCanonicalAcrossEdits) {
    // addNet, addGate and rewireInput update built fanout lists in place;
    // every list must equal the one a rebuild gives (gate, then pin), since
    // netCapFf sums loads in that order.
    Netlist nl = makeCircuit("s298", lib());
    insertScan(nl);
    (void)nl.fanout(0);
    Rng rng(5);
    const auto pickNet = [&] { return static_cast<NetId>(rng.below(nl.netCount())); };
    int seq = 0;
    for (int step = 0; step < 400; ++step) {
        std::string op;
        switch (rng.below(3)) {
            case 0:
                op = "addNet";
                (void)nl.addNet("e" + std::to_string(seq++));
                break;
            case 1: {
                op = "addGate";
                std::vector<NetId> ins = {pickNet()};
                if (rng.chance(0.5)) ins.push_back(ins.front()); // one net on two pins
                if (rng.chance(0.5)) ins.push_back(pickNet());
                const NetId out = nl.addNet("e" + std::to_string(seq++));
                (void)nl.addGate(ins.size() == 1 ? CellFn::Inv : CellFn::And, ins, out);
                break;
            }
            default: {
                op = "rewireInput";
                const GateId g = static_cast<GateId>(rng.below(nl.gateCount()));
                const int pin = static_cast<int>(rng.below(nl.gate(g).inputs.size()));
                nl.rewireInput(g, pin, pickNet());
                break;
            }
        }
        Netlist rebuilt = nl;
        rebuilt.invalidateCaches();
        for (NetId n = 0; n < nl.netCount(); ++n)
            ASSERT_EQ(nl.fanout(n), rebuilt.fanout(n))
                << "step " << step << " (" << op << "), net " << nl.net(n).name;
    }
}

TEST(Netlist, NetCapMatchesCellFormula) {
    // netCapFf reads per-cell tables; they must reproduce the transistor
    // formulas bit for bit, on the scanned netlist and after fanout
    // optimization has rewired pins and added inverters.
    Netlist nl = makeCircuit("s5378", lib());
    insertScan(nl);
    const Tech& t = lib().tech();
    const auto expectFormula = [&](const char* when) {
        for (NetId n = 0; n < nl.netCount(); ++n) {
            double cap = 0.0;
            for (const PinRef& pr : nl.fanout(n)) {
                cap += lib().cell(nl.gate(pr.gate).cell).pinCapFf(t, pr.pin);
                cap += t.c_wire_ff_per_fanout;
            }
            if (const GateId drv = nl.net(n).driver; drv != kInvalidId)
                cap += lib().cell(nl.gate(drv).cell).outputParasiticFf(t);
            ASSERT_EQ(nl.netCapFf(n), cap) << when << " net " << nl.net(n).name;
        }
    };
    expectFormula("scanned");
    ASSERT_GT(optimizeFanout(nl).ffs_optimized, 0u);
    expectFormula("after optimizeFanout");
}

TEST(Netlist, CopyIsIndependent) {
    Netlist a = tiny();
    Netlist b = a;
    const NetId extra = b.addNet("extra");
    b.addGate(CellFn::Inv, {b.pis()[0]}, extra);
    EXPECT_EQ(a.gateCount() + 1, b.gateCount());
    EXPECT_NO_THROW(a.check());
    EXPECT_NO_THROW(b.check());
}

TEST(Netlist, WideCombGateRejectedAtConstruction) {
    // Regression: a library can legally carry a cell wider than the
    // simulators' fixed input buffers (kMaxGateArity); the netlist layer must
    // reject such gates at addGate time, not crash in PatternSim::propagate.
    Library wide = makeDefaultLibrary();
    Cell and9;
    and9.name = "AND9";
    and9.fn = CellFn::And;
    and9.n_inputs = 9;
    wide.add(and9);

    Netlist nl("w", wide);
    std::vector<NetId> ins;
    for (int i = 0; i < 9; ++i) ins.push_back(nl.addPi("a" + std::to_string(i)));
    const NetId y = nl.addNet("y");
    EXPECT_THROW(nl.addGate(CellFn::And, ins, y), std::invalid_argument);
}

// Scalar oracle for the decomposition tests: straight topological evaluation.
Logic evalNets(const Netlist& nl, const std::vector<Logic>& pi_vals, NetId out) {
    std::vector<PV> val(nl.netCount(), PV::all(Logic::X));
    std::size_t k = 0;
    for (const NetId pi : nl.pis()) val[pi] = PV::all(pi_vals[k++]);
    for (const GateId g : nl.topoOrder()) {
        const Gate& gate = nl.gate(g);
        std::vector<PV> ins;
        for (const NetId in : gate.inputs) ins.push_back(val[in]);
        val[gate.output] = evalCell(gate.fn, ins);
    }
    return val[out].get(0);
}

TEST(BenchIo, WideGatesDecomposeToLibraryArities) {
    // Regression for the PatternSim ins[kMaxGateArity] overflow: a 9-input
    // .bench gate must be tree-decomposed into library-available arities
    // rather than constructing an out-of-range gate.
    std::string text;
    for (char c = 'a'; c <= 'i'; ++c) text += std::string("INPUT(") + c + ")\n";
    text += "OUTPUT(y)\nOUTPUT(z)\nOUTPUT(x)\n"
            "y = AND(a, b, c, d, e, f, g, h, i)\n"
            "z = NAND(a, b, c, d, e, f, g, h, i)\n"
            "x = XOR(a, b, c, d, e, f, g, h, i)\n";
    const Netlist nl = readBenchString(text, "wide", lib());
    EXPECT_NO_THROW(nl.check());
    for (const GateId g : nl.combGates()) {
        const Gate& gate = nl.gate(g);
        ASSERT_LE(gate.inputs.size(), kMaxGateArity);
        ASSERT_TRUE(lib().has(gate.fn, static_cast<int>(gate.inputs.size())))
            << toString(gate.fn) << "/" << gate.inputs.size();
    }

    const NetId y = *nl.findNet("y");
    const NetId z = *nl.findNet("z");
    const NetId x = *nl.findNet("x");
    // Exhaustive check is 2^9; sample the corners plus a random sweep.
    for (std::uint32_t bits : {0u, 0x1FFu, 0x0AAu, 0x155u, 0x001u, 0x100u, 0x0F3u, 0x1C7u}) {
        std::vector<Logic> pis(9);
        int ones = 0;
        for (int i = 0; i < 9; ++i) {
            pis[i] = (bits >> i) & 1 ? Logic::One : Logic::Zero;
            ones += (bits >> i) & 1;
        }
        const Logic and9 = ones == 9 ? Logic::One : Logic::Zero;
        const Logic xor9 = ones % 2 ? Logic::One : Logic::Zero;
        EXPECT_EQ(evalNets(nl, pis, y), and9) << "bits " << bits;
        EXPECT_EQ(evalNets(nl, pis, z), negate(and9)) << "bits " << bits;
        EXPECT_EQ(evalNets(nl, pis, x), xor9) << "bits " << bits;
    }
}

TEST(BenchIo, WideGateDecompositionRoundTrips) {
    std::string text;
    for (char c = 'a'; c <= 'f'; ++c) text += std::string("INPUT(") + c + ")\n";
    text += "OUTPUT(y)\ny = NOR(a, b, c, d, e, f)\n";
    const Netlist nl = readBenchString(text, "w", lib());
    EXPECT_NO_THROW(nl.check());
    const Netlist back = readBenchString(writeBenchString(nl), "w", lib());
    EXPECT_EQ(back.gateCount(), nl.gateCount());
    EXPECT_NO_THROW(back.check());
}

} // namespace
} // namespace flh
