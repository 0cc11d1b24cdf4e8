#include "dft/scan.hpp"
#include "iscas/circuits.hpp"
#include "obs/telemetry.hpp"
#include "sta/timing.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

namespace flh {
namespace {

const Library& lib() {
    static const Library l = makeDefaultLibrary();
    return l;
}

// A chain of n inverters PI -> ... -> PO.
Netlist invChain(int n) {
    Netlist nl("chain" + std::to_string(n), lib());
    NetId cur = nl.addPi("a");
    for (int i = 0; i < n; ++i) {
        const NetId next = nl.addNet("n" + std::to_string(i));
        nl.addGate(CellFn::Inv, {cur}, next);
        cur = next;
    }
    nl.markPo(cur);
    return nl;
}

TEST(Sta, ChainDelayScalesWithLength) {
    const double d4 = runSta(invChain(4)).critical_delay_ps;
    const double d8 = runSta(invChain(8)).critical_delay_ps;
    EXPECT_GT(d4, 0.0);
    // Interior stages have identical load; doubling length roughly doubles
    // delay (the last stage is unloaded, hence "roughly").
    EXPECT_NEAR(d8 / d4, 2.0, 0.35);
}

TEST(Sta, CriticalPathIsContiguous) {
    const Netlist nl = invChain(5);
    const TimingResult r = runSta(nl);
    ASSERT_EQ(r.critical_path.size(), 6u); // PI + 5 stage outputs
    EXPECT_EQ(r.critical_levels, 5);
    // Arrival must be strictly increasing along the path.
    for (std::size_t i = 1; i < r.critical_path.size(); ++i)
        EXPECT_GT(r.arrival_ps[r.critical_path[i]], r.arrival_ps[r.critical_path[i - 1]]);
}

TEST(Sta, SlackNonNegativeAndZeroOnCriticalPath) {
    const Netlist nl = makeCircuit("s298", lib());
    const TimingResult r = runSta(nl);
    for (NetId n = 0; n < nl.netCount(); ++n)
        EXPECT_GE(r.slackPs(n), -1e-9) << nl.net(n).name;
    for (const NetId n : r.critical_path) EXPECT_NEAR(r.slackPs(n), 0.0, 1e-9);
}

TEST(Sta, DepthMatchesLevelization) {
    for (const char* name : {"s298", "s344", "s838"}) {
        const Netlist nl = makeCircuit(name, lib());
        const TimingResult r = runSta(nl);
        // The timing-critical path length cannot exceed the structural depth.
        EXPECT_LE(r.critical_levels, nl.logicDepth()) << name;
        EXPECT_GT(r.critical_levels, nl.logicDepth() / 2) << name;
    }
}

TEST(Sta, SourceSeriesDelayShiftsArrivals) {
    const Netlist nl = makeCircuit("s344", lib());
    const TimingResult base = runSta(nl);
    TimingOverlay ov;
    for (const GateId ff : nl.flipFlops()) ov.source_series_ps[nl.gate(ff).output] = 50.0;
    const TimingResult with = runSta(nl, ov);
    EXPECT_GT(with.critical_delay_ps, base.critical_delay_ps);
    EXPECT_LE(with.critical_delay_ps, base.critical_delay_ps + 50.0 + 1e-9);
}

TEST(Sta, GateAdderOnCriticalGateExtendsDelay) {
    const Netlist nl = invChain(6);
    const TimingResult base = runSta(nl);
    TimingOverlay ov;
    ov.gate_delay_adder_ps[nl.topoOrder()[2]] = 7.5;
    const TimingResult with = runSta(nl, ov);
    EXPECT_NEAR(with.critical_delay_ps, base.critical_delay_ps + 7.5, 1e-9);
}

TEST(Sta, ExtraCapSlowsTheDriver) {
    const Netlist nl = invChain(3);
    const TimingResult base = runSta(nl);
    TimingOverlay ov;
    ov.extra_net_cap_ff[*nl.findNet("n1")] = 10.0;
    const TimingResult with = runSta(nl, ov);
    const double r_inv = lib().cell(lib().findByName("NOT1")).r_out_kohm;
    EXPECT_NEAR(with.critical_delay_ps, base.critical_delay_ps + r_inv * 10.0, 1e-6);
}

TEST(Sta, OffCriticalAdderDoesNotMoveDelay) {
    // Two parallel chains of different length from one PI: an adder on the
    // short chain (within its slack) must not change the critical delay.
    Netlist nl("par", lib());
    const NetId a = nl.addPi("a");
    NetId cur = a;
    for (int i = 0; i < 8; ++i) {
        const NetId next = nl.addNet("L" + std::to_string(i));
        nl.addGate(CellFn::Inv, {cur}, next);
        cur = next;
    }
    nl.markPo(cur);
    const NetId s0 = nl.addNet("S0");
    GateId short_gate = nl.addGate(CellFn::Inv, {a}, s0);
    nl.markPo(s0);

    const TimingResult base = runSta(nl);
    TimingOverlay ov;
    ov.gate_delay_adder_ps[short_gate] = 5.0;
    EXPECT_NEAR(runSta(nl, ov).critical_delay_ps, base.critical_delay_ps, 1e-9);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The incremental result must equal a fresh full pass bit for bit.
void expectMatchesFullSta(const Netlist& nl, const IncrementalSta& timer, const std::string& when) {
    const TimingResult full = runSta(nl);
    const TimingResult& inc = timer.result();
    ASSERT_EQ(inc.arrival_ps.size(), full.arrival_ps.size()) << when;
    ASSERT_EQ(inc.required_ps.size(), full.required_ps.size()) << when;
    EXPECT_EQ(bits(inc.critical_delay_ps), bits(full.critical_delay_ps)) << when;
    EXPECT_EQ(inc.critical_levels, full.critical_levels) << when;
    EXPECT_EQ(inc.critical_path, full.critical_path) << when;
    for (NetId n = 0; n < nl.netCount(); ++n) {
        ASSERT_EQ(bits(inc.arrival_ps[n]), bits(full.arrival_ps[n]))
            << when << ": arrival of " << nl.net(n).name;
        ASSERT_EQ(bits(inc.required_ps[n]), bits(full.required_ps[n]))
            << when << ": required time of " << nl.net(n).name;
    }
}

/// Combinational (gate, pin) readers of `net`.
std::vector<PinRef> combReaders(const Netlist& nl, NetId net) {
    std::vector<PinRef> out;
    for (const PinRef& pr : nl.fanout(net))
        if (!isSequential(nl.gate(pr.gate).fn)) out.push_back(pr);
    return out;
}

TEST(Sta, IncrementalRetimeMatchesFullSta) {
    // The edits optimizeFanout makes, and one it never makes (a receiver
    // moved onto a primary input, whose arrival cannot change), on every
    // registry circuit; then a pair inserted on the critical path, which
    // moves the critical delay and so takes the full-pass fallback.
    std::vector<std::string> names = {"s27"};
    for (const CircuitSpec& spec : paperCircuits()) names.push_back(spec.name);
    for (const std::string& name : names) {
        Netlist nl = makeCircuit(name, lib());
        insertScan(nl);
        IncrementalSta timer(nl);
        const NetId pi = nl.pis().front();
        int seq = 0;
        const auto fresh = [&] { return nl.addNet("inc" + std::to_string(seq++)); };
        int edits = 0;
        for (const GateId ff : nl.flipFlops()) {
            if (edits >= 4) break;
            const NetId q = nl.gate(ff).output;
            const std::vector<PinRef> readers = combReaders(nl, q);
            if (readers.empty()) continue;
            ++edits;
            const std::string at = name + " FF " + nl.net(q).name;

            // A new inverter pair takes every third reader.
            const NetId a = fresh();
            nl.addGate(CellFn::Inv, {q}, a);
            const NetId b = fresh();
            nl.addGate(CellFn::Inv, {a}, b);
            for (std::size_t i = 0; i < readers.size(); i += 3)
                nl.rewireInput(readers[i].gate, readers[i].pin, b);
            const NetId pair[] = {q, a, b};
            timer.retime(pair);
            expectMatchesFullSta(nl, timer, at + ": new pair");

            // A second stage on the existing inverter takes one more reader.
            if (readers.size() < 2) continue;
            const NetId c = fresh();
            nl.addGate(CellFn::Inv, {a}, c);
            nl.rewireInput(readers[1].gate, readers[1].pin, c);
            const NetId reuse[] = {q, a, c};
            timer.retime(reuse);
            expectMatchesFullSta(nl, timer, at + ": reused inverter");

            // Another reader moves to a primary input.
            if (readers.size() < 3) continue;
            nl.rewireInput(readers[2].gate, readers[2].pin, pi);
            const NetId moved[] = {q, pi};
            timer.retime(moved);
            expectMatchesFullSta(nl, timer, at + ": reader moved to a PI");
        }
        EXPECT_GT(edits, 0) << name;

        // Delay the critical path's first gate by an inverter pair.
        const std::vector<NetId> path = timer.result().critical_path;
        ASSERT_GE(path.size(), 2u) << name;
        const double before = timer.result().critical_delay_ps;
        const GateId first = nl.net(path[1]).driver;
        const NetId a = fresh();
        nl.addGate(CellFn::Inv, {path[0]}, a);
        const NetId b = fresh();
        nl.addGate(CellFn::Inv, {a}, b);
        const auto& ins = nl.gate(first).inputs;
        for (std::size_t p = 0; p < ins.size(); ++p)
            if (ins[p] == path[0]) nl.rewireInput(first, static_cast<int>(p), b);
        obs::reset();
        obs::setEnabled(true);
        const NetId crit[] = {path[0], a, b};
        timer.retime(crit);
        obs::setEnabled(false);
        EXPECT_GT(timer.result().critical_delay_ps, before) << name;
        EXPECT_EQ(obs::counter("sta.retime_fallbacks").value(), 1u) << name;
        obs::reset();
        expectMatchesFullSta(nl, timer, name + ": critical path delayed");
    }
}

} // namespace
} // namespace flh
