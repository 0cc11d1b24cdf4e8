#include "cell/cells.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

namespace flh {

const char* toString(CellFn fn) noexcept {
    switch (fn) {
        case CellFn::Buf: return "BUF";
        case CellFn::Inv: return "NOT";
        case CellFn::And: return "AND";
        case CellFn::Nand: return "NAND";
        case CellFn::Or: return "OR";
        case CellFn::Nor: return "NOR";
        case CellFn::Xor: return "XOR";
        case CellFn::Xnor: return "XNOR";
        case CellFn::Aoi21: return "AOI21";
        case CellFn::Aoi22: return "AOI22";
        case CellFn::Oai21: return "OAI21";
        case CellFn::Oai22: return "OAI22";
        case CellFn::Mux2: return "MUX2";
        case CellFn::Dff: return "DFF";
        case CellFn::Sdff: return "SDFF";
    }
    return "?";
}

bool isSequential(CellFn fn) noexcept {
    return fn == CellFn::Dff || fn == CellFn::Sdff;
}

double Cell::areaUm2(const Tech& t) const noexcept {
    double units = 0.0;
    for (const Xtor& x : xtors) units += x.w_units;
    return units * t.minDeviceAreaUm2();
}

double Cell::pinCapFf(const Tech& t, int pin) const noexcept {
    double w = 0.0;
    for (const Xtor& x : xtors)
        if (x.input_pin == pin) w += x.w_units;
    return t.gateCapFf(w);
}

double Cell::outputParasiticFf(const Tech& t) const noexcept {
    double w = 0.0;
    for (const Xtor& x : xtors)
        if (x.at_output) w += x.w_units;
    return t.diffCapFf(w);
}

double Cell::leakageNw(const Tech& t) const noexcept {
    return t.offCurrentNa(leak_w_eff) * t.vdd;
}

Library::Library(Tech tech) : tech_(tech) {}

CellId Library::add(Cell cell) {
    for (const Cell& c : cells_) {
        if (c.name == cell.name) throw std::invalid_argument("duplicate cell name: " + cell.name);
    }
    std::vector<double>& pins = pin_cap_ff_.emplace_back();
    for (int p = 0; p < cell.n_inputs; ++p) pins.push_back(cell.pinCapFf(tech_, p));
    output_parasitic_ff_.push_back(cell.outputParasiticFf(tech_));
    cells_.push_back(std::move(cell));
    return static_cast<CellId>(cells_.size() - 1);
}

CellId Library::find(CellFn fn, int n_inputs) const {
    for (CellId i = 0; i < cells_.size(); ++i) {
        if (cells_[i].fn == fn && cells_[i].n_inputs == n_inputs) return i;
    }
    throw std::out_of_range(std::string("no cell for fn ") + toString(fn) + "/" +
                            std::to_string(n_inputs));
}

bool Library::has(CellFn fn, int n_inputs) const noexcept {
    for (const Cell& c : cells_) {
        if (c.fn == fn && c.n_inputs == n_inputs) return true;
    }
    return false;
}

CellId Library::findByName(const std::string& name) const {
    for (CellId i = 0; i < cells_.size(); ++i) {
        if (cells_[i].name == name) return i;
    }
    throw std::out_of_range("no cell named " + name);
}

namespace {

// Helpers to assemble transistor lists. Widths in minimum-width units.

void addPair(std::vector<Xtor>& v, double wp, double wn, int pin, bool at_output) {
    v.push_back(Xtor{true, wp, pin, at_output});
    v.push_back(Xtor{false, wn, pin, at_output});
}

// Simple inverter: PMOS sized mobility_ratio x NMOS.
Cell makeInv(const Tech& t, const std::string& name, double drive) {
    Cell c;
    c.name = name;
    c.fn = CellFn::Inv;
    c.n_inputs = 1;
    const double wn = drive;
    const double wp = drive * t.mobility_ratio;
    addPair(c.xtors, wp, wn, 0, true);
    c.r_out_kohm = t.r_on_n_kohm / wn; // pull-up matches via mobility sizing
    c.leak_w_eff = 0.5 * (wp + wn);
    return c;
}

Cell makeBuf(const Tech& t, const std::string& name, double drive) {
    Cell c;
    c.name = name;
    c.fn = CellFn::Buf;
    c.n_inputs = 1;
    // First (input) inverter is half-size; second provides the drive.
    addPair(c.xtors, t.mobility_ratio * drive / 2.0, drive / 2.0, 0, false);
    addPair(c.xtors, t.mobility_ratio * drive, drive, -1, true);
    c.r_out_kohm = t.r_on_n_kohm / drive;
    c.leak_w_eff = 0.5 * (t.mobility_ratio + 1.0) * 1.5 * drive;
    c.c_internal_ff = t.gateCapFf((t.mobility_ratio + 1.0) * drive) +
                      t.diffCapFf((t.mobility_ratio + 1.0) * drive / 2.0);
    return c;
}

// NANDn: n parallel PMOS (wp each), n series NMOS (wn each, upsized n-fold to
// keep pull-down drive).
Cell makeNand(const Tech& t, int n) {
    Cell c;
    c.name = "NAND" + std::to_string(n);
    c.fn = CellFn::Nand;
    c.n_inputs = n;
    const double wp = t.mobility_ratio;
    const double wn = static_cast<double>(n);
    for (int i = 0; i < n; ++i) {
        c.xtors.push_back(Xtor{true, wp, i, true});
        // Only the top NMOS of the stack sits on the output node.
        c.xtors.push_back(Xtor{false, wn, i, i == 0});
    }
    c.r_out_kohm = t.r_on_n_kohm / t.mobility_ratio * t.mobility_ratio; // = r_on_n (worst: single PMOS up / full stack down)
    // Series NMOS stack leaks ~stack_factor; parallel PMOS leak fully.
    c.leak_w_eff = 0.5 * (n * wp + t.stack_factor_off * wn);
    return c;
}

// NORn: n series PMOS (upsized), n parallel NMOS.
Cell makeNor(const Tech& t, int n) {
    Cell c;
    c.name = "NOR" + std::to_string(n);
    c.fn = CellFn::Nor;
    c.n_inputs = n;
    const double wp = t.mobility_ratio * static_cast<double>(n);
    const double wn = 1.0;
    for (int i = 0; i < n; ++i) {
        c.xtors.push_back(Xtor{true, wp, i, i == 0});
        c.xtors.push_back(Xtor{false, wn, i, true});
    }
    c.r_out_kohm = t.r_on_n_kohm; // single min NMOS pull-down is the weak edge
    c.leak_w_eff = 0.5 * (t.stack_factor_off * wp + n * wn);
    return c;
}

// ANDn / ORn: NANDn/NORn followed by an inverter (the usual mapped form).
Cell makeAndOr(const Tech& t, CellFn fn, int n) {
    Cell inner = (fn == CellFn::And) ? makeNand(t, n) : makeNor(t, n);
    Cell c;
    c.name = std::string(fn == CellFn::And ? "AND" : "OR") + std::to_string(n);
    c.fn = fn;
    c.n_inputs = n;
    c.xtors = inner.xtors;
    for (Xtor& x : c.xtors) x.at_output = false; // inner node is internal now
    const double drive = 2.0;
    addPair(c.xtors, t.mobility_ratio * drive, drive, -1, true);
    c.r_out_kohm = t.r_on_n_kohm / drive;
    c.leak_w_eff = inner.leak_w_eff + 0.5 * (t.mobility_ratio + 1.0) * drive;
    // Internal node: inner gate output drives the output inverter.
    c.c_internal_ff = t.gateCapFf((t.mobility_ratio + 1.0) * drive) +
                      t.diffCapFf(3.0);
    return c;
}

// Static CMOS XOR2/XNOR2 (12T mapped cell).
Cell makeXor(const Tech& t, CellFn fn) {
    Cell c;
    c.name = (fn == CellFn::Xor) ? "XOR2" : "XNOR2";
    c.fn = fn;
    c.n_inputs = 2;
    // Two input inverters + 2x2 complementary branches; modelled as 12
    // devices with both inputs loading 3 device gates each.
    for (int pin = 0; pin < 2; ++pin) {
        addPair(c.xtors, t.mobility_ratio, 1.0, pin, false);       // input inverter
        c.xtors.push_back(Xtor{true, 2.0 * t.mobility_ratio, pin, true});
        c.xtors.push_back(Xtor{false, 2.0, pin, true});
    }
    c.r_out_kohm = t.r_on_n_kohm / 1.0; // 2-series stacks, upsized 2x
    c.leak_w_eff = 0.5 * (2.0 * (t.mobility_ratio + 1.0)) +
                   0.5 * t.stack_factor_off * 2.0 * (t.mobility_ratio + 1.0) * 2.0;
    c.c_internal_ff = t.gateCapFf(t.mobility_ratio + 1.0);
    return c;
}

// AOI21 = !((a&b)|c): PMOS c in series with (a||b); NMOS (a series b) || c.
Cell makeAoi21(const Tech& t) {
    Cell c;
    c.name = "AOI21";
    c.fn = CellFn::Aoi21;
    c.n_inputs = 3;
    const double wp = 2.0 * t.mobility_ratio; // 2-series PMOS upsized
    c.xtors.push_back(Xtor{true, wp, 0, false});
    c.xtors.push_back(Xtor{true, wp, 1, false});
    c.xtors.push_back(Xtor{true, wp, 2, true});
    c.xtors.push_back(Xtor{false, 2.0, 0, true});
    c.xtors.push_back(Xtor{false, 2.0, 1, false});
    c.xtors.push_back(Xtor{false, 1.0, 2, true});
    c.r_out_kohm = t.r_on_n_kohm;
    c.leak_w_eff = 0.5 * (t.stack_factor_off * 3.0 * wp + 2.0 * t.stack_factor_off + 1.0);
    return c;
}

Cell makeAoi22(const Tech& t) {
    Cell c = makeAoi21(t);
    c.name = "AOI22";
    c.fn = CellFn::Aoi22;
    c.n_inputs = 4;
    c.xtors.clear();
    const double wp = 2.0 * t.mobility_ratio;
    for (int pin = 0; pin < 4; ++pin) {
        c.xtors.push_back(Xtor{true, wp, pin, pin >= 2});
        c.xtors.push_back(Xtor{false, 2.0, pin, pin == 0 || pin == 2});
    }
    c.r_out_kohm = t.r_on_n_kohm;
    c.leak_w_eff = 0.5 * (t.stack_factor_off * 4.0 * wp + 2.0 * t.stack_factor_off * 4.0);
    return c;
}

Cell makeOai21(const Tech& t) {
    Cell c;
    c.name = "OAI21";
    c.fn = CellFn::Oai21;
    c.n_inputs = 3;
    const double wp = 2.0 * t.mobility_ratio;
    c.xtors.push_back(Xtor{true, wp, 0, true});
    c.xtors.push_back(Xtor{true, wp, 1, true});
    c.xtors.push_back(Xtor{true, wp, 2, false});
    c.xtors.push_back(Xtor{false, 2.0, 0, true});
    c.xtors.push_back(Xtor{false, 2.0, 1, true});
    c.xtors.push_back(Xtor{false, 2.0, 2, false});
    c.r_out_kohm = t.r_on_n_kohm;
    c.leak_w_eff = 0.5 * (t.stack_factor_off * 3.0 * wp + t.stack_factor_off * 6.0);
    return c;
}

Cell makeOai22(const Tech& t) {
    Cell c = makeOai21(t);
    c.name = "OAI22";
    c.fn = CellFn::Oai22;
    c.n_inputs = 4;
    c.xtors.clear();
    const double wp = 2.0 * t.mobility_ratio;
    for (int pin = 0; pin < 4; ++pin) {
        c.xtors.push_back(Xtor{true, wp, pin, pin < 2});
        c.xtors.push_back(Xtor{false, 2.0, pin, pin == 0 || pin == 2});
    }
    c.r_out_kohm = t.r_on_n_kohm;
    c.leak_w_eff = 0.5 * (t.stack_factor_off * 4.0 * wp + t.stack_factor_off * 8.0);
    return c;
}

// Restoring transmission-gate MUX2 (select inverter + 2 TGs + output inverter).
Cell makeMux2(const Tech& t) {
    Cell c;
    c.name = "MUX2";
    c.fn = CellFn::Mux2;
    c.n_inputs = 3; // a, b, s
    addPair(c.xtors, 1.5, 1.5, 0, false); // TG for a (gate caps modelled on data pins)
    addPair(c.xtors, 1.5, 1.5, 1, false); // TG for b
    addPair(c.xtors, t.mobility_ratio, 1.0, 2, false); // select inverter
    addPair(c.xtors, 2.0 * t.mobility_ratio, 2.0, -1, true); // output inverter
    c.r_out_kohm = t.r_on_n_kohm / 2.0;
    c.leak_w_eff = 0.5 * (3.0 + t.mobility_ratio + 1.0 + 2.0 * (t.mobility_ratio + 1.0));
    c.c_internal_ff = t.gateCapFf(2.0 * (t.mobility_ratio + 1.0)) + t.diffCapFf(6.0);
    return c;
}

// Master-slave DFF: 2 latches (TG + cross-coupled inverters each) + local
// clock inverter + output drive. ~24 devices.
Cell makeDff(const Tech& t, bool scan) {
    Cell c;
    c.name = scan ? "SDFF" : "DFF";
    c.fn = scan ? CellFn::Sdff : CellFn::Dff;
    c.n_inputs = scan ? 3 : 1; // D (+ SI, SE for scan)
    const double tg = 1.5;
    // Master latch.
    addPair(c.xtors, tg, tg, 0, false);              // input TG (D pin load)
    addPair(c.xtors, t.mobility_ratio, 1.0, -1, false); // fwd inv
    addPair(c.xtors, 1.0, 1.0, -1, false);           // keeper inv
    addPair(c.xtors, 1.0, 1.0, -1, false);           // keeper TG
    // Slave latch.
    addPair(c.xtors, tg, tg, -1, false);
    addPair(c.xtors, t.mobility_ratio, 1.0, -1, false);
    addPair(c.xtors, 1.0, 1.0, -1, false);
    addPair(c.xtors, 1.0, 1.0, -1, false);
    // Clock inverters (local CKB generation).
    addPair(c.xtors, t.mobility_ratio, 1.0, -1, false);
    addPair(c.xtors, t.mobility_ratio, 1.0, -1, false);
    // Output drive inverter.
    addPair(c.xtors, 2.0 * t.mobility_ratio, 2.0, -1, true);
    if (scan) {
        // Scan-input mux: 2 TGs + select inverter (SI = pin 1, SE = pin 2).
        addPair(c.xtors, tg, tg, 1, false);
        addPair(c.xtors, tg, tg, 2, false);
        addPair(c.xtors, t.mobility_ratio, 1.0, 2, false);
    }
    c.r_out_kohm = t.r_on_n_kohm / 2.0;
    double total = 0.0;
    for (const Xtor& x : c.xtors) total += x.w_units;
    c.leak_w_eff = 0.35 * total; // internal stacks reduce average leakage
    // Internal nodes that toggle on a clocked capture: master+slave+clock.
    c.c_internal_ff = t.gateCapFf(4.0 * (t.mobility_ratio + 1.0)) + t.diffCapFf(8.0);
    return c;
}

} // namespace

Library makeDefaultLibrary(const Tech& tech) {
    Library lib(tech);
    lib.add(makeInv(tech, "NOT1", 1.0));
    lib.add(makeBuf(tech, "BUF1", 2.0));
    for (int n = 2; n <= 4; ++n) lib.add(makeNand(tech, n));
    for (int n = 2; n <= 4; ++n) lib.add(makeNor(tech, n));
    for (int n = 2; n <= 4; ++n) lib.add(makeAndOr(tech, CellFn::And, n));
    for (int n = 2; n <= 4; ++n) lib.add(makeAndOr(tech, CellFn::Or, n));
    lib.add(makeXor(tech, CellFn::Xor));
    lib.add(makeXor(tech, CellFn::Xnor));
    lib.add(makeAoi21(tech));
    lib.add(makeAoi22(tech));
    lib.add(makeOai21(tech));
    lib.add(makeOai22(tech));
    lib.add(makeMux2(tech));
    lib.add(makeDff(tech, false));
    lib.add(makeDff(tech, true));
    return lib;
}

} // namespace flh
