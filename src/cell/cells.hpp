// Standard-cell library: logic functions, transistor-level composition,
// area / capacitance / drive data for every cell used by the netlists.
//
// The library mirrors what the paper gets from the LEDA 0.25 um library after
// technology mapping ("the library contains complex gate types e.g. aoi
// (and-or-invert) and mux"), scaled to the 70 nm Tech. Each cell carries its
// transistor list so active area (sum of W*L) and pin capacitances are derived
// from one consistent description rather than free-floating constants.
#pragma once

#include "cell/tech.hpp"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace flh {

/// Logic function of a combinational cell (or the sequential DFF/SDFF).
enum class CellFn : std::uint8_t {
    Buf,
    Inv,
    And,
    Nand,
    Or,
    Nor,
    Xor,
    Xnor,
    Aoi21, // !((a & b) | c)
    Aoi22, // !((a & b) | (c & d))
    Oai21, // !((a | b) & c)
    Oai22, // !((a | b) & (c | d))
    Mux2,  // s ? b : a   (inputs ordered a, b, s)
    Dff,   // D flip-flop (sequential; handled outside combinational eval)
    Sdff,  // scan D flip-flop (DFF + scan input mux)
};

[[nodiscard]] const char* toString(CellFn fn) noexcept;

/// True for the sequential elements (Dff / Sdff).
[[nodiscard]] bool isSequential(CellFn fn) noexcept;

/// Hard ceiling on combinational gate arity. The simulators evaluate gates
/// into fixed-size input buffers of this many entries, so the netlist layer
/// rejects wider combinational gates at construction time and the `.bench`
/// reader tree-decomposes them instead (bench_io.cpp).
inline constexpr std::size_t kMaxGateArity = 8;

/// A transistor inside a cell. Width is in units of Tech::w_min_um.
/// `input_pin` is the index of the input pin driving its gate terminal, or
/// -1 for devices driven by internal nodes (their gate cap is internal).
/// `at_output` marks devices whose drain sits on the cell output (their
/// diffusion loads the output node).
struct Xtor {
    bool is_pmos = false;
    double w_units = 1.0;
    int input_pin = -1;
    bool at_output = false;
};

/// One library cell.
struct Cell {
    std::string name;
    CellFn fn = CellFn::Inv;
    int n_inputs = 1;
    std::vector<Xtor> xtors;

    // Output drive resistance (kOhm): worst-case of pull-up / pull-down
    // through the cell's series stacks.
    double r_out_kohm = 0.0;

    // Effective leaking width (units) after accounting for series stacks:
    // expected off-current of the cell is i_off * leak_w_eff (averaged over
    // input states).
    double leak_w_eff = 0.0;

    // Internal switched capacitance (fF): cap of nodes inside the cell that
    // toggle when the output toggles (e.g. the internal inverter of a BUF or
    // the master stage of a DFF). Output-node and input-pin caps are
    // accounted separately from the transistor list.
    double c_internal_ff = 0.0;

    /// Active area in um^2 (paper's measure: total transistor W*L).
    [[nodiscard]] double areaUm2(const Tech& t) const noexcept;

    /// Input capacitance of pin `pin` (fF): gate caps of devices on that pin.
    [[nodiscard]] double pinCapFf(const Tech& t, int pin) const noexcept;

    /// Diffusion capacitance the cell itself contributes at its output (fF).
    [[nodiscard]] double outputParasiticFf(const Tech& t) const noexcept;

    /// Average subthreshold leakage power (nW) of the idle cell.
    [[nodiscard]] double leakageNw(const Tech& t) const noexcept;
};

using CellId = std::uint32_t;

/// Immutable library of cells, indexed by id; lookup by function/arity.
class Library {
public:
    explicit Library(Tech tech);

    [[nodiscard]] const Tech& tech() const noexcept { return tech_; }

    /// Add a cell; returns its id. Names must be unique. Tabulates the
    /// cell's pin and output capacitances (Cell::pinCapFf /
    /// outputParasiticFf) for the lookups below.
    CellId add(Cell cell);

    [[nodiscard]] const Cell& cell(CellId id) const { return cells_.at(id); }
    [[nodiscard]] std::size_t size() const noexcept { return cells_.size(); }

    /// Tabulated Cell::pinCapFf of input `pin` (< n_inputs) of cell `id`.
    [[nodiscard]] double pinCapFf(CellId id, int pin) const noexcept {
        return pin_cap_ff_[id][static_cast<std::size_t>(pin)];
    }
    /// Tabulated Cell::outputParasiticFf of cell `id`.
    [[nodiscard]] double outputParasiticFf(CellId id) const noexcept {
        return output_parasitic_ff_[id];
    }

    /// Cell implementing `fn` with `n_inputs` inputs; throws if absent.
    [[nodiscard]] CellId find(CellFn fn, int n_inputs) const;
    [[nodiscard]] bool has(CellFn fn, int n_inputs) const noexcept;

    /// Cell by name; throws if absent.
    [[nodiscard]] CellId findByName(const std::string& name) const;

private:
    Tech tech_;
    std::vector<Cell> cells_;
    std::vector<std::vector<double>> pin_cap_ff_;
    std::vector<double> output_parasitic_ff_;
};

/// Build the default 70 nm-like library with INV/BUF, NAND2-4, NOR2-4,
/// AND2-4, OR2-4, XOR2/XNOR2, AOI21/22, OAI21/22, MUX2, DFF, SDFF.
[[nodiscard]] Library makeDefaultLibrary(const Tech& tech = defaultTech());

} // namespace flh
