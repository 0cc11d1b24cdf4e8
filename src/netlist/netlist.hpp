// Gate-level netlist: the structure every analysis and transform operates on.
//
// Sequential elements (DFF/SDFF) are gates like any other, but simulation,
// timing, and test tooling treat their outputs as combinational sources
// (pseudo primary inputs) and their D pins as sinks (pseudo primary
// outputs), which is the standard full-scan view the paper assumes.
#pragma once

#include "cell/cells.hpp"

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace flh {

using NetId = std::uint32_t;
using GateId = std::uint32_t;
inline constexpr std::uint32_t kInvalidId = ~0u;

/// Reference to one input pin of one gate.
struct PinRef {
    GateId gate = kInvalidId;
    int pin = -1;

    [[nodiscard]] bool operator==(const PinRef&) const noexcept = default;
};

struct Net {
    std::string name;
    GateId driver = kInvalidId; ///< kInvalidId for primary inputs
    bool is_pi = false;
};

struct Gate {
    CellId cell = 0;
    CellFn fn = CellFn::Inv;
    std::vector<NetId> inputs;
    NetId output = kInvalidId;
};

class Netlist {
public:
    Netlist(std::string name, const Library& lib);

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    void setName(std::string n) { name_ = std::move(n); }
    [[nodiscard]] const Library& library() const noexcept { return *lib_; }

    // ---- construction -------------------------------------------------
    // addNet, addGate and rewireInput keep already-built fanout lists
    // current (and in canonical order); addGate and rewireInput mark the
    // topological order and levels for a lazy rebuild.
    NetId addNet(const std::string& name);
    NetId addPi(const std::string& name);
    void markPo(NetId net);

    /// Add a gate of function `fn` (cell resolved by arity from the library).
    GateId addGate(CellFn fn, const std::vector<NetId>& inputs, NetId output);

    /// Add a D flip-flop (Q = output net, D = input net).
    GateId addDff(NetId d, NetId q);

    /// Rewire input pin `pin` of `gate` to `net`. Moves the pin between the
    /// two fanout lists in place. Throws std::out_of_range on a bad gate, pin or net.
    void rewireInput(GateId gate, int pin, NetId net);

    /// Replace gate `g` with a new function and input list, keeping its
    /// output net (used by scan insertion: DFF -> SDFF). The sequential /
    /// combinational status of the gate must not change. Invalidates caches.
    void replaceGate(GateId g, CellFn fn, const std::vector<NetId>& inputs);

    // ---- access --------------------------------------------------------
    [[nodiscard]] std::size_t netCount() const noexcept { return nets_.size(); }
    [[nodiscard]] std::size_t gateCount() const noexcept { return gates_.size(); }
    [[nodiscard]] const Net& net(NetId id) const { return nets_.at(id); }
    [[nodiscard]] const Gate& gate(GateId id) const { return gates_.at(id); }
    [[nodiscard]] const std::vector<NetId>& pis() const noexcept { return pis_; }
    [[nodiscard]] const std::vector<NetId>& pos() const noexcept { return pos_; }

    /// Flip-flop gates in scan-chain order.
    [[nodiscard]] const std::vector<GateId>& flipFlops() const noexcept { return ffs_; }

    /// Combinational gates only (everything that is not a DFF/SDFF).
    [[nodiscard]] std::vector<GateId> combGates() const;

    [[nodiscard]] std::optional<NetId> findNet(const std::string& name) const;

    /// Input pins fed by `net` (fanout), in canonical order: ascending gate,
    /// then pin. Built on first use; edits other than replaceGate keep it.
    /// A reference is invalidated by any later addNet, addGate,
    /// rewireInput or replaceGate.
    [[nodiscard]] const std::vector<PinRef>& fanout(NetId net) const;

    /// Combinational gates in topological order (FF outputs and PIs are
    /// sources; FF D-pins and POs are sinks). Throws on combinational loops.
    [[nodiscard]] const std::vector<GateId>& topoOrder() const;

    /// Logic level of each combinational gate (sources at level 1); zero for
    /// flip-flops. Indexed by GateId.
    [[nodiscard]] const std::vector<int>& levels() const;

    /// Maximum combinational logic depth (the paper's "crit-path logic levels").
    [[nodiscard]] int logicDepth() const;

    // ---- derived electrical/summary data --------------------------------
    /// Total active area (um^2): sum of W*L over all cells' transistors.
    [[nodiscard]] double totalAreaUm2() const;

    /// Capacitance on `net` (fF): receiver pin caps + driver output
    /// diffusion + per-fanout wire cap, read from the library's tables.
    [[nodiscard]] double netCapFf(NetId net) const;

    /// The *unique first level gates*: de-duplicated set of combinational
    /// gates directly driven by a flip-flop output (paper Table I column 4).
    [[nodiscard]] std::vector<GateId> uniqueFirstLevelGates() const;

    /// Total FF fanout (paper Table I column 3): sum over FFs of the number
    /// of input pins their Q nets drive.
    [[nodiscard]] std::size_t totalFfFanout() const;

    /// Structural sanity check; throws std::runtime_error on violations.
    void check() const;

    /// Drop all memoized derived data (replaceGate calls it).
    void invalidateCaches() const;

private:
    std::string name_;
    const Library* lib_;
    std::vector<Net> nets_;
    std::vector<Gate> gates_;
    std::vector<NetId> pis_;
    std::vector<NetId> pos_;
    std::vector<GateId> ffs_;
    std::unordered_map<std::string, NetId> by_name_;

    mutable std::vector<std::vector<PinRef>> fanout_;
    mutable std::vector<GateId> topo_;
    mutable std::vector<int> levels_;
    mutable bool fanout_valid_ = false;
    mutable bool topo_valid_ = false;

    void buildFanout() const;
    void buildTopo() const;
};

/// Aggregate statistics used throughout the paper's tables.
struct NetlistStats {
    std::size_t n_pis = 0;
    std::size_t n_pos = 0;
    std::size_t n_ffs = 0;
    std::size_t n_comb_gates = 0;
    std::size_t total_ff_fanout = 0;
    std::size_t unique_first_level = 0;
    int logic_depth = 0;
    double area_um2 = 0.0;

    /// Paper's "Ratio": unique first-level gates per flip-flop.
    [[nodiscard]] double uniqueFanoutRatio() const noexcept {
        return n_ffs ? static_cast<double>(unique_first_level) / static_cast<double>(n_ffs) : 0.0;
    }
};

[[nodiscard]] NetlistStats computeStats(const Netlist& nl);

} // namespace flh
