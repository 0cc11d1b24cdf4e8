// Section V: local fanout reduction under a delay constraint.
//
// The paper's algorithm: identify scan flip-flops with high fanout, insert
// two cascaded inverters between the FF output and its fanout gates (never
// on the critical path), and re-synthesize the second inverter into the
// fanout cone where possible; "if a scan flip-flop already has an inverter
// connected to it, we do not need the second inverter". After the transform
// the FF's unique first-level gate is the single inserted inverter, so the
// FLH gating hardware shrinks from k gates to one, at the cost of the
// inverter pair — a win whenever k >= 2 and the displaced paths have slack.
//
// The optimizer only moves fanout pins whose downstream slack covers the
// added buffer delay, so the critical path is provably untouched
// ("maximum circuit delay is kept unaltered").
//
// Cost: the FF order is fixed once, by receiver count on the input netlist.
// STA runs once up front, in full; a rejected FF leaves the netlist, and so
// its timing, unchanged. An accepted move is re-timed by IncrementalSta from
// the three nets it changed (q, stage 1's and stage 2's outputs), and the
// netlist keeps its fanout lists across the edits, so a move costs what it
// changed (counter `sta.retimed_gates`), not a pass over the netlist. A run
// re-times ffs_optimized + 1 times (counter `dft.fanout_opt.retimes`), and
// the last one gives delay_after_ps.
#pragma once

#include "cell/dft_cells.hpp"
#include "netlist/netlist.hpp"

#include <cstdint>
#include <vector>

namespace flh {

struct FanoutOptConfig {
    /// Only consider FFs whose unique first-level fanout is at least this.
    int min_fanout = 2;
    /// Slack safety margin (ps) kept on every displaced path.
    double slack_margin_ps = 2.0;
    /// FLH gating sizing (determines the per-gate saving the transform buys).
    FlhGatingSpec flh{};
};

struct FanoutOptResult {
    std::size_t ffs_optimized = 0;      ///< FFs whose fanout was rebuffered
    std::size_t inverters_added = 0;    ///< INV cells inserted
    std::size_t first_level_before = 0; ///< unique first-level gates before
    std::size_t first_level_after = 0;
    double delay_before_ps = 0.0; ///< base critical delay (must not change)
    double delay_after_ps = 0.0;
};

/// Apply the optimization in place. The netlist must be acyclic and checked;
/// it remains so afterwards.
FanoutOptResult optimizeFanout(Netlist& nl, const FanoutOptConfig& cfg = {});

} // namespace flh
