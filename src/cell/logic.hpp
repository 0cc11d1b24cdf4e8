// Three-valued (0/1/X) logic, scalar and 64-way bit-parallel.
//
// The packed representation carries two planes: `v` (value bits) and `x`
// (unknown mask). A slot with x=1 is unknown regardless of its v bit; packed
// operators implement Kleene semantics (a controlling value dominates X).
// The same evaluation routines serve the event-driven simulator, the
// parallel-pattern fault simulator (64 patterns per word), and ATPG
// implication (1 pattern per word).
#pragma once

#include "cell/cells.hpp"

#include <cassert>
#include <cstdint>
#include <span>

namespace flh {

/// Scalar three-valued logic value.
enum class Logic : std::uint8_t { Zero = 0, One = 1, X = 2 };

[[nodiscard]] inline char toChar(Logic v) noexcept {
    switch (v) {
        case Logic::Zero: return '0';
        case Logic::One: return '1';
        case Logic::X: return 'X';
    }
    return '?';
}

[[nodiscard]] inline Logic negate(Logic v) noexcept {
    if (v == Logic::X) return Logic::X;
    return v == Logic::Zero ? Logic::One : Logic::Zero;
}

/// 64 packed three-valued slots.
struct PV {
    std::uint64_t v = 0; ///< value plane (meaningful where x = 0)
    std::uint64_t x = 0; ///< unknown plane

    [[nodiscard]] bool operator==(const PV&) const noexcept = default;

    [[nodiscard]] static PV all(Logic l) noexcept {
        switch (l) {
            case Logic::Zero: return {0, 0};
            case Logic::One: return {~0ULL, 0};
            case Logic::X: return {0, ~0ULL};
        }
        return {0, ~0ULL};
    }

    /// Value of slot `i` as scalar logic. `i` must be < 64: the shift is
    /// undefined behaviour beyond the word, so wider packed blocks address
    /// slots as (word, slot) pairs (PatternSim) and never reach here with a
    /// global slot index.
    [[nodiscard]] Logic get(unsigned i) const noexcept {
        assert(i < 64 && "PV slot index out of range; use (word, slot) addressing");
        const std::uint64_t bit = 1ULL << i;
        if (x & bit) return Logic::X;
        return (v & bit) ? Logic::One : Logic::Zero;
    }

    void set(unsigned i, Logic l) noexcept {
        assert(i < 64 && "PV slot index out of range; use (word, slot) addressing");
        const std::uint64_t bit = 1ULL << i;
        switch (l) {
            case Logic::Zero: v &= ~bit; x &= ~bit; break;
            case Logic::One: v |= bit; x &= ~bit; break;
            case Logic::X: v &= ~bit; x |= bit; break;
        }
    }
};

[[nodiscard]] PV pvNot(PV a) noexcept;
[[nodiscard]] PV pvAnd(PV a, PV b) noexcept;
[[nodiscard]] PV pvOr(PV a, PV b) noexcept;
[[nodiscard]] PV pvXor(PV a, PV b) noexcept;
[[nodiscard]] PV pvMux(PV a, PV b, PV s) noexcept; ///< s ? b : a

/// Evaluate a combinational cell function over packed inputs.
/// `ins` must have the cell's arity. Dff/Sdff are not combinational and
/// must not be passed here.
[[nodiscard]] PV evalCell(CellFn fn, std::span<const PV> ins) noexcept;

/// Scalar convenience wrapper around evalCell.
[[nodiscard]] Logic evalCellScalar(CellFn fn, std::span<const Logic> ins) noexcept;

/// Two-valued fast path: evaluate with plain 64-bit planes (no X tracking).
[[nodiscard]] std::uint64_t evalCell2(CellFn fn, std::span<const std::uint64_t> ins) noexcept;

} // namespace flh
