// Shared implementation of the word-packed gate-evaluation kernels.
//
// Included by logic_block.cpp (scalar), logic_block_avx2.cpp (-mavx2) and
// logic_block_avx512.cpp (-mavx512f); each translation unit instantiates
// evalBlockT with its own Batch type so all three kernels share one set of
// Kleene formulas — the exact formulas of the 1-word ops in logic.cpp, which
// is what makes every kernel bit-identical to evalCell.
//
// A Batch wraps `kWords` consecutive 64-bit plane words and provides the
// bitwise ops; PVB<Batch> pairs a value batch with an unknown batch.
#pragma once

#include "cell/logic_block.hpp"

namespace flh::detail {

/// Portable 1-word batch; also the tail handler for the SIMD kernels.
struct ScalarBatch {
    static constexpr unsigned kWords = 1;
    std::uint64_t r;

    static ScalarBatch load(const std::uint64_t* p) noexcept { return {*p}; }
    void store(std::uint64_t* p) const noexcept { *p = r; }
    static ScalarBatch ones() noexcept { return {~0ULL}; }
    static ScalarBatch zeros() noexcept { return {0}; }

    friend ScalarBatch operator&(ScalarBatch a, ScalarBatch b) noexcept { return {a.r & b.r}; }
    friend ScalarBatch operator|(ScalarBatch a, ScalarBatch b) noexcept { return {a.r | b.r}; }
    friend ScalarBatch operator^(ScalarBatch a, ScalarBatch b) noexcept { return {a.r ^ b.r}; }
    friend ScalarBatch operator~(ScalarBatch a) noexcept { return {~a.r}; }
};

/// Packed three-valued batch: value plane + unknown plane (Kleene).
template <class B>
struct PVB {
    B v, x;
};

template <class B>
[[nodiscard]] inline PVB<B> bNot(PVB<B> a) noexcept {
    return {~a.v & ~a.x, a.x};
}

template <class B>
[[nodiscard]] inline PVB<B> bAnd(PVB<B> a, PVB<B> b) noexcept {
    const B zero = (~a.v & ~a.x) | (~b.v & ~b.x);
    const B one = (a.v & ~a.x) & (b.v & ~b.x);
    return {one, ~zero & ~one};
}

template <class B>
[[nodiscard]] inline PVB<B> bOr(PVB<B> a, PVB<B> b) noexcept {
    const B one = (a.v & ~a.x) | (b.v & ~b.x);
    const B zero = (~a.v & ~a.x) & (~b.v & ~b.x);
    return {one, ~zero & ~one};
}

template <class B>
[[nodiscard]] inline PVB<B> bXor(PVB<B> a, PVB<B> b) noexcept {
    const B x = a.x | b.x;
    return {(a.v ^ b.v) & ~x, x};
}

template <class B>
[[nodiscard]] inline PVB<B> bMux(PVB<B> a, PVB<B> b, PVB<B> s) noexcept {
    // Same derivation as pvMux: known select picks a side; unknown select is
    // known only where both sides are known and agree.
    const PVB<B> pick = bOr(bAnd(bNot(s), a), bAnd(s, b));
    const B agree = ~a.x & ~b.x & ~(a.v ^ b.v);
    const B v = (pick.v & ~pick.x) | (s.x & agree & a.v);
    const B x = pick.x & ~(s.x & agree);
    return {v & ~x, x};
}

/// Evaluate `fn` over plane words [begin, end) in steps of B::kWords.
/// (end - begin) must be a multiple of B::kWords; the per-level kernel
/// drivers peel the remainder off into a ScalarBatch tail.
template <class B>
void evalBlockT(CellFn fn, const std::uint64_t* const* in_v,
                const std::uint64_t* const* in_x, std::size_t n_ins,
                std::uint64_t* out_v, std::uint64_t* out_x, unsigned begin,
                unsigned end) noexcept {
    const auto in = [&](std::size_t i, unsigned w) noexcept -> PVB<B> {
        return {B::load(in_v[i] + w), B::load(in_x[i] + w)};
    };
    for (unsigned w = begin; w < end; w += B::kWords) {
        PVB<B> r{B::zeros(), B::zeros()};
        switch (fn) {
            case CellFn::Buf:
                r = in(0, w);
                break;
            case CellFn::Inv:
                r = bNot(in(0, w));
                break;
            case CellFn::And:
            case CellFn::Nand: {
                // N-ary closed form of the pvAnd accumulation: a slot is
                // definite 1 iff every input is definite 1, definite 0 iff
                // any input is definite 0 (controlling value dominates X).
                B one = B::ones();
                B zero = B::zeros();
                for (std::size_t i = 0; i < n_ins; ++i) {
                    const PVB<B> a = in(i, w);
                    const B known = ~a.x;
                    one = one & a.v & known;
                    zero = zero | (~a.v & known);
                }
                const B x = ~zero & ~one;
                r = (fn == CellFn::And) ? PVB<B>{one, x} : PVB<B>{zero, x};
                break;
            }
            case CellFn::Or:
            case CellFn::Nor: {
                B one = B::zeros();
                B zero = B::ones();
                for (std::size_t i = 0; i < n_ins; ++i) {
                    const PVB<B> a = in(i, w);
                    const B known = ~a.x;
                    one = one | (a.v & known);
                    zero = zero & ~a.v & known;
                }
                const B x = ~zero & ~one;
                r = (fn == CellFn::Or) ? PVB<B>{one, x} : PVB<B>{zero, x};
                break;
            }
            case CellFn::Xor:
            case CellFn::Xnor: {
                B v = B::zeros();
                B x = B::zeros();
                for (std::size_t i = 0; i < n_ins; ++i) {
                    const PVB<B> a = in(i, w);
                    v = v ^ a.v;
                    x = x | a.x;
                }
                r.x = x;
                r.v = (fn == CellFn::Xor ? v : ~v) & ~x;
                break;
            }
            case CellFn::Aoi21:
                r = bNot(bOr(bAnd(in(0, w), in(1, w)), in(2, w)));
                break;
            case CellFn::Aoi22:
                r = bNot(bOr(bAnd(in(0, w), in(1, w)), bAnd(in(2, w), in(3, w))));
                break;
            case CellFn::Oai21:
                r = bNot(bAnd(bOr(in(0, w), in(1, w)), in(2, w)));
                break;
            case CellFn::Oai22:
                r = bNot(bAnd(bOr(in(0, w), in(1, w)), bOr(in(2, w), in(3, w))));
                break;
            case CellFn::Mux2:
                r = bMux(in(0, w), in(1, w), in(2, w));
                break;
            case CellFn::Dff:
            case CellFn::Sdff:
                // Sequential cells never reach the combinational kernel;
                // X output mirrors evalCell's Release behaviour.
                r = PVB<B>{B::zeros(), B::ones()};
                break;
        }
        r.v.store(out_v + w);
        r.x.store(out_x + w);
    }
}

} // namespace flh::detail
