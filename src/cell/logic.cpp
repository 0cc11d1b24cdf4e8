#include "cell/logic.hpp"

#include <cassert>

namespace flh {

PV pvNot(PV a) noexcept { return {~a.v & ~a.x, a.x}; }

PV pvAnd(PV a, PV b) noexcept {
    // Definite 0 if either side is definite 0; definite 1 if both definite 1.
    const std::uint64_t zero = (~a.v & ~a.x) | (~b.v & ~b.x);
    const std::uint64_t one = (a.v & ~a.x) & (b.v & ~b.x);
    return {one, ~zero & ~one};
}

PV pvOr(PV a, PV b) noexcept {
    const std::uint64_t one = (a.v & ~a.x) | (b.v & ~b.x);
    const std::uint64_t zero = (~a.v & ~a.x) & (~b.v & ~b.x);
    return {one, ~zero & ~one};
}

PV pvXor(PV a, PV b) noexcept {
    const std::uint64_t x = a.x | b.x;
    return {(a.v ^ b.v) & ~x, x};
}

PV pvMux(PV a, PV b, PV s) noexcept {
    // Known select picks a side; unknown select is known only where a == b
    // and both are known.
    const PV pick = pvOr(pvAnd(pvNot(s), a), pvAnd(s, b));
    const std::uint64_t agree = ~a.x & ~b.x & ~(a.v ^ b.v);
    const std::uint64_t v = (pick.v & ~pick.x) | (s.x & agree & a.v);
    const std::uint64_t x = pick.x & ~(s.x & agree);
    return {v & ~x, x};
}

PV evalCell(CellFn fn, std::span<const PV> ins) noexcept {
    switch (fn) {
        case CellFn::Buf:
            assert(ins.size() == 1);
            return ins[0];
        case CellFn::Inv:
            assert(ins.size() == 1);
            return pvNot(ins[0]);
        case CellFn::And:
        case CellFn::Nand: {
            PV r = PV::all(Logic::One);
            for (const PV& in : ins) r = pvAnd(r, in);
            return fn == CellFn::And ? r : pvNot(r);
        }
        case CellFn::Or:
        case CellFn::Nor: {
            PV r = PV::all(Logic::Zero);
            for (const PV& in : ins) r = pvOr(r, in);
            return fn == CellFn::Or ? r : pvNot(r);
        }
        case CellFn::Xor:
        case CellFn::Xnor: {
            PV r = PV::all(Logic::Zero);
            for (const PV& in : ins) r = pvXor(r, in);
            return fn == CellFn::Xor ? r : pvNot(r);
        }
        case CellFn::Aoi21:
            assert(ins.size() == 3);
            return pvNot(pvOr(pvAnd(ins[0], ins[1]), ins[2]));
        case CellFn::Aoi22:
            assert(ins.size() == 4);
            return pvNot(pvOr(pvAnd(ins[0], ins[1]), pvAnd(ins[2], ins[3])));
        case CellFn::Oai21:
            assert(ins.size() == 3);
            return pvNot(pvAnd(pvOr(ins[0], ins[1]), ins[2]));
        case CellFn::Oai22:
            assert(ins.size() == 4);
            return pvNot(pvAnd(pvOr(ins[0], ins[1]), pvOr(ins[2], ins[3])));
        case CellFn::Mux2:
            assert(ins.size() == 3);
            return pvMux(ins[0], ins[1], ins[2]);
        case CellFn::Dff:
        case CellFn::Sdff:
            assert(false && "sequential cell in combinational eval");
            return PV::all(Logic::X);
    }
    return PV::all(Logic::X);
}

Logic evalCellScalar(CellFn fn, std::span<const Logic> ins) noexcept {
    PV packed[kMaxGateArity];
    assert(ins.size() <= kMaxGateArity);
    for (std::size_t i = 0; i < ins.size(); ++i) packed[i] = PV::all(ins[i]);
    const PV r = evalCell(fn, std::span<const PV>(packed, ins.size()));
    return r.get(0);
}

std::uint64_t evalCell2(CellFn fn, std::span<const std::uint64_t> ins) noexcept {
    switch (fn) {
        case CellFn::Buf:
            return ins[0];
        case CellFn::Inv:
            return ~ins[0];
        case CellFn::And:
        case CellFn::Nand: {
            std::uint64_t r = ~0ULL;
            for (std::uint64_t in : ins) r &= in;
            return fn == CellFn::And ? r : ~r;
        }
        case CellFn::Or:
        case CellFn::Nor: {
            std::uint64_t r = 0;
            for (std::uint64_t in : ins) r |= in;
            return fn == CellFn::Or ? r : ~r;
        }
        case CellFn::Xor:
        case CellFn::Xnor: {
            std::uint64_t r = 0;
            for (std::uint64_t in : ins) r ^= in;
            return fn == CellFn::Xor ? r : ~r;
        }
        case CellFn::Aoi21:
            return ~((ins[0] & ins[1]) | ins[2]);
        case CellFn::Aoi22:
            return ~((ins[0] & ins[1]) | (ins[2] & ins[3]));
        case CellFn::Oai21:
            return ~((ins[0] | ins[1]) & ins[2]);
        case CellFn::Oai22:
            return ~((ins[0] | ins[1]) & (ins[2] | ins[3]));
        case CellFn::Mux2:
            return (~ins[2] & ins[0]) | (ins[2] & ins[1]);
        case CellFn::Dff:
        case CellFn::Sdff:
            assert(false && "sequential cell in combinational eval");
            return 0;
    }
    return 0;
}

} // namespace flh
