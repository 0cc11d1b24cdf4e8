// Word-packed (W x 64 slot) three-valued gate evaluation with runtime SIMD
// dispatch.
//
// This is the cell-level kernel under the event-driven simulator
// (sim/pattern_sim.hpp): every net carries W 64-bit words per plane (value
// and unknown), so one gate evaluation grades W*64 patterns. The Kleene
// formulas are identical to the 1-word ops in logic.hpp; only the word
// count differs. Three kernel builds exist — portable scalar, AVX2
// (4 words / 256 bits per step), and AVX-512 (8 words / 512 bits) — and the
// best one the build *and* the CPU support is selected once at startup.
// Tests and benchmarks can pin a lower level with setSimdLevel to compare
// kernels on the same machine.
#pragma once

#include "cell/logic.hpp"

namespace flh {

/// Maximum words per packed block: 8 words = 512 patterns per pass, one full
/// AVX-512 register per plane. PatternSim and FaultSimOptions::words are
/// clamped to this.
inline constexpr unsigned kMaxPackedWords = 8;

/// Kernel instruction sets, in increasing width.
enum class SimdLevel : std::uint8_t { Scalar = 0, Avx2 = 1, Avx512 = 2 };

[[nodiscard]] const char* toString(SimdLevel l) noexcept;

/// Best level this binary was built with *and* the running CPU supports.
[[nodiscard]] SimdLevel detectedSimdLevel() noexcept;

/// The level evalCellBlock currently dispatches to (defaults to
/// detectedSimdLevel()).
[[nodiscard]] SimdLevel activeSimdLevel() noexcept;

/// Pin the dispatch level (clamped to detectedSimdLevel()); returns the
/// level actually installed. Not safe concurrently with evalCellBlock —
/// intended for tests and benchmark setup only.
SimdLevel setSimdLevel(SimdLevel l) noexcept;

/// Evaluate a combinational cell over packed planes, `words` 64-bit words
/// per plane. in_v[i] / in_x[i] point at input i's value / unknown planes;
/// the result is written to out_v / out_x. The output planes must not alias
/// any input plane. `n_ins` must be the cell's arity (<= kMaxGateArity) and
/// `words` in [1, kMaxPackedWords]. Dff/Sdff must not be passed here.
///
/// Slot semantics are bit-identical to evalCell on each word:
///   evalCellBlock(fn, ..., W)[w] == evalCell(fn, ins[w]) for every w.
void evalCellBlock(CellFn fn, const std::uint64_t* const* in_v,
                   const std::uint64_t* const* in_x, std::size_t n_ins,
                   std::uint64_t* out_v, std::uint64_t* out_x, unsigned words) noexcept;

/// Signature shared by every packed kernel (same contract as evalCellBlock).
using BlockKernelFn = void (*)(CellFn, const std::uint64_t* const*,
                               const std::uint64_t* const*, std::size_t, std::uint64_t*,
                               std::uint64_t*, unsigned) noexcept;

/// The kernel evalCellBlock currently dispatches to. Hot loops
/// (PatternSim::propagate) resolve this once per pass so each gate
/// evaluation is a call through a loop-invariant pointer instead of
/// re-reading the dispatch table per gate.
[[nodiscard]] BlockKernelFn activeBlockKernel() noexcept;

namespace detail {

/// One kernel per SimdLevel, same contract as evalCellBlock. The scalar
/// kernel always exists; the wider ones exist when the toolchain could
/// build them (FLH_HAVE_AVX2 / FLH_HAVE_AVX512 from CMake) and are only
/// dispatched to after a cpuid check.
void evalCellBlockScalar(CellFn fn, const std::uint64_t* const* in_v,
                         const std::uint64_t* const* in_x, std::size_t n_ins,
                         std::uint64_t* out_v, std::uint64_t* out_x,
                         unsigned words) noexcept;
#if FLH_HAVE_AVX2
void evalCellBlockAvx2(CellFn fn, const std::uint64_t* const* in_v,
                       const std::uint64_t* const* in_x, std::size_t n_ins,
                       std::uint64_t* out_v, std::uint64_t* out_x,
                       unsigned words) noexcept;
#endif
#if FLH_HAVE_AVX512
void evalCellBlockAvx512(CellFn fn, const std::uint64_t* const* in_v,
                         const std::uint64_t* const* in_x, std::size_t n_ins,
                         std::uint64_t* out_v, std::uint64_t* out_x,
                         unsigned words) noexcept;
#endif

} // namespace detail

} // namespace flh
