// AVX-512 build of the packed gate-evaluation kernel: 8 plane words (512
// pattern slots, the full kMaxPackedWords block) per vector op, then one
// 4-word 256-bit step, then scalar words, so the common widths 4 and 5-7
// do not fall through to the scalar tail word by word. Compiled with
// -mavx512f (which implies AVX2) and dispatched to only after the runtime
// cpuid check in logic_block.cpp. Only the foundation subset (512-bit logic
// ops) is used — ternlog fusion is left to the compiler.
#include "cell/logic_block_impl.hpp"

#include <immintrin.h>

namespace flh::detail {

namespace {

struct Avx512Batch {
    static constexpr unsigned kWords = 8;
    __m512i r;

    static Avx512Batch load(const std::uint64_t* p) noexcept {
        return {_mm512_loadu_si512(p)};
    }
    void store(std::uint64_t* p) const noexcept { _mm512_storeu_si512(p, r); }
    static Avx512Batch ones() noexcept { return {_mm512_set1_epi64(-1)}; }
    static Avx512Batch zeros() noexcept { return {_mm512_setzero_si512()}; }

    friend Avx512Batch operator&(Avx512Batch a, Avx512Batch b) noexcept {
        return {_mm512_and_si512(a.r, b.r)};
    }
    friend Avx512Batch operator|(Avx512Batch a, Avx512Batch b) noexcept {
        return {_mm512_or_si512(a.r, b.r)};
    }
    friend Avx512Batch operator^(Avx512Batch a, Avx512Batch b) noexcept {
        return {_mm512_xor_si512(a.r, b.r)};
    }
    friend Avx512Batch operator~(Avx512Batch a) noexcept {
        return {_mm512_xor_si512(a.r, _mm512_set1_epi64(-1))};
    }
};

/// 4-word step between the 8-word body and the scalar tail.
struct Ymm256Batch {
    static constexpr unsigned kWords = 4;
    __m256i r;

    static Ymm256Batch load(const std::uint64_t* p) noexcept {
        return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
    }
    void store(std::uint64_t* p) const noexcept {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), r);
    }
    static Ymm256Batch ones() noexcept { return {_mm256_set1_epi64x(-1)}; }
    static Ymm256Batch zeros() noexcept { return {_mm256_setzero_si256()}; }

    friend Ymm256Batch operator&(Ymm256Batch a, Ymm256Batch b) noexcept {
        return {_mm256_and_si256(a.r, b.r)};
    }
    friend Ymm256Batch operator|(Ymm256Batch a, Ymm256Batch b) noexcept {
        return {_mm256_or_si256(a.r, b.r)};
    }
    friend Ymm256Batch operator^(Ymm256Batch a, Ymm256Batch b) noexcept {
        return {_mm256_xor_si256(a.r, b.r)};
    }
    friend Ymm256Batch operator~(Ymm256Batch a) noexcept {
        return {_mm256_xor_si256(a.r, _mm256_set1_epi64x(-1))};
    }
};

} // namespace

void evalCellBlockAvx512(CellFn fn, const std::uint64_t* const* in_v,
                         const std::uint64_t* const* in_x, std::size_t n_ins,
                         std::uint64_t* out_v, std::uint64_t* out_x,
                         unsigned words) noexcept {
    const unsigned main = words & ~(Avx512Batch::kWords - 1);
    if (main) evalBlockT<Avx512Batch>(fn, in_v, in_x, n_ins, out_v, out_x, 0, main);
    const unsigned mid = words & ~(Ymm256Batch::kWords - 1);
    if (mid != main) evalBlockT<Ymm256Batch>(fn, in_v, in_x, n_ins, out_v, out_x, main, mid);
    if (words != mid)
        evalBlockT<ScalarBatch>(fn, in_v, in_x, n_ins, out_v, out_x, mid, words);
}

} // namespace flh::detail
