// Deterministic pseudo-random number generation for reproducible experiments.
//
// All stochastic parts of the library (synthetic circuit generation, random
// test vectors, random-fill in ATPG) draw from Rng so a given seed always
// reproduces the same circuits, vectors, and therefore the same tables.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace flh {

/// xoshiro256** PRNG seeded via SplitMix64.
///
/// Chosen over std::mt19937 because its output sequence is specified here,
/// in-repo, and therefore stable across standard library implementations.
class Rng {
public:
    explicit Rng(std::uint64_t seed) noexcept;

    /// Uniform 64-bit value.
    std::uint64_t next() noexcept {
        const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);
        return result;
    }

    /// Uniform value in [0, bound). bound must be > 0.
    std::uint64_t below(std::uint64_t bound) noexcept;

    /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
    int range(int lo, int hi) noexcept;

    /// Uniform double in [0, 1).
    double uniform() noexcept;

    /// Bernoulli trial with probability p of returning true.
    bool chance(double p) noexcept;

    /// 64 Bernoulli trials as a mask. For p in (0, 1), bit i is the result
    /// of the i-th of 64 chance(p) calls, and the generator ends in the same
    /// state as after them; p <= 0 gives 0 and p >= 1 gives ~0 without
    /// drawing.
    std::uint64_t bernoulliMask(double p) noexcept;

    /// Fisher-Yates shuffle.
    template <typename T>
    void shuffle(std::vector<T>& v) noexcept {
        for (std::size_t i = v.size(); i > 1; --i) {
            const std::size_t j = static_cast<std::size_t>(below(i));
            using std::swap;
            swap(v[i - 1], v[j]);
        }
    }

    /// Pick an index in [0, weights.size()) with probability proportional to
    /// weights[i]. Requires at least one strictly positive weight.
    std::size_t weighted(const std::vector<double>& weights) noexcept;

private:
    std::uint64_t s_[4];
};

} // namespace flh
