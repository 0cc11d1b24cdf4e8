#include "util/rng.hpp"

#include <cassert>
#include <cmath>

namespace flh {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed) noexcept {
    std::uint64_t x = seed;
    for (auto& s : s_) s = splitmix64(x);
    // Avoid the all-zero state (cannot occur from splitmix64 in practice,
    // but the generator's one forbidden state costs one branch to exclude).
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::below(std::uint64_t bound) noexcept {
    assert(bound > 0);
    // Rejection sampling to remove modulo bias.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold) return r % bound;
    }
}

int Rng::range(int lo, int hi) noexcept {
    assert(lo <= hi);
    const auto span = static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    return lo + static_cast<int>(below(span));
}

double Rng::uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) noexcept {
    return uniform() < p;
}

std::uint64_t Rng::bernoulliMask(double p) noexcept {
    if (p >= 1.0) return ~0ULL;
    if (p <= 0.0) return 0;
    // chance(p) is (next() >> 11) * 2^-53 < p. Scaling both sides by 2^53
    // is exact (the draw is below 2^53, ldexp only moves the exponent), and
    // an integer k is below x exactly when it is below ceil(x). A NaN p
    // gives threshold 0, failing every trial like chance(NaN).
    const double x = std::ceil(std::ldexp(p, 53));
    const std::uint64_t threshold = x > 0.0 ? static_cast<std::uint64_t>(x) : 0;
    std::uint64_t m = 0;
    for (unsigned i = 0; i < 64; ++i)
        m |= static_cast<std::uint64_t>((next() >> 11) < threshold) << i;
    return m;
}

std::size_t Rng::weighted(const std::vector<double>& weights) noexcept {
    double total = 0.0;
    for (double w : weights) total += (w > 0.0 ? w : 0.0);
    assert(total > 0.0);
    double r = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        const double w = weights[i] > 0.0 ? weights[i] : 0.0;
        if (r < w) return i;
        r -= w;
    }
    return weights.size() - 1;
}

} // namespace flh
