// Shared order-statistics helpers.
//
// One implementation of the percentile/median math used everywhere a
// tool reports latency or repetition statistics: obs::Histogram
// summaries and benchio's RepStats quartiles. Keeping a single copy makes the rounding rules identical
// across reports, so a p95 printed by one tool is comparable
// digit-for-digit with a p95 printed by another.
#pragma once

#include <cstddef>
#include <vector>

namespace flh::stats {

/// Linear-interpolation percentile over an ascending-sorted range: the
/// fractional rank is p * (n - 1) and the result lerps between the two
/// bracketing samples (NumPy's "linear" convention). p is clamped to
/// [0, 1]; an empty range yields 0.
[[nodiscard]] double percentileSorted(const double* sorted, std::size_t n, double p) noexcept;

[[nodiscard]] inline double percentileSorted(const std::vector<double>& sorted,
                                             double p) noexcept {
    return percentileSorted(sorted.data(), sorted.size(), p);
}

/// Median of an ascending-sorted range. Exactly percentileSorted(.., 0.5):
/// the middle element for odd n, the mean of the middle two for even n —
/// which is also what the halves-method quartiles in RepStats need for
/// their half-range medians.
[[nodiscard]] inline double medianSorted(const double* sorted, std::size_t n) noexcept {
    return percentileSorted(sorted, n, 0.5);
}

[[nodiscard]] inline double medianSorted(const std::vector<double>& sorted) noexcept {
    return medianSorted(sorted.data(), sorted.size());
}

} // namespace flh::stats
