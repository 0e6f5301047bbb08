/**
 * @file
 * Order statistics for the benchmark's timings.
 *
 * Every timing is reported as its median, its quartiles and one tail
 * percentile with the sample count. The tail is the highest
 * percentile that still has at least ten samples beyond it, so a
 * p99 is only claimed from 1,000 samples or more.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/** Linear-interpolated quantile of @p sorted at @p q in [0, 1]. */
inline double
quantileSorted(const std::vector<double>& sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/**
 * The highest of p99, p95, p90, p75 and p50 that leaves at least ten
 * of @p n samples beyond it.
 */
inline double
tailPercentile(std::size_t n)
{
    for (double p : {99.0, 95.0, 90.0, 75.0}) {
        if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0)
            return p;
    }
    return 50.0;
}

/** Median, quartiles and one tail percentile of a sample. */
struct Summary {
    std::size_t n = 0;
    double p50 = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
    double tailPct = 50.0;  ///< Which percentile `tail` is.
    double tail = 0.0;
};

/** Summarize @p v, with the tail chosen by tailPercentile(n). */
inline Summary
summarize(std::vector<double> v)
{
    Summary s;
    s.n = v.size();
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    s.p50 = quantileSorted(v, 0.50);
    s.q1 = quantileSorted(v, 0.25);
    s.q3 = quantileSorted(v, 0.75);
    s.tailPct = tailPercentile(v.size());
    s.tail = quantileSorted(v, s.tailPct / 100.0);
    return s;
}

/**
 * The headline figure of per-round samples: the lower quartile of
 * round times, or the upper quartile of round rates. On a shared host
 * each short round can run either at full speed or about a third
 * slower, and the share of slowed rounds changes from minute to
 * minute, so the median flips between the two speeds from run to run.
 * The quartile reads full speed unless three quarters of a run is
 * slowed.
 */
inline double
fullSpeedTime(const std::vector<double>& roundTimes)
{
    return summarize(roundTimes).q1;
}

inline double
fullSpeedRate(const std::vector<double>& roundRates)
{
    return summarize(roundRates).q3;
}

/** Geometric mean of positive values (0 when empty or any <= 0). */
inline double
geomean(const std::vector<double>& v)
{
    if (v.empty())
        return 0.0;
    double logSum = 0.0;
    for (double x : v) {
        if (!(x > 0.0))
            return 0.0;
        logSum += std::log(x);
    }
    return std::exp(logSum / static_cast<double>(v.size()));
}

} // namespace perfbench
