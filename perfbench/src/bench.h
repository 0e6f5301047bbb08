/**
 * @file
 * What every workload shares: the run options, the result it hands
 * back to main(), the seeded generator, and clock helpers.
 */
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "spans.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
microsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

inline double
secondsSince(Clock::time_point a)
{
    return std::chrono::duration<double>(Clock::now() - a).count();
}

/** Peak resident set of this process, in MiB. */
inline double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/** Command-line options of one benchmark run. */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Path of examples/programs/equalizer.str (serve_warm). */
    std::string equalizerPath;
    /** Private, initially empty native object cache for this run. */
    std::string cacheDir;
    /** Where the traced run writes its Chrome trace (may be empty). */
    std::string traceOut;
};

/** One named metric value with its unit. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload reports back to main(). */
struct RunResult {
    /** Operations (requests or windows) attempted and failed; a
     *  failure is a typed error, a fault or an output mismatch. */
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
};

/** Seeded generator: the same seed gives the same inputs. */
class Rng {
  public:
    explicit Rng(std::uint64_t seed) : gen_(seed) {}

    /** Uniform integer in [0, n). */
    std::uint64_t below(std::uint64_t n) { return gen_() % n; }

    /** Fisher-Yates shuffle (portable: no std::shuffle). */
    template <typename T>
    void shuffle(std::vector<T>& v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    std::mt19937_64 gen_;
};

/** stream_parallel's programs: the eight where modeled Fig. 13
 *  predicts >= 2.5x at 4c+SIMD, plus MatrixMult, the paper's case
 *  where partitioning should be declined. */
inline const std::vector<std::string> kParallelPrograms = {
    "BitonicSort", "ChannelVocoder", "DCT",     "FFT",       "FilterBank",
    "FMRadio",     "MP3Decoder",     "TDE",     "MatrixMult"};

RunResult runServeWarm(const Options& opt, Spans& spans);
RunResult runStreamNative(const Options& opt, Spans& spans);
RunResult runStreamParallel(const Options& opt, Spans& spans);

} // namespace perfbench
