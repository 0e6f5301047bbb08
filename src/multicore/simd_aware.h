/**
 * @file
 * SIMD-aware multicore scheduling (the Section 5 "Multicore and
 * Macro-SIMDization" study as a library API).
 *
 * Mirrors the paper's scheduler policy: evaluate the scalar program
 * partitioned over N cores, the macro-SIMDized program partitioned
 * over N cores (both with partitionLpt, the paper's naive
 * partitioner), and the macro-SIMDized program on a single core; "if
 * multi-core partitioning removes most of the benefits of the
 * SIMDization and the scheduler has to choose between SIMDization and
 * multi-core execution, it always chooses SIMDization" — i.e. the
 * SIMD variants win ties, and SIMD-on-one-core beats a partitioning
 * whose communication overhead swallows the gain (the paper's
 * MatrixMult case).
 */
#pragma once

#include "graph/stream.h"
#include "multicore/partition.h"
#include "vectorizer/pipeline.h"

namespace macross::multicore {

/** Outcome of SIMD-aware scheduling. */
struct SimdAwareDecision {
    bool simdized = false;       ///< Macro-SIMDization applied.
    int coresUsed = 1;           ///< Cores the chosen plan occupies.
    double cyclesPerElement = 0; ///< Bottleneck cycles per output.
    /** Cycles/element of all candidates, for reporting:
     *  [scalar @ cores, simd @ cores, simd @ 1]. */
    double candidates[3] = {0, 0, 0};
};

/**
 * Choose among {scalar partitioned, SIMDized partitioned, SIMDized
 * single-core} for @p program on @p cores cores.
 */
SimdAwareDecision scheduleSimdAware(
    const graph::StreamPtr& program,
    const vectorizer::SimdizeOptions& opts, int cores,
    const CommModel& comm = {});

} // namespace macross::multicore
