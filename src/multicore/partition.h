/**
 * @file
 * Multicore partitioning (the Section 5 "Multicore and
 * Macro-SIMDization" study).
 *
 * Two partitioners share one result type:
 *
 *   - partitionGreedy, the one the parallel runtimes execute: it cuts
 *     the topological schedule order into contiguous segments, one per
 *     core, choosing the cut points that minimise the modeled
 *     bottleneck (segment compute plus half the per-word cost of every
 *     word crossing its boundary). Every crossing tape then runs from
 *     a lower core to a higher one, so the graph of cores is a
 *     pipeline and each core can run ahead of its consumers. A core is
 *     added only when it cuts the modeled bottleneck by at least 10%,
 *     so a program dominated by one actor stays on one core — the
 *     paper's scheduler likewise declines partitioning that cannot
 *     win (its MatrixMult case).
 *   - partitionLpt, the paper's naive partitioner: longest-processing-
 *     time greedy assignment of actors to cores by profiled cycles,
 *     with inter-core traffic costed per word afterwards. It always
 *     uses every requested core and may interleave a pipeline over
 *     them, so its core graph can have cycles. The modeled estimates
 *     (scheduleSimdAware, fig13's modeled columns) use it, and the
 *     parallel runtimes' tests use it for its exact core count and
 *     cyclic core graphs.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "graph/flat_graph.h"
#include "schedule/steady_state.h"

namespace macross::multicore {

/** Communication model for the multicore estimate and partitioner. */
struct CommModel {
    double perWordCycles = 12.0;
    double syncCycles = 200.0;
};

/** An assignment of actors to cores. */
struct Partition {
    int cores = 1;                 ///< Cores used.
    int requestedCores = 0;        ///< Cores asked for (0 = cores).
    std::vector<int> coreOf;       ///< Per actor id.
    std::vector<double> coreLoad;  ///< Compute cycles per core.
    std::int64_t commWords = 0;    ///< Tape words crossing cores per
                                   ///< steady state.

    /** True when tape @p tape_id connects actors on different cores. */
    bool crossing(const graph::TapeDesc& t) const
    {
        return coreOf[t.src] != coreOf[t.dst];
    }
};

/**
 * Words moved over tape @p tape_id per steady-state iteration
 * (producer firings x push rate; equal to consumer traffic by the
 * rate-match invariant).
 */
std::int64_t steadyTapeWords(const graph::FlatGraph& g,
                             const schedule::Schedule& s, int tape_id);

/**
 * Contiguous, communication-aware partition of @p g over at most
 * @p cores cores, from per-actor steady-state cycle weights (a
 * profiling run). Segment k of the schedule order lands on core k;
 * Partition::cores is the number of segments chosen, which can be
 * fewer than @p cores. Crossing words are costed with the default
 * CommModel, so weights should be cycles per steady iteration. Cost
 * O(cores * n * (n + tapes)).
 */
Partition partitionGreedy(const graph::FlatGraph& g,
                          const schedule::Schedule& s,
                          const std::vector<double>& actor_cycles,
                          int cores);

/**
 * LPT-greedy partition of @p g over exactly @p cores cores using
 * per-actor steady-state cycle weights (the paper's naive
 * partitioner).
 */
Partition partitionLpt(const graph::FlatGraph& g,
                       const schedule::Schedule& s,
                       const std::vector<double>& actor_cycles,
                       int cores);

/** Steady-state cycle estimate for a partitioned execution. */
struct MulticoreEstimate {
    double cycles = 0.0;      ///< Bottleneck core incl. comm.
    double maxLoad = 0.0;     ///< Compute-only bottleneck.
    double commCycles = 0.0;  ///< Total communication cycles.

    /**
     * Words crossing cores per steady iteration, per tape id (zero for
     * intra-core tapes). This is the per-edge decomposition of
     * Partition::commWords; the parallel runner sizes its SPSC rings
     * from it.
     */
    std::vector<std::int64_t> edgeCrossWords;
};

/**
 * Combine partition loads with communication costs: each crossing
 * word costs @p per_word_cycles split between sender and receiver,
 * plus @p sync_cycles of barrier overhead per steady iteration.
 */
MulticoreEstimate estimateMulticore(const graph::FlatGraph& g,
                                    const schedule::Schedule& s,
                                    const Partition& part,
                                    double per_word_cycles,
                                    double sync_cycles);

} // namespace macross::multicore
