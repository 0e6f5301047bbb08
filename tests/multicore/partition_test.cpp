/**
 * @file
 * Unit tests for the multicore partitioner and estimate.
 */
#include "multicore/partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "support/diagnostics.h"
#include "../test_util.h"
#include "benchmarks/suite.h"

namespace macross::multicore {
namespace {

std::vector<double>
profileActorCycles(const vectorizer::CompiledProgram& p,
                   const machine::MachineDesc& m, int iters = 10)
{
    machine::CostSink cost(m);
    interp::Runner r(p.graph, p.schedule, &cost);
    r.runInit();
    r.runSteady(iters);
    std::vector<double> out(p.graph.actors.size(), 0.0);
    for (const auto& a : p.graph.actors)
        out[a.id] = cost.actorCycles(a.id) / iters;
    return out;
}

TEST(Partition, SingleCoreHasNoComm)
{
    auto p = vectorizer::compileScalar(benchmarks::makeFmRadio());
    auto cycles = profileActorCycles(p, machine::coreI7());
    Partition part = partitionGreedy(p.graph, p.schedule, cycles, 1);
    EXPECT_EQ(part.commWords, 0);
    double total = 0;
    for (double c : cycles)
        total += c;
    EXPECT_NEAR(part.coreLoad[0], total, 1e-6);
}

TEST(Partition, LoadsBalanceAcrossCores)
{
    auto p = vectorizer::compileScalar(benchmarks::makeFilterBank());
    auto cycles = profileActorCycles(p, machine::coreI7());
    Partition part = partitionGreedy(p.graph, p.schedule, cycles, 4);
    double mx = *std::max_element(part.coreLoad.begin(),
                                  part.coreLoad.end());
    double total = 0;
    for (double c : cycles)
        total += c;
    // Bottleneck no worse than 2x the ideal balance for this graph.
    EXPECT_LE(mx, total / 4 * 2.0 + 1e-9);
}

TEST(Partition, EstimateAddsCommunication)
{
    auto p = vectorizer::compileScalar(benchmarks::makeMatrixMult());
    auto cycles = profileActorCycles(p, machine::coreI7());
    Partition part = partitionGreedy(p.graph, p.schedule, cycles, 2);
    MulticoreEstimate withComm =
        estimateMulticore(p.graph, p.schedule, part, 12.0, 50.0);
    MulticoreEstimate freeComm =
        estimateMulticore(p.graph, p.schedule, part, 0.0, 0.0);
    EXPECT_GE(withComm.cycles, freeComm.cycles);
    if (part.commWords > 0) {
        EXPECT_GT(withComm.commCycles, 0.0);
    }
}

TEST(Partition, MoreCoresNeverHurtComputeBound)
{
    auto p = vectorizer::compileScalar(benchmarks::makeMp3Decoder());
    auto cycles = profileActorCycles(p, machine::coreI7());
    Partition p2 = partitionGreedy(p.graph, p.schedule, cycles, 2);
    Partition p4 = partitionGreedy(p.graph, p.schedule, cycles, 4);
    EXPECT_LE(*std::max_element(p4.coreLoad.begin(), p4.coreLoad.end()),
              *std::max_element(p2.coreLoad.begin(),
                                p2.coreLoad.end()) +
                  1e-9);
}

TEST(Partition, SteadyTapeWordsMatchesRateMath)
{
    auto p = vectorizer::compileScalar(benchmarks::makeFmRadio());
    for (std::size_t i = 0; i < p.graph.tapes.size(); ++i) {
        const auto& t = p.graph.tapes[i];
        EXPECT_EQ(steadyTapeWords(p.graph, p.schedule,
                                  static_cast<int>(i)),
                  p.schedule.reps[t.src] *
                      p.graph.actor(t.src).pushRate(t.srcPort));
    }
}

TEST(Partition, EdgeCrossWordsDecomposeCommWords)
{
    auto p = vectorizer::compileScalar(benchmarks::makeFilterBank());
    auto cycles = profileActorCycles(p, machine::coreI7());
    Partition part = partitionGreedy(p.graph, p.schedule, cycles, 4);
    MulticoreEstimate e =
        estimateMulticore(p.graph, p.schedule, part, 12.0, 200.0);
    ASSERT_EQ(e.edgeCrossWords.size(), p.graph.tapes.size());
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < p.graph.tapes.size(); ++i) {
        const auto& t = p.graph.tapes[i];
        if (part.crossing(t)) {
            EXPECT_EQ(e.edgeCrossWords[i],
                      steadyTapeWords(p.graph, p.schedule,
                                      static_cast<int>(i)));
        } else {
            EXPECT_EQ(e.edgeCrossWords[i], 0);
        }
        sum += e.edgeCrossWords[i];
    }
    // The per-edge decomposition re-aggregates to the partition's
    // total crossing traffic.
    EXPECT_EQ(sum, part.commWords);
}

/** Suite programs, scalar and macro-SIMDized, with profiled weights. */
struct Profiled {
    std::string name;
    vectorizer::CompiledProgram p;
    std::vector<double> cycles;
};

std::vector<Profiled>
profiledSuite()
{
    vectorizer::SimdizeOptions opts;
    opts.forceSimdize = true;
    opts.machine = machine::coreI7();
    std::vector<Profiled> out;
    for (const auto& b : benchmarks::standardSuite()) {
        for (bool simd : {false, true}) {
            Profiled x;
            x.name = b.name + (simd ? " macro" : " scalar");
            x.p = simd ? vectorizer::macroSimdize(b.program, opts)
                       : vectorizer::compileScalar(b.program);
            x.cycles = profileActorCycles(x.p, opts.machine, 4);
            out.push_back(std::move(x));
        }
    }
    return out;
}

TEST(Partition, GreedyCrossingTapesRunFromLowerToHigherCore)
{
    for (const Profiled& x : profiledSuite()) {
        for (int cores : {2, 3, 4}) {
            SCOPED_TRACE(x.name + " @ " + std::to_string(cores));
            Partition part = partitionGreedy(x.p.graph, x.p.schedule,
                                             x.cycles, cores);
            for (const auto& t : x.p.graph.tapes)
                EXPECT_LE(part.coreOf[t.src], part.coreOf[t.dst])
                    << "tape " << t.id;
        }
    }
}

TEST(Partition, GreedyUsesAtMostRequestedCoresAndAgreesWithEstimate)
{
    for (const Profiled& x : profiledSuite()) {
        for (int cores : {1, 2, 4}) {
            SCOPED_TRACE(x.name + " @ " + std::to_string(cores));
            Partition part = partitionGreedy(x.p.graph, x.p.schedule,
                                             x.cycles, cores);
            EXPECT_GE(part.cores, 1);
            EXPECT_LE(part.cores, cores);
            EXPECT_EQ(part.requestedCores, cores);
            ASSERT_EQ(part.coreLoad.size(),
                      static_cast<std::size_t>(part.cores));

            // coreLoad is the per-core sum of the weights, and every
            // core used holds at least one actor.
            std::vector<double> load(part.cores, 0.0);
            std::vector<int> actors(part.cores, 0);
            for (const auto& a : x.p.graph.actors) {
                ASSERT_GE(part.coreOf[a.id], 0);
                ASSERT_LT(part.coreOf[a.id], part.cores);
                load[part.coreOf[a.id]] += x.cycles[a.id];
                ++actors[part.coreOf[a.id]];
            }
            for (int c = 0; c < part.cores; ++c) {
                EXPECT_NEAR(part.coreLoad[c], load[c],
                            1e-9 * (1.0 + load[c]));
                EXPECT_GT(actors[c], 0) << "core " << c;
            }

            MulticoreEstimate e = estimateMulticore(
                x.p.graph, x.p.schedule, part, 12.0, 200.0);
            std::int64_t words = 0;
            for (std::int64_t w : e.edgeCrossWords)
                words += w;
            EXPECT_EQ(words, part.commWords);
            EXPECT_EQ(e.maxLoad, *std::max_element(part.coreLoad.begin(),
                                                   part.coreLoad.end()));
            if (part.cores == 1)
                EXPECT_EQ(part.commWords, 0);
        }
    }
}

TEST(Partition, GreedyIsDeterministic)
{
    for (const Profiled& x : profiledSuite()) {
        SCOPED_TRACE(x.name);
        Partition a =
            partitionGreedy(x.p.graph, x.p.schedule, x.cycles, 4);
        Partition b =
            partitionGreedy(x.p.graph, x.p.schedule, x.cycles, 4);
        EXPECT_EQ(a.cores, b.cores);
        EXPECT_EQ(a.coreOf, b.coreOf);
        EXPECT_EQ(a.coreLoad, b.coreLoad);
        EXPECT_EQ(a.commWords, b.commWords);
    }
}

TEST(Partition, GreedyKeepsADominantActorOnOneCore)
{
    // Macro-SIMDized MP3Decoder spends almost all of its cycles in one
    // actor: no cut can take 10% off the bottleneck.
    vectorizer::SimdizeOptions opts;
    opts.forceSimdize = true;
    opts.machine = machine::coreI7();
    auto p = vectorizer::macroSimdize(benchmarks::makeMp3Decoder(), opts);
    auto cycles = profileActorCycles(p, opts.machine);
    const double total =
        std::accumulate(cycles.begin(), cycles.end(), 0.0);
    EXPECT_GT(*std::max_element(cycles.begin(), cycles.end()),
              0.9 * total);
    Partition part = partitionGreedy(p.graph, p.schedule, cycles, 4);
    EXPECT_EQ(part.cores, 1);
    EXPECT_EQ(part.requestedCores, 4);
    EXPECT_EQ(part.commWords, 0);
}

TEST(Partition, GreedySplitsABalancedPipeline)
{
    // Macro-SIMDized FMRadio has no dominant actor: cutting it pays.
    vectorizer::SimdizeOptions opts;
    opts.forceSimdize = true;
    opts.machine = machine::coreI7();
    auto p = vectorizer::macroSimdize(benchmarks::makeFmRadio(), opts);
    auto cycles = profileActorCycles(p, opts.machine);
    Partition part = partitionGreedy(p.graph, p.schedule, cycles, 4);
    EXPECT_GT(part.cores, 1);
}

TEST(Partition, LptUsesEveryRequestedCore)
{
    auto p = vectorizer::compileScalar(benchmarks::makeFilterBank());
    auto cycles = profileActorCycles(p, machine::coreI7());
    Partition part = partitionLpt(p.graph, p.schedule, cycles, 4);
    EXPECT_EQ(part.cores, 4);
    EXPECT_EQ(part.requestedCores, 4);
    std::vector<int> actors(4, 0);
    for (const auto& a : p.graph.actors)
        ++actors[part.coreOf[a.id]];
    for (int n : actors)
        EXPECT_GT(n, 0);
}

TEST(Partition, RejectsBadInputs)
{
    auto p = vectorizer::compileScalar(benchmarks::makeFmRadio());
    std::vector<double> cycles(p.graph.actors.size(), 1.0);
    EXPECT_THROW(partitionGreedy(p.graph, p.schedule, cycles, 0),
                 FatalError);
    EXPECT_THROW(partitionLpt(p.graph, p.schedule, cycles, 0),
                 FatalError);
    cycles.pop_back();
    EXPECT_THROW(partitionGreedy(p.graph, p.schedule, cycles, 2),
                 FatalError);
    EXPECT_THROW(partitionLpt(p.graph, p.schedule, cycles, 2),
                 FatalError);
}

} // namespace
} // namespace macross::multicore
