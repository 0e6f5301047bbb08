/**
 * @file
 * Differential tests of the parallel native runtime: emitted per-core
 * sub-programs running over SPSC rings (ParallelRunner with
 * ExecEngine::Native) must reproduce both the serial native engine
 * and the bytecode VM bit for bit at 1, 2, and 4 threads, across the
 * whole benchmark suite and random programs, at lane widths
 * W ∈ {1, 4}. W=1 exercises the scalar emitted layer over rings; W=4
 * the true-SIMD layer, including block-granular ring publication on
 * SAGU-transposed crossing tapes (the macro+sagu configuration).
 *
 * The partition weights come from a modeled bytecode profiling run —
 * the same weights any caller of partitionGreedy would use — so the
 * partitions exercised here are the real ones, not synthetic splits:
 * LPT's (every requested core, cyclic core graphs) and the pipeline
 * partitioner's. Small chunks force several emitted
 * flush_tail/flush_head passes per run.
 *
 * Modeled cycles are NOT compared: the native engine measures wall
 * clock instead of accumulating the machine model (DESIGN.md §12).
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "../test_util.h"
#include "benchmarks/random_graph.h"
#include "benchmarks/suite.h"
#include "interp/parallel_runner.h"
#include "multicore/partition.h"

namespace macross::interp {
namespace {

constexpr int kIters = 10;

struct Config {
    const char* name;
    bool simdize;
    bool sagu;
    std::vector<int> widths;  ///< Native lane widths to differentiate.
};

const Config kConfigs[] = {
    {"macro", true, false, {1, 4}},
    {"scalar", false, false, {4}},
    {"macro+sagu", true, true, {4}},
};

void
expectParallelNativeMatchesUnder(const graph::StreamPtr& program,
                                 const Config& cfg)
{
    machine::MachineDesc m =
        cfg.sagu ? machine::coreI7WithSagu() : machine::coreI7();
    vectorizer::CompiledProgram p;
    if (cfg.simdize) {
        vectorizer::SimdizeOptions opts;
        opts.forceSimdize = true;
        opts.enableSagu = cfg.sagu;
        opts.machine = m;
        p = vectorizer::macroSimdize(program, opts);
    } else {
        p = vectorizer::compileScalar(program);
    }

    // Bytecode reference run; its modeled per-actor cycles double as
    // the partition weights.
    machine::CostSink cost(m);
    Runner vm(p.graph, p.schedule, &cost,
              EngineConfig(ExecEngine::Bytecode));
    vm.runInit();
    vm.runSteady(kIters);
    std::vector<double> weights(p.graph.actors.size());
    for (const auto& a : p.graph.actors)
        weights[a.id] = cost.actorCycles(a.id);

    for (int w : cfg.widths) {
        SCOPED_TRACE("W=" + std::to_string(w));
        EngineConfig config(ExecEngine::Native);
        config.simd.laneWidth = w;

        Runner serialNative(p.graph, p.schedule, nullptr, config);
        serialNative.runInit();
        serialNative.runSteady(kIters);
        testutil::expectSameStream(vm.captured(),
                                   serialNative.captured());

        for (const testutil::Partitioner& pt : testutil::kPartitioners)
        for (int threads : {1, 2, 4}) {
            SCOPED_TRACE(std::to_string(threads) + " threads, " +
                         pt.name);
            multicore::Partition part =
                pt.fn(p.graph, p.schedule, weights, threads);
            ParallelRunner::Options opt;
            opt.batchIterations = 4;  // 10 iters -> 3 chunks.
            ParallelRunner pr(p.graph, p.schedule, part, nullptr,
                              config, opt);
            pr.runInit();
            pr.runSteady(kIters);
            EXPECT_FALSE(pr.degradedToSerial());
            testutil::expectSameStream(vm.captured(), pr.captured());
            testutil::expectSameStream(serialNative.captured(),
                                       pr.captured());
        }
    }
}

class SuiteParallelNativeDiff
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SuiteParallelNativeDiff, MatchesSerialNativeAndVm)
{
    auto [benchIdx, cfgIdx] = GetParam();
    auto suite = benchmarks::standardSuite();
    ASSERT_LT(static_cast<std::size_t>(benchIdx), suite.size());
    const auto& bench = suite[benchIdx];
    const Config& cfg = kConfigs[cfgIdx];
    SCOPED_TRACE(bench.name + std::string(" / ") + cfg.name);
    expectParallelNativeMatchesUnder(bench.program, cfg);
}

// The macro configuration runs the full 12-benchmark suite at both
// widths; the scalar and SAGU configurations cover a 4-benchmark
// subset (indices 0-3) to keep host-compile time in check — every
// (benchmark, config, width, thread-count) tuple is its own cached
// shared object.
INSTANTIATE_TEST_SUITE_P(
    AllBenchmarksMacro, SuiteParallelNativeDiff,
    ::testing::Combine(::testing::Range(0, 12),
                       ::testing::Values(0)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
        auto suite = benchmarks::standardSuite();
        std::string n = suite[std::get<0>(info.param)].name;
        for (auto& ch : n) {
            if (ch == '-' || ch == '+')
                ch = '_';
        }
        return n;
    });

INSTANTIATE_TEST_SUITE_P(
    SubsetScalarAndSagu, SuiteParallelNativeDiff,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Range(1, 3)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
        auto suite = benchmarks::standardSuite();
        std::string n = suite[std::get<0>(info.param)].name +
                        std::string("_") +
                        kConfigs[std::get<1>(info.param)].name;
        for (auto& ch : n) {
            if (ch == '-' || ch == '+')
                ch = '_';
        }
        return n;
    });

class RandomParallelNativeDiff : public ::testing::TestWithParam<int> {
};

TEST_P(RandomParallelNativeDiff, MatchesSerialNativeAndVm)
{
    std::uint64_t seed = 9400 + GetParam();
    SCOPED_TRACE("seed " + std::to_string(seed));
    expectParallelNativeMatchesUnder(benchmarks::randomProgram(seed),
                                     kConfigs[0]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomParallelNativeDiff,
                         ::testing::Range(0, 4));

// Stats surface: a healthy parallel native run reports
// engine="native", the build stats, and the per-partition wall-time
// section under parallel.native.
TEST(ParallelNativeStats, ReportsPartitionedSections)
{
    vectorizer::SimdizeOptions opts;
    opts.forceSimdize = true;
    opts.machine = machine::coreI7();
    auto p = vectorizer::macroSimdize(benchmarks::makeFmRadio(), opts);

    const machine::MachineDesc m = machine::coreI7();
    machine::CostSink cost(m);  // Keeps a reference to m.
    Runner vm(p.graph, p.schedule, &cost,
              EngineConfig(ExecEngine::Bytecode));
    vm.runInit();
    vm.runSteady(4);
    std::vector<double> weights(p.graph.actors.size());
    for (const auto& a : p.graph.actors)
        weights[a.id] = cost.actorCycles(a.id);
    multicore::Partition part =
        multicore::partitionLpt(p.graph, p.schedule, weights, 2);

    EngineConfig config(ExecEngine::Native);
    config.simd.laneWidth = 4;
    ParallelRunner pr(p.graph, p.schedule, part, nullptr, config);
    pr.runInit();
    pr.runSteady(kIters);

    ASSERT_NE(pr.nativeStats(), nullptr);
    EXPECT_EQ(pr.nativeStats()->abiVersion, 4);

    json::Value stats = pr.statsToJson();
    EXPECT_EQ(stats.find("engine")->asString(), "native");
    const json::Value* nat = stats.find("native");
    ASSERT_NE(nat, nullptr);
    EXPECT_EQ(nat->find("abiVersion")->asInt(), 4);
    EXPECT_FALSE(nat->find("compiler")->asString().empty());
    // The same build block a serial native run reports.
    ASSERT_NE(nat->find("coalesced"), nullptr);
    EXPECT_FALSE(nat->find("coalesced")->asBool());
    ASSERT_NE(nat->find("steadyWallMicros"), nullptr);
    const json::Value* par = stats.find("parallel");
    ASSERT_NE(par, nullptr);
    EXPECT_EQ(par->find("threads")->asInt(), 2);
    EXPECT_FALSE(par->find("degradedToSerial")->asBool());
    const json::Value* pnat = par->find("native");
    ASSERT_NE(pnat, nullptr);
    EXPECT_EQ(pnat->find("partitions")->asInt(), 2);
    const json::Value* walls = pnat->find("partitionWallMicros");
    ASSERT_EQ(walls->size(), 2u);
    // native.steadyWallMicros is the slowest partition's time.
    EXPECT_GT(nat->find("steadyWallMicros")->asDouble(), 0.0);
    EXPECT_EQ(nat->find("steadyWallMicros")->asDouble(),
              std::max(walls->at(0).asDouble(), walls->at(1).asDouble()));
}

} // namespace
} // namespace macross::interp
