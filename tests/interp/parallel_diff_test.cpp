/**
 * @file
 * Thread-count differential tests: the parallel runtime must be
 * indistinguishable from the single-threaded bytecode Runner — the
 * same captured output bits and the same modeled per-actor cycles —
 * at 1, 2, and 4 threads, on every suite benchmark and a battery of
 * random programs, under scalar, macro-SIMDized, and SAGU-transposed
 * configurations, over both partitioners: LPT (every requested core,
 * cyclic core graphs) and the contiguous pipeline partitioner. Small
 * chunks force several chunk-end ring flushes per run so those paths
 * are on trial too.
 */
#include <gtest/gtest.h>

#include "../test_util.h"
#include "benchmarks/random_graph.h"
#include "benchmarks/suite.h"
#include "interp/parallel_runner.h"
#include "multicore/partition.h"

namespace macross::interp {
namespace {

constexpr int kIters = 10;

struct SerialRun {
    CapturedStream out;
    std::vector<double> actorCycles;
    double attributed = 0.0;
};

SerialRun
runSerial(const vectorizer::CompiledProgram& p,
          const machine::MachineDesc& m)
{
    machine::CostSink cost(m);
    Runner r(p.graph, p.schedule, &cost,
             EngineConfig(ExecEngine::Bytecode));
    r.runInit();
    r.runSteady(kIters);
    SerialRun run;
    run.out = r.captured();
    run.actorCycles.resize(p.graph.actors.size());
    for (const auto& a : p.graph.actors)
        run.actorCycles[a.id] = cost.actorCycles(a.id);
    run.attributed = cost.attributedCycles();
    return run;
}

void
expectParallelMatchesSerial(const vectorizer::CompiledProgram& p,
                            const machine::MachineDesc& m)
{
    const SerialRun serial = runSerial(p, m);
    for (const testutil::Partitioner& pt : testutil::kPartitioners)
    for (int threads : {1, 2, 4}) {
        SCOPED_TRACE(std::to_string(threads) + " threads, " + pt.name);
        multicore::Partition part =
            pt.fn(p.graph, p.schedule, serial.actorCycles, threads);
        machine::CostSink cost(m);
        ParallelRunner::Options opt;
        opt.batchIterations = 4;  // 10 iters -> chunks of 4, 4, 2.
        ParallelRunner pr(p.graph, p.schedule, part, &cost,
                          EngineConfig(ExecEngine::Bytecode), opt);
        pr.runInit();
        pr.runSteady(kIters);

        testutil::expectSameStream(serial.out, pr.captured());
        for (const auto& a : p.graph.actors)
            EXPECT_EQ(serial.actorCycles[a.id],
                      cost.actorCycles(a.id))
                << "actor " << a.id << " (" << a.name << ")";
        EXPECT_EQ(serial.attributed, pr.totalCycles());
    }
}

struct Config {
    const char* name;
    bool simdize;
    bool sagu;
};

const Config kConfigs[] = {
    {"scalar", false, false},
    {"macro", true, false},
    {"macro+sagu", true, true},
};

void
expectParallelMatchesUnder(const graph::StreamPtr& program,
                           const Config& cfg)
{
    machine::MachineDesc m =
        cfg.sagu ? machine::coreI7WithSagu() : machine::coreI7();
    if (!cfg.simdize) {
        expectParallelMatchesSerial(vectorizer::compileScalar(program),
                                    m);
        return;
    }
    vectorizer::SimdizeOptions opts;
    opts.forceSimdize = true;
    opts.enableSagu = cfg.sagu;
    opts.machine = m;
    expectParallelMatchesSerial(vectorizer::macroSimdize(program, opts),
                                m);
}

class SuiteParallelDiff
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SuiteParallelDiff, ParallelMatchesSerialAtAllThreadCounts)
{
    auto [benchIdx, cfgIdx] = GetParam();
    auto suite = benchmarks::standardSuite();
    ASSERT_LT(static_cast<std::size_t>(benchIdx), suite.size());
    const auto& bench = suite[benchIdx];
    const Config& cfg = kConfigs[cfgIdx];
    SCOPED_TRACE(bench.name + std::string(" / ") + cfg.name);
    expectParallelMatchesUnder(bench.program, cfg);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarksAllConfigs, SuiteParallelDiff,
    ::testing::Combine(::testing::Range(0, 12),
                       ::testing::Range(0, 3)),
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

class RandomParallelDiff
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RandomParallelDiff, ParallelMatchesSerialAtAllThreadCounts)
{
    auto [seedIdx, cfgIdx] = GetParam();
    std::uint64_t seed = 9000 + seedIdx;
    const Config& cfg = kConfigs[cfgIdx];
    SCOPED_TRACE("seed " + std::to_string(seed) + " / " + cfg.name);
    expectParallelMatchesUnder(benchmarks::randomProgram(seed), cfg);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomParallelDiff,
                         ::testing::Combine(::testing::Range(0, 8),
                                            ::testing::Range(0, 3)));

} // namespace
} // namespace macross::interp
