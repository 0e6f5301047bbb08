/**
 * @file
 * Memory bound of the native sink capture. At every batch barrier the
 * host copies the emitted sink's new lanes into its log and consumes
 * them there (ABI v4 macross_capture_consume), so however long a
 * program runs the emitted sink holds no unexported lanes between
 * batches, and the host log costs 4 bytes per element. Checked on
 * FMRadio (macro+sagu, W=4), serially and over two cores, for N and
 * then 10 N iterations.
 */
#include <gtest/gtest.h>

#include <cstdint>

#include "../test_util.h"
#include "benchmarks/suite.h"
#include "interp/parallel_runner.h"
#include "multicore/partition.h"

namespace macross::interp {
namespace {

constexpr int kBatch = 8;
constexpr int kShortBatches = 4;  ///< N = kShortBatches * kBatch.

vectorizer::CompiledProgram
fmRadioSagu()
{
    vectorizer::SimdizeOptions opts;
    opts.forceSimdize = true;
    opts.enableSagu = true;
    opts.machine = machine::coreI7WithSagu();
    return vectorizer::macroSimdize(benchmarks::makeFmRadio(), opts);
}

EngineConfig
nativeW4()
{
    EngineConfig config(ExecEngine::Native);
    config.simd.laneWidth = 4;
    return config;
}

/**
 * The log after @p batches barriers: the emitted sink holds nothing,
 * and the log's capacity is at most twice its 4-byte lanes.
 */
void
expectBounded(const native::NativeProgram& prog, int batches)
{
    SCOPED_TRACE(std::to_string(batches) + " batches");
    EXPECT_EQ(prog.sinkResidentLanes(), 0u);
    const std::vector<std::uint32_t>& lanes = prog.captured().lanes();
    ASSERT_GT(lanes.size(), 0u);
    EXPECT_LE(lanes.capacity() * sizeof(std::uint32_t),
              2 * sizeof(std::uint32_t) * lanes.size());
}

/** Run @p runner for @p batches batches of kBatch iterations, checking
 *  the bound after each; returns the elements captured. */
template <typename R>
std::size_t
runBounded(R& runner, int batches)
{
    for (int b = 0; b < batches; ++b) {
        runner.runSteady(kBatch);
        const native::NativeProgram* prog = runner.nativeProgram();
        if (!prog) {
            ADD_FAILURE() << "no native program";
            return 0;
        }
        expectBounded(*prog, b + 1);
    }
    return runner.captured().size();
}

TEST(NativeCaptureBound, SerialSinkHoldsNoLanesAcrossBatches)
{
    const vectorizer::CompiledProgram p = fmRadioSagu();
    std::size_t perShortRun = 0;
    for (int batches : {kShortBatches, 10 * kShortBatches}) {
        Runner r(p.graph, p.schedule, nullptr, nativeW4());
        r.runInit();
        ASSERT_NE(r.nativeProgram(), nullptr);
        EXPECT_EQ(r.nativeProgram()->sinkResidentLanes(), 0u);
        const std::size_t initElems = r.captured().size();
        const std::size_t total = runBounded(r, batches);
        if (batches == kShortBatches)
            perShortRun = total - initElems;
        else
            EXPECT_EQ(total - initElems, 10 * perShortRun);

        Runner vm(p.graph, p.schedule, nullptr,
                  EngineConfig(ExecEngine::Bytecode));
        vm.runInit();
        vm.runSteady(batches * kBatch);
        testutil::expectSameStream(vm.captured(), r.captured());
    }
}

TEST(NativeCaptureBound, TwoCoreSinkHoldsNoLanesAcrossBatches)
{
    const vectorizer::CompiledProgram p = fmRadioSagu();
    const machine::MachineDesc m = machine::coreI7WithSagu();
    machine::CostSink cost(m);  // Keeps a reference to m.
    Runner profile(p.graph, p.schedule, &cost,
                   EngineConfig(ExecEngine::Bytecode));
    profile.runInit();
    profile.runSteady(4);
    std::vector<double> weights(p.graph.actors.size());
    for (const auto& a : p.graph.actors)
        weights[a.id] = cost.actorCycles(a.id);
    const multicore::Partition part =
        multicore::partitionLpt(p.graph, p.schedule, weights, 2);
    ASSERT_EQ(part.cores, 2);

    for (int batches : {kShortBatches, 10 * kShortBatches}) {
        ParallelRunner pr(p.graph, p.schedule, part, nullptr,
                          nativeW4());
        pr.runInit();
        runBounded(pr, batches);
        EXPECT_FALSE(pr.degradedToSerial());

        Runner vm(p.graph, p.schedule, nullptr,
                  EngineConfig(ExecEngine::Bytecode));
        vm.runInit();
        vm.runSteady(batches * kBatch);
        testutil::expectSameStream(vm.captured(), pr.captured());
    }
}

} // namespace
} // namespace macross::interp
