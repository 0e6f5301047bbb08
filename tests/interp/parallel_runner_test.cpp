/**
 * @file
 * Unit tests for the parallel steady-state runtime: deterministic
 * CostSink merging, basic multithreaded execution against the serial
 * runner, producers blocking on full rings, stats reporting, and
 * repeated-run accumulation.
 */
#include "interp/parallel_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "../test_util.h"
#include "benchmarks/suite.h"
#include "machine/machine_desc.h"
#include "support/fault.h"

namespace macross::interp {
namespace {

std::vector<double>
profileActorCycles(const vectorizer::CompiledProgram& p,
                   const machine::MachineDesc& m, int iters = 8)
{
    machine::CostSink cost(m);
    Runner r(p.graph, p.schedule, &cost);
    r.runInit();
    r.runSteady(iters);
    std::vector<double> out(p.graph.actors.size(), 0.0);
    for (const auto& a : p.graph.actors)
        out[a.id] = cost.actorCycles(a.id);
    return out;
}

TEST(CostSinkMerge, AttributedCyclesSumsActorCells)
{
    machine::MachineDesc m = machine::coreI7();
    machine::CostSink s(m);
    s.setCurrentActor(0);
    s.charge(machine::OpClass::IntAlu);
    s.setCurrentActor(2);
    s.charge(machine::OpClass::ScalarLoad, 1, 3);
    EXPECT_EQ(s.attributedCycles(),
              s.actorCycles(0) + s.actorCycles(2));
    EXPECT_EQ(s.attributedCycles(), s.totalCycles());
}

TEST(CostSinkMerge, DisjointUnionIsOrderIndependent)
{
    machine::MachineDesc m = machine::coreI7();
    machine::CostSink a(m);
    a.setCurrentActor(0);
    a.charge(machine::OpClass::IntAlu, 1, 7);
    a.setCurrentActor(3);
    a.charge(machine::OpClass::FpMul, 4, 2);
    machine::CostSink b(m);
    b.setCurrentActor(1);
    b.charge(machine::OpClass::ScalarLoad, 1, 5);
    b.chargeCycles(2.5);

    machine::CostSink ab(m);
    ab.assignDisjointUnion({&a, &b});
    machine::CostSink ba(m);
    ba.assignDisjointUnion({&b, &a});

    EXPECT_EQ(ab.totalCycles(), ba.totalCycles());
    EXPECT_EQ(ab.totalCycles(), ab.attributedCycles());
    for (int id = 0; id < 4; ++id) {
        EXPECT_EQ(ab.actorCycles(id), ba.actorCycles(id));
        EXPECT_EQ(ab.actorClassCycles(id, machine::OpClass::IntAlu),
                  ba.actorClassCycles(id, machine::OpClass::IntAlu));
    }
    const int alu = static_cast<int>(machine::OpClass::IntAlu);
    EXPECT_EQ(ab.classOps()[alu], 7);
    EXPECT_EQ(ab.actorCycles(1), b.actorCycles(1));
}

TEST(CostSinkMerge, OverlappingActorsPanic)
{
    machine::MachineDesc m = machine::coreI7();
    machine::CostSink a(m);
    a.setCurrentActor(1);
    a.charge(machine::OpClass::IntAlu);
    machine::CostSink b(m);
    b.setCurrentActor(1);
    b.charge(machine::OpClass::IntAlu);
    machine::CostSink out(m);
    EXPECT_THROW(out.assignDisjointUnion({&a, &b}), PanicError);
}

TEST(ParallelRunner, MatchesSerialOutputOnTwoThreads)
{
    auto p = vectorizer::compileScalar(benchmarks::makeFmRadio());
    machine::MachineDesc m = machine::coreI7();

    machine::CostSink serialCost(m);
    Runner serial(p.graph, p.schedule, &serialCost);
    serial.runInit();
    serial.runSteady(12);

    auto cycles = profileActorCycles(p, m);
    multicore::Partition part =
        multicore::partitionGreedy(p.graph, p.schedule, cycles, 2);
    machine::CostSink parCost(m);
    ParallelRunner::Options opt;
    opt.batchIterations = 5;  // Exercise batch barriers: 5 + 5 + 2.
    ParallelRunner pr(p.graph, p.schedule, part, &parCost,
                      EngineConfig(ExecEngine::Bytecode), opt);
    pr.runInit();
    pr.runSteady(12);

    testutil::expectSameStream(serial.captured(), pr.captured());
    for (const auto& a : p.graph.actors)
        EXPECT_EQ(serialCost.actorCycles(a.id),
                  parCost.actorCycles(a.id));
    EXPECT_EQ(serialCost.attributedCycles(), parCost.totalCycles());
}

TEST(ParallelRunner, RepeatedRunsAccumulateLikeSerial)
{
    auto p = vectorizer::compileScalar(benchmarks::makeFilterBank());
    machine::MachineDesc m = machine::coreI7();

    machine::CostSink serialCost(m);
    Runner serial(p.graph, p.schedule, &serialCost);
    serial.runInit();
    serial.runSteady(3);
    serial.runSteady(4);

    auto cycles = profileActorCycles(p, m);
    multicore::Partition part =
        multicore::partitionGreedy(p.graph, p.schedule, cycles, 4);
    machine::CostSink parCost(m);
    ParallelRunner pr(p.graph, p.schedule, part, &parCost);
    pr.runInit();
    pr.runSteady(3);
    pr.runSteady(4);

    testutil::expectSameStream(serial.captured(), pr.captured());
    EXPECT_EQ(serialCost.attributedCycles(), parCost.totalCycles());
}

TEST(ParallelRunner, RunUntilCapturedDeliversEnough)
{
    auto p = vectorizer::compileScalar(benchmarks::makeDct());
    machine::MachineDesc m = machine::coreI7();
    auto cycles = profileActorCycles(p, m);
    multicore::Partition part =
        multicore::partitionGreedy(p.graph, p.schedule, cycles, 2);
    ParallelRunner pr(p.graph, p.schedule, part);
    pr.runUntilCaptured(100);
    EXPECT_GE(static_cast<std::int64_t>(pr.captured().size()), 100);
}

TEST(ParallelRunner, StatsReportParallelSection)
{
    auto p = vectorizer::compileScalar(benchmarks::makeFmRadio());
    machine::MachineDesc m = machine::coreI7();
    auto cycles = profileActorCycles(p, m);
    multicore::Partition part =
        multicore::partitionGreedy(p.graph, p.schedule, cycles, 2);
    machine::CostSink cost(m);
    ParallelRunner pr(p.graph, p.schedule, part, &cost);
    pr.runInit();
    pr.runSteady(4);
    pr.setBaselineWallMicros(1000.0);

    json::Value stats = pr.statsToJson();
    ASSERT_TRUE(stats.contains("parallel"));
    const json::Value& par = *stats.find("parallel");
    EXPECT_EQ(par.find("threads")->asInt(), 2);
    EXPECT_EQ(par.find("threadsRequested")->asInt(), 2);
    EXPECT_EQ(par.find("coreLoad")->size(), 2u);
    EXPECT_EQ(par.find("coreOf")->size(), p.graph.actors.size());
    ASSERT_TRUE(par.contains("rings"));
    ASSERT_TRUE(par.contains("measuredSpeedup"));
    EXPECT_GT(par.find("measuredSpeedup")->asDouble(), 0.0);
    // The dispatcher satellite: the VM records which dispatch loop
    // this build runs.
    ASSERT_TRUE(stats.contains("vmDispatcher"));
    std::string d = stats.find("vmDispatcher")->asString();
    EXPECT_EQ(d, vmDispatcherName());
    EXPECT_TRUE(d == "computed-goto" || d == "switch");
}

TEST(ParallelRunner, SingleCoreNeedsNoRings)
{
    auto p = vectorizer::compileScalar(benchmarks::makeFmRadio());
    machine::MachineDesc m = machine::coreI7();
    auto cycles = profileActorCycles(p, m);
    multicore::Partition part =
        multicore::partitionGreedy(p.graph, p.schedule, cycles, 1);
    ParallelRunner pr(p.graph, p.schedule, part);
    pr.runInit();
    pr.runSteady(5);
    json::Value stats = pr.statsToJson();
    // One worker, no cross-core tapes: the rings array is empty.
    EXPECT_EQ(stats.find("parallel")->find("rings")->size(), 0u);
    for (std::size_t i = 0; i < p.graph.tapes.size(); ++i)
        EXPECT_FALSE(pr.runner().tapeAt(static_cast<int>(i))
                         .ringBacked());
}

/**
 * Producers that block on a full ring: rings at their smallest (floor
 * of one slot, one-iteration chunks), one runSteady of 2000 iterations,
 * and the sink's worker held back at its first chunks so every worker
 * upstream of it fills its rings and waits. The output must stay
 * bit-identical to serial on both engines, over both partitioners, at
 * 2 and 4 threads.
 */
TEST(ParallelRunner, BlockedProducersStayBitIdentical)
{
    support::FaultInjector::instance().reset();
    vectorizer::SimdizeOptions opts;
    opts.forceSimdize = true;
    opts.machine = machine::coreI7();
    auto p = vectorizer::macroSimdize(benchmarks::makeFmRadio(), opts);
    constexpr int kIters = 2000;

    Runner serial(p.graph, p.schedule, nullptr,
                  EngineConfig(ExecEngine::Bytecode));
    serial.runInit();
    serial.runSteady(kIters);

    auto cycles = profileActorCycles(p, opts.machine);
    int sink = -1;
    for (const auto& a : p.graph.actors) {
        if (a.outputs.empty() && !a.inputs.empty())
            sink = a.id;
    }
    ASSERT_GE(sink, 0);

    for (ExecEngine engine : {ExecEngine::Bytecode, ExecEngine::Native})
    for (const testutil::Partitioner& pt : testutil::kPartitioners)
    for (int threads : {2, 4}) {
        SCOPED_TRACE(std::string(toString(engine)) + ", " + pt.name +
                     ", " + std::to_string(threads) + " threads");
        multicore::Partition part =
            pt.fn(p.graph, p.schedule, cycles, threads);
        ASSERT_GT(part.cores, 1);

        const std::int64_t sinkWorker = part.coreOf[sink];
        auto held = std::make_shared<std::atomic<int>>(0);
        support::FaultInjector::instance().arm(
            "parallel.worker.batch",
            [sinkWorker, held](std::int64_t* worker) {
                if (*worker == sinkWorker && held->fetch_add(1) < 3)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(5));
            });

        EngineConfig config(engine);
        config.simd.laneWidth = 4;
        config.ringCapacity = 1;
        ParallelRunner::Options opt;
        opt.batchIterations = 1;
        ParallelRunner pr(p.graph, p.schedule, part, nullptr, config,
                          opt);
        pr.runInit();
        pr.runSteady(kIters);
        support::FaultInjector::instance().reset();

        EXPECT_FALSE(pr.degradedToSerial());
        EXPECT_EQ(held->load(), kIters);
        testutil::expectSameStream(serial.captured(), pr.captured());
    }
}

TEST(ParallelRunner, RejectsBadPartition)
{
    auto p = vectorizer::compileScalar(benchmarks::makeFmRadio());
    multicore::Partition part;
    part.cores = 2;
    part.coreOf.assign(p.graph.actors.size() - 1, 0);  // Too short.
    part.coreLoad.assign(2, 0.0);
    EXPECT_THROW(ParallelRunner(p.graph, p.schedule, part),
                 FatalError);
}

} // namespace
} // namespace macross::interp
