/**
 * @file
 * Watchdog tests for the parallel runtime: a fault-injected worker
 * stall must be detected within the timeout, shut the pool down
 * cleanly, and degrade to the serial fallback with bit-identical
 * output bytes and modeled cycles at every thread count; an injected
 * worker exception must surface as a structured workerError fault.
 */
#include "interp/parallel_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>

#include "../test_util.h"
#include "benchmarks/suite.h"
#include "machine/machine_desc.h"
#include "support/fault.h"

namespace macross::interp {
namespace {

class WatchdogTest : public ::testing::Test {
  protected:
    void SetUp() override { support::FaultInjector::instance().reset(); }
    void TearDown() override
    {
        support::FaultInjector::instance().reset();
    }
};

std::vector<double>
profileActorCycles(const vectorizer::CompiledProgram& p,
                   const machine::MachineDesc& m)
{
    machine::CostSink cost(m);
    Runner r(p.graph, p.schedule, &cost);
    r.runInit();
    r.runSteady(8);
    std::vector<double> out(p.graph.actors.size(), 0.0);
    for (const auto& a : p.graph.actors)
        out[a.id] = cost.actorCycles(a.id);
    return out;
}

/** Stall worker 0 at the start of its chunk @p chunk, long past the
 *  watchdog (the site's payload is the worker id). */
void
armStallOnChunk(int chunk, int stall_ms)
{
    auto count = std::make_shared<std::atomic<int>>(0);
    support::FaultInjector::instance().arm(
        "parallel.worker.batch",
        [count, chunk, stall_ms](std::int64_t* worker) {
            if (*worker == 0 && count->fetch_add(1) + 1 == chunk)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(stall_ms));
        });
}

void
runStallScenario(int threads)
{
    auto p = vectorizer::compileScalar(benchmarks::makeFmRadio());
    machine::MachineDesc m = machine::coreI7();

    machine::CostSink serialCost(m);
    Runner serial(p.graph, p.schedule, &serialCost);
    serial.runInit();
    serial.runSteady(12);

    auto cycles = profileActorCycles(p, m);
    multicore::Partition part = multicore::partitionLpt(
        p.graph, p.schedule, cycles, threads);
    machine::CostSink parCost(m);
    ParallelRunner::Options opt;
    opt.batchIterations = 4;  // 12 iterations = 3 chunks.
    opt.watchdogMs = 75;
    // Chunk 1 completes, then worker 0 stalls at the start of chunk 2
    // far past the watchdog — so the fallback has a non-empty captured
    // prefix to verify against.
    armStallOnChunk(2, 800);
    ParallelRunner pr(p.graph, p.schedule, part, &parCost,
                      EngineConfig(ExecEngine::Bytecode), opt);
    pr.runInit();
    pr.runSteady(12);

    ASSERT_EQ(pr.faults().size(), 1u);
    const ParallelFault& f = pr.faults()[0];
    EXPECT_EQ(f.kind, "workerStall");
    EXPECT_EQ(f.generation, 2);
    EXPECT_EQ(f.batchIterations, 4);
    // Detection must happen at watchdog granularity, well before the
    // injected 800 ms stall resolves on its own.
    EXPECT_GE(f.detectedAfterMs, 70.0);
    EXPECT_LT(f.detectedAfterMs, 700.0);
    EXPECT_FALSE(f.pendingWorkers.empty());
    EXPECT_TRUE(f.cleanShutdown) << f.message;
    EXPECT_TRUE(f.fallbackUsed);
    EXPECT_TRUE(f.fallbackVerified) << f.message;
    EXPECT_GT(f.verifiedElements, 0);
    EXPECT_TRUE(pr.degradedToSerial());

    // The degraded run's post-conditions are exactly a healthy run's:
    // bit-identical output bytes and modeled cycles.
    testutil::expectSameStream(serial.captured(), pr.captured());
    for (const auto& a : p.graph.actors)
        EXPECT_EQ(serialCost.actorCycles(a.id),
                  parCost.actorCycles(a.id));
    EXPECT_DOUBLE_EQ(serialCost.totalCycles(), parCost.totalCycles());

    // Continuing after degradation stays serial and keeps agreeing.
    serial.runSteady(5);
    pr.runSteady(5);
    testutil::expectSameStream(serial.captured(), pr.captured());
    EXPECT_DOUBLE_EQ(serialCost.totalCycles(), parCost.totalCycles());

    // The fault is reported under run.stats.parallel.faults.
    json::Value stats = pr.statsToJson();
    const json::Value& par = *stats.find("parallel");
    EXPECT_TRUE(par.find("degradedToSerial")->asBool());
    ASSERT_EQ(par.find("faults")->size(), 1u);
    const json::Value& jf = par.find("faults")->at(0);
    EXPECT_EQ(jf.find("kind")->asString(), "workerStall");
    EXPECT_TRUE(jf.find("fallbackVerified")->asBool());
}

TEST_F(WatchdogTest, StallDetectedAndFallbackIdenticalOneThread)
{
    runStallScenario(1);
}

TEST_F(WatchdogTest, StallDetectedAndFallbackIdenticalTwoThreads)
{
    runStallScenario(2);
}

TEST_F(WatchdogTest, StallDetectedAndFallbackIdenticalFourThreads)
{
    runStallScenario(4);
}

TEST_F(WatchdogTest, WorkerExceptionBecomesStructuredFault)
{
    auto p = vectorizer::compileScalar(benchmarks::makeFmRadio());
    machine::MachineDesc m = machine::coreI7();
    auto cycles = profileActorCycles(p, m);
    multicore::Partition part =
        multicore::partitionLpt(p.graph, p.schedule, cycles, 2);
    ParallelRunner::Options opt;
    opt.watchdogMs = 2000;
    // Every worker's first chunk throws: the dispatch wakes on the
    // first error, so detection takes the workerError path rather
    // than the stall timeout.
    support::FaultInjector::instance().arm(
        "parallel.worker.batch",
        [](std::int64_t*) {
            throw std::runtime_error("injected worker failure");
        });
    machine::CostSink parCost(m);
    ParallelRunner pr(p.graph, p.schedule, part, &parCost,
                      EngineConfig(ExecEngine::Bytecode), opt);
    pr.runInit();
    pr.runSteady(6);

    ASSERT_EQ(pr.faults().size(), 1u);
    const ParallelFault& f = pr.faults()[0];
    EXPECT_EQ(f.kind, "workerError");
    EXPECT_NE(f.message.find("injected worker failure"),
              std::string::npos);
    EXPECT_TRUE(f.fallbackUsed);
    EXPECT_TRUE(pr.degradedToSerial());

    machine::CostSink serialCost(m);
    Runner serial(p.graph, p.schedule, &serialCost);
    serial.runInit();
    serial.runSteady(6);
    testutil::expectSameStream(serial.captured(), pr.captured());
    EXPECT_DOUBLE_EQ(serialCost.totalCycles(), parCost.totalCycles());
}

TEST_F(WatchdogTest, NoWatchdogRethrowsWorkerException)
{
    auto p = vectorizer::compileScalar(benchmarks::makeFmRadio());
    machine::MachineDesc m = machine::coreI7();
    auto cycles = profileActorCycles(p, m);
    multicore::Partition part =
        multicore::partitionLpt(p.graph, p.schedule, cycles, 2);
    support::FaultInjector::instance().arm(
        "parallel.worker.batch",
        [](std::int64_t*) {
            throw std::runtime_error("injected worker failure");
        });
    ParallelRunner pr(p.graph, p.schedule, part);  // watchdogMs = 0.
    pr.runInit();
    EXPECT_THROW(pr.runSteady(6), std::runtime_error);
}

/**
 * The watchdog and serial fallback must work identically when the
 * workers drive emitted native partitions instead of the bytecode VM:
 * a stalled worker's peers block inside emitted ring waits, the
 * abort flag makes those waits panic out through the emitted frames,
 * and the run replays through the whole-program serial native engine
 * with a bit-identical stream and a rebuilt cost sink (native runs
 * model no cycles, so both sinks agree on the zero profile).
 */
void
runNativeStallScenario(int threads)
{
    vectorizer::SimdizeOptions sopts;
    sopts.forceSimdize = true;
    sopts.machine = machine::coreI7();
    auto p = vectorizer::macroSimdize(benchmarks::makeFmRadio(), sopts);
    machine::MachineDesc m = machine::coreI7();

    EngineConfig config(ExecEngine::Native);
    config.simd.laneWidth = 4;

    machine::CostSink serialCost(m);
    Runner serial(p.graph, p.schedule, &serialCost, config);
    serial.runInit();
    serial.runSteady(12);

    auto cycles = profileActorCycles(p, m);
    multicore::Partition part = multicore::partitionLpt(
        p.graph, p.schedule, cycles, threads);
    machine::CostSink parCost(m);
    ParallelRunner::Options opt;
    opt.batchIterations = 4;  // 12 iterations = 3 chunks.
    opt.watchdogMs = 75;
    armStallOnChunk(2, 800);
    ParallelRunner pr(p.graph, p.schedule, part, &parCost, config,
                      opt);
    pr.runInit();
    pr.runSteady(12);

    ASSERT_EQ(pr.faults().size(), 1u);
    const ParallelFault& f = pr.faults()[0];
    EXPECT_EQ(f.kind, "workerStall");
    EXPECT_EQ(f.generation, 2);
    EXPECT_TRUE(f.cleanShutdown) << f.message;
    EXPECT_TRUE(f.fallbackUsed);
    EXPECT_TRUE(f.fallbackVerified) << f.message;
    EXPECT_GT(f.verifiedElements, 0);
    EXPECT_TRUE(pr.degradedToSerial());

    testutil::expectSameStream(serial.captured(), pr.captured());
    EXPECT_DOUBLE_EQ(serialCost.totalCycles(), parCost.totalCycles());

    // Continuing after degradation stays serial-native and agrees.
    serial.runSteady(5);
    pr.runSteady(5);
    testutil::expectSameStream(serial.captured(), pr.captured());

    json::Value stats = pr.statsToJson();
    EXPECT_EQ(stats.find("engine")->asString(), "native");
    const json::Value& par = *stats.find("parallel");
    EXPECT_TRUE(par.find("degradedToSerial")->asBool());
    ASSERT_EQ(par.find("faults")->size(), 1u);
    EXPECT_TRUE(
        par.find("faults")->at(0).find("fallbackVerified")->asBool());
}

TEST_F(WatchdogTest, NativeStallFallsBackIdenticalTwoThreads)
{
    runNativeStallScenario(2);
}

TEST_F(WatchdogTest, NativeStallFallsBackIdenticalFourThreads)
{
    runNativeStallScenario(4);
}

TEST_F(WatchdogTest, HealthyRunReportsNoFaults)
{
    auto p = vectorizer::compileScalar(benchmarks::makeFmRadio());
    machine::MachineDesc m = machine::coreI7();
    auto cycles = profileActorCycles(p, m);
    multicore::Partition part =
        multicore::partitionLpt(p.graph, p.schedule, cycles, 2);
    ParallelRunner::Options opt;
    opt.watchdogMs = 5000;  // Generous: must never fire.
    ParallelRunner pr(p.graph, p.schedule, part, nullptr,
                      EngineConfig(ExecEngine::Bytecode), opt);
    pr.runInit();
    pr.runSteady(8);
    EXPECT_TRUE(pr.faults().empty());
    EXPECT_FALSE(pr.degradedToSerial());
    json::Value stats = pr.statsToJson();
    EXPECT_EQ(stats.find("parallel")->find("faults")->size(), 0u);
    EXPECT_FALSE(
        stats.find("parallel")->find("degradedToSerial")->asBool());
}

} // namespace
} // namespace macross::interp
