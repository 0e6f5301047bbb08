/**
 * @file
 * Integration tests for the native engine's crash containment: the
 * quarantine negative-cache (one recompile retry, then permanent
 * skip, cleared by a healthy run or a cache reset), the degradation
 * ladder (an injected SIGSEGV inside emitted code degrades the
 * serial Runner — and the ParallelRunner — to the bytecode VM with
 * bit-identical output), the quarantine lift after clean serial and
 * parallel batches, the --degrade off policy (the typed
 * NativeFaultError propagates), and the typed compile faults
 * (wedged-compiler timeout, compiler stderr surfaced in the
 * diagnostic).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <filesystem>
#include <memory>

#include "../test_util.h"
#include "benchmarks/suite.h"
#include "interp/parallel_runner.h"
#include "interp/runner.h"
#include "multicore/partition.h"
#include "native/native_engine.h"
#include "native/native_fault.h"
#include "native/quarantine.h"
#include "support/fault.h"
#include "vectorizer/pipeline.h"

namespace macross::native {
namespace {

namespace fs = std::filesystem;

std::string
freshCacheDir(const std::string& tag)
{
    std::string dir =
        ::testing::TempDir() + "macross_crash_cache_" + tag;
    fs::remove_all(dir);
    return dir;
}

vectorizer::CompiledProgram
smallProgram()
{
    return vectorizer::compileScalar(
        benchmarks::makeRunningExample());
}

/** partitionLpt over exactly two cores, weighted by a modeled
 *  profile. */
multicore::Partition
twoCorePartition(const vectorizer::CompiledProgram& p)
{
    const machine::MachineDesc m = machine::coreI7();
    machine::CostSink cost(m);  // Keeps a reference to m.
    interp::Runner vm(p.graph, p.schedule, &cost,
                      interp::EngineConfig(
                          interp::ExecEngine::Bytecode));
    vm.runInit();
    vm.runSteady(6);
    std::vector<double> weights(p.graph.actors.size());
    for (const auto& a : p.graph.actors)
        weights[a.id] = cost.actorCycles(a.id);
    return multicore::partitionLpt(p.graph, p.schedule, weights, 2);
}

class CrashContainment : public ::testing::Test {
  protected:
    void SetUp() override
    {
        support::FaultInjector::instance().reset();
    }
    void TearDown() override
    {
        support::FaultInjector::instance().reset();
    }

    /**
     * Arm the steady-crash site: raise a real SIGSEGV (caught by the
     * signal guard) on the first fire whose partition payload
     * matches — once only, like the CLI's native-crash injection.
     * @p want_partition >= 0 matches that partition (0 is a serial
     * run's one partition); kAnyPartition matches everything.
     */
    static constexpr long kAnyPartition = -1;
    void armSteadyCrash(long want_partition)
    {
        crashFired_ = false;
        // The signal guard unwinds the crash by siglongjmp, past the
        // injector's local copy of this action: keep the closure
        // trivially copyable and small enough for std::function's
        // inline storage, or LeakSanitizer reports that copy.
        support::FaultInjector::instance().arm(
            "native.steady.crash",
            [this, want_partition](std::int64_t* value) {
                if (want_partition != kAnyPartition &&
                    (!value || *value != want_partition))
                    return;
                if (crashFired_.exchange(true))
                    return;
                raise(SIGSEGV);
            });
    }

    std::atomic<bool> crashFired_{false};
};

TEST_F(CrashContainment, QuarantineSidecarRoundtrip)
{
    std::string dir = freshCacheDir("sidecar");
    fs::create_directories(dir);
    const std::string so = dir + "/entry.so";

    quarantine::Status s = quarantine::status(so);
    EXPECT_EQ(s.failures, 0);
    EXPECT_FALSE(s.distrusted());

    quarantine::recordFailure(so, "first crash");
    s = quarantine::status(so);
    EXPECT_EQ(s.failures, 1);
    EXPECT_TRUE(s.distrusted());
    EXPECT_FALSE(s.quarantined());
    EXPECT_EQ(s.reason, "first crash");

    quarantine::recordFailure(so, "second crash");
    s = quarantine::status(so);
    EXPECT_EQ(s.failures, 2);
    EXPECT_TRUE(s.quarantined());
    EXPECT_EQ(s.reason, "second crash");

    quarantine::clear(so);
    EXPECT_EQ(quarantine::status(so).failures, 0);
    EXPECT_FALSE(fs::exists(quarantine::sidecarPath(so)));
}

TEST_F(CrashContainment, CrashedEntryGetsOneRecompileThenQuarantine)
{
    NativeOptions opts;
    opts.cacheDir = freshCacheDir("retry_then_skip");
    auto p = smallProgram();

    std::string soPath;
    {
        NativeProgram first(p.graph, p.schedule, opts);
        soPath = first.stats().soPath;
    }

    // One recorded crash: the cached object is distrusted. The next
    // construction must skip the hit and recompile — that recompile
    // IS the one retry.
    quarantine::recordFailure(soPath, "recorded test crash");
    {
        NativeProgram second(p.graph, p.schedule, opts);
        EXPECT_FALSE(second.stats().cacheHit);
        EXPECT_EQ(second.stats().quarantineFailures, 1);
        EXPECT_EQ(second.stats().quarantineReason,
                  "recorded test crash");

        // A clean steady batch through the recompiled object clears
        // the sidecar: a one-off corruption does not force a
        // recompile forever.
        second.init();
        second.runSteady(2);
        EXPECT_EQ(quarantine::status(soPath).failures, 0);
    }

    // Two recorded crashes: the source itself is judged poisoned and
    // the entry is permanently skipped with a typed fault.
    quarantine::recordFailure(soPath, "crash one");
    quarantine::recordFailure(soPath, "crash two");
    try {
        NativeProgram third(p.graph, p.schedule, opts);
        FAIL() << "quarantined entry was loaded";
    } catch (const NativeFaultError& e) {
        EXPECT_EQ(e.record().kind, NativeFaultKind::Quarantined);
        EXPECT_EQ(e.record().phase, "cache");
        EXPECT_NE(std::string(e.what()).find("quarantined"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(e.record().message.find("crash two"),
                  std::string::npos)
            << e.record().message;
    }

    // Resetting the cache dir lifts the quarantine: a clean build in
    // a fresh dir runs normally.
    NativeOptions fresh;
    fresh.cacheDir = freshCacheDir("retry_then_skip_reset");
    NativeProgram fourth(p.graph, p.schedule, fresh);
    fourth.init();
    fourth.runSteady(2);
    EXPECT_GT(fourth.capturedSize(), 0u);
}

TEST_F(CrashContainment, InjectedCrashDegradesSerialRunnerBitIdentical)
{
    auto p = smallProgram();

    interp::Runner vm(p.graph, p.schedule, nullptr,
                      interp::EngineConfig(
                          interp::ExecEngine::Bytecode));
    vm.runInit();
    vm.runSteady(5);

    armSteadyCrash(/*want_partition=*/0);
    interp::EngineConfig config(interp::ExecEngine::Native);
    config.native.cacheDir = freshCacheDir("serial_degrade");
    config.degrade = interp::DegradeMode::Auto;
    interp::Runner r(p.graph, p.schedule, nullptr, config);
    r.runInit();
    r.runSteady(5);

    EXPECT_TRUE(r.degradedFromNative());
    EXPECT_TRUE(r.degradeVerified());
    ASSERT_EQ(r.nativeFaults().size(), 1u);
    const NativeFaultRecord& rec = r.nativeFaults()[0];
    EXPECT_EQ(rec.kind, NativeFaultKind::Crash);
    EXPECT_EQ(rec.signal, SIGSEGV);
    EXPECT_EQ(rec.signalName, "SIGSEGV");
    EXPECT_EQ(rec.phase, "steady");
    EXPECT_EQ(rec.partition, 0);

    // The degraded run is the bytecode run, bit for bit.
    testutil::expectSameStream(vm.captured(), r.captured());

    // And the stats tell the whole story.
    json::Value stats = r.statsToJson();
    EXPECT_EQ(stats.find("engine")->asString(), "native");
    const json::Value* nat = stats.find("native");
    ASSERT_NE(nat, nullptr);
    EXPECT_TRUE(nat->find("degraded")->asBool());
    EXPECT_EQ(nat->find("degradedTo")->asString(), "bytecode");
    EXPECT_TRUE(nat->find("degradeVerified")->asBool());
    const json::Value* faults = nat->find("faults");
    ASSERT_NE(faults, nullptr);
    ASSERT_EQ(faults->size(), 1u);
    EXPECT_EQ(faults->at(0).find("kind")->asString(), "crash");
    EXPECT_EQ(faults->at(0).find("signalName")->asString(),
              "SIGSEGV");
}

TEST_F(CrashContainment, CrashAfterConsumedBatchesVerifiesCleanPrefix)
{
    auto p = smallProgram();
    interp::EngineConfig config(interp::ExecEngine::Native);
    config.native.cacheDir = freshCacheDir("serial_consumed");
    config.degrade = interp::DegradeMode::Auto;
    interp::Runner r(p.graph, p.schedule, nullptr, config);
    r.runInit();
    // Three healthy batches, each exported to the host log and
    // consumed in the emitted sink.
    for (int b = 0; b < 3; ++b) {
        r.runSteady(2);
        ASSERT_NE(r.nativeProgram(), nullptr);
        EXPECT_EQ(r.nativeProgram()->sinkResidentLanes(), 0u);
    }
    const std::size_t beforeCrash = r.captured().size();
    ASSERT_GT(beforeCrash, 0u);

    armSteadyCrash(/*want_partition=*/0);
    r.runSteady(2);
    EXPECT_TRUE(r.degradedFromNative());
    // The crashed batch never reached the log: the verified prefix is
    // exactly the three consumed batches.
    EXPECT_TRUE(r.degradeVerified());
    EXPECT_EQ(r.verifiedElements(),
              static_cast<std::int64_t>(beforeCrash));

    interp::Runner vm(p.graph, p.schedule, nullptr,
                      interp::EngineConfig(
                          interp::ExecEngine::Bytecode));
    vm.runInit();
    vm.runSteady(8);
    testutil::expectSameStream(vm.captured(), r.captured());
}

TEST_F(CrashContainment, AlwaysShadowChecksEveryBatchThenAbsorbsACrash)
{
    auto p = smallProgram();
    interp::EngineConfig config(interp::ExecEngine::Native);
    config.native.cacheDir = freshCacheDir("always_shadow");
    config.degrade = interp::DegradeMode::Always;
    interp::Runner r(p.graph, p.schedule, nullptr, config);
    r.runInit();
    // Each batch is compared with the lockstep bytecode shadow (only
    // the lanes it added); a divergence would be fatal here.
    for (int b = 0; b < 3; ++b)
        r.runSteady(2);
    EXPECT_FALSE(r.degradedFromNative());
    const std::size_t beforeCrash = r.captured().size();

    // The warm shadow takes over without a replay, and the native log
    // up to the crash verifies against it.
    armSteadyCrash(/*want_partition=*/0);
    r.runSteady(2);
    EXPECT_TRUE(r.degradedFromNative());
    EXPECT_TRUE(r.degradeVerified());
    EXPECT_EQ(r.verifiedElements(),
              static_cast<std::int64_t>(beforeCrash));

    interp::Runner vm(p.graph, p.schedule, nullptr,
                      interp::EngineConfig(
                          interp::ExecEngine::Bytecode));
    vm.runInit();
    vm.runSteady(8);
    testutil::expectSameStream(vm.captured(), r.captured());
}

TEST_F(CrashContainment, ParallelCrashAfterConsumedBatchesVerifiesPrefix)
{
    auto p = smallProgram();
    multicore::Partition part = twoCorePartition(p);
    interp::EngineConfig config(interp::ExecEngine::Native);
    config.native.cacheDir = freshCacheDir("parallel_consumed");
    config.degrade = interp::DegradeMode::Auto;
    interp::ParallelRunner pr(p.graph, p.schedule, part, nullptr,
                              config);
    pr.runInit();
    for (int b = 0; b < 3; ++b) {
        pr.runSteady(2);
        ASSERT_NE(pr.nativeProgram(), nullptr);
        EXPECT_EQ(pr.nativeProgram()->sinkResidentLanes(), 0u);
    }
    const std::size_t beforeCrash = pr.captured().size();
    ASSERT_GT(beforeCrash, 0u);

    armSteadyCrash(kAnyPartition);
    pr.runSteady(2);
    ASSERT_TRUE(pr.degradedToSerial());
    ASSERT_GE(pr.faults().size(), 1u);
    const interp::ParallelFault& f = pr.faults()[0];
    EXPECT_EQ(f.kind, "nativeFault");
    EXPECT_TRUE(f.cleanShutdown);
    EXPECT_TRUE(f.fallbackVerified);
    EXPECT_EQ(f.verifiedElements, static_cast<std::int64_t>(beforeCrash));

    interp::Runner vm(p.graph, p.schedule, nullptr,
                      interp::EngineConfig(
                          interp::ExecEngine::Bytecode));
    vm.runInit();
    vm.runSteady(8);
    testutil::expectSameStream(vm.captured(), pr.captured());
}

TEST_F(CrashContainment, InjectedCrashWithDegradeOffThrowsTyped)
{
    auto p = smallProgram();
    armSteadyCrash(/*want_partition=*/0);
    interp::EngineConfig config(interp::ExecEngine::Native);
    config.native.cacheDir = freshCacheDir("serial_off");
    // DegradeMode::Off is the default: faults propagate.
    interp::Runner r(p.graph, p.schedule, nullptr, config);
    r.runInit();
    try {
        r.runSteady(3);
        FAIL() << "crash was swallowed under DegradeMode::Off";
    } catch (const NativeFaultError& e) {
        EXPECT_EQ(e.record().kind, NativeFaultKind::Crash);
        EXPECT_EQ(e.record().signal, SIGSEGV);
        EXPECT_EQ(e.record().batchIndex, 0);
    }
    EXPECT_FALSE(r.degradedFromNative());
    ASSERT_EQ(r.nativeFaults().size(), 1u);

    // The crash was recorded against the cache entry.
    EXPECT_GE(
        quarantine::status(r.nativeStats()->soPath).failures, 1);
}

TEST_F(CrashContainment, ParallelCrashFallsBackToSerialAndMatches)
{
    auto p = smallProgram();
    interp::Runner vm(p.graph, p.schedule);
    vm.runInit();
    vm.runSteady(6);
    multicore::Partition part = twoCorePartition(p);

    // Crash whichever partition probes the site first. The crash
    // fires once, so the serial fallback's replay (partition 0 of the
    // one-partition program) stays healthy.
    armSteadyCrash(kAnyPartition);

    interp::EngineConfig config(interp::ExecEngine::Native);
    config.native.cacheDir = freshCacheDir("parallel_degrade");
    config.degrade = interp::DegradeMode::Auto;
    interp::ParallelRunner pr(p.graph, p.schedule, part, nullptr,
                              config);
    pr.runInit();
    pr.runSteady(6);

    EXPECT_TRUE(pr.degradedToSerial());
    ASSERT_GE(pr.nativeFaults().size(), 1u);
    const NativeFaultRecord& rec = pr.nativeFaults()[0];
    EXPECT_EQ(rec.kind, NativeFaultKind::Crash);
    EXPECT_EQ(rec.signal, SIGSEGV);
    EXPECT_GE(rec.partition, 0);
    EXPECT_EQ(rec.phase, "steady");

    ASSERT_GE(pr.faults().size(), 1u);
    EXPECT_EQ(pr.faults()[0].kind, "nativeFault");
    EXPECT_TRUE(pr.faults()[0].fallbackUsed);

    testutil::expectSameStream(vm.captured(), pr.captured());

    // The merged stats carry the structured record under
    // native.faults[].
    json::Value stats = pr.statsToJson();
    const json::Value* nat = stats.find("native");
    ASSERT_NE(nat, nullptr);
    const json::Value* faults = nat->find("faults");
    ASSERT_NE(faults, nullptr);
    ASSERT_GE(faults->size(), 1u);
    EXPECT_EQ(faults->at(0).find("kind")->asString(), "crash");
    EXPECT_GE(faults->at(0).find("partition")->asInt(), 0);
}

TEST_F(CrashContainment, ParallelCleanBatchesLiftQuarantine)
{
    auto p = smallProgram();
    multicore::Partition part = twoCorePartition(p);
    interp::EngineConfig config(interp::ExecEngine::Native);
    config.native.cacheDir = freshCacheDir("parallel_lift");

    std::string soPath;
    {
        interp::ParallelRunner first(p.graph, p.schedule, part,
                                     nullptr, config);
        soPath = first.nativeStats()->soPath;
    }

    // One recorded crash: the parallel build recompiles (the one
    // retry), and the sidecar stays until every partition has run a
    // clean steady batch — the warm-up alone proves nothing.
    quarantine::recordFailure(soPath, "recorded test crash");
    interp::ParallelRunner pr(p.graph, p.schedule, part, nullptr,
                              config);
    ASSERT_EQ(pr.threads(), 2);
    EXPECT_FALSE(pr.nativeStats()->cacheHit);
    EXPECT_EQ(pr.nativeStats()->quarantineFailures, 1);
    pr.runInit();
    EXPECT_EQ(quarantine::status(soPath).failures, 1);

    pr.runSteady(4);
    EXPECT_FALSE(pr.degradedToSerial());
    EXPECT_EQ(quarantine::status(soPath).failures, 0);
}

TEST_F(CrashContainment, WedgedCompilerTimesOutWithTypedFault)
{
    // The injection wedges the host compile (replacing it with a
    // sleep) and shrinks the wall budget, so the whole test is
    // bounded by the budget, not by a 30 s sleep.
    support::FaultInjector::instance().arm(
        "native.compile.timeout",
        [](std::int64_t* value) {
            if (value)
                *value = 250;
        },
        /*max_fires=*/1);

    NativeOptions opts;
    opts.cacheDir = freshCacheDir("wedged_compile");
    auto p = smallProgram();
    try {
        NativeProgram prog(p.graph, p.schedule, opts);
        FAIL() << "wedged compile did not fault";
    } catch (const NativeFaultError& e) {
        EXPECT_EQ(e.record().kind, NativeFaultKind::CompileTimeout);
        EXPECT_EQ(e.record().phase, "compile");
        EXPECT_GE(e.record().wallMs, 200.0);
        EXPECT_NE(e.record().message.find("timed out"),
                  std::string::npos)
            << e.record().message;
    }
}

TEST_F(CrashContainment, CompileErrorSurfacesCompilerStderr)
{
    NativeOptions opts;
    opts.cacheDir = freshCacheDir("bad_flags");
    opts.flags = "-O1 -fno-such-flag-macross-xyz";
    auto p = smallProgram();
    try {
        NativeProgram prog(p.graph, p.schedule, opts);
        FAIL() << "bad compiler flag did not fault";
    } catch (const NativeFaultError& e) {
        EXPECT_EQ(e.record().kind, NativeFaultKind::CompileExit);
        EXPECT_NE(e.record().exitCode, 0);
        // The diagnostic embeds the compiler's own stderr, each line
        // prefixed with the source path.
        EXPECT_NE(e.record().message.find("no-such-flag-macross-xyz"),
                  std::string::npos)
            << e.record().message;
        EXPECT_NE(e.record().message.find(".cpp:"), std::string::npos)
            << e.record().message;
    }
}

TEST_F(CrashContainment, InjectedDlopenFailureIsALoadFault)
{
    support::FaultInjector::instance().arm(
        "native.dlopen.fail", [](std::int64_t*) {},
        /*max_fires=*/1);
    NativeOptions opts;
    opts.cacheDir = freshCacheDir("dlopen_fail");
    auto p = smallProgram();
    try {
        NativeProgram prog(p.graph, p.schedule, opts);
        FAIL() << "injected dlopen failure did not fault";
    } catch (const NativeFaultError& e) {
        EXPECT_EQ(e.record().kind, NativeFaultKind::LoadFailed);
        EXPECT_EQ(e.record().phase, "load");
    }
}

} // namespace
} // namespace macross::native
