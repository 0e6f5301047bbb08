/**
 * @file
 * Unit tests for the native engine's driver machinery: host-compiler
 * detection, the content-hashed object cache (hit, miss, corrupted
 * entry, SimdSpec keying), ABI v2 verification (stale-stub rejection),
 * the SIMD probe and refuse-and-fallback path, the hermetic
 * cache-directory resolution, and the Runner integration (EngineConfig,
 * stats JSON, whole-program restriction).
 */
#include "native/native_engine.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "../test_util.h"
#include "benchmarks/suite.h"
#include "codegen/emit_cpp.h"
#include "interp/runner.h"
#include "native/simd_probe.h"
#include "support/diagnostics.h"
#include "vectorizer/pipeline.h"

namespace macross::native {
namespace {

namespace fs = std::filesystem;

/** Fresh, empty cache dir under the test temp root. */
std::string
freshCacheDir(const std::string& tag)
{
    std::string dir =
        ::testing::TempDir() + "macross_native_cache_" + tag;
    fs::remove_all(dir);
    return dir;
}

vectorizer::CompiledProgram
smallProgram()
{
    return vectorizer::compileScalar(
        benchmarks::makeRunningExample());
}

TEST(NativeEngine, DetectsSomeHostCompiler)
{
    // The toolchain that built this test is on PATH, so detection
    // must succeed and name a runnable command.
    std::string cxx = detectHostCompiler();
    EXPECT_FALSE(cxx.empty());
}

TEST(NativeEngine, MissingCompilerIsFatal)
{
    NativeOptions opts;
    opts.compiler = "/nonexistent/macross-no-such-compiler";
    opts.cacheDir = freshCacheDir("missing_compiler");
    auto p = smallProgram();
    EXPECT_THROW(NativeProgram(p.graph, p.schedule, opts),
                 FatalError);
}

TEST(NativeEngine, EnvCompilerPinIsAuthoritative)
{
    // A MACROSS_NATIVE_CXX pointing at a missing compiler must fail,
    // not silently fall back to a different toolchain.
    const char* saved = std::getenv("MACROSS_NATIVE_CXX");
    std::string savedCopy = saved ? saved : "";
    ::setenv("MACROSS_NATIVE_CXX",
             "/nonexistent/macross-no-such-compiler", 1);
    EXPECT_THROW(detectHostCompiler(), FatalError);
    if (saved)
        ::setenv("MACROSS_NATIVE_CXX", savedCopy.c_str(), 1);
    else
        ::unsetenv("MACROSS_NATIVE_CXX");
}

TEST(NativeEngine, CacheMissThenHit)
{
    NativeOptions opts;
    opts.cacheDir = freshCacheDir("miss_then_hit");
    auto p = smallProgram();

    NativeProgram first(p.graph, p.schedule, opts);
    EXPECT_FALSE(first.stats().cacheHit);
    EXPECT_GT(first.stats().compileMillis, 0.0);
    EXPECT_TRUE(fs::exists(first.stats().soPath));

    NativeProgram second(p.graph, p.schedule, opts);
    EXPECT_TRUE(second.stats().cacheHit);
    EXPECT_EQ(second.stats().soPath, first.stats().soPath);
    EXPECT_EQ(second.stats().sourceHash, first.stats().sourceHash);

    // Both instances are independent heap programs off one loaded
    // object: running them back to back must give identical streams.
    first.init();
    first.runSteady(3);
    second.init();
    second.runSteady(3);
    ASSERT_GT(first.capturedSize(), 0u);
    testutil::expectSameStream(first.captured(), second.captured());
}

TEST(NativeEngine, BatchBarrierMovesSinkLanesToHostLog)
{
    NativeOptions opts;
    opts.cacheDir = freshCacheDir("barrier_export");
    auto p = smallProgram();
    NativeProgram prog(p.graph, p.schedule, opts);
    prog.init();
    EXPECT_EQ(prog.sinkResidentLanes(), 0u);
    prog.runSteady(2);

    // Every barrier copies the emitted sink's new lanes into the host
    // log and consumes them there; the log only ever grows at its end.
    EXPECT_EQ(prog.sinkResidentLanes(), 0u);
    const interp::CapturedStream first = prog.captured();
    ASSERT_GT(first.size(), 1u);
    EXPECT_EQ(prog.capturedSize(), first.size());

    prog.runSteady(3);
    EXPECT_EQ(prog.sinkResidentLanes(), 0u);
    EXPECT_GT(prog.capturedSize(), first.size());
    EXPECT_TRUE(first.isPrefixOf(prog.captured()));

    // The same five iterations in one batch give the same stream.
    NativeProgram once(p.graph, p.schedule, opts);
    once.init();
    once.runSteady(5);
    testutil::expectSameStream(once.captured(), prog.captured());
}

TEST(NativeEngine, FlagsParticipateInCacheKey)
{
    std::string dir = freshCacheDir("flags_key");
    auto p = smallProgram();
    NativeOptions o1;
    o1.cacheDir = dir;
    o1.flags = "-O1 -ffp-contract=off";
    NativeOptions o2 = o1;
    o2.flags = "-O2 -ffp-contract=off";

    NativeProgram a(p.graph, p.schedule, o1);
    NativeProgram b(p.graph, p.schedule, o2);
    EXPECT_FALSE(a.stats().cacheHit);
    EXPECT_FALSE(b.stats().cacheHit);
    EXPECT_NE(a.stats().sourceHash, b.stats().sourceHash);
    EXPECT_NE(a.stats().soPath, b.stats().soPath);
}

TEST(NativeEngine, CorruptedCacheEntryIsRecompiled)
{
    NativeOptions opts;
    opts.cacheDir = freshCacheDir("corrupt");
    auto p = smallProgram();

    std::string soPath;
    interp::CapturedStream reference;
    {
        NativeProgram first(p.graph, p.schedule, opts);
        first.init();
        first.runSteady(3);
        soPath = first.stats().soPath;
        reference = first.captured();
    }
    // Smash the cached object — unlink first so any lingering mapping
    // of the old inode stays intact. The next load must notice
    // (dlopen failure), recompile from source, and still run
    // correctly.
    fs::remove(soPath);
    {
        std::ofstream out(soPath, std::ios::binary);
        out << "this is not a shared object";
    }
    NativeProgram second(p.graph, p.schedule, opts);
    EXPECT_FALSE(second.stats().cacheHit);
    EXPECT_GT(second.stats().compileMillis, 0.0);
    second.init();
    second.runSteady(3);
    testutil::expectSameStream(reference, second.captured());

    // And the repaired entry serves hits again.
    NativeProgram third(p.graph, p.schedule, opts);
    EXPECT_TRUE(third.stats().cacheHit);
}

TEST(NativeEngine, SimdSpecParticipatesInCacheKey)
{
    std::string dir = freshCacheDir("simd_key");
    auto p = smallProgram();
    NativeOptions opts;
    opts.cacheDir = dir;

    codegen::SimdSpec scalar;
    scalar.laneWidth = 1;
    codegen::SimdSpec vec4;
    vec4.laneWidth = 4;

    NativeProgram a(p.graph, p.schedule, opts, scalar);
    NativeProgram b(p.graph, p.schedule, opts, vec4);
    EXPECT_FALSE(a.stats().cacheHit);
    EXPECT_FALSE(b.stats().cacheHit);
    EXPECT_NE(a.stats().sourceHash, b.stats().sourceHash);
    EXPECT_NE(a.stats().soPath, b.stats().soPath);
    EXPECT_EQ(a.stats().simdLanes, 1);
    EXPECT_EQ(b.stats().simdLanes, 4);

    // Same spec again: a hit on the spec-specific entry.
    NativeProgram c(p.graph, p.schedule, opts, vec4);
    EXPECT_TRUE(c.stats().cacheHit);
    EXPECT_EQ(c.stats().soPath, b.stats().soPath);
}

TEST(NativeEngine, LoadedObjectReportsAbiV2Lowering)
{
    NativeOptions opts;
    opts.cacheDir = freshCacheDir("abi_v2");
    auto p = smallProgram();
    codegen::SimdSpec spec;
    spec.laneWidth = 4;

    NativeProgram prog(p.graph, p.schedule, opts, spec);
    EXPECT_EQ(prog.stats().abiVersion, codegen::kNativeAbiVersion);
    EXPECT_EQ(prog.stats().simdLanes, 4);
    EXPECT_EQ(prog.stats().simdIsa, "auto");
    EXPECT_TRUE(prog.stats().exact);
    EXPECT_FALSE(prog.stats().simdFallback);
}

TEST(NativeEngine, StaleAbiVersionIsFatal)
{
    NativeOptions opts;
    opts.cacheDir = freshCacheDir("stale_abi");
    auto p = smallProgram();

    std::string soPath;
    {
        NativeProgram first(p.graph, p.schedule, opts);
        soPath = first.stats().soPath;
    }
    // Replace the cached entry with a deliberately stale stub: a
    // perfectly loadable shared object that reports ABI v1. Unlike a
    // corrupted entry, this must NOT be silently recompiled — the
    // cache key covers the source, so version skew at this path means
    // the toolchain and the engine disagree about the contract.
    // v1 is the oldest ABI; v3 lacks only macross_capture_consume,
    // so it must be refused on its version, not on a missing symbol.
    for (int stale : {1, 3}) {
        const std::string stubCpp = opts.cacheDir + "/stale_stub.cpp";
        {
            std::ofstream out(stubCpp);
            out << "extern \"C\" int macross_abi_version() { return "
                << stale << "; }\n";
        }
        fs::remove(soPath);
        const std::string cmd = detectHostCompiler() +
                                " -shared -fPIC -o '" + soPath + "' '" +
                                stubCpp + "'";
        ASSERT_EQ(std::system(cmd.c_str()), 0);

        try {
            NativeProgram second(p.graph, p.schedule, opts);
            FAIL() << "stale ABI v" << stale << " stub was accepted";
        } catch (const FatalError& e) {
            const std::string msg = e.what();
            // The error must name both versions.
            EXPECT_NE(msg.find("ABI version " + std::to_string(stale)),
                      std::string::npos)
                << msg;
            EXPECT_NE(msg.find("version " + std::to_string(
                                   codegen::kNativeAbiVersion)),
                      std::string::npos)
                << msg;
        }
    }
}

TEST(NativeEngine, ProbeReportsExecutableWidth)
{
    const int w = probeMaxLaneWidth();
    EXPECT_TRUE(w == 1 || w == 4 || w == 8 || w == 16) << w;
    EXPECT_FALSE(probeIsaName().empty());
}

TEST(NativeEngine, UnsupportedWidthFallsBackToScalar)
{
    // Pretend the host tops out at 4 lanes and ask for 8: the engine
    // must refuse the width and emit the scalar layer, visibly.
    NativeOptions opts;
    opts.cacheDir = freshCacheDir("fallback");
    opts.maxLaneWidthOverride = 4;
    auto p = smallProgram();
    codegen::SimdSpec spec;
    spec.laneWidth = 8;

    NativeProgram prog(p.graph, p.schedule, opts, spec);
    EXPECT_TRUE(prog.stats().simdFallback);
    EXPECT_EQ(prog.stats().simdLanes, 1);
    EXPECT_EQ(prog.effectiveSpec().laneWidth, 1);

    // The fallback still runs and still matches the interpreter.
    prog.init();
    prog.runSteady(3);
    interp::Runner vm(p.graph, p.schedule);
    vm.runInit();
    vm.runSteady(3);
    ASSERT_GT(prog.capturedSize(), 0u);
    testutil::expectSameStream(vm.captured(), prog.captured());
}

TEST(NativeEngine, SupportedWidthIsNotRefused)
{
    NativeOptions opts;
    opts.cacheDir = freshCacheDir("no_fallback");
    opts.maxLaneWidthOverride = 8;
    auto p = smallProgram();
    codegen::SimdSpec spec;
    spec.laneWidth = 8;

    NativeProgram prog(p.graph, p.schedule, opts, spec);
    EXPECT_FALSE(prog.stats().simdFallback);
    EXPECT_EQ(prog.stats().simdLanes, 8);
}

TEST(NativeEngine, CacheDirRespectsEnvironment)
{
    const char* saved = std::getenv("MACROSS_CACHE_DIR");
    std::string savedCopy = saved ? saved : "";
    std::string dir = freshCacheDir("env_dir");
    ::setenv("MACROSS_CACHE_DIR", dir.c_str(), 1);
    std::string resolved = resolveCacheDir(NativeOptions{});
    if (saved)
        ::setenv("MACROSS_CACHE_DIR", savedCopy.c_str(), 1);
    else
        ::unsetenv("MACROSS_CACHE_DIR");
    EXPECT_EQ(resolved, dir);
    EXPECT_TRUE(fs::is_directory(dir));

    // An explicit option still beats the environment.
    NativeOptions opts;
    opts.cacheDir = freshCacheDir("explicit_dir");
    EXPECT_EQ(resolveCacheDir(opts), opts.cacheDir);
}

TEST(NativeEngine, RunnerReportsNativeStatsJson)
{
    auto p = smallProgram();
    interp::EngineConfig config(interp::ExecEngine::Native);
    config.native.cacheDir = freshCacheDir("runner_stats");
    interp::Runner r(p.graph, p.schedule, nullptr, config);
    r.runInit();
    r.runSteady(5);
    ASSERT_NE(r.nativeStats(), nullptr);

    json::Value stats = r.statsToJson();
    EXPECT_EQ(stats.find("engine")->asString(), "native");
    const json::Value* nat = stats.find("native");
    ASSERT_NE(nat, nullptr);
    EXPECT_FALSE(nat->find("compiler")->asString().empty());
    EXPECT_FALSE(nat->find("soPath")->asString().empty());
    EXPECT_FALSE(nat->find("cacheHit")->asBool());
    EXPECT_GT(nat->find("compileMillis")->asDouble(), 0.0);
    EXPECT_GE(nat->find("steadyWallMicros")->asDouble(), 0.0);
    EXPECT_EQ(nat->find("abiVersion")->asInt(), 4);
    EXPECT_TRUE(nat->find("exact")->asBool());
    const json::Value* simd = nat->find("simd");
    ASSERT_NE(simd, nullptr);
    EXPECT_EQ(simd->find("laneWidth")->asInt(), 4);
    EXPECT_EQ(simd->find("isa")->asString(), "auto");
    EXPECT_FALSE(simd->find("fallback")->asBool());

    // The runner mirrors the native capture stream.
    interp::Runner vm(p.graph, p.schedule, nullptr,
                      interp::EngineConfig(
                          interp::ExecEngine::Bytecode));
    vm.runInit();
    vm.runSteady(5);
    testutil::expectSameStream(vm.captured(), r.captured());
}

TEST(NativeEngine, ConfigureAfterInitPanics)
{
    auto p = smallProgram();
    interp::Runner r(p.graph, p.schedule);
    r.runInit();
    EXPECT_THROW(
        r.configure(interp::EngineConfig(interp::ExecEngine::Tree)),
        PanicError);
}

TEST(NativeEngine, PerActorNativeOverrideIsRejected)
{
    auto p = smallProgram();
    interp::EngineConfig config(interp::ExecEngine::Bytecode);
    for (const auto& a : p.graph.actors) {
        if (a.isFilter()) {
            config.actorEngines[a.id] = interp::ExecEngine::Native;
            break;
        }
    }
    interp::Runner r(p.graph, p.schedule, nullptr, config);
    EXPECT_THROW(r.runUntilCaptured(10), PanicError);
}

} // namespace
} // namespace macross::native
