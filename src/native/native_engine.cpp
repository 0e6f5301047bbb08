/**
 * @file
 * Native engine implementation: emit → host compile → cache → dlopen.
 */
#include "native/native_engine.h"

#include <dlfcn.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>

#include "codegen/emit_cpp.h"
#include "interp/spsc_queue.h"
#include "native/compile_exec.h"
#include "native/native_cache.h"
#include "native/native_fault.h"
#include "native/quarantine.h"
#include "native/signal_guard.h"
#include "native/simd_probe.h"
#include "support/diagnostics.h"
#include "support/env.h"
#include "support/fault.h"

namespace macross::native {

namespace fs = std::filesystem;

namespace {

/**
 * Probe for a working compiler through the same hardened spawn the
 * compile itself uses: no inherited stdout/stderr (std::system's
 * `command -v` probe leaked both), a real timeout so a wedged
 * toolchain wrapper cannot hang engine construction, and one retry
 * for transient spawn failures.
 */
bool
commandExists(const std::string& cmd)
{
    if (cmd.empty())
        return false;
    SpawnLimits limits;
    limits.wallMs = 15000;
    limits.maxAttempts = 2;
    return runCommand({cmd, "--version"}, limits).ok();
}

/**
 * The fail() callback emitted wait loops call when a ring wait is
 * aborted (watchdog shutdown) or times out. ctx carries the tape id.
 * PanicError unwinds through the emitted frames into the worker's
 * batch loop, which parks the worker — the same path an interp
 * worker takes out of SpscRing::waitSlow.
 */
[[noreturn]] void
ringFail(void* ctx, const char* msg)
{
    panic("native partition ring (tape ",
          static_cast<long long>(reinterpret_cast<std::intptr_t>(ctx)),
          "): ", msg);
}

} // namespace

std::uint64_t
fnv1a64(const std::string& data)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : data) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
detectHostCompiler(const std::string& preferred)
{
    if (!preferred.empty()) {
        fatalIf(!commandExists(preferred),
                "native engine: host compiler '", preferred,
                "' not found on PATH");
        return preferred;
    }
    // MACROSS_NATIVE_CXX is an explicit pin, not a hint: if it names
    // a missing compiler, fail rather than silently measuring with a
    // different toolchain (the CI matrix relies on this).
    if (const char* env = std::getenv("MACROSS_NATIVE_CXX")) {
        if (*env) {
            fatalIf(!commandExists(env),
                    "native engine: $MACROSS_NATIVE_CXX compiler '",
                    env, "' not found on PATH");
            return env;
        }
    }
    std::vector<std::string> candidates;
    if (const char* env = std::getenv("CXX"))
        candidates.push_back(env);
    candidates.push_back("c++");
    candidates.push_back("g++");
    candidates.push_back("clang++");
    for (const auto& c : candidates) {
        if (commandExists(c))
            return c;
    }
    fatal("native engine: no host C++ compiler found (tried $CXX, "
          "c++, g++, clang++); install one or point "
          "MACROSS_NATIVE_CXX at it");
}

std::string
resolveCacheDir(const NativeOptions& opts)
{
    std::string dir = opts.cacheDir;
    if (dir.empty()) {
        if (const char* env = std::getenv("MACROSS_CACHE_DIR"))
            dir = env;
    }
    if (dir.empty()) {
        // The predictable per-euid default is the path a hostile
        // local user could pre-create or symlink; the .so cache is
        // worse than the tuning cache (we dlopen and *execute* what
        // we find there), so it gets the same 0700 +
        // ownership/symlink verification with mkdtemp fallback.
        // Explicitly configured directories are taken as given.
        const char* tmp = std::getenv("TMPDIR");
        dir = std::string(tmp && *tmp ? tmp : "/tmp") +
              "/macross-native-cache-" +
              std::to_string(static_cast<long>(::geteuid()));
        return support::ensurePrivateDir(dir, "native object cache");
    }
    std::error_code ec;
    fs::create_directories(dir, ec);
    fatalIf(static_cast<bool>(ec),
            "native engine: cannot create cache directory ", dir, ": ",
            ec.message());
    return dir;
}

json::Value
NativeStats::toJson() const
{
    json::Value nat = json::Value::object();
    nat["compiler"] = compiler;
    nat["flags"] = flags;
    nat["soPath"] = soPath;
    nat["sourceHash"] = static_cast<std::int64_t>(sourceHash);
    nat["cacheHit"] = cacheHit;
    nat["coalesced"] = coalesced;
    nat["compileMillis"] = compileMillis;
    nat["compileAttempts"] = compileAttempts;
    nat["steadyWallMicros"] = steadyWallMicros;
    nat["abiVersion"] = abiVersion;
    nat["exact"] = exact;
    json::Value simd = json::Value::object();
    simd["laneWidth"] = simdLanes;
    simd["isa"] = simdIsa;
    simd["fallback"] = simdFallback;
    nat["simd"] = std::move(simd);
    if (quarantineFailures > 0) {
        json::Value q = json::Value::object();
        q["failures"] = quarantineFailures;
        q["reason"] = quarantineReason;
        nat["quarantine"] = std::move(q);
    }
    return nat;
}

NativeProgram::NativeProgram(const graph::FlatGraph& g,
                             const schedule::Schedule& s,
                             const NativeOptions& opts,
                             const codegen::SimdSpec& spec, int cores,
                             const std::vector<int>& core_of)
    : cores_(cores)
{
    fatalIf(cores_ < 1, "native engine: cores must be >= 1");
    bool hasSink = false;
    for (const auto& a : g.actors) {
        if (a.isFilter() && a.outputs.empty() && !a.inputs.empty()) {
            hasSink = true;
            captured_.setElemType(g.tape(a.inputs[0]).elem);
        }
    }

    // Runtime ISA dispatch: refuse a width the host cannot execute
    // and fall back to the scalar layer, visibly (stats), not with a
    // SIGILL three calls later.
    codegen::validateSimdSpec(spec);
    spec_ = spec;
    const int hostMax = opts.maxLaneWidthOverride > 0
                            ? opts.maxLaneWidthOverride
                            : probeMaxLaneWidth();
    if (spec_.laneWidth > hostMax) {
        spec_.laneWidth = 1;
        stats_.simdFallback = true;
    }
    stats_.simdLanes = spec_.laneWidth;
    stats_.simdIsa = spec_.isa;
    stats_.exact = !spec_.allowUlpDivergence;

    codegen::EmitOptions eo;
    eo.mode = codegen::EmitMode::Library;
    eo.simd = spec_;
    eo.partitionCores = cores_;
    eo.partitionCoreOf = core_of;
    const std::string source = codegen::emitCpp(g, s, eo);

    detail::compileOrLoadCached(
        opts, spec_, source, &stats_,
        [this](const std::string& so, int* abi) {
            return tryBind(so, abi);
        });

    fatalIf(numPartitions_() != cores_, "native engine: object reports ",
            numPartitions_(), " partitions, expected ", cores_);
    sinkCore_ = hasSink ? sinkPartition_() : -1;
    parts_.resize(static_cast<std::size_t>(cores_), nullptr);
    for (int k = 0; k < cores_; ++k) {
        detail::runEmittedGuarded(
            "init", k, /*batch_index=*/-1, stats_.soPath, [&] {
                parts_[static_cast<std::size_t>(k)] =
                    createPartition_(k);
            });
        fatalIf(!parts_[static_cast<std::size_t>(k)],
                "native engine: create_partition(", k,
                ") returned null");
    }
    wallMicros_.assign(static_cast<std::size_t>(cores_), 0.0);
    batches_.assign(static_cast<std::size_t>(cores_), 0);
}

NativeProgram::~NativeProgram()
{
    unload();
}

void
NativeProgram::unload()
{
    if (destroyPartition_) {
        for (void* p : parts_) {
            // A partition that already crashed may crash again in its
            // destructor; swallow it — the state is abandoned anyway.
            if (p)
                (void)signal_guard::run(
                    [&] { destroyPartition_(p); });
        }
    }
    parts_.clear();
    if (handle_)
        ::dlclose(handle_);
    handle_ = nullptr;
    numPartitions_ = nullptr;
    createPartition_ = nullptr;
    destroyPartition_ = nullptr;
    ringBind_ = nullptr;
    initAll_ = nullptr;
    runSteadyPartition_ = nullptr;
    sinkPartition_ = nullptr;
    captureSize_ = nullptr;
    captureData_ = nullptr;
    captureConsume_ = nullptr;
}

/** Bind the ABI v4 surface of @p so_path; fully unloads on failure. */
detail::BindStatus
NativeProgram::tryBind(const std::string& so_path, int* found_abi)
{
    unload();
    if (found_abi)
        *found_abi = 0;
    // Chaos hook: a failed dlopen is indistinguishable from a
    // truncated cache entry — the recompile path must absorb it.
    if (support::FaultInjector::fire("native.dlopen.fail"))
        return detail::BindStatus::LoadFailed;
    handle_ = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (!handle_)
        return detail::BindStatus::LoadFailed;
    auto sym = [&](const char* name) {
        return ::dlsym(handle_, name);
    };
    auto* abi =
        reinterpret_cast<int (*)()>(sym("macross_abi_version"));
    if (!abi) {
        unload();
        return detail::BindStatus::LoadFailed;
    }
    const int version = abi();
    if (found_abi)
        *found_abi = version;
    if (version != codegen::kNativeAbiVersion) {
        // An object that loads but speaks a different ABI version is
        // reported upward, not recompiled over: the cache key covers
        // the emitted source, so this is version skew, not staleness.
        unload();
        return detail::BindStatus::AbiMismatch;
    }
    auto* simdLanes =
        reinterpret_cast<int (*)()>(sym("macross_simd_lanes"));
    auto* simdIsa = reinterpret_cast<const char* (*)()>(
        sym("macross_simd_isa"));
    auto* exact = reinterpret_cast<int (*)()>(sym("macross_exact"));
    numPartitions_ =
        reinterpret_cast<int (*)()>(sym("macross_num_partitions"));
    createPartition_ = reinterpret_cast<void* (*)(int)>(
        sym("macross_create_partition"));
    destroyPartition_ = reinterpret_cast<void (*)(void*)>(
        sym("macross_destroy_partition"));
    ringBind_ = reinterpret_cast<int (*)(void*, int, void*)>(
        sym("macross_ring_bind"));
    initAll_ = reinterpret_cast<void (*)(void**, int)>(
        sym("macross_init_all"));
    runSteadyPartition_ = reinterpret_cast<void (*)(void*, int)>(
        sym("macross_run_steady_partition"));
    sinkPartition_ =
        reinterpret_cast<int (*)()>(sym("macross_sink_partition"));
    captureSize_ = reinterpret_cast<unsigned long long (*)(void*)>(
        sym("macross_capture_size"));
    captureData_ = reinterpret_cast<const unsigned int* (*)(void*)>(
        sym("macross_capture_data"));
    captureConsume_ = reinterpret_cast<void (*)(void*)>(
        sym("macross_capture_consume"));
    if (!simdLanes || !simdIsa || !exact || !numPartitions_ ||
        !createPartition_ || !destroyPartition_ || !ringBind_ ||
        !initAll_ || !runSteadyPartition_ || !sinkPartition_ ||
        !captureSize_ || !captureData_ || !captureConsume_) {
        unload();
        return detail::BindStatus::LoadFailed;
    }
    // Record the lowering the object itself reports — the loaded .so,
    // not the request, is the ground truth for stats.
    stats_.abiVersion = version;
    stats_.simdLanes = simdLanes();
    stats_.simdIsa = simdIsa();
    stats_.exact = exact() != 0;
    return detail::BindStatus::Ok;
}

void
NativeProgram::bindRing(int tape_id, interp::SpscRing* ring)
{
    panicIf(initDone_, "native engine: bindRing after init");
    bindings_.push_back(RingBinding{
        ring->slotsData(),
        static_cast<long long>(ring->mask()),
        // atomic<int64_t> is layout-transparent plain 64-bit storage
        // (static_asserts in spsc_queue.h); emitted code accesses it
        // with __atomic builtins at the same acquire/release orders
        // the interpreter uses.
        reinterpret_cast<long long*>(ring->tailAtomic()),
        reinterpret_cast<long long*>(ring->headAtomic()),
        static_cast<long long>(ring->headBlock()),
        static_cast<long long>(ring->tailBlock()),
        reinterpret_cast<unsigned char*>(ring->abortedFlag()),
        reinterpret_cast<void*>(static_cast<std::intptr_t>(tape_id)),
        &ringFail,
    });
    int bound = 0;
    for (void* p : parts_)
        bound += ringBind_(p, tape_id, &bindings_.back());
    panicIf(bound != 2, "native engine: tape ", tape_id, " bound by ",
            bound, " partitions (expected producer + consumer)");
}

void
NativeProgram::init()
{
    panicIf(initDone_, "NativeProgram::init called twice");
    initDone_ = true;
    // The warm-up of several partitions is not one partition's fault.
    detail::runEmittedGuarded(
        "init", cores_ == 1 ? 0 : -1, /*batch_index=*/-1,
        stats_.soPath, [&] { initAll_(parts_.data(), cores_); });
    exportCaptured();
}

void
NativeProgram::runSteady(int iterations)
{
    panicIf(cores_ != 1, "NativeProgram::runSteady drives one "
            "partition; this program has ", cores_);
    runSteadyPartition(0, iterations);
    endBatch();
}

void
NativeProgram::runSteadyPartition(int core, int iterations)
{
    panicIf(!initDone_, "native engine: steady run before init");
    const auto k = static_cast<std::size_t>(core);
    auto t0 = std::chrono::steady_clock::now();
    detail::runEmittedGuarded(
        "steady", core, batches_[k], stats_.soPath, [&] {
            // Chaos hook: the armed action crashes this thread inside
            // the guarded region, before emitted state mutates; the
            // payload carries the core id so a test can target one
            // partition of many.
            std::int64_t part = core;
            support::FaultInjector::fire("native.steady.crash",
                                         &part);
            runSteadyPartition_(parts_[k], iterations);
        });
    ++batches_[k];
    wallMicros_[k] += std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
}

void
NativeProgram::endBatch()
{
    exportCaptured();
    stats_.steadyWallMicros =
        *std::max_element(wallMicros_.begin(), wallMicros_.end());
    if (quarantineCleared_ || stats_.quarantineFailures == 0)
        return;
    for (std::int64_t b : batches_) {
        if (b == 0)
            return;
    }
    quarantine::clear(stats_.soPath);
    quarantineCleared_ = true;
}

void
NativeProgram::exportCaptured()
{
    const std::size_t n = sinkResidentLanes();
    if (n == 0)
        return;
    void* sink = parts_[static_cast<std::size_t>(sinkCore_)];
    captured_.append(captureData_(sink), n);
    captureConsume_(sink);
}

std::size_t
NativeProgram::sinkResidentLanes() const
{
    if (sinkCore_ < 0)
        return 0;
    return static_cast<std::size_t>(
        captureSize_(parts_[static_cast<std::size_t>(sinkCore_)]));
}

} // namespace macross::native
