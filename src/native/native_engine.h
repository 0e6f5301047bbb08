/**
 * @file
 * Native execution engine: run MacroSS-emitted C++ through the host
 * compiler as a real machine-code backend.
 *
 * The paper's evaluation compiles MacroSS output with ICC and runs it
 * on real hardware; this engine closes the same loop for the
 * reproduction. A NativeProgram takes a compiled (possibly SIMDized)
 * flat graph plus its schedule, a multicore partition (none for a
 * serial run, which is the one-partition case) and a
 * codegen::SimdSpec, emits the Library-shaped translation unit
 * (codegen::EmitMode::Library: one `struct Partition<k>` per core)
 * with the spec's true-SIMD vector layer, invokes the host C++
 * compiler (`-O3 -march=native` by default; SimdSpec.isa != "auto"
 * appends an explicit -march), dlopen()s the resulting shared object,
 * and binds the ABI v4 partition surface:
 *
 *     int   macross_abi_version();                  // == 4
 *     int   macross_simd_lanes() / _simd_isa() / _exact();
 *     int   macross_num_partitions();
 *     void* macross_create_partition(int core);     // PartitionBase*
 *     void  macross_destroy_partition(void*);
 *     int   macross_ring_bind(void*, int tape, void* ring);
 *     void  macross_init_all(void** handles, int n);
 *     void  macross_run_steady_partition(void*, int iters);
 *     int   macross_sink_partition();               // -1 = no sink
 *     u64   macross_capture_size(void* sink_handle);
 *     const u32* macross_capture_data(void* sink_handle);
 *     void  macross_capture_consume(void* sink_handle);  // v4
 *
 * The host creates one partition instance per core, binds every
 * cross-core tape to an in-process interp::SpscRing via bindRing() —
 * which materializes the ABI's MacrossRing binding struct from the
 * ring's raw accessors — runs the warm-up single-threaded via init(),
 * and then runs each core's steady slice: runSteady() for a serial
 * program, runSteadyPartition() from each core's worker thread for a
 * parallel one (interp::ParallelRunner). Emitted code follows the
 * interpreter's ring protocol exactly, so the output stream is
 * bit-identical to every serial engine.
 *
 * Runtime ISA dispatch: before emitting, the engine probes the host
 * (simd_probe.h) and, if the requested lane width exceeds what the
 * CPU can execute, falls back to the scalar W=1 layer — recorded as
 * NativeStats.simdFallback, never silent, never a SIGILL.
 *
 * Shared objects are cached by a 64-bit content hash of the emitted
 * source, the compiler, the flags, and the effective SimdSpec
 * (native_cache.h). The partition is part of the emitted source, so
 * the key covers it too.
 *
 * The captured sink stream leaves the object as raw 32-bit lanes. At
 * every batch barrier (the end of init() and of endBatch()) the host
 * appends the emitted sink's new lanes to its one log, an
 * interp::CapturedStream typed with the sink tape's element type, and
 * then calls macross_capture_consume, which clears the emitted buffer
 * and keeps its capacity. The emitted side therefore holds at most
 * one batch of output, the host log costs 4 bytes per element, and
 * the comparison against the bytecode VM and the tree executor is
 * bit-exact, not approximate.
 *
 * Shutdown: SpscRing::abortWaits() makes emitted wait loops call the
 * binding's fail() callback, which panics host-side; the PanicError
 * unwinds through the emitted frames (compiled with exceptions
 * enabled) into the worker's loop, exactly like an interp
 * worker parked by the watchdog.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "codegen/simd_spec.h"
#include "graph/flat_graph.h"
#include "interp/captured_stream.h"
#include "schedule/steady_state.h"
#include "support/json.h"

namespace macross::interp {
class SpscRing;
}

namespace macross::native {

namespace detail {
enum class BindStatus;  // native_cache.h
}

/** Host-compilation options. */
struct NativeOptions {
    /**
     * Host C++ compiler command. Empty auto-detects:
     * $MACROSS_NATIVE_CXX if set (authoritative — fatal if it names a
     * missing compiler, so CI pins can't silently degrade), else the
     * first of $CXX, c++, g++, clang++ that resolves on PATH. A
     * non-empty value here is used as-is and is fatal if missing.
     */
    std::string compiler;
    /**
     * Optimization/codegen flags (one shell word list). Two of these
     * are load-bearing for bit-identity against the interpreter:
     * -ffp-contract=off, because -march=native exposes FMA and the
     * compiler would otherwise contract a*b+c into one fused rounding
     * (the interpreter rounds the multiply and the add separately);
     * and -frounding-math, because after full unrolling the compiler
     * constant-folds libm calls on constant arguments (e.g. the IMDCT
     * cosine bank) with its own correctly-rounded MPFR evaluation,
     * which can differ by 1 ULP from the runtime libm the interpreter
     * calls.
     */
    std::string flags =
        "-O3 -march=native -ffp-contract=off -frounding-math";
    /**
     * Object-cache directory. Empty resolves $MACROSS_CACHE_DIR, then
     * a per-user default under the system temp directory.
     */
    std::string cacheDir;
    /**
     * Test hook: pretend the host supports at most this many lanes
     * (0 = use the real probe). Lets the refuse-and-fallback path be
     * exercised on machines that support every width.
     */
    int maxLaneWidthOverride = 0;
    /**
     * Wall-clock budget for one host-compiler invocation, in
     * milliseconds. 0 resolves $MACROSS_COMPILE_TIMEOUT_MS, then the
     * 120 s default (compile_exec.h). Past the budget the compiler's
     * process group is killed and the build surfaces as a
     * NativeFaultKind::CompileTimeout fault.
     */
    std::int64_t compileTimeoutMs = 0;
};

/** Everything a report wants to know about one native build/run. */
struct NativeStats {
    std::string compiler;       ///< Resolved compiler command.
    std::string flags;          ///< Flags the object was built with.
    std::string soPath;         ///< Cached shared object path.
    std::uint64_t sourceHash = 0;  ///< Content hash (source+compiler+flags).
    bool cacheHit = false;      ///< Loaded without recompiling.
    /** Cache hit after waiting on another thread's or process's
     *  in-flight compile of the same hash (single-flight coalescing:
     *  this request paid a wait, not a compile). */
    bool coalesced = false;
    double compileMillis = 0.0; ///< Host-compiler wall time (0 on hit).
    int compileAttempts = 0;    ///< Spawn attempts (retries included).
    /** Accumulated native steady time of the slowest partition (the
     *  only one for a serial program), as of the last batch barrier. */
    double steadyWallMicros = 0.0;
    int abiVersion = 0;         ///< ABI version the loaded .so reports.
    int simdLanes = 0;          ///< Lane width the .so was built with.
    std::string simdIsa;        ///< ISA selector the .so was built with.
    bool simdFallback = false;  ///< Requested width refused; W=1 used.
    bool exact = true;          ///< Bit-identical contract (see SimdSpec).
    /** Quarantine failures recorded against this cache entry when it
     *  was consulted (1 = recompiled fresh on the retry path). */
    std::int64_t quarantineFailures = 0;
    std::string quarantineReason;  ///< Last recorded crash diagnostic.

    /** The run.stats.native build block (quarantine only if any). */
    json::Value toJson() const;
};

/**
 * Resolve the host compiler for @p preferred (see
 * NativeOptions::compiler). Fatal (FatalError) if no candidate
 * resolves — the native engine cannot degrade gracefully without a
 * compiler, and silently falling back to an interpreter would
 * misreport measured numbers.
 */
std::string detectHostCompiler(const std::string& preferred = {});

/** Resolve (and create) the object-cache directory for @p opts. */
std::string resolveCacheDir(const NativeOptions& opts);

/** FNV-1a 64-bit hash used for cache keys (exposed for tests). */
std::uint64_t fnv1a64(const std::string& data);

/** One emitted program, compiled to machine code and loaded. */
class NativeProgram {
  public:
    /**
     * Emit with @p spec (after probe-based fallback, see file
     * comment) for the partition @p core_of over @p cores, compile (or
     * cache-load) it, and create one partition instance per core. An
     * empty @p core_of is the serial program: one partition holding
     * every actor. Fatal on a missing compiler, a failed host compile
     * (with the compiler's diagnostics in the message), or an
     * ABI-version mismatch in the loaded object.
     */
    NativeProgram(const graph::FlatGraph& g,
                  const schedule::Schedule& s,
                  const NativeOptions& opts = {},
                  const codegen::SimdSpec& spec = {}, int cores = 1,
                  const std::vector<int>& core_of = {});
    ~NativeProgram();

    NativeProgram(const NativeProgram&) = delete;
    NativeProgram& operator=(const NativeProgram&) = delete;

    int partitions() const { return cores_; }

    /**
     * Bind cross-core tape @p tape_id to @p ring on every partition
     * that touches it (producer and consumer side each hold their own
     * emitted endpoint). Must happen before init(); panics if the
     * emitted object does not know the tape as a crossing tape.
     */
    void bindRing(int tape_id, interp::SpscRing* ring);

    /**
     * Run setup + the single-threaded warm-up (actor init bodies and
     * init-phase firings in schedule order across all partitions).
     * Panics if called twice.
     */
    void init();

    bool initDone() const { return initDone_; }

    /** Run @p iterations steady iterations of a one-partition program,
     *  then endBatch(). */
    void runSteady(int iterations);

    /**
     * Run @p iterations steady iterations of core @p core's slice
     * (ends with an exact ring flush). Called from that core's worker
     * thread; different cores may run concurrently, the same core may
     * not. Writes only @p core's own counters.
     */
    void runSteadyPartition(int core, int iterations);

    /**
     * Batch-barrier bookkeeping, with no partition running: publish
     * the slowest partition's wall time as stats().steadyWallMicros,
     * and lift the cache entry's quarantine once every partition has
     * finished a clean batch (the recompiled-fresh object proved
     * itself, so future runs cache-hit again).
     */
    void endBatch();

    /**
     * The host-side log of the sink stream: every element the emitted
     * sink recorded up to the last batch barrier (init() or
     * endBatch()), as raw lanes with the sink tape's element type
     * (bit-exact against every serial engine). A batch that crashed
     * never reaches it, so it is always a clean prefix of the serial
     * stream. Read it only at batch barriers.
     */
    const interp::CapturedStream& captured() const { return captured_; }

    /**
     * Append the emitted sink's new lanes to captured(), then consume
     * them in the emitted sink. init() and endBatch() do this; call it
     * directly only with every partition parked after a dispatch that
     * stopped without a crash in emitted code (a watchdog stall),
     * whose partial output is still a clean prefix.
     */
    void exportCaptured();

    /** Total sink elements captured so far (captured().size()). */
    std::size_t capturedSize() const { return captured_.size(); }

    /**
     * Lanes the emitted sink holds that the host log has not taken
     * yet: 0 at every batch barrier, since each barrier exports and
     * consumes them. Safe only at batch barriers.
     */
    std::size_t sinkResidentLanes() const;

    const NativeStats& stats() const { return stats_; }

    /** The spec actually emitted (after probe fallback). */
    const codegen::SimdSpec& effectiveSpec() const { return spec_; }

    /** Accumulated native steady wall time of @p core's partition. */
    double steadyWallMicros(int core) const
    {
        return wallMicros_[static_cast<std::size_t>(core)];
    }

  private:
    /** Host mirror of the emitted MacrossRing (layout-matched). */
    struct RingBinding {
        std::uint32_t* slots;
        long long mask;
        long long* tail;
        long long* head;
        long long head_block;
        long long tail_block;
        unsigned char* aborted;
        void* ctx;
        void (*fail)(void* ctx, const char* msg);
    };

    detail::BindStatus tryBind(const std::string& so_path,
                               int* found_abi);
    void unload();

    void* handle_ = nullptr;  ///< dlopen handle.
    std::vector<void*> parts_;  ///< One PartitionBase* per core.

    // Bound ABI entry points.
    int (*numPartitions_)() = nullptr;
    void* (*createPartition_)(int) = nullptr;
    void (*destroyPartition_)(void*) = nullptr;
    int (*ringBind_)(void*, int, void*) = nullptr;
    void (*initAll_)(void**, int) = nullptr;
    void (*runSteadyPartition_)(void*, int) = nullptr;
    int (*sinkPartition_)() = nullptr;
    unsigned long long (*captureSize_)(void*) = nullptr;
    const unsigned int* (*captureData_)(void*) = nullptr;
    void (*captureConsume_)(void*) = nullptr;

    /** Binding structs live here: the emitted side keeps the pointer
     *  for the program's lifetime, so storage must never move. */
    std::deque<RingBinding> bindings_;

    /** Per-core steady wall time and runSteadyPartition calls
     *  completed (the batch index a crash on that core reports); each
     *  slot is written only by its own core's worker. */
    std::vector<double> wallMicros_;
    std::vector<std::int64_t> batches_;
    int cores_ = 0;
    /** Core of the sink partition, or -1 without a sink. */
    int sinkCore_ = -1;
    interp::CapturedStream captured_;
    bool initDone_ = false;
    /** Quarantine sidecar cleared (endBatch, main thread only). */
    bool quarantineCleared_ = false;
    codegen::SimdSpec spec_;
    NativeStats stats_;
};

} // namespace macross::native
