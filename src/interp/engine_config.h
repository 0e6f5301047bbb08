/**
 * @file
 * EngineConfig: the one typed object that says how a Runner executes.
 *
 * Before this existed, engine selection was spread over four
 * accreted surfaces — a constructor `engine` parameter, a
 * `setEngine()` mutator, a `setNativeOptions()` mutator, and a
 * per-actor `ActorExecConfig::engine` override — none of which knew
 * about the others' invariants (e.g. that native options are
 * meaningless after the native program is built). EngineConfig
 * collapses them: engine kind, the native host-compilation options,
 * the SIMD lowering spec, and per-actor interpreting-engine
 * overrides, passed at construction or through one `configure()`
 * call that panics once `runInit()` has frozen the execution plan.
 * The old surfaces lived on as deprecated shims for one PR and are
 * now gone.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "codegen/simd_spec.h"
#include "native/native_engine.h"

namespace macross::interp {

/** Which engine executes a filter's IR bodies. */
enum class ExecEngine {
    Tree,      ///< Tree-walking Executor (reference oracle).
    Bytecode,  ///< Compiled register bytecode on the VM (default).
    /**
     * Emitted C++ compiled by the host compiler and dlopen()ed
     * (native/native_engine.h): one partition for serial runners, one
     * per core for ParallelRunner. Either way the shared object runs
     * whole schedules, so Native cannot be
     * a per-actor override, modeled cycles are not accumulated, and
     * wall-clock / compile-time numbers land in
     * statsToJson()["native"] instead.
     */
    Native,
};

/** Engine name for reports ("tree" / "bytecode" / "native"). */
std::string toString(ExecEngine e);

/**
 * What a Runner does when the native engine faults (host compile
 * failure, unloadable object, or a crash in emitted code surfaced by
 * the signal guards as a NativeFaultError).
 *
 * The ladder is: parallel native → serial native → bytecode VM. A
 * ParallelRunner passes its EngineConfig verbatim to its serial
 * fallback, so a parallel-native crash lands on a serial Runner that
 * still has engine = Native and this policy — if that faults too, the
 * serial runner takes the final step down to the bytecode VM.
 * Every step replays the completed work on the lower engine and, under
 * the exact SimdSpec contract, verifies the already-captured prefix
 * bitwise against the replay before continuing.
 */
enum class DegradeMode {
    /**
     * No degradation: the structured NativeFaultError propagates to
     * the caller. The default — an engine asked for explicitly should
     * not silently become a different engine.
     */
    Off,
    /** Degrade on fault (replay + prefix verification, then continue
     *  on the lower engine; recorded in stats, never silent). */
    Auto,
    /**
     * Degrade on fault, and additionally run the bytecode shadow in
     * lockstep with a healthy native engine, verifying the captured
     * stream bitwise after every steady batch (exact contract only).
     * The belt-and-suspenders mode for chaos/CI runs.
     */
    Always,
};

/** Policy name for reports ("off" / "auto" / "always"). */
std::string toString(DegradeMode m);

/** Complete execution-engine configuration for a Runner. */
struct EngineConfig {
    EngineConfig() = default;
    /** Engine kind with all other settings at defaults (implicit, so
     *  `Runner(g, s, cost, ExecEngine::Tree)`-style call sites read
     *  the same after migrating to the EngineConfig overload). */
    EngineConfig(ExecEngine e) : engine(e) {}

    /** Default engine for all filter actors. */
    ExecEngine engine = ExecEngine::Bytecode;
    /**
     * Host-compilation options for ExecEngine::Native (compiler,
     * flags, cache dir, probe override). Ignored by the interpreting
     * engines.
     */
    native::NativeOptions native;
    /**
     * SIMD lowering for the native engine's emitted code (lane width,
     * ISA, exactness contract — see codegen/simd_spec.h). Ignored by
     * the interpreting engines.
     */
    codegen::SimdSpec simd;
    /**
     * Per-actor engine overrides (actor id → engine). Interpreting
     * engines only: ExecEngine::Native is whole-program and is
     * rejected here at first firing.
     */
    std::map<int, ExecEngine> actorEngines;
    /**
     * Fault-degradation policy for ExecEngine::Native (see
     * DegradeMode). Ignored by the interpreting engines.
     */
    DegradeMode degrade = DegradeMode::Off;
    /**
     * Steady iterations per parallel worker chunk (ring flush and
     * progress tick). 0 keeps the runtime default
     * (ParallelOptions::batchIterations, 32). Positive values override
     * it — larger chunks amortize the flushes but grow every
     * cross-core ring, since rings are sized so a producer can run a
     * whole chunk ahead. Serial runners ignore it. The auto-tuner
     * searches over this knob.
     */
    int batchIterations = 0;
    /**
     * Floor on cross-core SPSC ring capacity in elements (rounded up
     * to a power of two by the ring). 0 keeps the runtime default
     * (ParallelOptions::minRingSlots, 64). The derived bound still
     * applies: this raises capacity, it cannot shrink below what
     * correctness needs.
     */
    std::int64_t ringCapacity = 0;
};

} // namespace macross::interp
