/**
 * @file
 * Program runner: executes a flat stream graph under its schedule,
 * capturing sink output and (optionally) accumulating modeled cycles.
 *
 * The runner drives a three-engine execution stack. Filter bodies
 * run either on the tree-walking Executor (the reference oracle) or,
 * by default, on the bytecode VM: each actor's init/work IR is
 * compiled once (interp/compile_actor.h) into a register instruction
 * stream with pre-resolved cost charges, then fired through the
 * dispatch loop in interp/vm.h. Both interpreting engines produce
 * bit-identical output and bit-identical modeled cycle totals; the
 * engine — globally and per actor — is selected by one typed
 * EngineConfig (interp/engine_config.h) given at construction or via
 * configure() before runInit(). The third engine, ExecEngine::Native,
 * hands the whole schedule to emitted C++ compiled by the host
 * compiler (native/native_engine.h) with the EngineConfig's SimdSpec
 * lowering: output is still bit-identical (or ULP-bounded when the
 * spec opts into that), but cycles are measured (wall clock), not
 * modeled.
 *
 * The runner implements splitter/joiner data movement natively
 * (including the horizontal HSplitter/HJoiner pack/unpack of Section
 * 3.3) and honors the SAGU tape-transpose annotations on tapes.
 *
 * Cost accounting covers the steady state only: init bodies and
 * warm-up (init-phase) firings run with charging disabled, matching
 * how the paper measures steady-state performance.
 */
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "graph/flat_graph.h"
#include "interp/compile_actor.h"
#include "interp/engine_config.h"
#include "interp/executor.h"
#include "interp/vm.h"
#include "native/native_engine.h"
#include "native/native_fault.h"
#include "schedule/steady_state.h"
#include "support/json.h"
#include "support/trace.h"

namespace macross::interp {

/** Per-actor execution/costing configuration (set by autovec models). */
struct ActorExecConfig {
    /**
     * Inner-loop vectorization cost plans, keyed by stable loop id
     * over the actor's work body (may be null).
     */
    std::shared_ptr<Executor::LoopPlans> loopPlans;
    /** Outer-loop (firing-level) vectorization grouping. */
    bool outerVectorized = false;
    int outerWidth = 4;
    double outerExtraPerGroup = 0.0;
};

/** Executes a scheduled stream graph. */
class Runner {
  public:
    /**
     * @param g Graph to run (must outlive the runner).
     * @param s Schedule for @p g.
     * @param cost Cycle sink, or null to run without costing.
     * @param config Complete engine configuration (engine kind,
     *     native options, SIMD spec, per-actor overrides).
     */
    Runner(const graph::FlatGraph& g, const schedule::Schedule& s,
           machine::CostSink* cost = nullptr,
           EngineConfig config = {});

    /**
     * Replace the entire engine configuration. Panics once runInit()
     * has run: by then bytecode actors are compiled and the native
     * program (if any) is built, so a new config could not take
     * effect and silently lying about it would be worse than dying.
     */
    void configure(EngineConfig config);

    /** The active engine configuration. */
    const EngineConfig& engineConfig() const { return config_; }

    /** Install an execution config for one actor. */
    void setActorConfig(int actor_id, ActorExecConfig cfg);

    ExecEngine engine() const { return config_.engine; }

    /** Native build/run stats (null unless running Native). */
    const native::NativeStats* nativeStats() const
    {
        return native_ ? &native_->stats() : nullptr;
    }

    /** The one-partition native program (null unless running Native). */
    const native::NativeProgram* nativeProgram() const
    {
        return native_.get();
    }

    /** Record every element the sink consumes. On by default. */
    void enableCapture(bool on);

    /** Run all init bodies and warm-up firings (uncosted). */
    void runInit();

    /** Run @p iterations steady-state iterations. */
    void runSteady(int iterations);

    /**
     * Run steady iterations until at least @p n elements are captured
     * (fatal after @p max_iters iterations).
     */
    void runUntilCaptured(std::int64_t n, int max_iters = 100000);

    /**
     * The sink's output stream so far, as raw lanes. Under the native
     * engine it is the NativeProgram's host log (not a mirror of it);
     * after degradation it is the ladder runner's stream.
     */
    const CapturedStream& captured() const
    {
        if (degraded_)
            return ladder_->captured();
        return native_ ? native_->captured() : captured_;
    }

    /**
     * Native faults this runner absorbed (or rethrew, under
     * DegradeMode::Off). Empty on a healthy run.
     */
    const std::vector<native::NativeFaultRecord>& nativeFaults() const
    {
        return nativeFaults_;
    }

    /** True once a native fault degraded this runner to the bytecode
     *  VM (DegradeMode::Auto/Always). */
    bool degradedFromNative() const { return degraded_; }

    /**
     * True when the degraded run's pre-fault captured prefix was
     * bitwise verified against the bytecode replay (possible only
     * under the exact SimdSpec contract, or trivially for an empty
     * prefix). False on a healthy or non-degraded run.
     */
    bool degradeVerified() const { return degradeVerified_; }

    /** Elements the degrade prefix verification covered. */
    std::int64_t verifiedElements() const { return verifiedElements_; }

    /** Fire one actor once (also used internally). */
    void fire(int actor_id);

    /**
     * Fire one actor once through a caller-supplied VM and cost sink.
     * This is the parallel runner's entry point: Vm carries reusable
     * dispatch-loop state and CostSink accumulates with no
     * synchronization, so each worker thread passes its own pair.
     * Requires runInit() to have completed (all bytecode actors are
     * compiled there; ensureCompiled is then a read-only lookup). The
     * actor's frame/locals/tapes are touched as in fire() — safe as
     * long as each actor (and each tape endpoint) belongs to exactly
     * one thread.
     */
    void fireWith(int actor_id, Vm& vm, machine::CostSink* cost);

    /** Read-only access to a tape's runtime state (stats, tests). */
    const Tape& tapeAt(int tape_id) const
    {
        return *tapes_.at(tape_id);
    }

    /** Mutable tape access (the parallel runner installs SPSC rings
     *  on cross-core tapes before any traffic). */
    Tape& mutableTape(int tape_id) { return *tapes_.at(tape_id); }

    bool initDone() const { return initDone_; }

    /** Compiled bytecode for @p actor_id (null before compilation
     *  or for tree-engine actors). */
    const bytecode::CompiledActor* compiledActor(int actor_id) const
    {
        return compiled_.at(actor_id).get();
    }

    const graph::FlatGraph& graph() const { return *graph_; }
    const schedule::Schedule& schedule() const { return *sched_; }

    /** Modeled cycles accumulated so far (0 without a sink). */
    double totalCycles() const;

    /** Firings of @p actor_id so far (init phase included). */
    std::int64_t fireCount(int actor_id) const
    {
        return fireCounts_.at(actor_id);
    }

    /** Attach a trace for phase events and firing counters. */
    void setTrace(support::Trace* t) { trace_ = t; }

    /**
     * Execution statistics as JSON: per-actor firing counts,
     * attributed cycles, and bytecode instruction counts (compiled
     * actors only), plus per-tape traffic (elements pushed, occupancy
     * high-water mark), the active engine, and total bytecode compile
     * time. Cycles are present only when the runner was built with a
     * cost sink.
     */
    json::Value statsToJson() const;

  private:
    /** Emit the "native" stats block (build stats, fault records,
     *  degradation outcome) into @p root when there is one. */
    void appendNativeStats(json::Value& root) const;
    /** Build the bytecode ladder runner (same graph/schedule/actor
     *  configs, engine forced to Bytecode, degrade off, no cost
     *  sink — native runs are measured, not modeled). */
    void buildLadder();
    /**
     * Absorb a native fault under DegradeMode::Auto/Always: replay
     * @p completed_iters steady iterations on the ladder runner (a
     * warm Always shadow skips the replay), verify the pre-fault
     * captured prefix bitwise against it (exact contract only), and
     * route all further execution through the ladder.
     */
    void degradeFromNative(std::int64_t completed_iters);
    /**
     * DegradeMode::Always: fatal unless the native stream equals the
     * bytecode shadow's. Both were verified up to the last check, so
     * only the lanes added since then are compared.
     */
    void checkShadow(const char* when);

    void fireFilter(const graph::Actor& a, Vm& vm,
                    machine::CostSink* cost);
    void fireSplitter(const graph::Actor& a, machine::CostSink* cost);
    void fireJoiner(const graph::Actor& a, machine::CostSink* cost);
    Tape* tapeFor(int tape_id);
    ExecEngine engineFor(int actor_id) const;
    const bytecode::CompiledActor& ensureCompiled(const graph::Actor& a);

    const graph::FlatGraph* graph_;
    const schedule::Schedule* sched_;
    machine::CostSink* cost_;
    /** Machine for bytecode charge resolution, captured from the cost
     *  sink at construction (stable across runInit's cost nulling). */
    const machine::MachineDesc* machine_;
    support::Trace* trace_ = nullptr;
    EngineConfig config_;

    std::vector<std::unique_ptr<Tape>> tapes_;
    std::vector<Env> locals_;
    std::vector<Env> states_;
    std::vector<ActorExecConfig> configs_;
    std::vector<std::int64_t> fireCounts_;
    /** Stable loop ids over each filter's work body (tree engine). */
    std::vector<Executor::LoopIds> loopIds_;
    std::vector<std::unique_ptr<bytecode::CompiledActor>> compiled_;
    std::vector<ActorFrame> frames_;
    Vm vm_;
    /** One-partition native program (ExecEngine::Native only). */
    std::unique_ptr<native::NativeProgram> native_;
    /**
     * The next rung down: a bytecode Runner over the same graph and
     * schedule. Built lazily on the first fault (DegradeMode::Auto) or
     * up front as the lockstep shadow (DegradeMode::Always); after
     * degradation it is the authoritative execution state.
     */
    std::unique_ptr<Runner> ladder_;
    /** Native faults absorbed or rethrown by this runner. */
    std::vector<native::NativeFaultRecord> nativeFaults_;
    bool degraded_ = false;
    bool degradeVerified_ = false;
    std::int64_t verifiedElements_ = 0;
    /** Successful native steady iterations (the replay target). */
    std::int64_t steadyIters_ = 0;
    /** Steady iterations the ladder runner has executed. */
    std::int64_t ladderIters_ = 0;
    double compileMicros_ = 0.0;
    /** Elements the Always shadow has verified so far. */
    std::size_t shadowChecked_ = 0;
    std::vector<Tape*> sinkTapes_;
    /** Sink output of the interpreting engines (the native engine
     *  keeps its own log in native_). */
    CapturedStream captured_;
    bool captureEnabled_ = true;
    bool initDone_ = false;
};

} // namespace macross::interp
