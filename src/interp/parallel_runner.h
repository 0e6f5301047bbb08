/**
 * @file
 * Parallel steady-state runtime: executes a multicore partition
 * (multicore/partition.h) of a scheduled stream graph on a pool of
 * worker threads, one per core.
 *
 * Each worker owns the actors its core was assigned and fires them in
 * the single-appearance schedule order, batch after batch of steady
 * iterations. Tapes whose endpoints live on the same core keep the
 * ordinary growable Tape storage and cost one predictable branch;
 * tapes that cross cores are re-backed by bounded lock-free SPSC rings
 * (interp/spsc_queue.h) sized so a producer can run a whole batch
 * ahead of its consumer without wrapping — producers never block, only
 * consumers wait, and on an acyclic graph that makes deadlock
 * impossible by topological induction.
 *
 * Engines: the interpreting engines (tree, bytecode) fire through a
 * shared Runner with per-worker VM state. ExecEngine::Native instead
 * compiles ONE partitioned shared object (native::NativeProgram over
 * the partition): each worker drives its core's emitted sub-program,
 * and the same SPSC rings back the cross-core tapes — emitted code
 * follows the interpreter's ring protocol instruction for
 * instruction, so the watchdog, fault injection, and serial-fallback
 * machinery below work unchanged (the fallback replays through the
 * serial native engine, the one-partition program, and is verified
 * bitwise against the parallel prefix).
 *
 * Determinism: output bytes and modeled per-actor cycles are
 * bit-identical to the single-threaded Runner at any thread count.
 * Each actor fires on exactly one thread, so its tape traffic and its
 * floating-point charge sequence are exactly the serial ones; the sink
 * actor's worker appends captures in serial order; and per-thread
 * CostSinks merge at batch barriers through
 * CostSink::assignDisjointUnion, which recomputes cross-actor
 * aggregates in canonical actor-id order (compare against the serial
 * runner's CostSink::attributedCycles()).
 */
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "interp/runner.h"
#include "interp/spsc_queue.h"
#include "multicore/partition.h"
#include "native/native_engine.h"

namespace macross::interp {

/** Tuning knobs for ParallelRunner. */
struct ParallelOptions {
    /**
     * Steady iterations per dispatch batch. Cross-core rings are
     * sized to hold init residue plus this many iterations of
     * production, the bound that keeps producers from ever blocking
     * mid-batch.
     */
    int batchIterations = 32;
    /** Floor on ring capacity in elements (rounded up to pow2). */
    std::int64_t minRingSlots = 64;
    /** Pin worker k to CPU k when the host has enough CPUs. */
    bool pinThreads = true;
    /**
     * Watchdog timeout per dispatched batch, in milliseconds. 0
     * disables the watchdog: batch waits block indefinitely and a
     * worker exception is rethrown on the calling thread (the legacy
     * behavior). When positive, a batch that does not complete in time
     * — a stalled, deadlocked, or crashed worker — is detected, the
     * pool is shut down cleanly, and the run degrades to the serial
     * Runner, which replays the whole steady history so the caller
     * still observes bit-identical output and modeled cycles. Size it
     * to a generous multiple of the expected batch wall time.
     */
    std::int64_t watchdogMs = 0;
};

/**
 * One detected parallel-runtime fault: what the watchdog saw, and what
 * the recovery achieved. Reported under run.stats.parallel.faults.
 */
struct ParallelFault {
    /** "workerStall" (batch timeout) or "workerError" (exception). */
    std::string kind;
    /** Batch generation that faulted. */
    std::int64_t generation = 0;
    /** Iterations the faulted batch was dispatched with. */
    int batchIterations = 0;
    /** Wall-clock from dispatch to detection. */
    double detectedAfterMs = 0.0;
    /** Workers that had not finished the batch at detection. */
    std::vector<int> pendingWorkers;
    /** Human-readable diagnostic (exception text for workerError). */
    std::string message;
    /** All workers parked within the grace period (no detach). */
    bool cleanShutdown = false;
    /** Serial fallback was run. */
    bool fallbackUsed = false;
    /**
     * The parallel run's captured prefix was bitwise re-verified
     * against the serial fallback (only attempted after a clean
     * shutdown; a detached worker could still be appending).
     */
    bool fallbackVerified = false;
    /** Elements the prefix verification covered. */
    std::int64_t verifiedElements = 0;
};

/** Executes a partitioned stream graph on worker threads. */
class ParallelRunner {
  public:
    using Options = ParallelOptions;

    /**
     * @param g      Graph to run (must outlive the runner).
     * @param s      Schedule for @p g.
     * @param part   Core assignment from partitionGreedy (cores >= 1).
     * @param cost   Cycle sink, or null to run without costing. Merged
     *               deterministically at the end of every runSteady.
     *               Native runs measure wall clock instead of modeling
     *               cycles, so the sink is left untouched there.
     * @param config Engine configuration. ExecEngine::Native compiles
     *               one partitioned shared object
     *               (native::NativeProgram) whose per-core
     *               sub-programs the workers drive over the same SPSC
     *               rings the interpreting engines use.
     */
    ParallelRunner(const graph::FlatGraph& g,
                   const schedule::Schedule& s,
                   const multicore::Partition& part,
                   machine::CostSink* cost = nullptr,
                   EngineConfig config = {},
                   Options opt = {});
    ~ParallelRunner();

    ParallelRunner(const ParallelRunner&) = delete;
    ParallelRunner& operator=(const ParallelRunner&) = delete;

    /** Install an execution config for one actor (before runInit). */
    void setActorConfig(int actor_id, ActorExecConfig cfg);

    /** Record every element the sink consumes. On by default. */
    void enableCapture(bool on)
    {
        captureEnabled_ = on;
        runner_.enableCapture(on);
    }

    /** Run all init bodies and warm-up firings, single-threaded. */
    void runInit();

    /** Run @p iterations steady-state iterations across the pool. */
    void runSteady(int iterations);

    /**
     * Run steady iterations until at least @p n elements are captured
     * (fatal after @p max_iters iterations).
     */
    void runUntilCaptured(std::int64_t n, int max_iters = 100000);

    const std::vector<Value>& captured() const
    {
        if (fallback_)
            return fallback_->captured();
        return native_ ? nativeCaptured_ : runner_.captured();
    }

    /** Native build/run stats (null unless running Native). After
     *  degradation this is the partitioned build; the serial replay's
     *  stats live in statsToJson()["native"] via the fallback. */
    const native::NativeStats* nativeStats() const
    {
        return native_ ? &native_->stats() : nullptr;
    }

    /** Faults detected so far (empty on a healthy run). */
    const std::vector<ParallelFault>& faults() const { return faults_; }

    /**
     * Native faults surfaced by the partitioned program's workers
     * (signal-guard crashes, keyed by partition), oldest first. The
     * serial fallback's own faults, if it also degrades, live in its
     * Runner::nativeFaults().
     */
    const std::vector<native::NativeFaultRecord>& nativeFaults() const
    {
        return nativeFaults_;
    }

    /** True once a fault degraded this runner to the serial path. */
    bool degradedToSerial() const { return fallback_ != nullptr; }

    /** The serial fallback runner after degradation (null before).
     *  Lets callers see whether the fallback itself degraded further
     *  down the ladder and whether that step verified. */
    const Runner* fallbackRunner() const { return fallback_.get(); }

    /** Merged modeled cycles so far (0 without a sink). */
    double totalCycles() const;

    int threads() const { return part_.cores; }

    const Runner& runner() const { return runner_; }

    /** Attach a trace for phase events (main-thread use only). */
    void setTrace(support::Trace* t) { trace_ = t; }

    /** Wall-clock microseconds spent inside runSteady so far. */
    double steadyWallMicros() const { return steadyWallMicros_; }

    /**
     * Provide the single-threaded wall time for the same steady work;
     * statsToJson then reports measuredSpeedup = baseline / parallel.
     */
    void setBaselineWallMicros(double micros)
    {
        baselineWallMicros_ = micros;
    }

    /**
     * Runner stats (per-actor firing counts/cycles, tape traffic,
     * engine, dispatcher) plus a "parallel" object: thread count,
     * batch size, core assignment and per-core modeled load, ring
     * capacities and traffic, steady wall-clock, and measured speedup
     * when a baseline was provided.
     */
    json::Value statsToJson() const;

  private:
    /** Firing slice of one worker: (actor id, repetitions). */
    struct SliceEntry {
        int actorId = 0;
        std::int64_t reps = 0;
    };

    struct Worker {
        std::vector<SliceEntry> slice;
        Vm vm;
        std::unique_ptr<machine::CostSink> sink;
        /** Ring-backed tapes this worker produces into / consumes
         *  from — flushed exactly at batch end. */
        std::vector<Tape*> producedRings;
        std::vector<Tape*> consumedRings;
        std::thread thread;
        std::exception_ptr error;
        /** Last generation this worker finished (under mu_). */
        std::int64_t doneGen = 0;
        /** workerLoop returned; the thread is joinable fast. */
        bool exited = false;
    };

    void workerLoop(int worker_id);
    void runBatch(int worker_id, Worker& w, int iterations);
    bool initDone() const
    {
        return native_ ? native_->initDone() : runner_.initDone();
    }
    /** Returns the detected fault, or nullopt when the batch ran. */
    std::optional<ParallelFault> dispatchBatch(int iterations);
    /**
     * Stop the pool, abort ring waits so blocked workers park, then
     * join them (or, past the grace period, detach the wedged ones).
     * Returns true when every worker exited within the grace period.
     */
    bool shutdownPool();
    /**
     * Watchdog recovery: stop the pool, abort ring waits so blocked
     * workers park, join (or, past the grace period, detach) them,
     * then build a fresh serial Runner, replay @p target_iters steady
     * iterations from scratch, verify the parallel captured prefix
     * bitwise against it, and merge its exact serial cost into cost_.
     * Afterwards all reads route through the fallback runner.
     */
    void degradeToSerial(ParallelFault fault, std::int64_t target_iters);

    const graph::FlatGraph* graph_;
    const schedule::Schedule* sched_;
    multicore::Partition part_;
    machine::CostSink* cost_;
    EngineConfig config_;
    Options opt_;
    support::Trace* trace_ = nullptr;

    /** Interpreting execution state. Under ExecEngine::Native the
     *  runner is constructed with the engine downgraded to Bytecode
     *  and never fired — it only provides the shared stats/config
     *  plumbing — while native_ owns the compiled partitions. */
    Runner runner_;
    std::vector<std::unique_ptr<SpscRing>> rings_;  ///< By tape id
                                                    ///< (null when
                                                    ///< intra-core).
    std::vector<std::unique_ptr<Worker>> workers_;

    /** Compiled per-core sub-programs (ExecEngine::Native only). */
    std::unique_ptr<native::NativeProgram> native_;
    /** Sink mirror of native_, extended at batch barriers so
     *  captured() can hand out a stable reference. */
    std::vector<Value> nativeCaptured_;

    /** Replayed onto the fallback runner (setActorConfig history). */
    std::vector<std::pair<int, ActorExecConfig>> actorConfigs_;
    bool captureEnabled_ = true;

    /** Fault records + the serial fallback state after degradation. */
    std::vector<ParallelFault> faults_;
    /** Structured native faults from the partitioned program. */
    std::vector<native::NativeFaultRecord> nativeFaults_;
    std::unique_ptr<machine::CostSink> fallbackCost_;
    std::unique_ptr<Runner> fallback_;

    /** Generation-counted batch barrier: the main thread bumps
     *  generation_ to release workers, each worker reports into
     *  doneCount_, and the final worker wakes the main thread. Both
     *  edges run through mu_, which also carries the happens-before
     *  for the main thread's reads of captures and per-thread sinks. */
    std::mutex mu_;
    std::condition_variable cv_;
    std::int64_t generation_ = 0;
    int batchIters_ = 0;
    int doneCount_ = 0;
    /** Workers that finished the current batch with an exception
     *  (under mu_). Native dispatch waits on this too: a crashed
     *  partition's siblings block in emitted ring waits forever, so
     *  the main thread must wake on the first error, not on allDone. */
    int erroredCount_ = 0;
    int exitedCount_ = 0;
    bool stop_ = false;

    double steadyWallMicros_ = 0.0;
    double baselineWallMicros_ = 0.0;
    std::int64_t steadyIterations_ = 0;
    /** Steady iterations completed without fault (fallback target). */
    std::int64_t completedIters_ = 0;
};

} // namespace macross::interp
