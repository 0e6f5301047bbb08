/**
 * @file
 * Parallel steady-state runtime: executes a multicore partition
 * (multicore/partition.h) of a scheduled stream graph on a pool of
 * worker threads, one per core.
 *
 * Each runSteady is one dispatch: the main thread releases every
 * worker once, and each worker fires the actors its core was assigned
 * in the single-appearance schedule order for the whole call, in
 * chunks of batchIterations. A chunk ends with an exact flush of the
 * worker's ring endpoints and a bump of the worker's progress counter;
 * no worker ever waits for another between chunks. Tapes whose
 * endpoints live on the same core keep the ordinary growable Tape
 * storage and cost one predictable branch; tapes that cross cores are
 * re-backed by bounded lock-free SPSC rings (interp/spsc_queue.h).
 * Consumers block on an empty ring and producers on a full one, so on
 * a pipeline partition (partitionGreedy) every core runs ahead of its
 * consumers by up to a ring's worth of work.
 *
 * Deadlock freedom with blocking producers, for any partition: each
 * worker fires its actors in serial order, so among the workers'
 * next firings take the one F that comes first in the serial firing
 * sequence. Every firing before F has happened, so F's inputs hold at
 * least what the serial run had at that point, and each output tape
 * of F holds at most what it held serially (its producer's firings are
 * exactly the serial ones, its consumer has done at least as many).
 * A ring of at least the serial buffer bound (computeBufferBounds)
 * therefore has room for F, and the block slack on each side covers
 * transposed endpoints that publish and release whole blocks only
 * (partial blocks go out at each chunk end). So F can always fire,
 * and some worker always makes progress.
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
 * CostSinks merge at the end of every runSteady through
 * CostSink::assignDisjointUnion, which recomputes cross-actor
 * aggregates in canonical actor-id order (compare against the serial
 * runner's CostSink::attributedCycles()).
 */
#pragma once

#include <atomic>
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
     * Steady iterations per worker chunk: the granularity of ring
     * flushes, progress counters and the fault-injection site.
     * Cross-core rings are also sized to hold init residue plus this
     * many iterations of production, so a producer can run a chunk
     * ahead of its consumer before it blocks.
     */
    int batchIterations = 32;
    /** Floor on ring capacity in elements (rounded up to pow2). */
    std::int64_t minRingSlots = 64;
    /** Pin worker k to CPU k when the host has enough CPUs. */
    bool pinThreads = true;
    /**
     * Watchdog timeout in milliseconds: the longest a dispatch may go
     * without any worker finishing a chunk. 0 disables the watchdog:
     * dispatch waits block indefinitely and a worker exception parks
     * the pool and is rethrown on the calling thread (the legacy
     * behavior). When positive, a dispatch that stops making progress
     * — a stalled, deadlocked, or crashed worker — is detected, the
     * pool is shut down cleanly, and the run degrades to the serial
     * Runner, which replays the whole steady history so the caller
     * still observes bit-identical output and modeled cycles. Size it
     * to a generous multiple of the expected chunk wall time.
     */
    std::int64_t watchdogMs = 0;
};

/**
 * One detected parallel-runtime fault: what the watchdog saw, and what
 * the recovery achieved. Reported under run.stats.parallel.faults.
 */
struct ParallelFault {
    /** "workerStall" (no progress), "workerError" (exception) or
     *  "nativeFault" (contained crash in emitted code). */
    std::string kind;
    /**
     * Chunk that faulted, counted from 1 over the runner's life (every
     * worker splits each runSteady into the same chunks): the chunk
     * the errored worker was in, or for a stall the earliest chunk a
     * pending worker was in.
     */
    std::int64_t generation = 0;
    /** Iterations of that chunk. */
    int batchIterations = 0;
    /** Wall-clock from dispatch to detection. */
    double detectedAfterMs = 0.0;
    /** Workers that had not finished the dispatch at detection (for
     *  an error, the worker that raised it). */
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
     * shutdown; a detached worker could still be appending). Under
     * the native engine a crash in emitted code ends the prefix at
     * the last healthy dispatch: the crashed one never reaches the
     * host log.
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
     * @param part   Core assignment (cores >= 1), from
     *               partitionGreedy or partitionLpt.
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

    /** Run @p iterations steady-state iterations across the pool
     *  (one dispatch). */
    void runSteady(int iterations);

    /**
     * Run steady iterations until at least @p n elements are captured
     * (fatal after @p max_iters iterations).
     */
    void runUntilCaptured(std::int64_t n, int max_iters = 100000);

    /** The sink's output stream so far, as raw lanes: the serial
     *  fallback's after degradation, else the partitioned program's
     *  host log (native) or the shared runner's capture. */
    const CapturedStream& captured() const
    {
        if (fallback_)
            return fallback_->captured();
        return native_ ? native_->captured() : runner_.captured();
    }

    /** Native build/run stats (null unless running Native). After
     *  degradation this is the partitioned build; the serial replay's
     *  stats live in statsToJson()["native"] via the fallback. */
    const native::NativeStats* nativeStats() const
    {
        return native_ ? &native_->stats() : nullptr;
    }

    /** The partitioned native program (null unless running Native). */
    const native::NativeProgram* nativeProgram() const
    {
        return native_.get();
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

    /** Worker threads: the cores the partition uses. */
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
     * engine, dispatcher) plus a "parallel" object: thread count
     * (cores used, beside threadsRequested), chunk size, core
     * assignment and per-core modeled load, ring
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
         *  from — flushed exactly at chunk end. */
        std::vector<Tape*> producedRings;
        std::vector<Tape*> consumedRings;
        std::thread thread;
        std::exception_ptr error;
        /** Chunks finished over the runner's life (the watchdog's
         *  progress counter; written only by this worker). */
        std::atomic<std::int64_t> chunks{0};
        /** Last generation this worker finished (under mu_). */
        std::int64_t doneGen = 0;
        /** workerLoop returned; the thread is joinable fast. */
        bool exited = false;
    };

    void workerLoop(int worker_id);
    /** One worker's share of a dispatch, chunk by chunk. */
    void runSlice(int worker_id, Worker& w, int iterations);
    bool initDone() const
    {
        return native_ ? native_->initDone() : runner_.initDone();
    }
    /** Sum of the workers' progress counters. */
    std::int64_t chunksFinished() const
    {
        std::int64_t n = 0;
        for (const auto& w : workers_)
            n += w->chunks.load(std::memory_order_relaxed);
        return n;
    }
    /**
     * Release every worker for @p iterations and wait until all have
     * finished, one has failed, or (watchdog on) none has finished a
     * chunk for watchdogMs. Returns the detected fault, or nullopt
     * when the dispatch ran.
     */
    std::optional<ParallelFault> dispatch(int iterations);
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

    /** Replayed onto the fallback runner (setActorConfig history). */
    std::vector<std::pair<int, ActorExecConfig>> actorConfigs_;
    bool captureEnabled_ = true;

    /** Fault records + the serial fallback state after degradation. */
    std::vector<ParallelFault> faults_;
    /** Structured native faults from the partitioned program. */
    std::vector<native::NativeFaultRecord> nativeFaults_;
    std::unique_ptr<machine::CostSink> fallbackCost_;
    std::unique_ptr<Runner> fallback_;

    /** Generation-counted dispatch: the main thread bumps
     *  generation_ to release workers, each worker reports into
     *  doneCount_ when its slice is done, and the main thread wakes on
     *  the last report or the first error. Both edges run through
     *  mu_, which also carries the happens-before for the main
     *  thread's reads of captures and per-thread sinks. */
    std::mutex mu_;
    std::condition_variable cv_;
    std::int64_t generation_ = 0;
    int dispatchIters_ = 0;
    int doneCount_ = 0;
    /** First worker whose slice ended in an exception this dispatch,
     *  or -1 (under mu_). Its peers may be blocked in ring waits for
     *  data it will never publish, so the main thread wakes on it. */
    int firstError_ = -1;
    int exitedCount_ = 0;
    bool stop_ = false;
    /** Chunks of every completed dispatch (main thread only). */
    std::int64_t chunks_ = 0;

    double steadyWallMicros_ = 0.0;
    double baselineWallMicros_ = 0.0;
    /** Steady iterations asked for so far (the fallback target). */
    std::int64_t steadyIterations_ = 0;
};

} // namespace macross::interp
