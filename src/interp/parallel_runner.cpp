/**
 * @file
 * ParallelRunner implementation.
 */
#include "interp/parallel_runner.h"

#include <algorithm>
#include <chrono>

#include "native/native_fault.h"
#include "schedule/buffers.h"
#include "support/diagnostics.h"
#include "support/fault.h"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace macross::interp {

namespace {

/**
 * Under ExecEngine::Native the member Runner must never build its own
 * one-partition shared object (the partitioned one replaces it), so
 * it is constructed with the engine downgraded; config_ keeps Native
 * as the source of truth (and the serial fallback uses it verbatim).
 */
EngineConfig
interpEngineConfig(EngineConfig c)
{
    if (c.engine == ExecEngine::Native)
        c.engine = ExecEngine::Bytecode;
    return c;
}

} // namespace

ParallelRunner::ParallelRunner(const graph::FlatGraph& g,
                               const schedule::Schedule& s,
                               const multicore::Partition& part,
                               machine::CostSink* cost,
                               EngineConfig config, Options opt)
    : graph_(&g), sched_(&s), part_(part), cost_(cost),
      config_(std::move(config)), opt_(opt),
      runner_(g, s, cost, interpEngineConfig(config_))
{
    const bool native = config_.engine == ExecEngine::Native;
    fatalIf(part_.cores < 1, "parallel run over zero cores");
    fatalIf(part_.coreOf.size() != g.actors.size(),
            "partition does not cover the graph");
    // EngineConfig carries the user/tuner-visible parallel knobs; a
    // set value overrides the ParallelOptions default so one config
    // object fully determines the run (the auto-tuner relies on it).
    fatalIf(config_.batchIterations < 0,
            "EngineConfig.batchIterations must be >= 0 (0 = default)");
    fatalIf(config_.ringCapacity < 0,
            "EngineConfig.ringCapacity must be >= 0 (0 = default)");
    if (config_.batchIterations > 0)
        opt_.batchIterations = config_.batchIterations;
    if (config_.ringCapacity > 0)
        opt_.minRingSlots = config_.ringCapacity;
    fatalIf(opt_.batchIterations < 1, "batch of zero iterations");

    // Re-back every cross-core tape with an SPSC ring. The serial
    // buffer bound plus block slack on each side (for transposed
    // endpoints whose mapped addresses run ahead of their cursors) is
    // what deadlock freedom needs (see the header); the batch term
    // lets a producer run a whole chunk ahead of a consumer that has
    // not released anything before it blocks on a full ring.
    const std::vector<schedule::BufferBound> bounds =
        schedule::computeBufferBounds(g, s);
    rings_.resize(g.tapes.size());
    for (std::size_t i = 0; i < g.tapes.size(); ++i) {
        const graph::TapeDesc& td = g.tapes[i];
        if (!part_.crossing(td))
            continue;
        const std::int64_t perIter =
            multicore::steadyTapeWords(g, s, static_cast<int>(i));
        std::int64_t headBlock = 1;
        std::int64_t tailBlock = 1;
        if (td.transpose.readSide)
            headBlock = td.transpose.rate * td.transpose.simdWidth;
        if (td.transpose.writeSide)
            tailBlock = td.transpose.rate * td.transpose.simdWidth;
        const std::int64_t slack = 2 * std::max(headBlock, tailBlock);
        // bound covers the init-phase peak (all of the producer's
        // warm-up output can be resident before the consumer's first
        // warm-up firing drains any of it) and every serial
        // steady-state occupancy.
        const std::int64_t slots = std::max(
            {opt_.minRingSlots, bounds[i].bound + slack,
             bounds[i].warmup + opt_.batchIterations * perIter +
                 slack});
        rings_[i] =
            std::make_unique<SpscRing>(slots, headBlock, tailBlock);
        if (!native)
            runner_.mutableTape(static_cast<int>(i))
                .setRing(rings_[i].get());
    }

    // Native: compile the partitioned library once and bind both
    // emitted endpoints of every crossing tape to its ring. The
    // interpreting tapes stay ring-free — nothing fires through
    // runner_ in this mode.
    if (native) {
        native_ = std::make_unique<native::NativeProgram>(
            g, s, config_.native, config_.simd, part_.cores,
            part_.coreOf);
        for (std::size_t i = 0; i < rings_.size(); ++i) {
            if (rings_[i])
                native_->bindRing(static_cast<int>(i),
                                  rings_[i].get());
        }
    }

    // One worker per core: its slice is the schedule restricted to the
    // actors the partition assigned there, in schedule order (which
    // preserves each actor's serial firing order — the determinism
    // anchor).
    workers_.reserve(part_.cores);
    for (int c = 0; c < part_.cores; ++c) {
        auto w = std::make_unique<Worker>();
        for (int id : s.order) {
            if (part_.coreOf[id] == c && s.reps[id] > 0)
                w->slice.push_back(SliceEntry{id, s.reps[id]});
        }
        if (cost_ && !native)
            w->sink = std::make_unique<machine::CostSink>(
                cost_->machine());
        for (std::size_t i = 0; !native && i < g.tapes.size(); ++i) {
            if (!rings_[i])
                continue;
            Tape& t = runner_.mutableTape(static_cast<int>(i));
            if (part_.coreOf[g.tapes[i].src] == c)
                w->producedRings.push_back(&t);
            if (part_.coreOf[g.tapes[i].dst] == c)
                w->consumedRings.push_back(&t);
        }
        workers_.push_back(std::move(w));
    }
    for (int c = 0; c < part_.cores; ++c)
        workers_[c]->thread =
            std::thread(&ParallelRunner::workerLoop, this, c);
}

ParallelRunner::~ParallelRunner()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) {
        if (w->thread.joinable())
            w->thread.join();
    }
}

void
ParallelRunner::setActorConfig(int actor_id, ActorExecConfig cfg)
{
    panicIf(initDone(),
            "setActorConfig after runInit on a parallel runner");
    // Keep a copy: the serial fallback must run the same per-actor
    // configuration to reproduce the exact output and cycles.
    actorConfigs_.emplace_back(actor_id, cfg);
    runner_.setActorConfig(actor_id, std::move(cfg));
}

void
ParallelRunner::runInit()
{
    // Single-threaded on the main thread, workers parked: init bodies
    // and warm-up firings run through the ring-backed tapes with no
    // concurrency, and the dispatch mutex orders these writes before
    // any worker's first firing. runInit also precompiles every
    // bytecode actor, so ensureCompiled is a read-only lookup by the
    // time workers share it. Native init runs the same schedule-order
    // warm-up through the emitted partitions (block-floored ring
    // publication makes whole blocks visible, which is all the SDF
    // init schedule ever consumes, so one thread suffices).
    if (native_) {
        native_->init();
        return;
    }
    runner_.runInit();
}

void
ParallelRunner::workerLoop(int worker_id)
{
#ifdef __linux__
    // Best-effort affinity: meaningful only when the host actually has
    // a CPU per worker (CI containers often don't).
    if (opt_.pinThreads &&
        std::thread::hardware_concurrency() >=
            static_cast<unsigned>(part_.cores)) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(static_cast<unsigned>(worker_id), &set);
        (void)pthread_setaffinity_np(pthread_self(), sizeof(set),
                                     &set);
    }
#endif
    Worker& w = *workers_[worker_id];
    std::int64_t seenGen = 0;
    for (;;) {
        int iters = 0;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait(lk, [&] {
                return stop_ || generation_ != seenGen;
            });
            if (stop_) {
                w.exited = true;
                ++exitedCount_;
                cv_.notify_all();
                return;
            }
            seenGen = generation_;
            iters = dispatchIters_;
        }
        try {
            runSlice(worker_id, w, iters);
        } catch (...) {
            w.error = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lk(mu_);
            ++doneCount_;
            if (w.error && firstError_ < 0)
                firstError_ = worker_id;
            w.doneGen = seenGen;
        }
        cv_.notify_all();
    }
}

void
ParallelRunner::runSlice(int worker_id, Worker& w, int iterations)
{
    std::int64_t wid = worker_id;
    for (int done = 0; done < iterations;) {
        const int chunk = std::min(opt_.batchIterations, iterations - done);
        support::FaultInjector::fire("parallel.worker.batch", &wid);
        if (native_) {
            // The emitted run_steady ends with an exact ring flush.
            native_->runSteadyPartition(worker_id, chunk);
        } else {
            for (int it = 0; it < chunk; ++it) {
                for (const SliceEntry& e : w.slice) {
                    for (std::int64_t k = 0; k < e.reps; ++k)
                        runner_.fireWith(e.actorId, w.vm, w.sink.get());
                }
            }
            // Chunk-end flushes: push out partial transposed blocks
            // (the consumer may need them before this worker's next
            // block completes) and release everything consumed up to
            // the head block.
            for (Tape* t : w.producedRings)
                t->flushRingTail();
            for (Tape* t : w.consumedRings)
                t->flushRingHead();
        }
        done += chunk;
        w.chunks.fetch_add(1, std::memory_order_relaxed);
    }
}

std::optional<ParallelFault>
ParallelRunner::dispatch(int iterations)
{
    std::int64_t gen = 0;
    {
        std::lock_guard<std::mutex> lk(mu_);
        dispatchIters_ = iterations;
        doneCount_ = 0;
        firstError_ = -1;
        gen = ++generation_;
    }
    cv_.notify_all();
    const auto t0 = std::chrono::steady_clock::now();
    auto elapsedMs = [&] {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };
    // The chunk (1-based over the runner's life) a worker that has
    // finished @p chunks chunks is in, and that chunk's iterations.
    auto chunkFault = [&](const char* kind, std::int64_t chunks) {
        ParallelFault f;
        f.kind = kind;
        f.generation = chunks + 1;
        f.batchIterations = std::min<std::int64_t>(
            opt_.batchIterations,
            iterations - (chunks - chunks_) * opt_.batchIterations);
        f.detectedAfterMs = elapsedMs();
        return f;
    };
    int errored = -1;
    {
        std::unique_lock<std::mutex> lk(mu_);
        // Wake on the first worker error as well as on completion: a
        // worker that died mid-slice never flushes its rings, so its
        // peers block in ring waits and would never finish.
        auto done = [&] {
            return doneCount_ == static_cast<int>(workers_.size()) ||
                   firstError_ >= 0;
        };
        if (opt_.watchdogMs <= 0) {
            cv_.wait(lk, done);
        } else {
            // Stall detection: no worker finished a chunk for
            // watchdogMs. Polled at a quarter of the timeout.
            const auto timeout =
                std::chrono::milliseconds(opt_.watchdogMs);
            const auto poll = std::max(timeout / 4,
                                       std::chrono::milliseconds(1));
            std::int64_t seen = chunksFinished();
            auto lastMove = std::chrono::steady_clock::now();
            while (!cv_.wait_for(lk, poll, done)) {
                const auto now = std::chrono::steady_clock::now();
                const std::int64_t finished = chunksFinished();
                if (finished != seen) {
                    seen = finished;
                    lastMove = now;
                } else if (now - lastMove >= timeout) {
                    break;
                }
            }
        }
        if (!done()) {
            std::int64_t slowest = -1;
            std::vector<int> pending;
            for (std::size_t i = 0; i < workers_.size(); ++i) {
                if (workers_[i]->doneGen == gen)
                    continue;
                pending.push_back(static_cast<int>(i));
                const std::int64_t c =
                    workers_[i]->chunks.load(std::memory_order_relaxed);
                slowest = slowest < 0 ? c : std::min(slowest, c);
            }
            ParallelFault f = chunkFault("workerStall", slowest);
            f.pendingWorkers = std::move(pending);
            f.message = "chunk " + std::to_string(f.generation) +
                        " made no progress within the " +
                        std::to_string(opt_.watchdogMs) +
                        " ms watchdog; " +
                        std::to_string(f.pendingWorkers.size()) +
                        " worker(s) pending";
            return f;
        }
        errored = firstError_;
    }
    if (errored < 0) {
        chunks_ += (iterations + opt_.batchIterations - 1) /
                   opt_.batchIterations;
        return std::nullopt;
    }

    Worker& w = *workers_[errored];
    std::exception_ptr e = w.error;
    ParallelFault f = chunkFault(
        "workerError", w.chunks.load(std::memory_order_relaxed));
    f.pendingWorkers.push_back(errored);
    try {
        std::rethrow_exception(e);
    } catch (const native::NativeFaultError& ex) {
        // A crash in emitted code: typed, and policy-governed
        // regardless of the watchdog setting (the fault is already
        // contained; nothing needs a timeout to detect).
        f.kind = "nativeFault";
        f.message = ex.what();
        nativeFaults_.push_back(ex.record());
        if (config_.degrade == DegradeMode::Off) {
            // No ladder below by policy: park the pool so no worker is
            // left running emitted code, record what happened, and let
            // the typed fault propagate.
            f.cleanShutdown = shutdownPool();
            faults_.push_back(std::move(f));
            throw;
        }
        return f;
    } catch (const std::exception& ex) {
        f.message = ex.what();
    } catch (...) {
        f.message = "non-standard exception";
    }
    if (opt_.watchdogMs <= 0) {
        // Legacy: park the pool, then the error is the caller's.
        shutdownPool();
        std::rethrow_exception(e);
    }
    return f;
}

bool
ParallelRunner::shutdownPool()
{
    // Stop the pool. Workers blocked inside a ring wait (their peer
    // died mid-slice) cannot see stop_; aborting the waits makes them
    // panic out promptly, the worker loop catches it, and they park
    // like any other finished worker.
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto& r : rings_) {
        if (r)
            r->abortWaits();
    }
    // Grace wait for all workers to exit, then join them. A worker
    // that is still wedged past the grace period (stalled in user code
    // the abort cannot reach) is detached: it holds only references
    // into this runner, which stays alive, and it can never take
    // another dispatch since stop_ is set.
    const auto grace = std::chrono::milliseconds(
        std::max<std::int64_t>(10 * opt_.watchdogMs, 2000));
    bool clean = false;
    {
        std::unique_lock<std::mutex> lk(mu_);
        clean = cv_.wait_for(lk, grace, [&] {
            return exitedCount_ == static_cast<int>(workers_.size());
        });
    }
    for (auto& w : workers_) {
        if (!w->thread.joinable())
            continue;
        if (clean || w->exited)
            w->thread.join();
        else
            w->thread.detach();
    }
    return clean;
}

void
ParallelRunner::degradeToSerial(ParallelFault fault,
                                std::int64_t target_iters)
{
    // 1-2. Park the pool (stop flag, ring-wait aborts, grace
    // join/detach).
    fault.cleanShutdown = shutdownPool();
    // 3. The parallel run's captures, for verification. The sink
    // worker appends in serial order even mid-slice, so whatever is
    // there is a prefix of the serial stream, but only a clean
    // shutdown guarantees nobody is still appending. A native
    // dispatch that crashed in emitted code is never exported: the
    // native log then ends at the last healthy dispatch's barrier.
    if (native_ && fault.cleanShutdown && fault.kind != "nativeFault")
        native_->exportCaptured();
    const CapturedStream& prefix =
        native_ ? native_->captured() : runner_.captured();

    // 4. Fresh serial runner over the same graph/schedule/configs;
    // replay the entire steady history from scratch. Its cost sink
    // starts empty so the merged totals are the exact serial ones.
    // config_ is passed verbatim, so a native parallel run falls back
    // to the serial native engine (the one-partition program — a
    // separate cached .so; native_ itself is never unloaded here,
    // because a detached worker could still be inside its code).
    if (cost_)
        fallbackCost_ =
            std::make_unique<machine::CostSink>(cost_->machine());
    fallback_ = std::make_unique<Runner>(*graph_, *sched_,
                                         fallbackCost_.get(), config_);
    for (const auto& [id, cfg] : actorConfigs_)
        fallback_->setActorConfig(id, cfg);
    fallback_->enableCapture(captureEnabled_);
    fallback_->runInit();
    if (target_iters > 0)
        fallback_->runSteady(static_cast<int>(target_iters));
    fault.fallbackUsed = true;

    // 5. Prefix verification: every element the parallel run captured
    // must be bitwise identical to the serial replay.
    if (fault.cleanShutdown) {
        fault.fallbackVerified = prefix.isPrefixOf(fallback_->captured());
        fault.verifiedElements =
            static_cast<std::int64_t>(prefix.size());
    }
    if (cost_) {
        std::vector<const machine::CostSink*> parts{
            fallbackCost_.get()};
        cost_->assignDisjointUnion(parts);
    }

    if (trace_ && trace_->enabled()) {
        json::Value payload = json::Value::object();
        payload["kind"] = fault.kind;
        payload["generation"] = fault.generation;
        payload["cleanShutdown"] = fault.cleanShutdown;
        payload["fallbackVerified"] = fault.fallbackVerified;
        payload["targetIterations"] = target_iters;
        trace_->event("interp", "parallelFault", std::move(payload));
    }
    faults_.push_back(std::move(fault));
}

void
ParallelRunner::runSteady(int iterations)
{
    if (fallback_) {
        // Already degraded: the pool is gone, the serial runner is
        // the runner.
        fallback_->runSteady(iterations);
        steadyIterations_ += iterations;
        if (cost_) {
            std::vector<const machine::CostSink*> parts{
                fallbackCost_.get()};
            cost_->assignDisjointUnion(parts);
        }
        return;
    }
    if (!initDone())
        runInit();
    if (iterations <= 0)
        return;
    panicIf(stop_, "parallel runner reused after a worker error shut "
            "its pool down");
    const auto t0 = std::chrono::steady_clock::now();
    std::optional<ParallelFault> fault = dispatch(iterations);
    steadyIterations_ += iterations;
    // The fallback replays every iteration asked for so far, so
    // post-conditions match a healthy run exactly.
    if (fault)
        degradeToSerial(std::move(*fault), steadyIterations_);
    steadyWallMicros_ += std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    if (fault)
        return;

    // Every worker finished its slice and is parked, so the emitted
    // sink buffer is quiescent: endBatch moves its new lanes into the
    // host log.
    if (native_)
        native_->endBatch();

    if (cost_ && !native_) {
        // Per-thread sinks are cumulative, so the merge rebuilds the
        // shared sink from scratch each time — per-actor cells are the
        // bit-exact serial sequences, aggregates recomputed in
        // canonical actor-id order.
        std::vector<const machine::CostSink*> parts;
        parts.reserve(workers_.size());
        for (const auto& w : workers_) {
            if (w->sink)
                parts.push_back(w->sink.get());
        }
        cost_->assignDisjointUnion(parts);
    }

    if (trace_ && trace_->enabled()) {
        trace_->count("interp.parallel.steadyIterations", iterations);
        json::Value payload = json::Value::object();
        payload["iterations"] = iterations;
        payload["threads"] = part_.cores;
        payload["batchIterations"] = opt_.batchIterations;
        trace_->event("interp", "runSteadyParallel",
                      std::move(payload));
    }
}

void
ParallelRunner::runUntilCaptured(std::int64_t n, int max_iters)
{
    if (!initDone())
        runInit();
    int iters = 0;
    while (static_cast<std::int64_t>(captured().size()) < n) {
        fatalIf(iters >= max_iters,
                "runUntilCaptured: sink produced only ",
                captured().size(), " of ", n, " elements after ",
                max_iters, " iterations");
        const int step = std::min(opt_.batchIterations,
                                  max_iters - iters);
        runSteady(step);
        iters += step;
    }
}

double
ParallelRunner::totalCycles() const
{
    return cost_ ? cost_->totalCycles() : 0.0;
}

json::Value
ParallelRunner::statsToJson() const
{
    // After degradation the fallback runner holds the authoritative
    // per-actor stats (the parallel ones stop at the faulted dispatch).
    json::Value root =
        fallback_ ? fallback_->statsToJson() : runner_.statsToJson();

    // Under native the member runner_ is a downgraded bystander: the
    // engine and build stats come from the partitioned program.
    if (native_ && !fallback_) {
        root["engine"] = toString(ExecEngine::Native);
        json::Value nat = native_->stats().toJson();
        nat["degradeMode"] = toString(config_.degrade);
        root["native"] = std::move(nat);
    }

    // Merge the partitioned program's own fault records into
    // run.stats.native.faults, ahead of whatever the serial fallback
    // recorded (oldest first: the parallel crash caused the fallback).
    if (!nativeFaults_.empty()) {
        json::Value nat = json::Value::object();
        if (const json::Value* existing = root.find("native"))
            nat = *existing;
        json::Value merged = json::Value::array();
        for (const native::NativeFaultRecord& rec : nativeFaults_)
            merged.push(rec.toJson());
        if (const json::Value* f = nat.find("faults")) {
            for (const json::Value& item : f->items())
                merged.push(item);
        }
        nat["faults"] = std::move(merged);
        root["native"] = std::move(nat);
    }

    json::Value par = json::Value::object();
    par["threads"] = part_.cores;
    par["threadsRequested"] =
        std::max(part_.requestedCores, part_.cores);
    par["batchIterations"] = opt_.batchIterations;
    par["minRingSlots"] = opt_.minRingSlots;
    par["watchdogMs"] = opt_.watchdogMs;
    par["degradedToSerial"] = (fallback_ != nullptr);
    json::Value faults = json::Value::array();
    for (const ParallelFault& f : faults_) {
        json::Value jf = json::Value::object();
        jf["kind"] = f.kind;
        jf["generation"] = f.generation;
        jf["batchIterations"] = f.batchIterations;
        jf["detectedAfterMs"] = f.detectedAfterMs;
        json::Value pending = json::Value::array();
        for (int w : f.pendingWorkers)
            pending.push(w);
        jf["pendingWorkers"] = std::move(pending);
        jf["message"] = f.message;
        jf["cleanShutdown"] = f.cleanShutdown;
        jf["fallbackUsed"] = f.fallbackUsed;
        jf["fallbackVerified"] = f.fallbackVerified;
        jf["verifiedElements"] = f.verifiedElements;
        faults.push(std::move(jf));
    }
    par["faults"] = std::move(faults);
    json::Value coreOf = json::Value::array();
    for (int c : part_.coreOf)
        coreOf.push(c);
    par["coreOf"] = std::move(coreOf);
    json::Value load = json::Value::array();
    for (double l : part_.coreLoad)
        load.push(l);
    par["coreLoad"] = std::move(load);

    json::Value rings = json::Value::array();
    for (std::size_t i = 0; i < rings_.size(); ++i) {
        if (!rings_[i])
            continue;
        json::Value r = json::Value::object();
        r["tape"] = static_cast<std::int64_t>(i);
        r["capacity"] = rings_[i]->capacity();
        r["wordsPerIteration"] = multicore::steadyTapeWords(
            *graph_, *sched_, static_cast<int>(i));
        rings.push(std::move(r));
    }
    par["rings"] = std::move(rings);

    // run.stats.parallel.native: what the compiled partitions did
    // (per-partition accumulated wall time inside run_steady).
    if (native_) {
        json::Value nat = json::Value::object();
        nat["partitions"] = native_->partitions();
        json::Value wall = json::Value::array();
        for (int c = 0; c < part_.cores; ++c)
            wall.push(native_->steadyWallMicros(c));
        nat["partitionWallMicros"] = std::move(wall);
        par["native"] = std::move(nat);
    }

    par["steadyIterations"] = steadyIterations_;
    par["steadyWallMicros"] = steadyWallMicros_;
    if (baselineWallMicros_ > 0.0 && steadyWallMicros_ > 0.0) {
        par["baselineWallMicros"] = baselineWallMicros_;
        par["measuredSpeedup"] =
            baselineWallMicros_ / steadyWallMicros_;
    }
    root["parallel"] = std::move(par);
    return root;
}

} // namespace macross::interp
