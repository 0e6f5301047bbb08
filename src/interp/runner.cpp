/**
 * @file
 * Runner implementation.
 */
#include "interp/runner.h"

#include <chrono>

#include "interp/verify.h"
#include "ir/analysis.h"
#include "support/diagnostics.h"

namespace macross::interp {

using graph::Actor;
using graph::ActorKind;
using machine::OpClass;

std::string
toString(ExecEngine e)
{
    switch (e) {
      case ExecEngine::Tree: return "tree";
      case ExecEngine::Bytecode: return "bytecode";
      case ExecEngine::Native: return "native";
    }
    return "unknown";
}

std::string
toString(DegradeMode m)
{
    switch (m) {
      case DegradeMode::Off: return "off";
      case DegradeMode::Auto: return "auto";
      case DegradeMode::Always: return "always";
    }
    return "unknown";
}

Runner::Runner(const graph::FlatGraph& g, const schedule::Schedule& s,
               machine::CostSink* cost, EngineConfig config)
    : graph_(&g), sched_(&s), cost_(cost),
      machine_(cost ? &cost->machine() : nullptr),
      config_(std::move(config))
{
    codegen::validateSimdSpec(config_.simd);
    tapes_.reserve(g.tapes.size());
    for (const auto& td : g.tapes) {
        auto tape = std::make_unique<Tape>(td.elem);
        if (td.transpose.readSide) {
            tape->setReadTranspose(TransposeSpec{
                true, td.transpose.rate, td.transpose.simdWidth});
        }
        if (td.transpose.writeSide) {
            tape->setWriteTranspose(TransposeSpec{
                true, td.transpose.rate, td.transpose.simdWidth});
        }
        tapes_.push_back(std::move(tape));
    }
    locals_.resize(g.actors.size());
    states_.resize(g.actors.size());
    configs_.resize(g.actors.size());
    fireCounts_.assign(g.actors.size(), 0);
    loopIds_.resize(g.actors.size());
    compiled_.resize(g.actors.size());
    frames_.resize(g.actors.size());

    for (const auto& a : g.actors) {
        if (a.isFilter())
            loopIds_[a.id] = ir::numberLoops(a.def->work);
    }

    // Capture at the sink: the unique filter with an input and no
    // output. The tape appends the raw lane of every popped element
    // straight into captured_ (a plain buffer pointer on the pop fast
    // path).
    for (const auto& a : g.actors) {
        if (a.isFilter() && a.outputs.empty() && !a.inputs.empty()) {
            sinkTapes_.push_back(tapes_[a.inputs[0]].get());
            captured_.setElemType(g.tape(a.inputs[0]).elem);
        }
    }
    for (Tape* t : sinkTapes_)
        t->setCaptureBuffer(&captured_);
}

void
Runner::configure(EngineConfig config)
{
    panicIf(initDone_,
            "Runner::configure called after runInit(): bytecode "
            "actors are compiled and the native program (if any) is "
            "built, so a new engine configuration cannot take effect");
    codegen::validateSimdSpec(config.simd);
    config_ = std::move(config);
}

void
Runner::setActorConfig(int actor_id, ActorExecConfig cfg)
{
    configs_.at(actor_id) = std::move(cfg);
}

void
Runner::enableCapture(bool on)
{
    captureEnabled_ = on;
    for (Tape* t : sinkTapes_)
        t->setCaptureBuffer(on ? &captured_ : nullptr);
}

Tape*
Runner::tapeFor(int tape_id)
{
    return tapes_.at(tape_id).get();
}

ExecEngine
Runner::engineFor(int actor_id) const
{
    auto it = config_.actorEngines.find(actor_id);
    if (it != config_.actorEngines.end())
        return it->second;
    return config_.engine;
}

double
Runner::totalCycles() const
{
    return cost_ ? cost_->totalCycles() : 0.0;
}

const bytecode::CompiledActor&
Runner::ensureCompiled(const Actor& a)
{
    std::unique_ptr<bytecode::CompiledActor>& slot = compiled_[a.id];
    if (slot)
        return *slot;

    bytecode::CompileOptions opts;
    opts.machine = machine_;
    // SaguWalk charges apply to the scalar endpoint of a transposed
    // tape; the graph annotations are fixed, so bake them in.
    opts.saguIn = !a.inputs.empty() &&
                  graph_->tape(a.inputs[0]).transpose.readSide;
    opts.saguOut = !a.outputs.empty() &&
                   graph_->tape(a.outputs[0]).transpose.writeSide;

    auto t0 = std::chrono::steady_clock::now();
    slot = std::make_unique<bytecode::CompiledActor>(
        bytecode::compileActor(*a.def, opts));
    // Verify once, pre-execution: the VM itself runs no per-operand
    // bounds checks, so nothing unverified may reach it.
    auto verifyErrs = bytecode::verifyActor(*slot, *a.def);
    if (!verifyErrs.empty()) {
        std::string detail;
        for (const auto& e : verifyErrs) {
            detail += "\n  ";
            detail += bytecode::toString(e);
        }
        panic("bytecode verifier rejected actor '", a.name, "' (",
              verifyErrs.size(), " error(s)):", detail);
    }
    double micros = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    compileMicros_ += micros;
    frames_[a.id].init(*slot);

    if (trace_ && trace_->enabled()) {
        json::Value p = json::Value::object();
        p["actor"] = a.id;
        p["name"] = a.name;
        p["initInstrs"] =
            static_cast<std::int64_t>(slot->init.instrs.size());
        p["workInstrs"] =
            static_cast<std::int64_t>(slot->work.instrs.size());
        p["numSlots"] = slot->numSlots;
        p["numRegs"] =
            std::max(slot->init.numRegs, slot->work.numRegs);
        p["micros"] = micros;
        trace_->event("bytecode", "compileActor", std::move(p));
    }
    return *slot;
}

void
Runner::buildLadder()
{
    EngineConfig cfg = config_;
    cfg.engine = ExecEngine::Bytecode;
    cfg.degrade = DegradeMode::Off;
    // No cost sink: the native engine is measured, not modeled, and a
    // degraded run keeps that contract rather than abruptly growing
    // modeled cycles mid-stream (the Always shadow would also pollute
    // a healthy run's totals otherwise).
    ladder_ = std::make_unique<Runner>(*graph_, *sched_, nullptr, cfg);
    for (std::size_t i = 0; i < configs_.size(); ++i)
        ladder_->setActorConfig(static_cast<int>(i), configs_[i]);
    ladder_->enableCapture(captureEnabled_);
    if (trace_)
        ladder_->setTrace(trace_);
}

void
Runner::degradeFromNative(std::int64_t completed_iters)
{
    // The native log as of the last successful batch barrier: a
    // crashed batch is never exported, so this is a clean prefix of
    // the serial stream even though the emitted program's own state
    // is garbage. (No program at all when the build itself failed.)
    static const CapturedStream kNoOutput;
    const CapturedStream& prefix =
        native_ ? native_->captured() : kNoOutput;
    if (!ladder_)
        buildLadder();
    if (!ladder_->initDone())
        ladder_->runInit();
    // Replay what the native engine completed; a warm Always shadow
    // is already there and skips this.
    if (completed_iters > ladderIters_) {
        ladder_->runSteady(
            static_cast<int>(completed_iters - ladderIters_));
        ladderIters_ = completed_iters;
    }
    degraded_ = true;
    degradeVerified_ =
        prefix.empty() ||
        (!config_.simd.allowUlpDivergence &&
         prefix.isPrefixOf(ladder_->captured()));
    verifiedElements_ = degradeVerified_
                            ? static_cast<std::int64_t>(prefix.size())
                            : 0;
    if (trace_ && trace_->enabled()) {
        json::Value payload = json::Value::object();
        payload["completedIterations"] = completed_iters;
        payload["degradeVerified"] = degradeVerified_;
        payload["verifiedElements"] = verifiedElements_;
        if (!nativeFaults_.empty()) {
            payload["kind"] =
                native::toString(nativeFaults_.back().kind);
        }
        trace_->event("native", "degrade", std::move(payload));
    }
}

json::Value
Runner::statsToJson() const
{
    // After degradation the ladder runner holds the authoritative
    // per-actor/tape stats; re-label the engine (the run was asked to
    // be native and the native block below says what happened to it).
    if (degraded_) {
        json::Value root = ladder_->statsToJson();
        root["engine"] = toString(ExecEngine::Native);
        appendNativeStats(root);
        return root;
    }
    auto kindName = [](ActorKind k) {
        switch (k) {
          case ActorKind::Filter: return "filter";
          case ActorKind::Splitter: return "splitter";
          case ActorKind::Joiner: return "joiner";
        }
        return "unknown";
    };

    json::Value root = json::Value::object();
    root["engine"] = toString(config_.engine);
    root["vmDispatcher"] = vmDispatcherName();
    json::Value actors = json::Value::array();
    for (const Actor& a : graph_->actors) {
        json::Value v = json::Value::object();
        v["id"] = a.id;
        v["name"] = a.name;
        v["kind"] = kindName(a.kind);
        if (a.isFilter())
            v["lanes"] = a.def->vectorLanes;
        v["fires"] = fireCounts_[a.id];
        if (cost_)
            v["cycles"] = cost_->actorCycles(a.id);
        if (compiled_[a.id]) {
            v["bytecodeInstrs"] = static_cast<std::int64_t>(
                compiled_[a.id]->init.instrs.size() +
                compiled_[a.id]->work.instrs.size());
        }
        actors.push(std::move(v));
    }
    root["actors"] = std::move(actors);

    json::Value tapes = json::Value::array();
    for (std::size_t i = 0; i < tapes_.size(); ++i) {
        const graph::TapeDesc& td = graph_->tapes[i];
        json::Value v = json::Value::object();
        v["id"] = td.id;
        v["src"] = graph_->actor(td.src).name;
        v["dst"] = graph_->actor(td.dst).name;
        v["elementsPushed"] = tapes_[i]->totalPushed();
        v["maxOccupancy"] = tapes_[i]->maxOccupancy();
        if (td.transpose.readSide || td.transpose.writeSide) {
            v["transposed"] =
                td.transpose.readSide ? "read-side" : "write-side";
        }
        tapes.push(std::move(v));
    }
    root["tapes"] = std::move(tapes);

    if (compileMicros_ > 0.0)
        root["bytecodeCompileMicros"] = compileMicros_;
    if (cost_)
        root["totalCycles"] = cost_->totalCycles();
    appendNativeStats(root);
    return root;
}

void
Runner::appendNativeStats(json::Value& root) const
{
    if (!native_ && nativeFaults_.empty() && !degraded_)
        return;
    json::Value nat =
        native_ ? native_->stats().toJson() : json::Value::object();
    if (config_.engine == ExecEngine::Native)
        nat["degradeMode"] = toString(config_.degrade);
    json::Value faults = json::Value::array();
    for (const native::NativeFaultRecord& rec : nativeFaults_)
        faults.push(rec.toJson());
    nat["faults"] = std::move(faults);
    nat["degraded"] = degraded_;
    if (degraded_) {
        nat["degradedTo"] = "bytecode";
        nat["degradeVerified"] = degradeVerified_;
        nat["verifiedElements"] = verifiedElements_;
    }
    root["native"] = std::move(nat);
}

void
Runner::fireFilter(const Actor& a, Vm& vm, machine::CostSink* cost)
{
    Tape* in = a.inputs.empty() ? nullptr : tapeFor(a.inputs[0]);
    Tape* out = a.outputs.empty() ? nullptr : tapeFor(a.outputs[0]);

    const ActorExecConfig& cfg = configs_[a.id];
    bool charging = true;
    if (cfg.outerVectorized) {
        bool leader = (fireCounts_[a.id] % cfg.outerWidth) == 0;
        charging = leader;
        if (leader && cost)
            cost->chargeCycles(cfg.outerExtraPerGroup);
    }
    if (charging && cost)
        cost->charge(OpClass::FiringOverhead);

    panicIf(engineFor(a.id) == ExecEngine::Native,
            "ExecEngine::Native is whole-program: it cannot fire "
            "actor '", a.name, "' individually (per-actor overrides "
            "must be tree or bytecode)");
    if (engineFor(a.id) == ExecEngine::Bytecode) {
        const bytecode::CompiledActor& ca = ensureCompiled(a);
        vm.run(ca.work, frames_[a.id], in, out, cost,
               cfg.loopPlans.get(), charging);
    } else {
        Executor ex(locals_[a.id], states_[a.id], in, out, cost);
        ex.setChargingEnabled(charging);
        ex.setLoopPlans(cfg.loopPlans.get());
        ex.setLoopIds(&loopIds_[a.id]);

        // SaguWalk charges apply to the scalar endpoint of a
        // transposed tape: the consumer on a read-side transpose, the
        // producer on a write-side transpose.
        bool saguIn = !a.inputs.empty() &&
                      graph_->tape(a.inputs[0]).transpose.readSide;
        bool saguOut = !a.outputs.empty() &&
                       graph_->tape(a.outputs[0]).transpose.writeSide;
        ex.setSaguCharges(saguIn, saguOut);

        ex.run(a.def->work);
    }
    fireCounts_[a.id]++;
}

void
Runner::fireSplitter(const Actor& a, machine::CostSink* cost)
{
    Tape* in = tapeFor(a.inputs[0]);
    // SAGU walk charges at transposed boundaries (the splitter is the
    // scalar endpoint).
    const bool walkIn =
        graph_->tape(a.inputs[0]).transpose.readSide;
    auto walkOutPort = [&](int port) {
        return graph_->tape(a.outputs[port]).transpose.writeSide;
    };
    auto chargeScalarMove = [&](int port) {
        if (cost) {
            cost->charge(OpClass::ScalarLoad);
            cost->charge(OpClass::ScalarStore);
            cost->charge(OpClass::AddrCalc, 1, 2);
            if (walkIn)
                cost->charge(OpClass::SaguWalk);
            if (walkOutPort(port))
                cost->charge(OpClass::SaguWalk);
        }
    };

    if (cost)
        cost->charge(OpClass::FiringOverhead);

    if (a.horizontal) {
        // HSplitter: pack SW scalar streams into one vector tape.
        Tape* out = tapeFor(a.outputs[0]);
        const int sw = a.hLanes;
        if (a.splitKind == graph::SplitterKind::Duplicate) {
            const std::uint32_t x = in->popRaw();
            Value v = Value::zero(in->elemType().widened(sw));
            for (int l = 0; l < sw; ++l)
                v.setRawBits(l, x);
            out->vpush(v);
            if (cost) {
                cost->charge(OpClass::ScalarLoad);
                cost->charge(OpClass::Splat);
                cost->charge(OpClass::VectorStore);
                cost->charge(OpClass::AddrCalc, 1, 2);
            }
            return;
        }
        const int w = a.weights[0];
        std::vector<std::uint32_t> tmp;
        tmp.reserve(static_cast<std::size_t>(sw) * w);
        for (int i = 0; i < sw * w; ++i) {
            tmp.push_back(in->popRaw());
            if (cost) {
                cost->charge(OpClass::ScalarLoad);
                cost->charge(OpClass::AddrCalc);
            }
        }
        for (int j = 0; j < w; ++j) {
            Value v = Value::zero(in->elemType().widened(sw));
            for (int l = 0; l < sw; ++l)
                v.setRawBits(l, tmp[l * w + j]);
            out->vpush(v);
            if (cost) {
                cost->charge(OpClass::LaneInsert, 1, sw);
                cost->charge(OpClass::VectorStore);
                cost->charge(OpClass::AddrCalc);
            }
        }
        return;
    }

    if (a.splitKind == graph::SplitterKind::Duplicate) {
        const std::uint32_t x = in->popRaw();
        if (cost) {
            cost->charge(OpClass::ScalarLoad);
            cost->charge(OpClass::AddrCalc);
        }
        for (int port = 0; port < static_cast<int>(a.outputs.size());
             ++port) {
            tapeFor(a.outputs[port])->pushRaw(x);
            if (cost) {
                cost->charge(OpClass::ScalarStore);
                cost->charge(OpClass::AddrCalc);
                if (walkOutPort(port))
                    cost->charge(OpClass::SaguWalk);
            }
        }
        return;
    }

    for (int port = 0; port < static_cast<int>(a.outputs.size());
         ++port) {
        for (int k = 0; k < a.weights[port]; ++k) {
            tapeFor(a.outputs[port])->pushRaw(in->popRaw());
            chargeScalarMove(port);
        }
    }
}

void
Runner::fireJoiner(const Actor& a, machine::CostSink* cost)
{
    Tape* out = tapeFor(a.outputs[0]);
    if (cost)
        cost->charge(OpClass::FiringOverhead);

    if (a.horizontal) {
        // HJoiner: unpack one vector tape back into round-robin
        // scalar order.
        Tape* in = tapeFor(a.inputs[0]);
        const int sw = a.hLanes;
        const int w = a.weights[0];
        std::vector<Value> vecs;
        vecs.reserve(w);
        for (int j = 0; j < w; ++j) {
            vecs.push_back(in->vpop(sw));
            if (cost) {
                cost->charge(OpClass::VectorLoad);
                cost->charge(OpClass::AddrCalc);
            }
        }
        for (int l = 0; l < sw; ++l) {
            for (int j = 0; j < w; ++j) {
                out->pushRaw(vecs[j].rawBits(l));
                if (cost) {
                    cost->charge(OpClass::LaneExtract);
                    cost->charge(OpClass::ScalarStore);
                    cost->charge(OpClass::AddrCalc);
                }
            }
        }
        return;
    }

    const bool walkOut =
        graph_->tape(a.outputs[0]).transpose.writeSide;
    for (int port = 0; port < static_cast<int>(a.inputs.size());
         ++port) {
        const bool walkIn =
            graph_->tape(a.inputs[port]).transpose.readSide;
        for (int k = 0; k < a.weights[port]; ++k) {
            out->pushRaw(tapeFor(a.inputs[port])->popRaw());
            if (cost) {
                cost->charge(OpClass::ScalarLoad);
                cost->charge(OpClass::ScalarStore);
                cost->charge(OpClass::AddrCalc, 1, 2);
                if (walkIn)
                    cost->charge(OpClass::SaguWalk);
                if (walkOut)
                    cost->charge(OpClass::SaguWalk);
            }
        }
    }
}

void
Runner::fire(int actor_id)
{
    fireWith(actor_id, vm_, cost_);
}

void
Runner::fireWith(int actor_id, Vm& vm, machine::CostSink* cost)
{
    const Actor& a = graph_->actor(actor_id);
    if (cost)
        cost->setCurrentActor(actor_id);
    switch (a.kind) {
      case ActorKind::Filter:
        fireFilter(a, vm, cost);
        break;
      case ActorKind::Splitter:
        fireSplitter(a, cost);
        break;
      case ActorKind::Joiner:
        fireJoiner(a, cost);
        break;
    }
}

void
Runner::runInit()
{
    panicIf(initDone_, "runInit called twice");
    initDone_ = true;

    // Native engine: the emitted shared object (one partition) owns
    // the whole schedule. Build (or cache-load) it, run its init
    // phase, and mirror the capture so captured() keeps its meaning.
    // Modeled cycles are not accumulated — the native numbers are
    // measured.
    // Any typed native fault (compile, load, quarantine, or a crash
    // caught by the signal guards) either propagates (DegradeMode::Off)
    // or drops this runner one rung down the ladder.
    if (config_.engine == ExecEngine::Native) {
        try {
            native_ = std::make_unique<native::NativeProgram>(
                *graph_, *sched_, config_.native, config_.simd);
            native_->init();
        } catch (const native::NativeFaultError& e) {
            nativeFaults_.push_back(e.record());
            if (config_.degrade == DegradeMode::Off)
                throw;
            degradeFromNative(0);
            return;
        }
        if (trace_ && trace_->enabled()) {
            const native::NativeStats& st = native_->stats();
            json::Value payload = json::Value::object();
            payload["engine"] = toString(config_.engine);
            payload["compiler"] = st.compiler;
            payload["cacheHit"] = st.cacheHit;
            payload["compileMillis"] = st.compileMillis;
            payload["soPath"] = st.soPath;
            trace_->event("native", "compileProgram",
                          std::move(payload));
        }
        if (config_.degrade == DegradeMode::Always) {
            // Lockstep shadow: keep the next rung warm and verify the
            // init-phase capture immediately.
            buildLadder();
            ladder_->runInit();
            checkShadow("init capture");
        }
        return;
    }

    // Compile every bytecode-engine filter up front (timed, traced),
    // then run init bodies. Init bodies and warm-up firings are
    // one-time costs the paper's steady-state measurements exclude;
    // run them uncosted.
    machine::CostSink* saved = cost_;
    cost_ = nullptr;

    for (const auto& a : graph_->actors) {
        if (!a.isFilter())
            continue;
        if (engineFor(a.id) == ExecEngine::Bytecode) {
            const bytecode::CompiledActor& ca = ensureCompiled(a);
            if (!ca.init.empty()) {
                vm_.run(ca.init, frames_[a.id], nullptr, nullptr,
                        nullptr, nullptr);
            }
        } else if (!a.def->init.empty()) {
            Executor ex(locals_[a.id], states_[a.id], nullptr, nullptr,
                        nullptr);
            ex.run(a.def->init);
        }
    }
    for (int id : sched_->order) {
        for (std::int64_t k = 0; k < sched_->initFires[id]; ++k)
            fire(id);
    }
    cost_ = saved;

    if (trace_ && trace_->enabled()) {
        std::int64_t warmups = 0;
        for (std::int64_t n : sched_->initFires)
            warmups += n;
        json::Value payload = json::Value::object();
        payload["warmupFirings"] = warmups;
        payload["engine"] = toString(config_.engine);
        payload["bytecodeCompileMicros"] = compileMicros_;
        trace_->event("interp", "runInit", std::move(payload));
    }
}

void
Runner::runSteady(int iterations)
{
    if (!initDone_)
        runInit();
    if (degraded_) {
        ladder_->runSteady(iterations);
        ladderIters_ += iterations;
        return;
    }
    if (native_) {
        try {
            native_->runSteady(iterations);
        } catch (const native::NativeFaultError& e) {
            nativeFaults_.push_back(e.record());
            if (config_.degrade == DegradeMode::Off)
                throw;
            // Replay the completed history, verify the pre-crash
            // prefix, then run the batch that crashed on the ladder.
            degradeFromNative(steadyIters_);
            ladder_->runSteady(iterations);
            ladderIters_ += iterations;
            return;
        }
        steadyIters_ += iterations;
        if (trace_ && trace_->enabled()) {
            trace_->count("interp.steadyIterations", iterations);
            json::Value payload = json::Value::object();
            payload["iterations"] = iterations;
            payload["steadyWallMicros"] =
                native_->stats().steadyWallMicros;
            trace_->event("native", "runSteady", std::move(payload));
        }
        if (config_.degrade == DegradeMode::Always) {
            ladder_->runSteady(iterations);
            ladderIters_ += iterations;
            checkShadow("captured stream");
        }
        return;
    }
    const double cyclesBefore = totalCycles();
    std::int64_t firings = 0;
    for (int it = 0; it < iterations; ++it) {
        for (int id : sched_->order) {
            for (std::int64_t k = 0; k < sched_->reps[id]; ++k) {
                fire(id);
                ++firings;
            }
        }
    }
    if (trace_ && trace_->enabled()) {
        trace_->count("interp.steadyIterations", iterations);
        trace_->count("interp.firings", firings);
        json::Value payload = json::Value::object();
        payload["iterations"] = iterations;
        payload["firings"] = firings;
        payload["cycles"] = totalCycles() - cyclesBefore;
        trace_->event("interp", "runSteady", std::move(payload));
    }
}

void
Runner::checkShadow(const char* when)
{
    if (config_.simd.allowUlpDivergence)
        return;
    const CapturedStream& got = native_->captured();
    const CapturedStream& want = ladder_->captured();
    fatalIf(got.size() != want.size() ||
                !got.isPrefixOf(want, shadowChecked_),
            "degrade=always: native ", when,
            " diverged from the bytecode shadow after ", steadyIters_,
            " steady iterations (", got.size(), " native vs ",
            want.size(), " shadow elements)");
    shadowChecked_ = got.size();
}

void
Runner::runUntilCaptured(std::int64_t n, int max_iters)
{
    if (!initDone_)
        runInit();
    int iters = 0;
    while (static_cast<std::int64_t>(captured().size()) < n) {
        fatalIf(iters++ >= max_iters,
                "runUntilCaptured: sink produced only ",
                captured().size(), " of ", n, " elements after ",
                max_iters, " iterations");
        runSteady(1);
    }
}

} // namespace macross::interp
