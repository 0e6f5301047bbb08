/**
 * @file
 * The stream workloads.
 *
 *   - stream_native: all 12 suite programs, macro-SIMDized at W=4,
 *     on the serial native engine (Runner, ExecEngine::Native).
 *   - stream_parallel: nine programs on the parallel native runtime
 *     (ParallelRunner over partitionGreedy) at 2 and 4 threads, with
 *     the serial native Runner as the reference in the same process.
 *
 * One timing convention for both runners: an outer steady clock
 * around the public runSteady call, one warm-up window dropped after
 * every runInit, and elements counted from the change in captured()
 * size. Windows hold a fixed number of iterations per program (about
 * kWindowElements sink elements), and every runner lives for one
 * warm-up plus kTimedWindows windows, so the capture history a window
 * sees is the same in every round and on every commit. Rounds repeat
 * with fresh runners (cache hits) until the run's seconds are spent.
 *
 * Set-up is cold: each program is vectorized, emitted, host-compiled
 * into an empty cache, loaded and initialized, kSetupThreads programs
 * at a time, and a set-up's time is the wall time of all of it.
 * stream_native reports the median of kSetupRepeats set-ups;
 * stream_parallel's set-up is too long to repeat within a run.
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.h"
#include "benchmarks/suite.h"
#include "codegen/emit_cpp.h"
#include "interp/parallel_runner.h"
#include "interp/runner.h"
#include "lanes.h"
#include "machine/cost_sink.h"
#include "multicore/partition.h"
#include "stats.h"
#include "support/diagnostics.h"
#include "vectorizer/pipeline.h"

namespace perfbench {
namespace {

using namespace macross;

/** Target sink elements per timed window. */
constexpr double kWindowElements = 16384;
/** Timed windows per runner, after one dropped warm-up window. */
constexpr int kTimedWindows = 4;
/** Rounds run even when the seconds are spent (tail sample floor). */
constexpr int kMinRounds = 3;
/** Native output checked bitwise against the bytecode VM. */
constexpr std::size_t kVmPrefixElements = 4096;
/**
 * Programs set up at once. With a host compile on every CPU, set-up
 * time swings with the host's load far more than the steady rates do;
 * one program at a time takes too long for a run.
 */
constexpr int kSetupThreads = 2;
/** Cold set-ups of stream_native; setup_s is their median. */
constexpr int kSetupRepeats = 3;
/** Bytecode iterations profiled for partition weights (as the CLI). */
constexpr int kProfileIters = 8;

enum Config { kSerial = 0, kTwo = 1, kFour = 2, kConfigs = 3 };
const char* const kConfigName[kConfigs] = {"serial", "2t", "4t"};
const int kThreads[kConfigs] = {1, 2, 4};

/**
 * Timed windows of one program under one configuration. Windows of
 * one runner differ systematically (each later window starts with
 * more capture history), so the samples the metrics use are per
 * round: one runner's kTimedWindows windows taken together.
 */
struct Windows {
    std::vector<double> micros;  ///< Outer wall time per window.
    std::vector<double> roundRates;      ///< Elements/s per round.
    std::vector<double> roundMeanMicros;  ///< Mean window per round.
    std::vector<double> roundMaxMicros;   ///< Slowest window per round.
    std::int64_t elements = 0;
    double outerMicros = 0.0;
    /** Serial: change in NativeStats.steadyWallMicros. Parallel (traced
     *  only): change in the slowest partition's wall time. */
    double emittedMicros = 0.0;
    /** Parallel, traced only: change in each partition's wall time. */
    std::vector<double> partitionMicros;
};

/** One program of a stream workload. Its runners point into
 *  `compiled`, so a Prog never moves once set up. */
struct Prog {
    Prog() = default;
    Prog(const Prog&) = delete;
    Prog& operator=(const Prog&) = delete;

    std::string name;
    vectorizer::CompiledProgram compiled;
    int windowIters = 1;
    multicore::Partition part[kConfigs];
    Windows win[kConfigs];
    /** Round-0 serial output, checked against the bytecode VM. */
    std::vector<interp::Value> firstOutput;
    /** Set-up runners, reused by round 0. */
    std::unique_ptr<interp::Runner> serial;
    std::unique_ptr<interp::ParallelRunner> parallel[kConfigs];
    /** Cold set-up: host compiler time, and the rest of runInit. */
    double compileMs = 0.0;
    double loadInitMs = 0.0;
};

interp::EngineConfig
nativeConfig(const Options& opt)
{
    interp::EngineConfig c(interp::ExecEngine::Native);
    c.simd.laneWidth = 4;
    c.native.cacheDir = opt.cacheDir;
    return c;
}

vectorizer::SimdizeOptions
simdizeOptions()
{
    vectorizer::SimdizeOptions o;
    o.machine = machine::coreI7();
    o.forceSimdize = true;
    return o;
}

/** Sink elements per steady iteration (from the schedule). */
double
sinkElementsPerIteration(const vectorizer::CompiledProgram& p)
{
    double n = 0.0;
    for (const graph::Actor& a : p.graph.actors) {
        if (a.isFilter() && a.outputs.empty() && !a.inputs.empty())
            n += static_cast<double>(p.schedule.reps[a.id] * a.def->pop);
    }
    return n;
}

/** Per-partition steady wall times of a native ParallelRunner. */
std::vector<double>
partitionWalls(const interp::ParallelRunner& r)
{
    std::vector<double> out;
    json::Value st = r.statsToJson();
    const json::Value* par = st.find("parallel");
    const json::Value* nat = par ? par->find("native") : nullptr;
    const json::Value* w = nat ? nat->find("partitionWallMicros") : nullptr;
    if (w) {
        for (const json::Value& x : w->items())
            out.push_back(x.asDouble());
    }
    return out;
}

std::vector<double>
partitionWalls(const interp::Runner&)
{
    return {};  // One partition: NativeStats.steadyWallMicros below.
}

double
steadyWall(const interp::Runner& r)
{
    return r.nativeStats() ? r.nativeStats()->steadyWallMicros : 0.0;
}

double
steadyWall(const interp::ParallelRunner&)
{
    return 0.0;  // Per-partition walls come from partitionWalls().
}

/** Drop one warm-up window, then time kTimedWindows windows. */
template <typename R>
void
runWindows(R& r, const Prog& p, Config c, Windows& w, Spans& spans)
{
    const std::string detail =
        p.name + (c == kSerial ? "" : std::string(" ") + kConfigName[c]);
    {
        Span s(spans, "runSteady.warmup", detail);
        r.runSteady(p.windowIters);
    }
    std::vector<double> partBefore;
    if (c != kSerial && spans.on())
        partBefore = partitionWalls(r);
    double roundUs = 0.0, roundMaxUs = 0.0;
    std::int64_t roundElems = 0;
    for (int k = 0; k < kTimedWindows; ++k) {
        const std::size_t before = r.captured().size();
        const double emittedBefore = steadyWall(r);
        const Clock::time_point t0 = Clock::now();
        r.runSteady(p.windowIters);
        const Clock::time_point t1 = Clock::now();
        const double us = microsBetween(t0, t1);
        const std::int64_t elems =
            static_cast<std::int64_t>(r.captured().size() - before);
        spans.add("runSteady", detail, spans.micros(t0),
                  spans.micros(t1));
        w.micros.push_back(us);
        roundUs += us;
        roundMaxUs = std::max(roundMaxUs, us);
        roundElems += elems;
        w.elements += elems;
        w.outerMicros += us;
        w.emittedMicros += steadyWall(r) - emittedBefore;
    }
    w.roundRates.push_back(static_cast<double>(roundElems) /
                           (roundUs * 1e-6));
    w.roundMeanMicros.push_back(roundUs / kTimedWindows);
    w.roundMaxMicros.push_back(roundMaxUs);
    if (!partBefore.empty()) {
        std::vector<double> after = partitionWalls(r);
        double slowest = 0.0;
        w.partitionMicros.resize(after.size(), 0.0);
        for (std::size_t i = 0; i < after.size(); ++i) {
            const double d = after[i] - partBefore[i];
            w.partitionMicros[i] += d;
            slowest = std::max(slowest, d);
        }
        w.emittedMicros += slowest;
    }
}

/** Split a runInit's wall time into host compile and the rest. */
void
accountInit(Prog& p, double initMs, const native::NativeStats* st)
{
    const double compileMs = st ? st->compileMillis : 0.0;
    p.compileMs += compileMs;
    p.loadInitMs += initMs - compileMs;
}

/** emitCpp totals of the traced run. */
struct EmitTotals {
    double ms = 0.0;
    double kb = 0.0;
};

/**
 * Traced runs only: emit the same translation unit the native engine
 * builds, to time emitCpp and size its output on its own.
 */
void
measureEmit(const Prog& p, Config c, Spans& spans, EmitTotals& totals)
{
    if (!spans.on())
        return;
    codegen::EmitOptions eo;
    eo.simd.laneWidth = 4;
    if (c == kSerial) {
        eo.mode = codegen::EmitMode::Library;
    } else {
        eo.mode = codegen::EmitMode::PartitionedLibrary;
        eo.partitionCores = p.part[c].cores;
        eo.partitionCoreOf = p.part[c].coreOf;
    }
    const Clock::time_point t0 = Clock::now();
    std::string src;
    {
        Span s(spans, "emitCpp", p.name + " " + kConfigName[c]);
        src = codegen::emitCpp(p.compiled.graph, p.compiled.schedule, eo);
    }
    totals.ms += microsBetween(t0, Clock::now()) / 1000.0;
    totals.kb += static_cast<double>(src.size()) / 1024.0;
}

/** Build a parallel native runner for @p c and return its init ms. */
double
buildParallel(Prog& p, Config c, const Options& opt, Spans& spans,
              std::unique_ptr<interp::ParallelRunner>& out,
              const char* spanName)
{
    const Clock::time_point t0 = Clock::now();
    Span s(spans, spanName,
           p.name + std::string(" ") + kConfigName[c]);
    out = std::make_unique<interp::ParallelRunner>(
        p.compiled.graph, p.compiled.schedule, p.part[c], nullptr,
        nativeConfig(opt));
    out->runInit();
    return microsBetween(t0, Clock::now()) / 1000.0;
}

double
buildSerial(Prog& p, const Options& opt, Spans& spans,
            std::unique_ptr<interp::Runner>& out, const char* spanName)
{
    const Clock::time_point t0 = Clock::now();
    Span s(spans, spanName, p.name);
    out = std::make_unique<interp::Runner>(
        p.compiled.graph, p.compiled.schedule, nullptr, nativeConfig(opt));
    out->runInit();
    return microsBetween(t0, Clock::now()) / 1000.0;
}

/** Bytecode profile + partitionGreedy at 2 and 4 threads. */
void
partition(Prog& p, Spans& spans)
{
    Span s(spans, "partition", p.name);
    std::vector<double> cycles(p.compiled.graph.actors.size(), 0.0);
    {
        Span prof(spans, "profile", p.name, s.id());
        const machine::MachineDesc m = machine::coreI7();
        machine::CostSink sink(m);  // Keeps a reference to m.
        interp::Runner r(p.compiled.graph, p.compiled.schedule, &sink,
                         interp::EngineConfig(interp::ExecEngine::Bytecode));
        r.enableCapture(false);
        r.runInit();
        r.runSteady(kProfileIters);
        for (const graph::Actor& a : p.compiled.graph.actors)
            cycles[a.id] = sink.actorCycles(a.id);
    }
    for (Config c : {kTwo, kFour}) {
        Span g(spans, "partitionGreedy",
               p.name + std::string(" ") + kConfigName[c], s.id());
        p.part[c] = multicore::partitionGreedy(
            p.compiled.graph, p.compiled.schedule, cycles, kThreads[c]);
    }
}

/** Cold set-up of one program: vectorize, then emit, compile, load
 *  and init every runner it needs (plus the partitions when
 *  @p parallel). */
void
setUp(Prog& p, bool parallel, const Options& opt, Spans& spans)
{
    graph::StreamPtr program = benchmarks::benchmarkByName(p.name);
    {
        Span s(spans, "macroSimdize", p.name);
        p.compiled = vectorizer::macroSimdize(program, simdizeOptions());
    }
    const double epi = sinkElementsPerIteration(p.compiled);
    p.windowIters = static_cast<int>(
        std::max(1.0, std::ceil(kWindowElements / std::max(1.0, epi))));
    const double serialMs = buildSerial(p, opt, spans, p.serial, "runInit");
    accountInit(p, serialMs, p.serial->nativeStats());
    if (!parallel)
        return;
    partition(p, spans);
    for (Config c : {kTwo, kFour}) {
        const double ms =
            buildParallel(p, c, opt, spans, p.parallel[c], "runInit");
        accountInit(p, ms, p.parallel[c]->nativeStats());
    }
}

/**
 * Set up every program on kSetupThreads threads, taking programs in
 * the fixed suite order (not the seeded one, so set-up time does not
 * depend on the seed). Rethrows the first set-up failure.
 */
void
setUpAll(std::vector<Prog>& progs, bool parallel, const Options& opt,
         Spans& spans)
{
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(progs.size());
    auto work = [&] {
        for (std::size_t i; (i = next++) < progs.size();) {
            try {
                setUp(progs[i], parallel, opt, spans);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };
    std::vector<std::thread> pool;
    for (int k = 0; k < kSetupThreads; ++k)
        pool.emplace_back(work);
    for (std::thread& t : pool)
        t.join();
    for (const std::exception_ptr& e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
}

/** The VM prefix check: native round-0 output against bytecode. */
bool
vmPrefixMatches(const Prog& p, Spans& spans)
{
    Span s(spans, "vmPrefixCheck", p.name);
    const std::size_t n = std::min(kVmPrefixElements, p.firstOutput.size());
    interp::Runner vm(p.compiled.graph, p.compiled.schedule);
    vm.runInit();
    vm.runUntilCaptured(static_cast<std::int64_t>(n));
    return n > 0 && samePrefix(p.firstOutput, vm.captured(), n);
}

void
printSummary(const char* label, const Summary& s, const char* unit)
{
    std::printf("  %-28s p50 %12.2f  q1 %12.2f  q3 %12.2f  p%g %12.2f "
                "%s  (n=%zu)\n",
                label, s.p50, s.q1, s.q3, s.tailPct, s.tail, unit, s.n);
}

RunResult
runStream(const Options& opt, Spans& spans, bool parallel)
{
    RunResult res;
    Rng rng(opt.seed);
    const std::vector<Config> configs =
        parallel ? std::vector<Config>{kSerial, kTwo, kFour}
                 : std::vector<Config>{kSerial};
    const Config headline = parallel ? kFour : kSerial;

    std::vector<std::string> names;
    if (parallel) {
        names = kParallelPrograms;
    } else {
        for (const benchmarks::Benchmark& b : benchmarks::standardSuite())
            names.push_back(b.name);
    }

    // ---- Cold set-up: vectorize, emit, compile, load, init. -------
    // stream_native sets up kSetupRepeats times, each into an empty
    // cache of its own, and reports the median; the last set-up's
    // runners and cache serve the measurement. stream_parallel's
    // set-up (27 host compiles) fits in a run only once.
    const int setupRepeats = parallel ? 1 : kSetupRepeats;
    Options run = opt;
    std::vector<double> setups;
    std::vector<Prog> progs;
    for (int k = 0; k < setupRepeats; ++k) {
        run.cacheDir = opt.cacheDir + "/setup-" + std::to_string(k);
        progs = std::vector<Prog>(names.size());
        for (std::size_t i = 0; i < names.size(); ++i)
            progs[i].name = names[i];
        Span s(spans, "setup", "cold " + std::to_string(k));
        const Clock::time_point setupStart = Clock::now();
        setUpAll(progs, parallel, run, spans);
        setups.push_back(secondsSince(setupStart));
    }
    const double setupS = summarize(setups).p50;
    EmitTotals emit;
    for (const Prog& p : progs) {
        for (Config c : configs)
            measureEmit(p, c, spans, emit);
    }
    // The seed fixes the measurement order. Runners point into their
    // Prog, so the programs stay put and an index order is shuffled.
    std::vector<Prog*> order;
    for (Prog& p : progs)
        order.push_back(&p);
    rng.shuffle(order);

    // ---- Measurement: rounds of fresh runners over fixed windows. --
    const Clock::time_point measureStart = Clock::now();
    int rounds = 0;
    std::int64_t capturedAtEnd = 0;
    while (rounds < kMinRounds || secondsSince(measureStart) < opt.seconds) {
        capturedAtEnd = 0;
        for (Prog* pp : order) {
            Prog& p = *pp;
            std::unique_ptr<interp::Runner> serial = std::move(p.serial);
            try {
                if (!serial)
                    buildSerial(p, run, spans, serial, "runInit.warm");
                runWindows(*serial, p, kSerial, p.win[kSerial], spans);
            } catch (const std::exception& e) {
                std::fprintf(stderr, "perfbench: %s serial: %s\n",
                             p.name.c_str(), e.what());
                res.attempted += 1 + kTimedWindows;
                res.failed += 1 + kTimedWindows;
                continue;
            }
            res.attempted += 1 + kTimedWindows;
            capturedAtEnd +=
                static_cast<std::int64_t>(serial->captured().size());
            if (rounds == 0)
                p.firstOutput = serial->captured();
            for (Config c : configs) {
                if (c == kSerial)
                    continue;
                std::unique_ptr<interp::ParallelRunner> par =
                    std::move(p.parallel[c]);
                res.attempted += 1 + kTimedWindows;
                try {
                    if (!par)
                        buildParallel(p, c, run, spans, par,
                                      "runInit.warm");
                    runWindows(*par, p, c, p.win[c], spans);
                } catch (const std::exception& e) {
                    std::fprintf(stderr, "perfbench: %s %s: %s\n",
                                 p.name.c_str(), kConfigName[c], e.what());
                    res.failed += 1 + kTimedWindows;
                    continue;
                }
                // Parallel output must equal serial native over the
                // whole run (same init, same windows).
                const auto& a = serial->captured();
                const auto& b = par->captured();
                if (a.size() != b.size() || !samePrefix(a, b, a.size())) {
                    std::fprintf(stderr,
                                 "perfbench: %s %s output differs from "
                                 "serial native\n",
                                 p.name.c_str(), kConfigName[c]);
                    res.failed += 1 + kTimedWindows;
                }
            }
        }
        ++rounds;
    }
    const double measuredS = secondsSince(measureStart);
    const double peakRss = peakRssMiB();

    // ---- Correctness: native against the bytecode VM. --------------
    for (const Prog& p : progs) {
        if (p.firstOutput.empty())
            continue;
        if (!vmPrefixMatches(p, spans)) {
            std::fprintf(stderr,
                         "perfbench: %s native output differs from the "
                         "bytecode VM\n",
                         p.name.c_str());
            res.failed += 1 + kTimedWindows;
        }
    }

    // ---- Report. ----------------------------------------------------
    std::printf("%s: %zu programs, %d rounds in %.2f s, windows of ~%.0f "
                "elements, %d timed per runner\n",
                parallel ? "stream_parallel" : "stream_native",
                progs.size(), rounds, measuredS, kWindowElements,
                kTimedWindows);
    std::printf("  set-up (cold, %d programs at a time):", kSetupThreads);
    for (double x : setups)
        std::printf(" %.3f s", x);
    std::printf("\n");
    // Per program: the full-speed quartile over rounds (stats.h);
    // across programs: geomean.
    std::vector<double> geo[kConfigs], meanUs, maxUs;
    std::vector<double> headlineWindows;
    for (const Prog* pp : order) {
        const Prog& p = *pp;
        std::printf("  %-16s", p.name.c_str());
        for (Config c : configs) {
            const Summary s = summarize(p.win[c].roundRates);
            geo[c].push_back(fullSpeedRate(p.win[c].roundRates));
            std::printf("  %s %10.0f el/s [q1 %.0f q3 %.0f n=%zu]",
                        kConfigName[c], s.p50, s.q1, s.q3, s.n);
        }
        std::printf("\n");
        const Windows& w = p.win[headline];
        meanUs.push_back(fullSpeedTime(w.roundMeanMicros));
        maxUs.push_back(fullSpeedTime(w.roundMaxMicros));
        headlineWindows.insert(headlineWindows.end(), w.micros.begin(),
                               w.micros.end());
    }
    printSummary("window latency, pooled", summarize(headlineWindows),
                 "us");
    const double eps = geomean(geo[headline]);
    std::printf("  throughput geomean: %s %.0f el/s",
                kConfigName[headline], eps);
    if (parallel) {
        std::printf(", serial %.0f, 2t %.0f (4t/serial %.3fx, 2t/serial "
                    "%.3fx)",
                    geomean(geo[kSerial]), geomean(geo[kTwo]),
                    eps / geomean(geo[kSerial]),
                    geomean(geo[kTwo]) / geomean(geo[kSerial]));
    }
    std::printf("\n");

    res.endToEnd = {
        {"setup_s", setupS, "s"},
        {"throughput_eps", eps, "elements/s"},
        {"latency_p50_us", geomean(meanUs), "us"},
        {"latency_tail_us", geomean(maxUs), "us"},
        {"peak_rss_mb", peakRss, "MiB"},
    };

    if (!spans.on())
        return res;

    // ---- Per-layer metrics (traced run). ------------------------------
    double outer = 0.0, emitted = 0.0;
    for (const Prog& p : progs) {
        outer += p.win[kSerial].outerMicros;
        emitted += p.win[kSerial].emittedMicros;
    }
    std::vector<Metric>& L = res.perLayer;
    L.push_back({"runner.overhead_share",
                 outer > 0 ? (outer - emitted) / outer : 0.0, "fraction"});
    L.push_back({"runner.captured_elems",
                 static_cast<double>(capturedAtEnd), "count"});
    double compileMs = 0.0, loadInitMs = 0.0;
    for (const Prog& p : progs) {
        compileMs += p.compileMs;
        loadInitMs += p.loadInitMs;
    }
    L.push_back({"native.host_compile_ms", compileMs, "ms"});
    L.push_back({"native.load_init_ms", loadInitMs, "ms"});
    for (const Prog& p : progs) {
        const Windows& w = p.win[kSerial];
        L.push_back({"native.steady_ns_per_elem." + p.name,
                     w.elements ? w.emittedMicros * 1000.0 /
                                      static_cast<double>(w.elements)
                                : 0.0,
                     "ns"});
    }
    L.push_back({"codegen.emit_ms", emit.ms, "ms"});
    L.push_back({"codegen.emitted_kb", emit.kb, "KiB"});
    L.push_back({"vectorizer.compile_ms",
                 spans.totalMs("macroSimdize") / setupRepeats, "ms"});
    if (parallel) {
        double cross[kConfigs] = {0, 0, 0};
        std::vector<double> imbalance, skew;
        double par4Outer = 0.0, par4Slowest = 0.0;
        for (const Prog& p : progs) {
            for (Config c : {kTwo, kFour})
                cross[c] += static_cast<double>(p.part[c].commWords);
            const auto& load = p.part[kFour].coreLoad;
            double mx = 0.0, sum = 0.0;
            for (double l : load) {
                mx = std::max(mx, l);
                sum += l;
            }
            if (sum > 0)
                imbalance.push_back(mx * load.size() / sum);
            const Windows& w4 = p.win[kFour];
            if (!w4.partitionMicros.empty()) {
                auto [mn, mxw] = std::minmax_element(
                    w4.partitionMicros.begin(), w4.partitionMicros.end());
                if (*mn > 0)
                    skew.push_back(*mxw / *mn);
            }
            par4Outer += w4.outerMicros;
            par4Slowest += w4.emittedMicros;
        }
        L.push_back({"multicore.partition_ms", spans.totalMs("partition"),
                     "ms"});
        L.push_back({"multicore.cross_words_2t", cross[kTwo], "words"});
        L.push_back({"multicore.cross_words_4t", cross[kFour], "words"});
        L.push_back({"multicore.load_imbalance_4t", geomean(imbalance),
                     "ratio"});
        L.push_back({"parallel.partition_skew_4t", geomean(skew), "ratio"});
        L.push_back({"parallel.outside_emitted_share_4t",
                     par4Outer > 0 ? 1.0 - par4Slowest / par4Outer : 0.0,
                     "fraction"});
        L.push_back({"parallel.throughput_eps_2t", geomean(geo[kTwo]),
                     "elements/s"});
        for (Config c : {kTwo, kFour}) {
            for (const Prog& p : progs) {
                const double base = fullSpeedRate(p.win[kSerial].roundRates);
                const double r = fullSpeedRate(p.win[c].roundRates);
                L.push_back({std::string("parallel.speedup_") +
                                 kConfigName[c] + "." + p.name,
                             base > 0 ? r / base : 0.0, "ratio"});
            }
        }
    }
    return res;
}

} // namespace

RunResult
runStreamNative(const Options& opt, Spans& spans)
{
    return runStream(opt, spans, false);
}

RunResult
runStreamParallel(const Options& opt, Spans& spans)
{
    return runStream(opt, spans, true);
}

} // namespace perfbench
