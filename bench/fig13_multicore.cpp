/**
 * @file
 * Figure 13 reproduction: multicore execution with and without
 * macro-SIMDization.
 *
 * Paper shape: average 2-core speedup 1.28x (scalar) -> 2.03x with
 * SIMD; 4-core 1.85x -> 3.17x; 2 cores + SIMD lands within ~5% of 4
 * scalar cores; MatrixMult prefers SIMD-only because partitioning it
 * is communication-bound.
 *
 * The modeled table partitions with partitionLpt, the paper's naive
 * partitioner. Alongside it, a second table reports *measured*
 * wall-clock speedup of the parallel runtime (interp/parallel_runner.h)
 * over the single-threaded bytecode runner for the same steady work —
 * uncosted and capture-off, so the numbers reflect interpreter
 * throughput. A third table measures the *native* parallel runtime:
 * per-core emitted sub-programs (one Partition struct per core)
 * running over the same SPSC rings, normalized against the serial
 * native engine (the same shape with one partition) on the identical
 * macro-SIMDized graph. Both measured tables run partitionGreedy, the
 * pipeline partitioner the runtimes use, which may decline cores.
 *
 * Every measured number, serial or parallel, is the median of
 * kWindows outer-clock timings of one runSteady call, after one
 * warm-up window. On hosts with fewer CPUs than worker threads the
 * ratios sit below 1; they are meaningful on real multicores.
 */
#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "harness.h"
#include "interp/parallel_runner.h"
#include "multicore/partition.h"
#include "multicore/simd_aware.h"

using namespace macross;
using namespace macross::bench;

namespace {

constexpr double kPerWordCycles = 12.0;
constexpr double kSyncCycles = 200.0;
/** Timed windows per measured number (after one warm-up window). */
constexpr int kWindows = 5;

/** Profile per-actor steady-state cycles. */
std::vector<double>
profile(const vectorizer::CompiledProgram& p,
        const machine::MachineDesc& m, int iters = 12)
{
    machine::CostSink cost(m);
    interp::Runner r(p.graph, p.schedule, &cost);
    r.runInit();
    r.runSteady(iters);
    std::vector<double> out(p.graph.actors.size(), 0.0);
    for (const auto& a : p.graph.actors)
        out[a.id] = cost.actorCycles(a.id) / iters;
    return out;
}

/** Elements the sink consumes per steady-state iteration. */
double
sinkElementsPerSteady(const vectorizer::CompiledProgram& p)
{
    for (const auto& a : p.graph.actors) {
        if (a.isFilter() && a.outputs.empty() && !a.inputs.empty()) {
            return static_cast<double>(p.schedule.reps[a.id] *
                                       a.def->pop);
        }
    }
    return 1.0;
}

/**
 * Bottleneck cycles per sink element: different compilations scale
 * the steady state differently, so all comparisons normalize by the
 * data actually moved.
 */
double
multicoreCycles(const vectorizer::CompiledProgram& p,
                const machine::MachineDesc& m, int cores)
{
    auto cycles = profile(p, m);
    auto part = multicore::partitionLpt(p.graph, p.schedule, cycles,
                                        cores);
    auto est = multicore::estimateMulticore(
        p.graph, p.schedule, part, kPerWordCycles, kSyncCycles);
    return est.cycles / sinkElementsPerSteady(p);
}

/**
 * Initialize @p r, drop one warm-up window, then return the median
 * outer-clock wall time of kWindows runSteady(@p iters) calls.
 */
template <typename R>
double
medianWindowMicros(R& r, int iters)
{
    r.runInit();
    r.runSteady(iters);
    std::vector<double> us;
    for (int k = 0; k < kWindows; ++k) {
        const auto t0 = std::chrono::steady_clock::now();
        r.runSteady(iters);
        us.push_back(std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
    }
    std::sort(us.begin(), us.end());
    return us[us.size() / 2];
}

/**
 * Measured wall-clock microseconds for @p iters steady iterations —
 * uncosted and capture-off, so the time is pure interpreter work. For
 * one core this is the serial bytecode Runner; for more, the
 * ParallelRunner over the pipeline partition of the profiled loads.
 */
double
measuredWallMicros(const vectorizer::CompiledProgram& p,
                   const machine::MachineDesc& m, int cores, int iters)
{
    if (cores == 1) {
        interp::Runner r(p.graph, p.schedule);
        r.enableCapture(false);
        return medianWindowMicros(r, iters);
    }
    auto cycles = profile(p, m);
    auto part = multicore::partitionGreedy(p.graph, p.schedule, cycles,
                                           cores);
    interp::ParallelRunner pr(p.graph, p.schedule, part);
    pr.enableCapture(false);
    return medianWindowMicros(pr, iters);
}

interp::EngineConfig
nativeConfig()
{
    interp::EngineConfig config(interp::ExecEngine::Native);
    config.simd.laneWidth = 4;
    return config;
}

/**
 * Measured wall-clock microseconds for @p iters steady iterations on
 * the serial native engine (one-partition emitted library) at lane
 * width 4 — the baseline the native table normalizes against.
 * Capture stays on (the emitted sink always captures), matching the
 * parallel native configuration so the ratios compare like with like.
 */
double
serialNativeWallMicros(const vectorizer::CompiledProgram& p, int iters)
{
    interp::Runner r(p.graph, p.schedule, nullptr, nativeConfig());
    return medianWindowMicros(r, iters);
}

/**
 * Measured wall-clock microseconds for the parallel native runtime:
 * a partitioned emitted library — one sub-program per core over SPSC
 * rings — on the worker pool. Partition weights come from a modeled
 * bytecode profile (the native engine models no cycles).
 */
double
parallelNativeWallMicros(const vectorizer::CompiledProgram& p,
                         const machine::MachineDesc& m, int threads,
                         int iters)
{
    auto cycles = profile(p, m);
    auto part = multicore::partitionGreedy(p.graph, p.schedule, cycles,
                                           threads);
    interp::ParallelRunner pr(p.graph, p.schedule, part, nullptr,
                              nativeConfig());
    return medianWindowMicros(pr, iters);
}

} // namespace

int
main()
{
    machine::MachineDesc m = machine::coreI7();
    vectorizer::SimdizeOptions opts;
    opts.machine = m;

    std::vector<std::pair<std::string, std::vector<double>>> rows;
    for (const auto& b : benchmarks::standardSuite()) {
        auto scalar = compileConfig(b.program, false, opts);
        auto macro = compileConfig(b.program, true, opts);
        double base = multicoreCycles(scalar, m, 1);
        std::vector<double> vals;
        for (int cores : {2, 4}) {
            vals.push_back(base / multicoreCycles(scalar, m, cores));
        }
        for (int cores : {2, 4}) {
            // The SIMD-aware scheduler (Section 5): picks the best of
            // scalar-partitioned, SIMD-partitioned, and SIMD-only —
            // falling back to SIMD-on-one-core when partitioning is
            // communication-bound (the paper's MatrixMult case).
            multicore::CommModel comm;
            comm.perWordCycles = kPerWordCycles;
            comm.syncCycles = kSyncCycles;
            multicore::SimdAwareDecision d =
                multicore::scheduleSimdAware(b.program, opts, cores,
                                             comm);
            vals.push_back(base / d.cyclesPerElement);
        }
        rows.push_back({b.name, vals});
    }
    printTable("Figure 13: multicore speedups with and without "
               "macro-SIMDization",
               {"2 cores", "4 cores", "2c+macroSIMD", "4c+macroSIMD"},
               rows);
    std::printf("\npaper averages: 2c 1.28x, 4c 1.85x, 2c+SIMD 2.03x, "
                "4c+SIMD 3.17x\n");

    // Measured companion table: wall-clock ratio of the serial
    // bytecode runner to the parallel runtime for the same steady
    // work. Hardware-dependent — a host with < 4 CPUs reports < 1x.
    // The pipeline partitioner may use fewer cores than a column
    // names.
    constexpr int kMeasureIters = 256;
    std::vector<std::pair<std::string, std::vector<double>>> meas;
    for (const auto& b : benchmarks::standardSuite()) {
        auto scalar = compileConfig(b.program, false, opts);
        auto macro = compileConfig(b.program, true, opts);
        double scalarBase =
            measuredWallMicros(scalar, m, 1, kMeasureIters);
        double macroBase =
            measuredWallMicros(macro, m, 1, kMeasureIters);
        std::vector<double> vals;
        for (int cores : {2, 4}) {
            vals.push_back(scalarBase / measuredWallMicros(
                                            scalar, m, cores,
                                            kMeasureIters));
        }
        for (int cores : {2, 4}) {
            vals.push_back(macroBase / measuredWallMicros(
                                           macro, m, cores,
                                           kMeasureIters));
        }
        meas.push_back({b.name, vals});
    }
    printTable("Figure 13 (measured): parallel-runtime wall-clock "
               "speedup over the serial runner",
               {"2 threads", "4 threads", "2t+macroSIMD",
                "4t+macroSIMD"},
               meas);
    std::printf("\nmeasured on %u hardware thread(s); ratios below 1 "
                "on hosts with fewer CPUs than workers are "
                "expected\n",
                std::thread::hardware_concurrency());

    // Native companion table: emitted per-core sub-programs over SPSC
    // rings versus the serial native engine, macro-SIMDized at W=4.
    // 1 thread isolates worker-pool overhead (a one-partition library
    // has no crossing rings); 2 and 4 threads exercise the real ring
    // protocol where the partitioner splits the program.
    // Hardware-dependent like the table above.
    constexpr int kNativeIters = 256;
    std::vector<std::pair<std::string, std::vector<double>>> nat;
    for (const auto& b : benchmarks::standardSuite()) {
        auto macro = compileConfig(b.program, true, opts);
        double base = serialNativeWallMicros(macro, kNativeIters);
        std::vector<double> vals;
        for (int threads : {1, 2, 4}) {
            vals.push_back(base / parallelNativeWallMicros(
                                      macro, m, threads,
                                      kNativeIters));
        }
        nat.push_back({b.name, vals});
    }
    printTable("Figure 13 (native measured): partitioned emitted "
               "sub-programs over SPSC rings vs the serial native "
               "engine (macroSIMD, W=4)",
               {"1 thread", "2 threads", "4 threads"}, nat);
    std::printf("\nnative table measured on %u hardware thread(s); "
                "medians of %d windows, ratios below 1 when workers "
                "outnumber CPUs\n",
                std::thread::hardware_concurrency(), kWindows);

    // The measured tables are host-dependent; stamp the recording
    // host into the archive so checked-in baselines stay comparable.
    if (benchJsonPath()) {
        armBenchArchive();
        json::Value summary = json::Value::object();
        summary["hostHardwareThreads"] =
            static_cast<int>(std::thread::hardware_concurrency());
        summary["windows"] = kWindows;
        summary["note"] =
            "modeled table is deterministic (partitionLpt); measured "
            "tables run partitionGreedy, which may use fewer cores "
            "than a column names, time serial and parallel alike "
            "(median of windows after one warm-up window) and depend "
            "on the host";
        benchArchive()["summary"] = std::move(summary);
    }
    return 0;
}
