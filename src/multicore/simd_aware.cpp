/**
 * @file
 * SIMD-aware scheduler implementation.
 */
#include "multicore/simd_aware.h"

#include "interp/runner.h"
#include "support/diagnostics.h"

namespace macross::multicore {

namespace {

/** Profile per-actor steady-state cycles with the machine model. */
std::vector<double>
profileActors(const vectorizer::CompiledProgram& p,
              const machine::MachineDesc& m, int iters = 10)
{
    machine::CostSink cost(m);
    interp::Runner r(p.graph, p.schedule, &cost);
    r.enableCapture(false);
    r.runInit();
    r.runSteady(iters);
    std::vector<double> out(p.graph.actors.size(), 0.0);
    for (const auto& a : p.graph.actors)
        out[a.id] = cost.actorCycles(a.id) / iters;
    return out;
}

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

double
cyclesPerElement(const vectorizer::CompiledProgram& p,
                 const machine::MachineDesc& m, int cores,
                 const CommModel& comm)
{
    auto cycles = profileActors(p, m);
    Partition part =
        partitionLpt(p.graph, p.schedule, cycles, cores);
    MulticoreEstimate est =
        estimateMulticore(p.graph, p.schedule, part,
                          comm.perWordCycles, comm.syncCycles);
    return est.cycles / sinkElementsPerSteady(p);
}

} // namespace

SimdAwareDecision
scheduleSimdAware(const graph::StreamPtr& program,
                  const vectorizer::SimdizeOptions& opts, int cores,
                  const CommModel& comm)
{
    fatalIf(cores < 1, "scheduleSimdAware needs >= 1 core");
    auto scalar = vectorizer::compileScalar(program);
    auto simd = vectorizer::macroSimdize(program, opts);

    SimdAwareDecision d;
    d.candidates[0] =
        cyclesPerElement(scalar, opts.machine, cores, comm);
    d.candidates[1] =
        cyclesPerElement(simd, opts.machine, cores, comm);
    d.candidates[2] = cyclesPerElement(simd, opts.machine, 1, comm);

    // SIMD wins ties (it also reduces memory/cache traffic, which the
    // cycle model does not fully credit — the paper's tie-break).
    if (d.candidates[2] <= d.candidates[1] &&
        d.candidates[2] <= d.candidates[0]) {
        d.simdized = true;
        d.coresUsed = 1;
        d.cyclesPerElement = d.candidates[2];
    } else if (d.candidates[1] <= d.candidates[0]) {
        d.simdized = true;
        d.coresUsed = cores;
        d.cyclesPerElement = d.candidates[1];
    } else {
        d.simdized = false;
        d.coresUsed = cores;
        d.cyclesPerElement = d.candidates[0];
    }
    return d;
}

} // namespace macross::multicore
