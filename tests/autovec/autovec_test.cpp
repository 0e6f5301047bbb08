/**
 * @file
 * Tests for the modeled GCC/ICC auto-vectorizers: decision coverage
 * and the paper's expected ordering (macro-SIMD > ICC > GCC > scalar
 * on vectorizable workloads; semantics always bit-exact).
 */
#include "autovec/gcc_like.h"
#include "autovec/icc_like.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "benchmarks/suite.h"
#include "lowering/lowered.h"

namespace macross::autovec {
namespace {

double
cyclesWith(const vectorizer::CompiledProgram& p,
           const machine::MachineDesc& m, bool gcc, bool icc)
{
    lowering::LoweredProgram lp = lowering::lower(p.graph, p.schedule);
    machine::CostSink cost(m);
    interp::Runner r(p.graph, p.schedule, &cost);
    if (gcc) {
        for (auto& [id, cfg] : gccAutovectorize(lp, m).configs)
            r.setActorConfig(id, cfg);
    }
    if (icc) {
        for (auto& [id, cfg] : iccAutovectorize(lp, m).configs)
            r.setActorConfig(id, cfg);
    }
    r.runInit();
    std::size_t before = r.captured().size();
    r.runSteady(10);
    std::size_t produced = r.captured().size() - before;
    EXPECT_GT(produced, 0u);
    return cost.totalCycles() / static_cast<double>(produced);
}

TEST(Autovec, GccVectorizesPureArrayLoopsOnly)
{
    machine::MachineDesc m = machine::coreI7();
    // DCT's inner loops run over plain local arrays: GCC handles them.
    auto dct = vectorizer::compileScalar(benchmarks::makeDct());
    auto dctLp = lowering::lower(dct.graph, dct.schedule);
    AutovecResult r = gccAutovectorize(dctLp, m);
    EXPECT_GT(r.loopsVectorized, 0);
    EXPECT_EQ(r.actorsOuterVectorized, 0);  // GCC model: inner only.

    // FMRadio's FIR loops read the tape through circular buffers:
    // the GCC model rejects them, the ICC model vectorizes them.
    auto fm = vectorizer::compileScalar(benchmarks::makeFmRadio());
    auto fmLp = lowering::lower(fm.graph, fm.schedule);
    EXPECT_EQ(gccAutovectorize(fmLp, m).loopsVectorized, 0);
    EXPECT_GT(iccAutovectorize(fmLp, m).loopsVectorized, 0);
}

TEST(Autovec, IccAddsOuterLoopVectorization)
{
    // Outer-loop vectorization needs a repetition count >= the SIMD
    // width; MatrixMult's pass-through branch repeats 9x per steady
    // state and has no inner loops, so the ICC model (and only it)
    // vectorizes its firing loop.
    auto p = vectorizer::compileScalar(benchmarks::makeMatrixMult());
    lowering::LoweredProgram lp = lowering::lower(p.graph, p.schedule);
    machine::MachineDesc m = machine::coreI7();
    AutovecResult gcc = gccAutovectorize(lp, m);
    AutovecResult icc = iccAutovectorize(lp, m);
    EXPECT_GE(icc.loopsVectorized + icc.actorsOuterVectorized,
              gcc.loopsVectorized);
    EXPECT_GT(icc.actorsOuterVectorized, 0);
    EXPECT_EQ(gcc.actorsOuterVectorized, 0);
}

TEST(Autovec, SpeedupOrderingOnSuite)
{
    machine::MachineDesc m = machine::coreI7();
    double scalarSum = 0, gccSum = 0, iccSum = 0;
    for (const auto& b : benchmarks::standardSuite()) {
        SCOPED_TRACE(b.name);
        auto p = vectorizer::compileScalar(b.program);
        double scalar = cyclesWith(p, m, false, false);
        double gcc = cyclesWith(p, m, true, false);
        double icc = cyclesWith(p, m, false, true);
        // Modeled compilers can only reduce cycles.
        EXPECT_LE(gcc, scalar * 1.0001);
        EXPECT_LE(icc, scalar * 1.0001);
        scalarSum += scalar;
        gccSum += gcc;
        iccSum += icc;
    }
    // Aggregate: ICC is the stronger traditional vectorizer.
    EXPECT_LT(iccSum, scalarSum);
    EXPECT_LE(iccSum, gccSum * 1.0001);
}

TEST(Autovec, ModelsNeverChangeSemantics)
{
    // Cost plans do not alter data flow: captured streams with and
    // without autovec configs must be identical.
    auto p = vectorizer::compileScalar(benchmarks::makeFmRadio());
    machine::MachineDesc m = machine::coreI7();
    lowering::LoweredProgram lp = lowering::lower(p.graph, p.schedule);

    interp::Runner plain(p.graph, p.schedule);
    plain.runUntilCaptured(128);

    machine::CostSink cost(m);
    interp::Runner modeled(p.graph, p.schedule, &cost);
    for (auto& [id, cfg] : iccAutovectorize(lp, m).configs)
        modeled.setActorConfig(id, cfg);
    modeled.runUntilCaptured(128);

    ASSERT_GE(plain.captured().size(), 128u);
    ASSERT_GE(modeled.captured().size(), 128u);
    for (int i = 0; i < 128; ++i)
        ASSERT_EQ(plain.captured().lanes()[i], modeled.captured().lanes()[i]);
}

TEST(Autovec, SkipsAlreadyVectorizedActors)
{
    vectorizer::SimdizeOptions o;
    o.forceSimdize = true;
    auto p = vectorizer::macroSimdize(benchmarks::makeDct(), o);
    lowering::LoweredProgram lp = lowering::lower(p.graph, p.schedule);
    machine::MachineDesc m = machine::coreI7();
    AutovecResult r = iccAutovectorize(lp, m);
    for (const auto& [id, cfg] : r.configs) {
        const auto& a = p.graph.actor(id);
        EXPECT_EQ(a.def->vectorLanes, 1)
            << "autovec touched intrinsics actor " << a.def->name;
        (void)cfg;
    }
}

} // namespace
} // namespace macross::autovec
