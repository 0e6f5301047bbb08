/**
 * @file
 * Shared helpers for MacroSS tests: compile/run programs and compare
 * output streams bit-exactly.
 */
#pragma once

#include <gtest/gtest.h>

#include "interp/runner.h"
#include "multicore/partition.h"
#include "support/ulp.h"
#include "vectorizer/pipeline.h"

namespace macross::testutil {

/** Run a compiled program until @p n sink elements are captured. */
inline std::vector<interp::Value>
capture(const vectorizer::CompiledProgram& p, std::int64_t n,
        machine::CostSink* cost = nullptr)
{
    interp::Runner r(p.graph, p.schedule, cost);
    r.runUntilCaptured(n);
    return {r.captured().begin(), r.captured().begin() + n};
}

/** Assert two captured streams are bit-identical. */
inline void
expectSameStream(const std::vector<interp::Value>& a,
                 const std::vector<interp::Value>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i], b[i])
            << "streams diverge at element " << i << ": " << a[i].str()
            << " vs " << b[i].str();
    }
}

/** Assert two captured streams have the same element type and the
 *  same raw lanes. */
inline void
expectSameStream(const interp::CapturedStream& a,
                 const interp::CapturedStream& b)
{
    ASSERT_EQ(a.size(), b.size());
    ASSERT_TRUE(a.elemType() == b.elemType())
        << "streams differ in element type";
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a.lanes()[i], b.lanes()[i])
            << "streams diverge at element " << i << ": " << a[i].str()
            << " vs " << b[i].str();
    }
}

/**
 * Assert two captured streams agree within @p tol ULPs on float
 * elements and bit-exactly on integer elements. This is the
 * comparison for SimdSpec.allowUlpDivergence builds; everything else
 * should use expectSameStream (bit-identity is the default contract).
 */
inline void
expectStreamsWithinUlp(const std::vector<interp::Value>& a,
                       const std::vector<interp::Value>& b,
                       std::int64_t tol)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(a[i].type() == b[i].type())
            << "streams diverge in type at element " << i << ": "
            << a[i].str() << " vs " << b[i].str();
        for (int l = 0; l < a[i].lanes(); ++l) {
            if (a[i].type().isFloat()) {
                ASSERT_TRUE(
                    support::withinUlp(a[i].f(l), b[i].f(l), tol))
                    << "streams diverge at element " << i << " lane "
                    << l << ": " << a[i].str() << " vs " << b[i].str()
                    << " (" << support::ulpDistance(a[i].f(l), b[i].f(l))
                    << " ULPs apart, tolerance " << tol << ")";
            } else {
                ASSERT_EQ(a[i].rawBits(l), b[i].rawBits(l))
                    << "streams diverge at element " << i << " lane "
                    << l << ": " << a[i].str() << " vs " << b[i].str();
            }
        }
    }
}

/**
 * The central correctness property: macro-SIMDization must preserve
 * the program's output stream bit-exactly.
 */
inline void
expectTransformPreservesOutput(const graph::StreamPtr& program,
                               const vectorizer::SimdizeOptions& opts,
                               std::int64_t n = 256)
{
    auto scalar = vectorizer::compileScalar(program);
    auto simd = vectorizer::macroSimdize(program, opts);
    expectSameStream(capture(scalar, n), capture(simd, n));
}

/** Steady-state cycles per sink element under a machine model. */
inline double
cyclesPerElement(const vectorizer::CompiledProgram& p,
                 const machine::MachineDesc& m, int iters = 20)
{
    machine::CostSink cost(m);
    interp::Runner r(p.graph, p.schedule, &cost);
    r.runInit();
    std::size_t before = r.captured().size();
    r.runSteady(iters);
    std::size_t produced = r.captured().size() - before;
    EXPECT_GT(produced, 0u);
    return cost.totalCycles() / static_cast<double>(produced);
}

/** A partitioner under test, by name. */
struct Partitioner {
    const char* name;
    multicore::Partition (*fn)(const graph::FlatGraph&,
                               const schedule::Schedule&,
                               const std::vector<double>&, int);
};

/**
 * The partitions the parallel runtimes must execute correctly: LPT
 * (exact core count, cyclic core graphs) and the contiguous pipeline
 * partitioner the CLI, tuner and benches run.
 */
inline const Partitioner kPartitioners[] = {
    {"lpt", &multicore::partitionLpt},
    {"greedy", &multicore::partitionGreedy},
};

} // namespace macross::testutil
