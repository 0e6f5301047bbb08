/**
 * @file
 * Long-run differential tests of native tape compaction. The emitted
 * intra-partition tapes drop their consumed prefix at steady-iteration
 * boundaries (Tape::compact in codegen/emit_cpp.cpp), which the short
 * differential suites never reach: no tape there crosses the
 * compaction threshold. Here every suite program runs long enough
 * that every tape, wherever the partition puts it, compacts at least
 * kCompactions times, and the native capture must match the bytecode
 * VM's in element count and in an order-sensitive lane checksum.
 *
 * Covered: all 12 suite programs under the macro and macro+sagu
 * configurations (SAGU puts transposed endpoints, and with them the
 * block-floored cut, on the intra-partition tapes), at lane widths
 * W=1 and W=4, run serially and over partitionGreedy at 2 and 4
 * cores; plus random macro+sagu programs whose transposed cursors
 * sit mid-block at iteration boundaries, where the cut must fall
 * below rp and the live region must reach past wp (some of them
 * serially only).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "../test_util.h"
#include "benchmarks/random_graph.h"
#include "benchmarks/suite.h"
#include "interp/parallel_runner.h"
#include "multicore/partition.h"

namespace macross::interp {
namespace {

/** The emitted Tape::kCompactMin: the smallest dead prefix cut. */
constexpr std::int64_t kCompactMin = 4096;
/** Compactions every tape must go through. */
constexpr std::int64_t kCompactions = 3;

/** Block the emitted cut is floored to: lcm of the transpose blocks. */
std::int64_t
cutBlock(const graph::TapeTranspose& t)
{
    std::int64_t block = t.readSide ? t.rate * t.simdWidth : 1;
    if (t.writeSide)
        block = std::lcm(block, t.rate * t.simdWidth);
    return block;
}

/**
 * Steady iterations after which every tape has compacted at least
 * kCompactions times. At an iteration boundary a tape holds its
 * schedule occupancy (the warm-up's leftover tokens) plus at most a
 * block either side of the cursors, so the live size after a cut is
 * bounded by occupancy + 2 blocks; a compaction then fires as soon as
 * the iterations since the last cut have consumed max(kCompactMin,
 * live) + one block.
 */
std::int64_t
iterationsForCompactions(const vectorizer::CompiledProgram& p)
{
    std::int64_t iters = 1;
    for (const auto& t : p.graph.tapes) {
        const std::int64_t push = p.graph.actor(t.src).pushRate(t.srcPort);
        const std::int64_t pop = p.graph.actor(t.dst).popRate(t.dstPort);
        const std::int64_t flow = p.schedule.reps[t.src] * push;
        const std::int64_t occupancy = p.schedule.initFires[t.src] * push -
                                       p.schedule.initFires[t.dst] * pop;
        const std::int64_t block = cutBlock(t.transpose);
        const std::int64_t live = occupancy + 2 * block;
        const std::int64_t consumed = std::max(kCompactMin, live) + block;
        iters = std::max(iters,
                         kCompactions * ((consumed + flow - 1) / flow));
    }
    return iters;
}

/** Element count plus an order-sensitive checksum of the raw lanes. */
struct Digest {
    std::size_t elements = 0;
    std::uint64_t checksum = 0;

    bool operator==(const Digest& o) const
    {
        return elements == o.elements && checksum == o.checksum;
    }
};

Digest
digest(const CapturedStream& captured)
{
    Digest d;
    d.elements = captured.size();
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64.
    for (std::uint32_t lane : captured.lanes()) {
        h ^= lane;
        h *= 1099511628211ull;
    }
    d.checksum = h;
    return d;
}

std::ostream&
operator<<(std::ostream& os, const Digest& d)
{
    return os << d.elements << " elements, checksum " << std::hex
              << d.checksum << std::dec;
}

struct Config {
    const char* name;
    bool sagu;
};

const Config kConfigs[] = {
    {"macro", false},
    {"macro+sagu", true},
};

machine::MachineDesc
machineFor(bool sagu)
{
    return sagu ? machine::coreI7WithSagu() : machine::coreI7();
}

vectorizer::CompiledProgram
simdize(const graph::StreamPtr& program, bool sagu)
{
    vectorizer::SimdizeOptions opts;
    opts.forceSimdize = true;
    opts.enableSagu = sagu;
    opts.machine = machineFor(sagu);
    return vectorizer::macroSimdize(program, opts);
}

/**
 * Run @p p for iterationsForCompactions() steady iterations on the
 * bytecode VM, then natively at W=1 and W=4, serially and over
 * partitionGreedy at each of @p threadCounts cores; every native
 * capture must match the VM's digest. @p m is the machine @p p was
 * SIMDized for.
 */
void
expectLongRunMatchesVm(const vectorizer::CompiledProgram& p,
                       const machine::MachineDesc& m,
                       const std::vector<int>& threadCounts = {2, 4})
{
    const std::int64_t iters = iterationsForCompactions(p);
    ::testing::Test::RecordProperty("iterations", std::to_string(iters));
    SCOPED_TRACE(std::to_string(iters) + " steady iterations");

    Runner vm(p.graph, p.schedule, nullptr,
              EngineConfig(ExecEngine::Bytecode));
    vm.runInit();
    vm.runSteady(iters);
    const Digest ref = digest(vm.captured());
    ASSERT_GT(ref.elements, 0u);

    // Partition weights from a short modeled profiling run, as the
    // CLI computes them for partitionGreedy.
    machine::CostSink cost(m);
    Runner profile(p.graph, p.schedule, &cost,
                   EngineConfig(ExecEngine::Bytecode));
    profile.runInit();
    profile.runSteady(4);
    std::vector<double> weights(p.graph.actors.size());
    for (const auto& a : p.graph.actors)
        weights[a.id] = cost.actorCycles(a.id);

    for (int w : {1, 4}) {
        SCOPED_TRACE("W=" + std::to_string(w));
        EngineConfig config(ExecEngine::Native);
        config.simd.laneWidth = w;

        Runner serial(p.graph, p.schedule, nullptr, config);
        serial.runInit();
        serial.runSteady(iters);
        EXPECT_EQ(digest(serial.captured()), ref) << "serial";

        for (int threads : threadCounts) {
            SCOPED_TRACE(std::to_string(threads) + " cores");
            multicore::Partition part = multicore::partitionGreedy(
                p.graph, p.schedule, weights, threads);
            ParallelRunner pr(p.graph, p.schedule, part, nullptr,
                              config);
            pr.runInit();
            pr.runSteady(iters);
            EXPECT_FALSE(pr.degradedToSerial());
            EXPECT_EQ(digest(pr.captured()), ref);
        }
    }
}

class SuiteNativeLongRun
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SuiteNativeLongRun, CompactingTapesStayBitIdenticalToVm)
{
    auto [benchIdx, cfgIdx] = GetParam();
    auto suite = benchmarks::standardSuite();
    ASSERT_LT(static_cast<std::size_t>(benchIdx), suite.size());
    const auto& bench = suite[benchIdx];
    const Config& cfg = kConfigs[cfgIdx];
    SCOPED_TRACE(bench.name + std::string(" / ") + cfg.name);
    expectLongRunMatchesVm(simdize(bench.program, cfg.sagu),
                           machineFor(cfg.sagu));
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, SuiteNativeLongRun,
    ::testing::Combine(::testing::Range(0, 12), ::testing::Range(0, 2)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
        auto suite = benchmarks::standardSuite();
        std::string n = suite[std::get<0>(info.param)].name +
                        std::string("_") +
                        kConfigs[std::get<1>(info.param)].name;
        for (auto& ch : n) {
            if (ch == '-' || ch == '+')
                ch = '_';
        }
        return n;
    });

/**
 * True when some transposed tape's read or write cursor sits mid-block
 * at a steady-iteration boundary (after init, or after some number of
 * iterations): a mid-block read cursor puts the cut below rp, a
 * mid-block write cursor puts live elements past wp (the rest of its
 * block was written ahead by the transposed walk).
 */
bool
hasMidBlockCursor(const vectorizer::CompiledProgram& p)
{
    for (const auto& t : p.graph.tapes) {
        const std::int64_t block = cutBlock(t.transpose);
        if (block == 1)
            continue;
        const std::int64_t push = p.graph.actor(t.src).pushRate(t.srcPort);
        const std::int64_t pop = p.graph.actor(t.dst).popRate(t.dstPort);
        for (std::int64_t cursor :
             {p.schedule.initFires[t.dst] * pop, p.schedule.reps[t.dst] * pop,
              p.schedule.initFires[t.src] * push,
              p.schedule.reps[t.src] * push}) {
            if (cursor % block != 0)
                return true;
        }
    }
    return false;
}

// In the suite programs every transposed tape's cursors are
// block-aligned whenever the tape compacts, so there the block floor
// never moves the cut below rp. These random programs (macro+sagu)
// put a cursor mid-block: compacting at rp itself would split a
// transposed block, and moving only up to wp would drop the rest of
// a transposed write block, so they diverge unless both ends of the
// live region are rounded to the block.
class RandomNativeLongRun : public ::testing::TestWithParam<int> {};

/** Seeds run serially and over 2 and 4 cores. */
constexpr int kSeeds[] = {7000, 7017, 7053, 7056};
/** Seeds run serially only: their parallel runs still hit the SAGU
 *  crossing-ring bug (ROADMAP), which is not a compaction fault. */
constexpr int kSerialSeeds[] = {7006, 7026, 7033, 7042};

TEST_P(RandomNativeLongRun, MidBlockCutStaysBitIdenticalToVm)
{
    const int seed = GetParam();
    SCOPED_TRACE("seed " + std::to_string(seed));
    vectorizer::CompiledProgram p =
        simdize(benchmarks::randomProgram(seed), true);
    ASSERT_TRUE(hasMidBlockCursor(p));
    const bool serialOnly =
        std::find(std::begin(kSerialSeeds), std::end(kSerialSeeds),
                  seed) != std::end(kSerialSeeds);
    expectLongRunMatchesVm(p, machineFor(true),
                           serialOnly ? std::vector<int>{}
                                      : std::vector<int>{2, 4});
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNativeLongRun,
                         ::testing::ValuesIn(kSeeds));
INSTANTIATE_TEST_SUITE_P(SerialSeeds, RandomNativeLongRun,
                         ::testing::ValuesIn(kSerialSeeds));

} // namespace
} // namespace macross::interp
