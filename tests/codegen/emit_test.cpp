/**
 * @file
 * Code-generation tests: structural checks on the emitted C++, plus
 * an end-to-end test that compiles the emitted translation unit with
 * the host compiler and compares its output against the interpreter.
 */
#include "codegen/emit_cpp.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>

#include "../test_util.h"
#include "benchmarks/suite.h"
#include "frontend/parser.h"
#include "machine/cost_sink.h"
#include "multicore/partition.h"

namespace macross::codegen {
namespace {

TEST(Codegen, EmitsVectorIntrinsicsForSimdizedGraph)
{
    vectorizer::SimdizeOptions opts;
    opts.forceSimdize = true;
    auto compiled =
        vectorizer::macroSimdize(benchmarks::makeRunningExample(),
                                 opts);
    std::string src = emitCpp(compiled.graph, compiled.schedule);
    EXPECT_NE(src.find("Vec<float, 4>"), std::string::npos);
    EXPECT_NE(src.find("vpush"), std::string::npos);
    EXPECT_NE(src.find("rpush"), std::string::npos);
    EXPECT_NE(src.find("advance_in"), std::string::npos);
    EXPECT_NE(src.find("int main"), std::string::npos);
}

TEST(Codegen, SimdSpecSelectsTheVectorLayer)
{
    vectorizer::SimdizeOptions vopts;
    vopts.forceSimdize = true;
    auto compiled = vectorizer::macroSimdize(
        benchmarks::makeRunningExample(), vopts);

    // Default spec (W=4): the true-SIMD layer, built on the
    // compiler's vector extensions, chunked at kLaneWidth.
    EmitOptions w4;
    ASSERT_EQ(w4.simd.laneWidth, 4);
    std::string simd =
        emitCpp(compiled.graph, compiled.schedule, w4);
    EXPECT_NE(simd.find("SIMD lowering: w4:auto:exact"),
              std::string::npos);
    EXPECT_NE(simd.find("kLaneWidth = 4"), std::string::npos);
    EXPECT_NE(simd.find("ext_vector_type"), std::string::npos);
    EXPECT_NE(simd.find("vector_size"), std::string::npos);

    // W=1: the scalar fallback layer — no vector extensions at all,
    // same Vec/Tape interface.
    EmitOptions w1;
    w1.simd.laneWidth = 1;
    std::string scalar =
        emitCpp(compiled.graph, compiled.schedule, w1);
    EXPECT_NE(scalar.find("SIMD lowering: w1:auto:exact"),
              std::string::npos);
    EXPECT_EQ(scalar.find("ext_vector_type"), std::string::npos);
    EXPECT_EQ(scalar.find("vector_size"), std::string::npos);
    EXPECT_NE(scalar.find("Vec<float, 4>"), std::string::npos);

    // The actor bodies are lowering-independent: only the preamble's
    // Vec/Tape layer changes between specs.
    EXPECT_NE(simd, scalar);
}

TEST(Codegen, InvalidSimdSpecIsRejected)
{
    auto compiled =
        vectorizer::compileScalar(benchmarks::makeRunningExample());
    EmitOptions opts;
    opts.simd.laneWidth = 3;
    EXPECT_THROW(emitCpp(compiled.graph, compiled.schedule, opts),
                 PanicError);
    opts.simd.laneWidth = 4;
    opts.simd.isa = "native; rm -rf /";
    EXPECT_THROW(emitCpp(compiled.graph, compiled.schedule, opts),
                 PanicError);
}

TEST(Codegen, EmitsScalarGraphWithoutVectors)
{
    auto compiled =
        vectorizer::compileScalar(benchmarks::makeMatrixMultBlock());
    std::string src = emitCpp(compiled.graph, compiled.schedule);
    // No vector tape accesses outside the runtime preamble.
    EXPECT_EQ(src.find("->vpush("), std::string::npos);
    EXPECT_EQ(src.find(".vpush("), std::string::npos);
    EXPECT_NE(src.find("struct Actor0"), std::string::npos);
}

TEST(Codegen, EmitOptionsControlMainDefaults)
{
    auto compiled =
        vectorizer::compileScalar(benchmarks::makeRunningExample());
    EmitOptions opts;
    opts.steadyIterations = 77;
    opts.printFirst = 9;
    std::string src =
        emitCpp(compiled.graph, compiled.schedule, opts);
    // The CLI's --run N / --emit-print K land verbatim in main(),
    // argv[1] overriding the baked default via validated strtol
    // (junk counts exit with a usage message, never atoi-to-0).
    EXPECT_NE(src.find("long iters = 77;"), std::string::npos);
    EXPECT_NE(src.find("std::strtol(argv[1]"), std::string::npos);
    EXPECT_NE(src.find("usage: %s [ITERATIONS]"), std::string::npos);
    EXPECT_EQ(src.find("std::atoi"), std::string::npos);
    EXPECT_NE(src.find("i < rec.size() && i < 9"), std::string::npos);
}

TEST(Codegen, LibraryModeEmitsAbiInsteadOfMain)
{
    auto compiled =
        vectorizer::compileScalar(benchmarks::makeRunningExample());
    EmitOptions opts;
    opts.mode = EmitMode::Library;
    std::string src =
        emitCpp(compiled.graph, compiled.schedule, opts);
    EXPECT_EQ(src.find("int main"), std::string::npos);
    EXPECT_NE(src.find("extern \"C\""), std::string::npos);
    // A serial library is the one-partition shape: the partition
    // symbol set, and none of the whole-program entry points.
    for (const char* sym :
         {"macross_abi_version", "macross_simd_lanes",
          "macross_simd_isa", "macross_exact", "macross_num_partitions",
          "macross_create_partition", "macross_destroy_partition",
          "macross_ring_bind", "macross_init_all",
          "macross_run_steady_partition", "macross_sink_partition",
          "macross_capture_size", "macross_capture_data",
          "macross_capture_consume"}) {
        EXPECT_NE(src.find(sym), std::string::npos)
            << "missing ABI symbol " << sym;
    }
    for (const char* gone :
         {"macross_create(", "macross_init(", "macross_run_steady(",
          "struct Program"}) {
        EXPECT_EQ(src.find(gone), std::string::npos)
            << "whole-program symbol " << gone << " still emitted";
    }
    EXPECT_NE(src.find("int macross_num_partitions() { return 1; }"),
              std::string::npos);
    EXPECT_NE(src.find("struct Partition0"), std::string::npos);
    EXPECT_EQ(src.find("struct Partition1"), std::string::npos);
    // The introspection symbols report the spec this object was
    // emitted under.
    EXPECT_NE(src.find("int macross_abi_version() { return 4; }"),
              std::string::npos);
    EXPECT_NE(src.find("int macross_simd_lanes() { return 4; }"),
              std::string::npos);
    EXPECT_NE(src.find("return \"auto\""), std::string::npos);
    EXPECT_NE(src.find("int macross_exact() { return 1; }"),
              std::string::npos);

    EmitOptions ulp = opts;
    ulp.simd.allowUlpDivergence = true;
    std::string inexact =
        emitCpp(compiled.graph, compiled.schedule, ulp);
    EXPECT_NE(inexact.find("int macross_exact() { return 0; }"),
              std::string::npos);
}

TEST(Codegen, RingSupportOnlyWithACrossingTape)
{
    auto compiled =
        vectorizer::compileScalar(benchmarks::makeRunningExample());
    const std::size_t n = compiled.graph.actors.size();
    const char* ringOn = "#define MACROSS_RING 1";

    // One partition, or two with every actor on core 0: no tape
    // crosses, so the tapes carry no ring test at all.
    EmitOptions one;
    one.mode = EmitMode::Library;
    EXPECT_EQ(emitCpp(compiled.graph, compiled.schedule, one)
                  .find(ringOn),
              std::string::npos);
    EmitOptions idle = one;
    idle.partitionCores = 2;
    idle.partitionCoreOf.assign(n, 0);
    std::string idleSrc =
        emitCpp(compiled.graph, compiled.schedule, idle);
    EXPECT_EQ(idleSrc.find(ringOn), std::string::npos);
    EXPECT_NE(idleSrc.find("struct MacrossRing;"), std::string::npos);

    // Two cores split down the pipeline: a tape crosses, and ring
    // support is compiled in.
    EmitOptions two = idle;
    for (std::size_t i = n / 2; i < n; ++i)
        two.partitionCoreOf[i] = 1;
    bool crosses = false;
    for (const auto& t : compiled.graph.tapes)
        crosses |= two.partitionCoreOf[t.src] !=
                   two.partitionCoreOf[t.dst];
    ASSERT_TRUE(crosses);
    std::string twoSrc = emitCpp(compiled.graph, compiled.schedule, two);
    EXPECT_NE(twoSrc.find(ringOn), std::string::npos);
    EXPECT_NE(twoSrc.find("struct Partition1"), std::string::npos);

    // The standalone main() is one partition.
    EmitOptions standalone = two;
    standalone.mode = EmitMode::Standalone;
    EXPECT_THROW(
        emitCpp(compiled.graph, compiled.schedule, standalone),
        FatalError);
}

/** The brace-matched block that opens at the first '{' from @p at. */
std::string
braceBlock(const std::string& src, std::size_t at)
{
    const std::size_t open = src.find('{', at);
    if (open == std::string::npos)
        return {};
    int depth = 0;
    for (std::size_t i = open; i < src.size(); ++i) {
        if (src[i] == '{')
            ++depth;
        else if (src[i] == '}' && --depth == 0)
            return src.substr(open, i - open + 1);
    }
    return {};
}

/** @p block with its member function @p fn (signature and body) cut
 *  out. */
std::string
withoutMember(std::string block, const std::string& fn)
{
    const std::size_t at = block.find(fn);
    if (at == std::string::npos)
        return block;
    const std::string body = braceBlock(block, at);
    return block.erase(at, block.find(body, at) + body.size() - at);
}

/**
 * The shape every emitted tape must have: transposition and capture
 * fixed at emission (no run-time rT/wT/record members), no resize
 * reachable from a per-element or per-vector accessor (only the
 * per-iteration reservation grows a buffer), no ring test in the
 * intra-partition Tape, and each partition declaring its
 * intra-partition tapes as Tape and its crossing endpoints as
 * RingTape.
 */
void
expectSpecialisedTapes(const std::string& src,
                       const graph::FlatGraph& g,
                       const std::vector<int>& coreOf, int cores)
{
    const std::regex runtimeMember(R"(\b(rT|wT|record)\b)");
    EXPECT_FALSE(std::regex_search(src, runtimeMember));

    const std::size_t tapeAt = src.find("struct Tape :");
    ASSERT_NE(tapeAt, std::string::npos);
    const std::string tape = std::regex_replace(
        braceBlock(src, tapeAt), std::regex("//[^\\n]*"), "");
    ASSERT_FALSE(tape.empty());
    EXPECT_FALSE(std::regex_search(tape, std::regex(R"(\bring\b)")));
    const std::string reserve =
        braceBlock(tape, tape.find("void reserve("));
    EXPECT_NE(reserve.find("tape_grow("), std::string::npos);
    const std::string accessors = withoutMember(
        withoutMember(tape, "void reserve("), "void next_iteration(");
    for (const char* grows :
         {"resize", "tape_grow", "reserve(", "next_iteration(", "at("})
        EXPECT_EQ(accessors.find(grows), std::string::npos)
            << grows << " reachable from a Tape accessor";
    // The out-of-line grow is the only resize in the program, and the
    // reservation is its only caller.
    auto count = [&](const std::string& needle) {
        int n = 0;
        for (std::size_t at = src.find(needle); at != std::string::npos;
             at = src.find(needle, at + 1))
            ++n;
        return n;
    };
    EXPECT_EQ(count("resize"), 1);
    EXPECT_EQ(count("tape_grow("), 2);  // Its definition and one call.
    // Only the sink tape's consumer endpoint records.
    EXPECT_EQ(count(", true> tape"), 1);

    for (int k = 0; k < cores; ++k) {
        const std::string head =
            "struct Partition" + std::to_string(k) + " ";
        const std::size_t at = src.find(head);
        ASSERT_NE(at, std::string::npos) << head;
        const std::string part = braceBlock(src, at);
        for (const auto& t : g.tapes) {
            if (coreOf[t.src] != k && coreOf[t.dst] != k)
                continue;
            const bool local = coreOf[t.src] == coreOf[t.dst];
            const std::regex member(
                std::string(local ? "\\bTape<" : "\\bRingTape<") +
                "[^;]*> tape" + std::to_string(t.id) + ";");
            EXPECT_TRUE(std::regex_search(part, member))
                << "tape" << t.id << " in partition " << k;
            const std::string hook =
                "tape" + std::to_string(t.id) + ".next_iteration(";
            EXPECT_EQ(part.find(hook) != std::string::npos, local)
                << hook;
        }
    }
}

// 12 suite programs x {macro, macro+sagu} x {serial, 2-partition
// partitionGreedy}.
TEST(Codegen, TapesAreSpecialisedAtEmission)
{
    bool crossed = false;
    for (const auto& bench : benchmarks::standardSuite()) {
        for (bool sagu : {false, true}) {
            SCOPED_TRACE(bench.name + (sagu ? " macro+sagu" : " macro"));
            vectorizer::SimdizeOptions vopts;
            vopts.forceSimdize = true;
            vopts.enableSagu = sagu;
            vopts.machine = sagu ? machine::coreI7WithSagu()
                                 : machine::coreI7();
            auto p = vectorizer::macroSimdize(bench.program, vopts);

            EmitOptions serial;
            serial.mode = EmitMode::Library;
            expectSpecialisedTapes(
                emitCpp(p.graph, p.schedule, serial), p.graph,
                std::vector<int>(p.graph.actors.size()), 1);

            // Partition weights from a short modeled profiling run, as
            // the CLI computes them for partitionGreedy.
            machine::CostSink cost(vopts.machine);
            interp::Runner profile(p.graph, p.schedule, &cost);
            profile.runInit();
            profile.runSteady(4);
            std::vector<double> weights(p.graph.actors.size());
            for (const auto& a : p.graph.actors)
                weights[a.id] = cost.actorCycles(a.id);
            multicore::Partition part = multicore::partitionGreedy(
                p.graph, p.schedule, weights, 2);
            EmitOptions two = serial;
            two.partitionCores = part.cores;
            two.partitionCoreOf = part.coreOf;
            expectSpecialisedTapes(emitCpp(p.graph, p.schedule, two),
                                   p.graph, part.coreOf, part.cores);
            crossed |= part.cores == 2;
        }
    }
    EXPECT_TRUE(crossed) << "no program split across two partitions";
}

/** Compile @p source with the host compiler and run it. */
std::string
compileAndRun(const std::string& source, const std::string& tag,
              int iters)
{
    std::string base = ::testing::TempDir() + "macross_emit_" + tag;
    std::string cppPath = base + ".cpp";
    std::string binPath = base + ".bin";
    {
        std::ofstream out(cppPath);
        out << source;
    }
    std::string compile = "c++ -std=c++17 -O1 -o " + binPath + " " +
                          cppPath + " 2> " + base + ".log";
    if (std::system(compile.c_str()) != 0) {
        std::ifstream log(base + ".log");
        std::string msg((std::istreambuf_iterator<char>(log)),
                        std::istreambuf_iterator<char>());
        ADD_FAILURE() << "host compile failed:\n" << msg;
        return {};
    }
    std::string cmd = binPath + " " + std::to_string(iters);
    FILE* pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    std::string output;
    char buf[256];
    while (fgets(buf, sizeof(buf), pipe))
        output += buf;
    pclose(pipe);
    return output;
}

/** First line of the emitted program's report: element count +
 * checksum, which must match the interpreter's capture. */
void
expectEmittedMatchesInterpreter(const graph::StreamPtr& program,
                                bool simdize, const std::string& tag)
{
    vectorizer::CompiledProgram compiled;
    if (simdize) {
        vectorizer::SimdizeOptions opts;
        opts.forceSimdize = true;
        compiled = vectorizer::macroSimdize(program, opts);
    } else {
        compiled = vectorizer::compileScalar(program);
    }
    const int iters = 3;
    std::string output = compileAndRun(
        emitCpp(compiled.graph, compiled.schedule), tag, iters);
    ASSERT_FALSE(output.empty());

    // Interpreter reference: same order-independent sum of raw lane
    // bits the emitted main() prints.
    interp::Runner r(compiled.graph, compiled.schedule);
    r.runInit();
    r.runSteady(iters);
    unsigned long long checksum = 0;
    for (std::uint32_t lane : r.captured().lanes())
        checksum += lane;

    char expected[128];
    std::snprintf(expected, sizeof(expected),
                  "elements %zu checksum %016llx",
                  r.captured().size(), checksum);
    EXPECT_EQ(output.substr(0, output.find('\n')),
              std::string(expected));
}

TEST(Codegen, EmittedScalarProgramMatchesInterpreter)
{
    expectEmittedMatchesInterpreter(
        benchmarks::makeRunningExample(), false, "scalar");
}

TEST(Codegen, EmittedSimdizedProgramMatchesInterpreter)
{
    expectEmittedMatchesInterpreter(
        benchmarks::makeRunningExample(), true, "simd");
}

TEST(Codegen, EmittedDctWithPermutedTapesMatches)
{
    expectEmittedMatchesInterpreter(benchmarks::makeDct(), true,
                                    "dct");
}

TEST(Codegen, EmittedBitonicIntProgramMatches)
{
    expectEmittedMatchesInterpreter(benchmarks::makeBitonicSort(),
                                    true, "bitonic");
}

TEST(Codegen, EmittedHorizontalProgramMatches)
{
    expectEmittedMatchesInterpreter(benchmarks::makeFilterBank(),
                                    true, "filterbank");
}

TEST(Codegen, EmittedFusedChainMatches)
{
    expectEmittedMatchesInterpreter(benchmarks::makeMatrixMultBlock(),
                                    true, "mmb");
}

TEST(Codegen, EmittedSaguTransposedTapesMatch)
{
    // MatrixMult under the SAGU config: the emitted Tape must apply
    // the block-transpose walk on the scalar endpoints.
    vectorizer::SimdizeOptions opts;
    opts.forceSimdize = true;
    opts.enableSagu = true;
    opts.machine = machine::coreI7WithSagu();
    auto compiled =
        vectorizer::macroSimdize(benchmarks::makeMatrixMult(), opts);
    bool transposed = false;
    for (const auto& t : compiled.graph.tapes) {
        transposed |= t.transpose.readSide || t.transpose.writeSide;
    }
    ASSERT_TRUE(transposed);

    const int iters = 3;
    std::string output = compileAndRun(
        emitCpp(compiled.graph, compiled.schedule), "sagu", iters);
    ASSERT_FALSE(output.empty());

    interp::Runner r(compiled.graph, compiled.schedule);
    r.runInit();
    r.runSteady(iters);
    unsigned long long checksum = 0;
    for (std::uint32_t lane : r.captured().lanes())
        checksum += lane;
    char expected[128];
    std::snprintf(expected, sizeof(expected),
                  "elements %zu checksum %016llx", r.captured().size(),
                  checksum);
    EXPECT_EQ(output.substr(0, output.find('\n')),
              std::string(expected));
}

TEST(Codegen, ScalarFallbackLayerMatchesInterpreter)
{
    // W=1 standalone build of a SIMDized program with permuted tapes:
    // the scalar fallback layer must stay bit-identical to the
    // interpreter even when the default lowering is the vector layer.
    vectorizer::SimdizeOptions vopts;
    vopts.forceSimdize = true;
    auto compiled =
        vectorizer::macroSimdize(benchmarks::makeDct(), vopts);
    EmitOptions opts;
    opts.simd.laneWidth = 1;
    const int iters = 3;
    std::string output = compileAndRun(
        emitCpp(compiled.graph, compiled.schedule, opts), "w1", iters);
    ASSERT_FALSE(output.empty());

    interp::Runner r(compiled.graph, compiled.schedule);
    r.runInit();
    r.runSteady(iters);
    unsigned long long checksum = 0;
    for (std::uint32_t lane : r.captured().lanes())
        checksum += lane;
    char expected[128];
    std::snprintf(expected, sizeof(expected),
                  "elements %zu checksum %016llx", r.captured().size(),
                  checksum);
    EXPECT_EQ(output.substr(0, output.find('\n')),
              std::string(expected));
}

TEST(Codegen, FullStackFromStreamLanguage)
{
    // The whole toolchain in one test: textual program -> parser ->
    // macro-SIMDization -> C++ emission -> host compiler -> output
    // identical to the interpreter.
    const char* src = R"(
void->float filter Src() {
    int s;
    init { s = 41; }
    work push 4 {
        for (int i = 0; i < 4; i++) {
            s = s * 1103515245 + 12345;
            push(float((s >> 16) & 32767) * 0.0005);
        }
    }
}
float->float filter Blend(float k) {
    work pop 2 push 2 {
        float a = pop();
        float b = pop();
        push(a * k + b * (1.0 - k));
        push(b * k - a * (1.0 - k));
    }
}
float->void filter Out() {
    float acc;
    work pop 1 { acc = acc + pop(); }
}
void->void pipeline Main() {
    add Src();
    add splitjoin {
        split roundrobin(2, 2, 2, 2);
        add Blend(0.25);
        add Blend(0.5);
        add Blend(0.75);
        add Blend(0.9);
        join roundrobin(2, 2, 2, 2);
    };
    add Out();
}
)";
    expectEmittedMatchesInterpreter(frontend::parseProgram(src), true,
                                    "dsl");
}

} // namespace
} // namespace macross::codegen
