/**
 * @file
 * End-to-end acceptance test for the CLI's JSON report: runs the real
 * `macross` binary (path injected by CMake as MACROSS_CLI_PATH) with
 * --json-report and validates the emitted document with the library's
 * own JSON parser — per-actor transform decisions, cost-model
 * estimates, and per-actor/per-op-class steady-state cycle
 * breakdowns all present.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#ifndef _WIN32
#include <sys/wait.h>
#endif

#include <gtest/gtest.h>

#include "native/simd_probe.h"
#include "support/json.h"

namespace macross {
namespace {

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

int
runCli(const std::string& args)
{
    std::string cmd = std::string(MACROSS_CLI_PATH) + " " + args +
                      " > /dev/null 2>&1";
    return std::system(cmd.c_str());
}

/** Like runCli, but keeps the child's stdout in @p out_file. */
int
runCliTo(const std::string& args, const std::string& out_file)
{
    std::string cmd = std::string(MACROSS_CLI_PATH) + " " + args +
                      " > " + out_file + " 2>/dev/null";
    return std::system(cmd.c_str());
}

/** Like runCli, but decodes the child's actual exit status. */
int
runCliExitCode(const std::string& args)
{
    int raw = runCli(args);
#ifndef _WIN32
    return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
#else
    return raw;
#endif
}

TEST(CliReport, FmRadioJsonReportIsCompleteAndValid)
{
    const std::string out = "cli_report_test_out.json";
    std::remove(out.c_str());
    ASSERT_EQ(runCli("--bench FMRadio --simd --json-report " + out),
              0);

    json::Value root = json::parse(readFile(out));

    EXPECT_EQ(root.find("program")->asString(), "FMRadio");
    EXPECT_EQ(root.find("mode")->asString(), "macro-simd");
    ASSERT_NE(root.find("machine"), nullptr);
    EXPECT_GE(root.find("machine")->find("simdWidth")->asInt(), 2);

    // Per-actor transform decisions with cost-model estimates.
    const json::Value* compilation = root.find("compilation");
    ASSERT_NE(compilation, nullptr);
    const json::Value* decisions = compilation->find("decisions");
    ASSERT_NE(decisions, nullptr);
    ASSERT_GT(decisions->size(), 0u);
    bool sawCostEstimate = false;
    for (const json::Value& d : decisions->items()) {
        EXPECT_NE(d.find("actor"), nullptr);
        EXPECT_NE(d.find("kind"), nullptr);
        EXPECT_NE(d.find("accepted"), nullptr);
        if (const json::Value* cost = d.find("cost")) {
            EXPECT_GT(cost->find("scalarCycles")->asDouble(), 0.0);
            EXPECT_GT(cost->find("simdCycles")->asDouble(), 0.0);
            sawCostEstimate = true;
        }
    }
    EXPECT_TRUE(sawCostEstimate);

    // Steady-state run: totals plus the per-actor x per-op-class
    // cycle matrix.
    const json::Value* run = root.find("run");
    ASSERT_NE(run, nullptr);
    EXPECT_GT(run->find("sinkElements")->asInt(), 0);
    EXPECT_GT(run->find("totalCycles")->asDouble(), 0.0);
    const json::Value* cost = run->find("cost");
    ASSERT_NE(cost, nullptr);
    ASSERT_GT(cost->find("classes")->size(), 0u);
    const json::Value* actors = cost->find("actors");
    ASSERT_NE(actors, nullptr);
    ASSERT_GT(actors->size(), 0u);
    bool sawClassBreakdown = false;
    for (const json::Value& a : actors->items()) {
        EXPECT_GT(a.find("cycles")->asDouble(), 0.0);
        if (a.find("classes")->size() > 0)
            sawClassBreakdown = true;
    }
    EXPECT_TRUE(sawClassBreakdown);

    // Runner statistics: firing counts and tape traffic.
    const json::Value* stats = run->find("stats");
    ASSERT_NE(stats, nullptr);
    ASSERT_GT(stats->find("actors")->size(), 0u);
    std::int64_t totalFires = 0;
    for (const json::Value& a : stats->find("actors")->items())
        totalFires += a.find("fires")->asInt();
    EXPECT_GT(totalFires, 0);
    ASSERT_GT(stats->find("tapes")->size(), 0u);
    std::int64_t pushed = 0;
    for (const json::Value& t : stats->find("tapes")->items())
        pushed += t.find("elementsPushed")->asInt();
    EXPECT_GT(pushed, 0);

    // Trace archive (pass timers always collected for JSON reports).
    const json::Value* trace = root.find("trace");
    ASSERT_NE(trace, nullptr);
    EXPECT_NE(trace->find("timers")->find("vectorizer.macroSimdize"),
              nullptr);

    std::remove(out.c_str());
}

TEST(CliReport, ScalarModeStillProducesRunData)
{
    const std::string out = "cli_report_scalar_out.json";
    std::remove(out.c_str());
    ASSERT_EQ(
        runCli("--bench FMRadio --scalar --json-report " + out), 0);
    json::Value root = json::parse(readFile(out));
    EXPECT_EQ(root.find("mode")->asString(), "scalar");
    // Scalar builds carry no decisions but a full run section.
    EXPECT_EQ(root.find("compilation")->find("decisions")->size(), 0u);
    EXPECT_GT(root.find("run")->find("totalCycles")->asDouble(), 0.0);
    std::remove(out.c_str());
}

TEST(CliReport, EngineFlagSelectsEngineAndMatchesCycles)
{
    const std::string treeOut = "cli_report_tree_out.json";
    const std::string vmOut = "cli_report_vm_out.json";
    std::remove(treeOut.c_str());
    std::remove(vmOut.c_str());
    ASSERT_EQ(runCli("--bench FMRadio --simd --engine tree "
                     "--json-report " + treeOut),
              0);
    ASSERT_EQ(runCli("--bench FMRadio --simd --engine bytecode "
                     "--json-report " + vmOut),
              0);

    json::Value tree = json::parse(readFile(treeOut));
    json::Value vm = json::parse(readFile(vmOut));
    const json::Value* treeStats = tree.find("run")->find("stats");
    const json::Value* vmStats = vm.find("run")->find("stats");
    EXPECT_EQ(treeStats->find("engine")->asString(), "tree");
    EXPECT_EQ(vmStats->find("engine")->asString(), "bytecode");

    // Both engines model the exact same cycle count.
    EXPECT_DOUBLE_EQ(
        tree.find("run")->find("totalCycles")->asDouble(),
        vm.find("run")->find("totalCycles")->asDouble());

    // The bytecode run reports per-actor instruction counts and the
    // compile time spent lowering the actors.
    bool sawInstrs = false;
    for (const json::Value& a : vmStats->find("actors")->items()) {
        if (const json::Value* bi = a.find("bytecodeInstrs")) {
            EXPECT_GT(bi->asInt(), 0);
            sawInstrs = true;
        }
    }
    EXPECT_TRUE(sawInstrs);
    ASSERT_NE(vmStats->find("bytecodeCompileMicros"), nullptr);

    EXPECT_NE(runCli("--bench FMRadio --engine llvm"), 0);

    std::remove(treeOut.c_str());
    std::remove(vmOut.c_str());
}

TEST(CliReport, ThreadsFlagReportsParallelSectionWithSameCycles)
{
    const std::string serialOut = "cli_report_serial_out.json";
    const std::string parOut = "cli_report_parallel_out.json";
    std::remove(serialOut.c_str());
    std::remove(parOut.c_str());
    ASSERT_EQ(runCli("--bench FMRadio --simd --run 20 "
                     "--json-report " + serialOut),
              0);
    ASSERT_EQ(runCli("--bench FMRadio --simd --run 20 --threads 2 "
                     "--json-report " + parOut),
              0);

    json::Value serial = json::parse(readFile(serialOut));
    json::Value par = json::parse(readFile(parOut));

    EXPECT_EQ(par.find("run")->find("threads")->asInt(), 2);
    const json::Value* stats = par.find("run")->find("stats");
    const json::Value* p = stats->find("parallel");
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->find("threads")->asInt(), 2);
    EXPECT_EQ(p->find("threadsRequested")->asInt(), 2);
    ASSERT_GT(p->find("coreOf")->size(), 0u);
    EXPECT_EQ(p->find("coreLoad")->size(), 2u);
    ASSERT_GT(p->find("rings")->size(), 0u);
    for (const json::Value& r : p->find("rings")->items()) {
        EXPECT_GT(r.find("capacity")->asInt(), 0);
        EXPECT_GT(r.find("wordsPerIteration")->asInt(), 0);
    }
    EXPECT_GT(p->find("steadyWallMicros")->asDouble(), 0.0);
    ASSERT_NE(p->find("measuredSpeedup"), nullptr);

    // The parallel run models the exact same cycles as the serial one.
    EXPECT_DOUBLE_EQ(
        serial.find("run")->find("totalCycles")->asDouble(),
        par.find("run")->find("totalCycles")->asDouble());

    EXPECT_NE(runCli("--bench FMRadio --threads 0"), 0);

    std::remove(serialOut.c_str());
    std::remove(parOut.c_str());
}

TEST(CliReport, ThreadsFlagSaysHowManyCoresRan)
{
    // Macro-SIMDized MP3Decoder is one dominant actor: the partitioner
    // declines to split it, and the report says so.
    const std::string out = "cli_report_cores_out.json";
    const std::string text = "cli_report_cores_out.txt";
    std::remove(out.c_str());
    std::remove(text.c_str());
    ASSERT_EQ(runCliTo("--bench MP3Decoder --simd --run 8 --threads 4 "
                       "--json-report " + out,
                       text),
              0);
    EXPECT_NE(readFile(text).find("parallel run on 1 of 4 cores"),
              std::string::npos);
    json::Value root = json::parse(readFile(out));
    const json::Value* p = root.find("run")->find("stats")->find("parallel");
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->find("threads")->asInt(), 1);
    EXPECT_EQ(p->find("threadsRequested")->asInt(), 4);
    EXPECT_EQ(p->find("coreLoad")->size(), 1u);
    std::remove(out.c_str());
    std::remove(text.c_str());
}

TEST(CliReport, EmitHonorsRunCountAndPrintLimit)
{
    // Regression: --emit used to ignore --run N and always bake the
    // default iteration count into the emitted main().
    const std::string out = "cli_emit_plumbing_out.cpp";
    std::remove(out.c_str());
    ASSERT_EQ(runCli("--bench FMRadio --simd --emit " + out +
                     " --run 13 --emit-print 5"),
              0);
    std::string src = readFile(out);
    EXPECT_NE(src.find("long iters = 13;"), std::string::npos)
        << "--run N not plumbed into the emitted main()";
    EXPECT_NE(src.find("i < rec.size() && i < 5"), std::string::npos)
        << "--emit-print K not plumbed into the emitted main()";
    std::remove(out.c_str());

    EXPECT_NE(runCli("--bench FMRadio --emit-print banana"), 0);
}

TEST(CliReport, NativeEngineReportsStatsAndMatchesSinkCount)
{
    const std::string natOut = "cli_report_native_out.json";
    const std::string vmOut = "cli_report_native_vm_out.json";
    std::remove(natOut.c_str());
    std::remove(vmOut.c_str());
    ASSERT_EQ(runCli("--bench FMRadio --simd --run 10 "
                     "--engine native --json-report " + natOut),
              0);
    ASSERT_EQ(runCli("--bench FMRadio --simd --run 10 "
                     "--engine bytecode --json-report " + vmOut),
              0);

    json::Value nat = json::parse(readFile(natOut));
    json::Value vm = json::parse(readFile(vmOut));
    const json::Value* stats = nat.find("run")->find("stats");
    EXPECT_EQ(stats->find("engine")->asString(), "native");
    const json::Value* n = stats->find("native");
    ASSERT_NE(n, nullptr);
    EXPECT_FALSE(n->find("compiler")->asString().empty());
    EXPECT_FALSE(n->find("soPath")->asString().empty());
    ASSERT_NE(n->find("cacheHit"), nullptr);
    ASSERT_NE(n->find("compileMillis"), nullptr);
    EXPECT_GT(n->find("steadyWallMicros")->asDouble(), 0.0);

    // Same schedule, same iterations: the native run must consume
    // exactly as many sink elements as the bytecode run.
    EXPECT_EQ(nat.find("run")->find("sinkElements")->asInt(),
              vm.find("run")->find("sinkElements")->asInt());

    std::remove(natOut.c_str());
    std::remove(vmOut.c_str());
}

TEST(CliReport, NativeParallelRunReportsPartitionedStats)
{
    const std::string natOut = "cli_report_native_par_out.json";
    const std::string vmOut = "cli_report_native_par_vm_out.json";
    std::remove(natOut.c_str());
    std::remove(vmOut.c_str());
    ASSERT_EQ(runCli("--bench FMRadio --simd --run 10 "
                     "--engine native --threads 2 --json-report " +
                     natOut),
              0);
    ASSERT_EQ(runCli("--bench FMRadio --simd --run 10 "
                     "--engine bytecode --json-report " + vmOut),
              0);

    json::Value nat = json::parse(readFile(natOut));
    json::Value vm = json::parse(readFile(vmOut));
    const json::Value* stats = nat.find("run")->find("stats");
    EXPECT_EQ(stats->find("engine")->asString(), "native");
    ASSERT_NE(stats->find("native"), nullptr);
    EXPECT_EQ(stats->find("native")->find("abiVersion")->asInt(), 4);
    const json::Value* p = stats->find("parallel");
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->find("threads")->asInt(), 2);
    EXPECT_FALSE(p->find("degradedToSerial")->asBool());
    const json::Value* pn = p->find("native");
    ASSERT_NE(pn, nullptr);
    EXPECT_EQ(pn->find("partitions")->asInt(), 2);
    EXPECT_EQ(pn->find("partitionWallMicros")->size(), 2u);
    // The partition weights come from a modeled profiling pass, so
    // the greedy partition actually spreads load over both cores.
    ASSERT_EQ(p->find("coreLoad")->size(), 2u);
    EXPECT_GT(p->find("coreLoad")->at(0).asDouble(), 0.0);

    // Same schedule, same iterations as the bytecode reference.
    EXPECT_EQ(nat.find("run")->find("sinkElements")->asInt(),
              vm.find("run")->find("sinkElements")->asInt());

    std::remove(natOut.c_str());
    std::remove(vmOut.c_str());
}

TEST(CliTuner, KnobUsageErrorsExitAsUsage)
{
    // Each rejection is a plain-prose usage error (exit 2), never an
    // assert or a stack trace.
    EXPECT_EQ(runCliExitCode("--bench FMRadio --machine pdp11"), 2);
    EXPECT_EQ(runCliExitCode("--bench FMRadio --batch-iters 8"), 2);
    EXPECT_EQ(runCliExitCode("--bench FMRadio --ring-cap 128"), 2);
    EXPECT_EQ(runCliExitCode("--bench FMRadio --threads 2 "
                             "--batch-iters 0"),
              2);
    EXPECT_EQ(runCliExitCode("--bench FMRadio --threads 2 "
                             "--ring-cap banana"),
              2);
    EXPECT_EQ(runCliExitCode("--bench FMRadio --autotune"), 2);
    EXPECT_EQ(runCliExitCode("--bench FMRadio --tuned"), 2);
    EXPECT_EQ(runCliExitCode("--bench FMRadio --engine native "
                             "--tune-budget 3"),
              2);
    EXPECT_EQ(runCliExitCode("--bench FMRadio --native-isa "
                             "x86-64-v3"),
              2);
    EXPECT_EQ(runCliExitCode("--bench FMRadio --engine native "
                             "--native-isa bad,flags"),
              2);
}

TEST(CliTuner, MachineFlagSelectsWideMachine)
{
    const std::string out = "cli_tuner_machine_out.json";
    std::remove(out.c_str());
    ASSERT_EQ(runCliExitCode("--bench FMRadio --simd --machine wide8 "
                             "--json-report " + out),
              0);
    json::Value root = json::parse(readFile(out));
    EXPECT_EQ(root.find("machine")->find("name")->asString(),
              "wide-8");
    // --machine sets the default SW; --width still overrides it.
    EXPECT_EQ(root.find("machine")->find("simdWidth")->asInt(), 8);
    std::remove(out.c_str());

    ASSERT_EQ(runCliExitCode("--bench FMRadio --simd --machine wide8 "
                             "--width 4 --json-report " + out),
              0);
    root = json::parse(readFile(out));
    EXPECT_EQ(root.find("machine")->find("simdWidth")->asInt(), 4);
    std::remove(out.c_str());

    // Without --native-simd the emitted lane width follows the
    // machine's planned width, clipped to the host probe.
    ASSERT_EQ(runCliExitCode("--bench DCT --simd --machine wide8 "
                             "--engine native --run 4 --json-report " +
                             out),
              0);
    root = json::parse(readFile(out));
    const int expected =
        std::min(8, macross::native::probeMaxLaneWidth());
    EXPECT_EQ(root.find("run")
                  ->find("stats")
                  ->find("native")
                  ->find("simd")
                  ->find("laneWidth")
                  ->asInt(),
              expected);
    std::remove(out.c_str());
}

TEST(CliTuner, BatchAndRingKnobsReachTheParallelRunner)
{
    const std::string out = "cli_tuner_knobs_out.json";
    std::remove(out.c_str());
    ASSERT_EQ(runCliExitCode("--bench FMRadio --simd --run 20 "
                             "--threads 2 --batch-iters 4 "
                             "--ring-cap 256 --json-report " + out),
              0);
    json::Value root = json::parse(readFile(out));
    const json::Value* p =
        root.find("run")->find("stats")->find("parallel");
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->find("batchIterations")->asInt(), 4);
    EXPECT_EQ(p->find("minRingSlots")->asInt(), 256);
    for (const json::Value& r : p->find("rings")->items())
        EXPECT_GE(r.find("capacity")->asInt(), 256);
    std::remove(out.c_str());
}

TEST(CliTuner, AutotuneSearchesPersistsAndHitsCache)
{
    namespace fs = std::filesystem;
    const std::string cacheDir =
        (fs::current_path() / "cli_tuner_cache_dir").string();
    fs::remove_all(cacheDir);
    ASSERT_EQ(setenv("MACROSS_TUNE_CACHE_DIR", cacheDir.c_str(), 1),
              0);

    const std::string out1 = "cli_tuner_autotune_1.json";
    const std::string out2 = "cli_tuner_autotune_2.json";
    const std::string out3 = "cli_tuner_tuned.json";
    std::remove(out1.c_str());
    std::remove(out2.c_str());
    std::remove(out3.c_str());

    const std::string args = "--bench RunningExample --engine native "
                             "--autotune --tune-budget 2 --run 4 "
                             "--json-report ";
    ASSERT_EQ(runCliExitCode(args + out1), 0);
    json::Value first = json::parse(readFile(out1));
    const json::Value* t1 =
        first.find("run")->find("stats")->find("tuner");
    ASSERT_NE(t1, nullptr);
    EXPECT_FALSE(t1->find("cacheHit")->asBool());
    EXPECT_EQ(t1->find("candidatesMeasured")->asInt(), 2);
    EXPECT_GT(t1->find("bestMicrosPerElement")->asDouble(), 0.0);
    // Measured winner is never worse than the measured default.
    EXPECT_LE(t1->find("bestMicrosPerElement")->asDouble(),
              t1->find("defaultMicrosPerElement")->asDouble());

    // Second run: the persisted winner is reused, no new search.
    ASSERT_EQ(runCliExitCode(args + out2), 0);
    json::Value second = json::parse(readFile(out2));
    const json::Value* t2 =
        second.find("run")->find("stats")->find("tuner");
    ASSERT_NE(t2, nullptr);
    EXPECT_TRUE(t2->find("cacheHit")->asBool());
    EXPECT_EQ(t2->find("bestKey")->asString(),
              t1->find("bestKey")->asString());
    EXPECT_EQ(t2->find("measurements")->size(), 0u);

    // --tuned consumes the same entry without searching.
    ASSERT_EQ(runCliExitCode("--bench RunningExample --engine native "
                             "--tuned --run 4 --json-report " + out3),
              0);
    json::Value tuned = json::parse(readFile(out3));
    const json::Value* t3 =
        tuned.find("run")->find("stats")->find("tuner");
    ASSERT_NE(t3, nullptr);
    EXPECT_TRUE(t3->find("cacheHit")->asBool());
    EXPECT_EQ(t3->find("bestKey")->asString(),
              t1->find("bestKey")->asString());

    unsetenv("MACROSS_TUNE_CACHE_DIR");
    std::remove(out1.c_str());
    std::remove(out2.c_str());
    std::remove(out3.c_str());
    fs::remove_all(cacheDir);
}

TEST(CliReport, HelpExitsCleanly)
{
    EXPECT_EQ(runCli("--help"), 0);
}

TEST(CliReport, UnknownOptionFails)
{
    EXPECT_NE(runCli("--bench FMRadio --no-such-flag"), 0);
}

TEST(CliReport, UserErrorsExitOneInternalErrorsExitTwo)
{
    // A malformed source program is a user error: FatalError, exit 1.
    const std::string bad = "cli_exit_code_bad.str";
    {
        std::ofstream out(bad);
        out << "void->float filter F() { work push 1 { push( } }\n";
    }
    EXPECT_EQ(runCliExitCode(bad), 1);
    std::remove(bad.c_str());

    // An internal invariant violation is a PanicError: exit 2.
    EXPECT_EQ(
        runCliExitCode("--bench FMRadio --inject-fault panic"), 2);

    // Healthy runs still exit 0.
    EXPECT_EQ(runCliExitCode("--bench FMRadio --run 2"), 0);
}

TEST(CliReport, WatchdogSurvivesInjectedStallAndReportsFault)
{
    const std::string out = "cli_report_watchdog_out.json";
    const std::string serialOut = "cli_report_watchdog_serial.json";
    std::remove(out.c_str());
    std::remove(serialOut.c_str());
    ASSERT_EQ(runCliExitCode("--bench FMRadio --simd --run 20 "
                             "--json-report " + serialOut),
              0);
    // The injected stall (400 ms) dwarfs the watchdog (50 ms): the
    // run must degrade to the serial fallback and still exit 0.
    ASSERT_EQ(runCliExitCode(
                  "--bench FMRadio --simd --run 20 --threads 2 "
                  "--watchdog-ms 50 --inject-fault worker-stall:400 "
                  "--json-report " + out),
              0);

    json::Value serial = json::parse(readFile(serialOut));
    json::Value par = json::parse(readFile(out));
    const json::Value* p =
        par.find("run")->find("stats")->find("parallel");
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->find("watchdogMs")->asInt(), 50);
    EXPECT_TRUE(p->find("degradedToSerial")->asBool());
    ASSERT_GE(p->find("faults")->size(), 1u);
    const json::Value& f = p->find("faults")->at(0);
    EXPECT_EQ(f.find("kind")->asString(), "workerStall");
    EXPECT_TRUE(f.find("fallbackUsed")->asBool());
    EXPECT_TRUE(f.find("fallbackVerified")->asBool());
    EXPECT_GT(f.find("detectedAfterMs")->asDouble(), 0.0);

    // Degraded or not, the run reports the exact serial cycles.
    EXPECT_DOUBLE_EQ(
        serial.find("run")->find("totalCycles")->asDouble(),
        par.find("run")->find("totalCycles")->asDouble());

    // Unknown fault kinds are user errors.
    EXPECT_EQ(runCliExitCode(
                  "--bench FMRadio --inject-fault no-such-fault"),
              1);

    std::remove(out.c_str());
    std::remove(serialOut.c_str());
}

TEST(CliReport, DegradeOptionIsValidatedAgainstTheEngine)
{
    // --degrade is the native engine's fault policy: anywhere else it
    // is a usage error, as is a value outside off|auto|always.
    EXPECT_EQ(runCliExitCode("--bench FMRadio --degrade auto"), 2);
    EXPECT_EQ(runCliExitCode("--bench FMRadio --engine native "
                             "--degrade sideways"),
              2);
}

TEST(CliReport, NativeCrashFaultTaxonomyAndQuarantineLifecycle)
{
    // One cache dir across the whole lifecycle: the injected crash
    // poisons the entry, the degraded rerun crashes the recompiled
    // object too (second strike), and the follow-up run then trips
    // the permanent quarantine — all visible as CLI exit codes.
    namespace fs = std::filesystem;
    const std::string dir =
        ::testing::TempDir() + "macross_cli_crash_cache";
    fs::remove_all(dir);
    ::setenv("MACROSS_CACHE_DIR", dir.c_str(), 1);
    const std::string out = "cli_crash_report.json";
    std::remove(out.c_str());

    // Strike one, --degrade off (the default): structured fault,
    // exit 4.
    EXPECT_EQ(runCliExitCode("--bench FMRadio --simd --run 4 "
                             "--engine native "
                             "--inject-fault native-crash"),
              4);

    // Strike two, --degrade auto: the entry is distrusted so this
    // run recompiles (the one retry), crashes again, degrades to the
    // bytecode VM, verifies bit-identity against it, and exits 0 —
    // with the typed fault in the JSON report.
    EXPECT_EQ(runCliExitCode("--bench FMRadio --simd --run 4 "
                             "--engine native --degrade auto "
                             "--ulp-tol 0 "
                             "--inject-fault native-crash "
                             "--json-report " + out),
              0);
    json::Value root = json::parse(readFile(out));
    const json::Value* stats = root.find("run")->find("stats");
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->find("engine")->asString(), "native");
    const json::Value* nat = stats->find("native");
    ASSERT_NE(nat, nullptr);
    EXPECT_TRUE(nat->find("degraded")->asBool());
    EXPECT_EQ(nat->find("degradedTo")->asString(), "bytecode");
    EXPECT_TRUE(nat->find("degradeVerified")->asBool());
    const json::Value* faults = nat->find("faults");
    ASSERT_NE(faults, nullptr);
    ASSERT_GE(faults->size(), 1u);
    EXPECT_EQ(faults->at(0).find("kind")->asString(), "crash");
    EXPECT_EQ(faults->at(0).find("signalName")->asString(),
              "SIGSEGV");
    EXPECT_EQ(faults->at(0).find("phase")->asString(), "steady");

    // Two recorded crashes: the entry is now permanently
    // quarantined. No injection needed — the sidecar does the work.
    EXPECT_EQ(runCliExitCode("--bench FMRadio --simd --run 4 "
                             "--engine native"),
              4);

    // Resetting the cache dir lifts the quarantine.
    const std::string dir2 = dir + "_reset";
    fs::remove_all(dir2);
    ::setenv("MACROSS_CACHE_DIR", dir2.c_str(), 1);
    EXPECT_EQ(runCliExitCode("--bench FMRadio --simd --run 4 "
                             "--engine native --ulp-tol 0"),
              0);

    ::unsetenv("MACROSS_CACHE_DIR");
    std::remove(out.c_str());
    fs::remove_all(dir);
    fs::remove_all(dir2);
}

TEST(CliReport, WedgedCompileTimesOutWithExitFour)
{
    namespace fs = std::filesystem;
    const std::string dir =
        ::testing::TempDir() + "macross_cli_wedge_cache";
    fs::remove_all(dir);
    ::setenv("MACROSS_CACHE_DIR", dir.c_str(), 1);
    EXPECT_EQ(runCliExitCode("--bench FMRadio --simd --run 4 "
                             "--engine native "
                             "--inject-fault compile-timeout"),
              4);
    ::unsetenv("MACROSS_CACHE_DIR");
    fs::remove_all(dir);
}

} // namespace
} // namespace macross
