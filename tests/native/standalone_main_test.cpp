/**
 * @file
 * End-to-end tests of the emitted standalone program. Its main()'s
 * argv handling: the iteration-count argument is strtol-validated,
 * junk and non-positive counts exit nonzero with a usage message, and
 * valid counts (or no argument) run and print the elements/checksum
 * line. Its memory: tapes compact at iteration boundaries, so peak RSS
 * grows with the run only by the sink capture.
 */
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "benchmarks/suite.h"
#include "codegen/emit_cpp.h"
#include "native/compile_exec.h"
#include "native/native_engine.h"
#include "vectorizer/pipeline.h"

namespace macross::native {
namespace {

namespace fs = std::filesystem;

/** Emit + host-compile the running example once per process. */
const std::string& standaloneBinary()
{
    static std::string path = [] {
        std::string dir = ::testing::TempDir() +
                          "macross_standalone_main_" +
                          std::to_string(::getpid());
        fs::remove_all(dir);
        fs::create_directories(dir);
        vectorizer::CompiledProgram p = vectorizer::compileScalar(
            benchmarks::makeRunningExample());
        codegen::EmitOptions eo;
        eo.mode = codegen::EmitMode::Standalone;
        eo.steadyIterations = 4;
        std::string src = dir + "/prog.cpp";
        {
            std::ofstream out(src);
            out << codegen::emitCpp(p.graph, p.schedule, eo);
        }
        std::string bin = dir + "/prog";
        ExecResult r = runCommand(
            {detectHostCompiler(), "-O0", "-std=c++17", src, "-o",
             bin});
        if (!r.ok())
            return std::string();
        return bin;
    }();
    return path;
}

ExecResult runProg()
{
    return runCommand({standaloneBinary()});
}

ExecResult runProg(const std::string& arg)
{
    return runCommand({standaloneBinary(), arg});
}

TEST(StandaloneMain, NoArgumentUsesEmittedDefault)
{
    ASSERT_FALSE(standaloneBinary().empty())
        << "host compile of the emitted standalone program failed";
    ExecResult r = runProg();
    EXPECT_TRUE(r.ok()) << r.output;
    EXPECT_NE(r.output.find("elements"), std::string::npos);
    EXPECT_NE(r.output.find("checksum"), std::string::npos);
}

TEST(StandaloneMain, ValidCountRuns)
{
    ASSERT_FALSE(standaloneBinary().empty());
    ExecResult r = runProg("6");
    EXPECT_TRUE(r.ok()) << r.output;
    EXPECT_NE(r.output.find("elements"), std::string::npos);
}

TEST(StandaloneMain, RejectsJunkCounts)
{
    ASSERT_FALSE(standaloneBinary().empty());
    // The old emitted main() passed argv[1] through std::atoi:
    // "abc" silently became 0 iterations and "12xyz" became 12.
    // Every malformed count must now exit nonzero with usage text.
    for (const char* bad :
         {"abc", "12xyz", "", " ", "0", "-3", "99999999999999999999",
          "2147483648"}) {
        ExecResult r = runProg(bad);
        EXPECT_EQ(r.status, ExecStatus::NonZeroExit)
            << "argv[1]='" << bad << "' must be rejected";
        EXPECT_EQ(r.exitCode, 2) << "argv[1]='" << bad << "'";
        EXPECT_NE(r.output.find("usage"), std::string::npos)
            << "argv[1]='" << bad << "' output: " << r.output;
    }
}

/** Peak RSS and printed sink element count of one child run. */
struct ChildRun {
    bool ok = false;
    long maxRssKib = 0;
    long long elements = -1;
};

/**
 * Run @p bin with @p arg, its stdout going to @p outPath, and read the
 * child's own ru_maxrss through wait4 (RUSAGE_CHILDREN would fold in
 * the host compiler's peak).
 */
ChildRun
runMeasured(const std::string& bin, const std::string& arg,
            const std::string& outPath)
{
    ChildRun r;
    pid_t pid = ::fork();
    if (pid < 0)
        return r;
    if (pid == 0) {
        int fd = ::open(outPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                        0644);
        if (fd < 0 || ::dup2(fd, 1) < 0)
            ::_exit(127);
        ::execl(bin.c_str(), bin.c_str(), arg.c_str(),
                static_cast<char*>(nullptr));
        ::_exit(127);
    }
    int status = 0;
    struct rusage ru {};
    if (::wait4(pid, &status, 0, &ru) != pid)
        return r;
    r.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    r.maxRssKib = ru.ru_maxrss;
    std::ifstream in(outPath);
    std::string word;
    if (in >> word && word == "elements")
        in >> r.elements;
    return r;
}

// Tape compaction bounds every intra-partition tape, so running ten
// times longer may grow peak RSS only by the sink capture (4 B per
// element, doubled for the vector's growth) plus 1 MiB of slack.
// Without compaction FMRadio's tapes grow by about 150 MiB here.
TEST(StandaloneMain, PeakRssGrowsOnlyWithTheCapture)
{
    std::string dir = ::testing::TempDir() + "macross_standalone_rss_" +
                      std::to_string(::getpid());
    fs::remove_all(dir);
    fs::create_directories(dir);
    vectorizer::SimdizeOptions opts;
    opts.forceSimdize = true;
    opts.enableSagu = true;
    opts.machine = machine::coreI7WithSagu();
    vectorizer::CompiledProgram p =
        vectorizer::macroSimdize(benchmarks::makeFmRadio(), opts);
    codegen::EmitOptions eo;
    eo.mode = codegen::EmitMode::Standalone;
    eo.printFirst = 0;
    const std::string src = dir + "/fm.cpp", bin = dir + "/fm";
    {
        std::ofstream out(src);
        out << codegen::emitCpp(p.graph, p.schedule, eo);
    }
    ExecResult cc = runCommand(
        {detectHostCompiler(), "-O2", "-std=c++17", src, "-o", bin});
    ASSERT_TRUE(cc.ok()) << cc.output;

    const long long n = 50000;
    ChildRun shortRun = runMeasured(bin, std::to_string(n),
                                    dir + "/short.txt");
    ChildRun longRun = runMeasured(bin, std::to_string(10 * n),
                                   dir + "/long.txt");
    ASSERT_TRUE(shortRun.ok);
    ASSERT_TRUE(longRun.ok);
    ASSERT_GT(shortRun.elements, 0);
    ASSERT_EQ(longRun.elements, 10 * shortRun.elements);

    const long long growthBytes =
        (longRun.maxRssKib - shortRun.maxRssKib) * 1024LL;
    const long long boundBytes =
        2 * 4 * longRun.elements + (1LL << 20);
    EXPECT_LE(growthBytes, boundBytes)
        << "peak RSS " << shortRun.maxRssKib << " KiB at " << n
        << " iterations, " << longRun.maxRssKib << " KiB at " << 10 * n;
    fs::remove_all(dir);
}

} // namespace
} // namespace macross::native
