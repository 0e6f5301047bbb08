/**
 * @file
 * `macross` — command-line driver for the library.
 *
 * Compile a stream program (a .str source file or a built-in
 * benchmark), optionally macro-SIMDize it, run it in the interpreter
 * with the performance model, and emit reports or artifacts:
 *
 *     macross prog.str --simd --run 20 --report
 *     macross --bench FMRadio --simd --json-report out.json --trace
 *     macross --bench DCT --simd --emit dct.cpp
 *     macross prog.str --scalar --autovec icc --run 10
 *
 * Run `macross --help` for the full option list (the table below is
 * the single source of truth).
 */
#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "autovec/gcc_like.h"
#include "autovec/icc_like.h"
#include "benchmarks/suite.h"
#include "codegen/emit_cpp.h"
#include "frontend/parser.h"
#include "graph/dot.h"
#include "interp/parallel_runner.h"
#include "interp/runner.h"
#include "lowering/lowered.h"
#include "machine/machine_desc.h"
#include "multicore/partition.h"
#include "native/native_fault.h"
#include "native/simd_probe.h"
#include "support/diagnostics.h"
#include "support/fault.h"
#include "support/json.h"
#include "support/trace.h"
#include "support/ulp.h"
#include "tuner/tuner.h"
#include "vectorizer/compile_service.h"
#include "vectorizer/pipeline.h"

using namespace macross;

namespace {

/** Everything the option table parses into. */
struct CliConfig {
    std::string sourceFile;
    std::string benchName;
    std::string emitFile;
    std::string dotFile;
    std::string autovecName;
    std::string engineName = "bytecode";
    std::string degradeName = "off";
    std::string jsonReportFile;
    bool list = false;
    bool help = false;
    bool simd = true;
    bool sagu = false;
    bool force = false;
    bool report = false;
    bool trace = false;
    bool vertical = true;
    bool horizontal = true;
    bool permute = true;
    int width = 4;
    bool widthSet = false;  ///< --width given (else machine default).
    int iters = 10;
    int emitPrint = 32;
    int threads = 1;
    int watchdogMs = 0;
    int nativeSimd = 0;  ///< 0 = SimdSpec default.
    int ulpTol = -1;     ///< -1 = no cross-check.
    std::string injectFault;
    std::string machineName = "nehalem";
    std::string nativeIsa;  ///< Empty = SimdSpec default (native).
    int batchIters = 0;     ///< 0 = ParallelOptions default.
    int ringCap = 0;        ///< 0 = ParallelOptions default.
    bool autotune = false;
    bool tuned = false;
    int tuneBudget = 0;     ///< 0 = TunerOptions default.
};

/** One entry of the declarative option table. */
struct OptSpec {
    const char* flag;     ///< e.g. "--bench".
    const char* operand;  ///< Metavariable, or null for plain flags.
    const char* help;
    /// Applies the parsed value; false rejects it as malformed.
    std::function<bool(CliConfig&, const std::string&)> apply;
};

const std::vector<OptSpec>&
optionTable()
{
    auto flag = [](bool CliConfig::* member, bool value) {
        return [member, value](CliConfig& c, const std::string&) {
            c.*member = value;
            return true;
        };
    };
    auto string = [](std::string CliConfig::* member) {
        return [member](CliConfig& c, const std::string& v) {
            c.*member = v;
            return true;
        };
    };
    auto integer = [](int CliConfig::* member) {
        return [member](CliConfig& c, const std::string& v) {
            int n = 0;
            auto [p, ec] = std::from_chars(
                v.data(), v.data() + v.size(), n);
            if (ec != std::errc() || p != v.data() + v.size() ||
                n <= 0)
                return false;
            c.*member = n;
            return true;
        };
    };
    static const std::vector<OptSpec> table = {
        {"--help", nullptr, "show this help and exit",
         flag(&CliConfig::help, true)},
        {"--list", nullptr, "list built-in benchmarks and exit",
         flag(&CliConfig::list, true)},
        {"--bench", "NAME", "use a built-in benchmark (see --list)",
         string(&CliConfig::benchName)},
        {"--simd", nullptr, "macro-SIMDize (default)",
         flag(&CliConfig::simd, true)},
        {"--scalar", nullptr, "compile scalar (no SIMDization)",
         flag(&CliConfig::simd, false)},
        {"--width", "N",
         "SIMD lanes SW for the vectorizer (default: the machine's "
         "natural width)",
         [](CliConfig& c, const std::string& v) {
             int n = 0;
             auto [p, ec] =
                 std::from_chars(v.data(), v.data() + v.size(), n);
             if (ec != std::errc() || p != v.data() + v.size() ||
                 n <= 0)
                 return false;
             c.width = n;
             c.widthSet = true;
             return true;
         }},
        {"--machine", "nehalem|wide8|wide16",
         "machine description: cycle tables and natural SIMD width "
         "SW (default nehalem, SW=4; wide8/wide16 model the paper's "
         "hypothetical wider units)",
         [](CliConfig& c, const std::string& v) {
             const auto& names = machine::machineNames();
             if (std::find(names.begin(), names.end(), v) ==
                 names.end())
                 return false;
             c.machineName = v;
             return true;
         }},
        {"--sagu", nullptr,
         "enable the SAGU tape layout (implies the unit)",
         flag(&CliConfig::sagu, true)},
        {"--no-vertical", nullptr, "disable vertical fusion",
         flag(&CliConfig::vertical, false)},
        {"--no-horizontal", nullptr,
         "disable horizontal SIMDization",
         flag(&CliConfig::horizontal, false)},
        {"--no-permute", nullptr,
         "disable permutation-based tape accesses",
         flag(&CliConfig::permute, false)},
        {"--force", nullptr, "skip the profitability cost model",
         flag(&CliConfig::force, true)},
        {"--autovec", "gcc|icc",
         "apply a modeled auto-vectorizer (scalar code)",
         string(&CliConfig::autovecName)},
        {"--engine", "tree|bytecode|native",
         "execution engine (default bytecode); native compiles the "
         "emitted C++ with the host compiler and runs it",
         [](CliConfig& c, const std::string& v) {
             if (v != "tree" && v != "bytecode" && v != "native")
                 return false;
             c.engineName = v;
             return true;
         }},
        {"--degrade", "off|auto|always",
         "native-engine fault policy: off propagates the typed fault "
         "(exit 4), auto replays on the next engine down with bitwise "
         "prefix verification and continues, always additionally "
         "shadows healthy batches with the bytecode VM (default off; "
         "requires --engine native)",
         [](CliConfig& c, const std::string& v) {
             if (v != "off" && v != "auto" && v != "always")
                 return false;
             c.degradeName = v;
             return true;
         }},
        {"--native-simd", "W",
         "native engine: emitted SIMD lane width — 1 is the scalar "
         "fallback layer, 4/8/16 the vector layer (default 4; "
         "validated against what this host can execute)",
         integer(&CliConfig::nativeSimd)},
        {"--native-isa", "NAME",
         "native engine: explicit -march level (e.g. x86-64-v3) "
         "instead of the default -march=native",
         [](CliConfig& c, const std::string& v) {
             if (v.empty())
                 return false;
             for (char ch : v) {
                 bool ok = (ch >= 'a' && ch <= 'z') ||
                           (ch >= 'A' && ch <= 'Z') ||
                           (ch >= '0' && ch <= '9') || ch == '-' ||
                           ch == '_' || ch == '.';
                 if (!ok)
                     return false;
             }
             c.nativeIsa = v;
             return true;
         }},
        {"--ulp-tol", "N",
         "native engine: cross-check the captured stream against the "
         "bytecode VM within N ULPs after the run; N > 0 also opts "
         "the emitted object into ULP-bounded divergence (0 demands "
         "bit-identity)",
         [](CliConfig& c, const std::string& v) {
             int n = 0;
             auto [p, ec] =
                 std::from_chars(v.data(), v.data() + v.size(), n);
             if (ec != std::errc() ||
                 p != v.data() + v.size() || n < 0)
                 return false;
             c.ulpTol = n;
             return true;
         }},
        {"--run", "N", "steady-state iterations (default 10)",
         integer(&CliConfig::iters)},
        {"--threads", "N",
         "execute the steady state on N worker threads over a greedy "
         "multicore partition (default 1); with --engine native each "
         "worker runs its core's emitted sub-program over SPSC rings",
         integer(&CliConfig::threads)},
        {"--batch-iters", "N",
         "parallel runs: steady iterations per worker handoff "
         "(default engine-chosen; requires --threads > 1)",
         integer(&CliConfig::batchIters)},
        {"--ring-cap", "N",
         "parallel runs: lower bound on SPSC ring slots per crossing "
         "tape (default engine-chosen; requires --threads > 1)",
         integer(&CliConfig::ringCap)},
        {"--autotune", nullptr,
         "search transform/execution configurations, measure the "
         "survivors on the native engine, run the winner, and persist "
         "it in the tuning cache (requires --engine native; overrides "
         "the transform flags above)",
         flag(&CliConfig::autotune, true)},
        {"--tuned", nullptr,
         "use the persisted --autotune winner for this program and "
         "host if one is cached; fall back to defaults otherwise "
         "(requires --engine native)",
         flag(&CliConfig::tuned, true)},
        {"--tune-budget", "N",
         "max configurations the tuner measures natively (default 8; "
         "requires --autotune)",
         integer(&CliConfig::tuneBudget)},
        {"--watchdog-ms", "MS",
         "parallel-run watchdog: detect a batch stalled for MS ms, "
         "shut the pool down, and fall back to the verified serial "
         "runner (default 0 = off)",
         integer(&CliConfig::watchdogMs)},
        {"--inject-fault", "KIND",
         "deliberately fault for testing: 'panic' (internal-bug "
         "path), 'worker-stall[:MS]' (stall one parallel worker), "
         "'native-crash[:PART]' (SIGSEGV inside emitted code, "
         "optionally only on partition PART), 'compile-timeout[:SKIP]' "
         "(wedge the host compile after SKIP healthy compiles), "
         "'dlopen-fail[:N]' (fail the next N cache loads), or "
         "'cache-quarantine' (treat the cache entry as twice-crashed)",
         string(&CliConfig::injectFault)},
        {"--report", nullptr,
         "print per-op-class and per-actor cycle breakdowns",
         flag(&CliConfig::report, true)},
        {"--trace", nullptr,
         "collect pass timers/counters/events; print a summary",
         flag(&CliConfig::trace, true)},
        {"--json-report", "FILE",
         "write compilation decisions, cost breakdowns, and run "
         "stats as JSON",
         string(&CliConfig::jsonReportFile)},
        {"--emit", "FILE",
         "write generated C++ to FILE (its main() defaults to the "
         "--run iteration count)",
         string(&CliConfig::emitFile)},
        {"--emit-print", "K",
         "sink elements echoed by the emitted main() (default 32)",
         integer(&CliConfig::emitPrint)},
        {"--dot", "FILE", "write a Graphviz rendering to FILE",
         string(&CliConfig::dotFile)},
    };
    return table;
}

void
printHelp(const char* argv0)
{
    std::printf("usage: %s (<file.str> | --bench NAME | --list) "
                "[options]\n\n"
                "Compile a stream program, optionally macro-SIMDize "
                "it, and run it\nunder the modeled machine.\n\n"
                "options:\n",
                argv0);
    for (const auto& opt : optionTable()) {
        std::string head = opt.flag;
        if (opt.operand) {
            head += ' ';
            head += opt.operand;
        }
        std::printf("  %-22s %s\n", head.c_str(), opt.help);
    }
}

int
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s (<file.str> | --bench NAME | --list) "
                 "[options]\nrun '%s --help' for the option list\n",
                 argv0, argv0);
    return 2;
}

/** Parse argv through the option table; exits on malformed input. */
bool
parseArgs(int argc, char** argv, CliConfig& cfg)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        // Both "--flag VALUE" and "--flag=VALUE" are accepted.
        std::string inlineValue;
        bool hasInline = false;
        if (a.rfind("--", 0) == 0) {
            auto eq = a.find('=');
            if (eq != std::string::npos) {
                inlineValue = a.substr(eq + 1);
                a = a.substr(0, eq);
                hasInline = true;
            }
        }
        const OptSpec* spec = nullptr;
        for (const auto& opt : optionTable()) {
            if (a == opt.flag) {
                spec = &opt;
                break;
            }
        }
        if (spec) {
            std::string value;
            if (spec->operand) {
                if (hasInline) {
                    value = inlineValue;
                } else if (i + 1 >= argc) {
                    std::fprintf(stderr, "%s needs a value (%s)\n",
                                 a.c_str(), spec->operand);
                    return false;
                } else {
                    value = argv[++i];
                }
            } else if (hasInline) {
                std::fprintf(stderr, "%s does not take a value\n",
                             a.c_str());
                return false;
            }
            if (!spec->apply(cfg, value)) {
                std::fprintf(stderr,
                             "%s: bad value '%s' (expected %s)\n",
                             a.c_str(), value.c_str(), spec->operand);
                return false;
            }
        } else if (!a.empty() && a[0] != '-') {
            cfg.sourceFile = a;
        } else {
            std::fprintf(stderr, "unknown option %s\n", a.c_str());
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char** argv)
{
    CliConfig cfg;
    if (!parseArgs(argc, argv, cfg))
        return usage(argv[0]);
    if (cfg.help) {
        printHelp(argv[0]);
        return 0;
    }
    if (cfg.list) {
        std::printf("RunningExample\n");
        for (const auto& b : benchmarks::standardSuite())
            std::printf("%s\n", b.name.c_str());
        return 0;
    }
    if (cfg.sourceFile.empty() == cfg.benchName.empty())
        return usage(argv[0]);
    if (cfg.threads < 1) {
        std::fprintf(stderr, "--threads wants a positive count\n");
        return usage(argv[0]);
    }
    if (cfg.nativeSimd != 0) {
        // Plain-prose validation against the host probe: what was
        // asked, what the host supports, what to ask instead.
        if (!codegen::isValidLaneWidth(cfg.nativeSimd)) {
            std::fprintf(stderr,
                         "--native-simd %d: lane width must be 1, 2, "
                         "4, 8, or 16\n",
                         cfg.nativeSimd);
            return usage(argv[0]);
        }
        const int hostMax = native::probeMaxLaneWidth();
        if (cfg.nativeSimd > hostMax) {
            std::fprintf(stderr,
                         "--native-simd %d: this host (%s) can "
                         "execute at most %d lanes; pass %d or lower\n",
                         cfg.nativeSimd,
                         native::probeIsaName().c_str(), hostMax,
                         hostMax);
            return usage(argv[0]);
        }
    }
    if ((cfg.nativeSimd != 0 || cfg.ulpTol >= 0) &&
        cfg.engineName != "native") {
        std::fprintf(stderr, "%s only applies to --engine native\n",
                     cfg.nativeSimd != 0 ? "--native-simd"
                                         : "--ulp-tol");
        return usage(argv[0]);
    }
    if (!cfg.nativeIsa.empty() && cfg.engineName != "native") {
        std::fprintf(stderr,
                     "--native-isa only applies to --engine native\n");
        return usage(argv[0]);
    }
    if (cfg.degradeName != "off" && cfg.engineName != "native") {
        std::fprintf(stderr,
                     "--degrade governs the native engine's fault "
                     "policy; add --engine native\n");
        return usage(argv[0]);
    }
    if ((cfg.batchIters != 0 || cfg.ringCap != 0) &&
        cfg.threads <= 1) {
        std::fprintf(stderr,
                     "%s shapes the parallel runner; add --threads N "
                     "with N > 1\n",
                     cfg.batchIters != 0 ? "--batch-iters"
                                         : "--ring-cap");
        return usage(argv[0]);
    }
    if ((cfg.autotune || cfg.tuned) && cfg.engineName != "native") {
        std::fprintf(stderr,
                     "%s measures and runs the native engine; add "
                     "--engine native\n",
                     cfg.autotune ? "--autotune" : "--tuned");
        return usage(argv[0]);
    }
    if (cfg.tuneBudget != 0 && !cfg.autotune) {
        std::fprintf(stderr,
                     "--tune-budget only applies with --autotune\n");
        return usage(argv[0]);
    }

    try {
        // --inject-fault: deliberate failures for exercising the
        // CLI's error paths and the parallel watchdog end to end.
        if (!cfg.injectFault.empty()) {
            if (cfg.injectFault == "panic") {
                panic("deliberate panic requested via --inject-fault");
            } else if (cfg.injectFault.rfind("worker-stall", 0) == 0) {
                long stallMs = 200;
                auto colon = cfg.injectFault.find(':');
                if (colon != std::string::npos)
                    stallMs =
                        std::stol(cfg.injectFault.substr(colon + 1));
                support::FaultInjector::instance().arm(
                    "parallel.worker.batch",
                    [stallMs](std::int64_t*) {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(stallMs));
                    },
                    1);
            } else if (cfg.injectFault.rfind("native-crash", 0) == 0) {
                long part = -1;
                auto colon = cfg.injectFault.find(':');
                if (colon != std::string::npos)
                    part =
                        std::stol(cfg.injectFault.substr(colon + 1));
                // Armed with unlimited fires so the site can be probed
                // by every partition/batch, but self-limited to one
                // real crash: the payload carries the partition id
                // (0 for a serial run) and only a matching fire
                // raises. raise() delivers the SIGSEGV on the firing
                // thread, inside the signal guard, which leaves by
                // siglongjmp past the injector's copy of this action:
                // the closure stays trivially copyable so that copy
                // lives inline in the std::function instead of leaking.
                static std::atomic<bool> fired{false};
                support::FaultInjector::instance().arm(
                    "native.steady.crash", [part](std::int64_t* value) {
                        if (part >= 0 && (!value || *value != part))
                            return;
                        if (fired.exchange(true))
                            return;
                        raise(SIGSEGV);
                    });
            } else if (cfg.injectFault.rfind("compile-timeout", 0) ==
                       0) {
                long skip = 0;
                auto colon = cfg.injectFault.find(':');
                if (colon != std::string::npos)
                    skip =
                        std::stol(cfg.injectFault.substr(colon + 1));
                // Wedge one host compile (after SKIP healthy ones)
                // and shrink its wall budget so the run fails fast.
                support::FaultInjector::instance().arm(
                    "native.compile.timeout",
                    [](std::int64_t* value) {
                        if (value)
                            *value = 300;
                    },
                    1, skip);
            } else if (cfg.injectFault.rfind("dlopen-fail", 0) == 0) {
                long n = 1;
                auto colon = cfg.injectFault.find(':');
                if (colon != std::string::npos)
                    n = std::stol(cfg.injectFault.substr(colon + 1));
                support::FaultInjector::instance().arm(
                    "native.dlopen.fail", [](std::int64_t*) {},
                    static_cast<int>(n));
            } else if (cfg.injectFault == "cache-quarantine") {
                support::FaultInjector::instance().arm(
                    "native.cache.quarantine",
                    [](std::int64_t* value) {
                        if (value)
                            *value = 2;
                    },
                    1);
            } else {
                fatal("unknown --inject-fault kind '", cfg.injectFault,
                      "' (want panic, worker-stall[:MS], "
                      "native-crash[:PART], compile-timeout[:SKIP], "
                      "dlopen-fail[:N], or cache-quarantine)");
            }
        }

        graph::StreamPtr program =
            !cfg.sourceFile.empty()
                ? frontend::parseProgramFile(cfg.sourceFile)
                : benchmarks::benchmarkByName(cfg.benchName);

        support::Trace trace;
        const bool wantTrace = cfg.trace || !cfg.jsonReportFile.empty();
        const std::string programName = !cfg.benchName.empty()
                                            ? cfg.benchName
                                            : cfg.sourceFile;

        // --autotune / --tuned: let the measurement-driven tuner (or
        // its persisted winner) choose the configuration; the
        // transform/width/thread flags above are overridden.
        tuner::TuneResult tuneResult;
        bool haveTune = false;
        if (cfg.autotune) {
            tuner::TunerOptions topt;
            if (cfg.tuneBudget > 0)
                topt.measureBudget = cfg.tuneBudget;
            if (wantTrace)
                topt.trace = &trace;
            tuner::Tuner t(program, programName, topt);
            tuneResult = t.tune();
            haveTune = true;
        } else if (cfg.tuned) {
            vectorizer::CompileService svc(program);
            if (auto entry = tuner::loadTunedConfig(svc)) {
                tuneResult.best = entry->config;
                tuneResult.bestMicrosPerElement =
                    entry->tunedMicrosPerElement;
                tuneResult.defaultMicrosPerElement =
                    entry->defaultMicrosPerElement;
                tuneResult.candidatesMeasured =
                    entry->candidatesMeasured;
                tuneResult.cacheHit = true;
                tuneResult.cachePath = tuner::TuneCache().pathFor(
                    svc.programHash(), native::hostFingerprint());
                haveTune = true;
            } else {
                std::printf("no tuned configuration cached for this "
                            "program on this host; running defaults "
                            "(use --autotune to search)\n");
            }
        }
        if (haveTune) {
            const tuner::TuneConfig& best = tuneResult.best;
            std::printf("auto-tune: %s (%s), %.3f us/element vs "
                        "default %.3f (%.2fx), %d candidate%s "
                        "measured%s\n",
                        best.key().c_str(),
                        tuneResult.cacheHit ? "cached" : "searched",
                        tuneResult.bestMicrosPerElement,
                        tuneResult.defaultMicrosPerElement,
                        tuneResult.speedupOverDefault(),
                        tuneResult.candidatesMeasured,
                        tuneResult.candidatesMeasured == 1 ? "" : "s",
                        tuneResult.cacheHit ? "" : " (cache updated)");
            cfg.simd = best.simd;
            cfg.sagu = best.sagu;
            cfg.vertical = best.vertical;
            cfg.horizontal = best.horizontal;
            cfg.permute = best.permute;
            cfg.machineName = best.machine;
            cfg.widthSet = false;
            cfg.threads = best.threads;
            cfg.nativeSimd = best.laneWidth;
            cfg.nativeIsa = best.isa == "auto" ? "" : best.isa;
            cfg.batchIters = best.batchIterations;
            cfg.ringCap = static_cast<int>(best.ringCapacity);
        }

        vectorizer::SimdizeOptions opts;
        opts.machine =
            machine::machineByName(cfg.machineName, cfg.sagu);
        if (cfg.widthSet)
            opts.machine.simdWidth = cfg.width;
        else
            cfg.width = opts.machine.simdWidth;
        opts.enableSagu = cfg.sagu;
        opts.enableVertical = cfg.vertical;
        opts.enableHorizontal = cfg.horizontal;
        opts.enablePermutedTapes = cfg.permute;
        opts.forceSimdize = cfg.force;
        if (wantTrace)
            opts.trace = &trace;

        vectorizer::CompiledProgram compiled =
            cfg.simd ? vectorizer::macroSimdize(program, opts)
                     : vectorizer::compileScalar(program);

        for (const auto& d : compiled.report.decisions) {
            std::printf("[simdize] %-16s %s\n", d.actor.c_str(),
                        d.toString().c_str());
        }

        if (!cfg.emitFile.empty()) {
            // The emitted main() mirrors this run: same default
            // iteration count, caller-chosen echo length.
            codegen::EmitOptions eo;
            eo.steadyIterations = cfg.iters;
            eo.printFirst = cfg.emitPrint;
            std::ofstream out(cfg.emitFile);
            out << codegen::emitCpp(compiled.graph, compiled.schedule,
                                    eo);
            std::printf("wrote generated C++ to %s\n",
                        cfg.emitFile.c_str());
        }
        if (!cfg.dotFile.empty()) {
            std::ofstream out(cfg.dotFile);
            out << graph::toDot(compiled.graph, compiled.schedule);
            std::printf("wrote DOT graph to %s\n",
                        cfg.dotFile.c_str());
        }

        machine::CostSink cost(opts.machine);
        interp::ExecEngine engine =
            cfg.engineName == "tree"     ? interp::ExecEngine::Tree
            : cfg.engineName == "native" ? interp::ExecEngine::Native
                                         : interp::ExecEngine::Bytecode;
        interp::EngineConfig econfig(engine);
        if (cfg.nativeSimd != 0) {
            econfig.simd.laneWidth = cfg.nativeSimd;
        } else if (engine == interp::ExecEngine::Native && cfg.simd) {
            // The emitted lane width follows the machine the
            // vectorizer planned against (wide8 plans 8-lane
            // segments, so emit 8 lanes), clipped to what this host
            // can execute rather than tripping the W=1 fallback. An
            // exotic --width the emitter has no lane type for keeps
            // the SimdSpec default.
            const int planned = std::min(
                opts.machine.simdWidth, native::probeMaxLaneWidth());
            if (codegen::isValidLaneWidth(planned))
                econfig.simd.laneWidth = planned;
        }
        if (!cfg.nativeIsa.empty())
            econfig.simd.isa = cfg.nativeIsa;
        econfig.simd.allowUlpDivergence = cfg.ulpTol > 0;
        econfig.batchIterations = cfg.batchIters;
        econfig.ringCapacity = cfg.ringCap;
        econfig.degrade =
            cfg.degradeName == "auto" ? interp::DegradeMode::Auto
            : cfg.degradeName == "always"
                ? interp::DegradeMode::Always
                : interp::DegradeMode::Off;
        interp::Runner r(compiled.graph, compiled.schedule, &cost,
                         econfig);
        if (wantTrace)
            r.setTrace(&trace);
        std::vector<std::pair<int, interp::ActorExecConfig>>
            actorConfigs;
        if (!cfg.autovecName.empty()) {
            auto lp =
                lowering::lower(compiled.graph, compiled.schedule);
            autovec::AutovecResult av =
                cfg.autovecName == "gcc"
                    ? autovec::gccAutovectorize(lp, opts.machine)
                    : autovec::iccAutovectorize(lp, opts.machine);
            for (auto& [id, c] : av.configs) {
                r.setActorConfig(id, c);
                actorConfigs.emplace_back(id, c);
            }
            for (const auto& line : av.log)
                std::printf("[autovec] %s\n", line.c_str());
        }
        r.runInit();
        std::size_t before = r.captured().size();
        auto wall0 = std::chrono::steady_clock::now();
        r.runSteady(cfg.iters);
        double serialWallMicros =
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - wall0)
                .count();
        std::size_t produced = r.captured().size() - before;

        std::printf("\nran %d steady-state iterations on %s (%d-wide"
                    "%s, %s engine)\n",
                    cfg.iters, opts.machine.name.c_str(), cfg.width,
                    cfg.simd ? ", macro-SIMDized" : ", scalar",
                    toString(engine).c_str());
        if (const native::NativeStats* ns = r.nativeStats()) {
            std::printf("sink elements: %zu, native wall: %.0f us "
                        "(%.1f ns/element)\n",
                        produced, ns->steadyWallMicros,
                        produced ? 1e3 * ns->steadyWallMicros /
                                       produced
                                 : 0.0);
            std::printf("native build: %s %s, %s (%s, compile "
                        "%.0f ms)\n",
                        ns->compiler.c_str(), ns->flags.c_str(),
                        ns->soPath.c_str(),
                        ns->cacheHit ? "cache hit" : "cache miss",
                        ns->compileMillis);
            std::printf("native simd: W=%d isa=%s%s%s (ABI v%d)\n",
                        ns->simdLanes, ns->simdIsa.c_str(),
                        ns->simdFallback ? ", scalar fallback" : "",
                        ns->exact ? "" : ", ULP-bounded",
                        ns->abiVersion);
        } else {
            std::printf("sink elements: %zu, modeled cycles: %.0f "
                        "(%.2f cycles/element)\n",
                        produced, cost.totalCycles(),
                        produced ? cost.totalCycles() / produced
                                 : 0.0);
        }
        for (const native::NativeFaultRecord& rec : r.nativeFaults())
            std::printf("native FAULT: %s in phase %s%s: %s\n",
                        toString(rec.kind).c_str(),
                        rec.phase.c_str(),
                        rec.signal ? (", " + rec.signalName).c_str()
                                   : "",
                        rec.message.c_str());
        if (r.degradedFromNative())
            std::printf("degraded to bytecode VM: prefix %s "
                        "(%lld elements verified)\n",
                        r.degradeVerified() ? "verified"
                                            : "UNVERIFIED",
                        static_cast<long long>(
                            r.verifiedElements()));

        // --ulp-tol N: differential cross-check of the native run
        // against the bytecode VM, tolerance counted in ULPs (N=0
        // demands bit-identity). The check is the CLI-level version
        // of the native differential test suite.
        if (cfg.ulpTol >= 0) {
            interp::Runner ref(
                compiled.graph, compiled.schedule, nullptr,
                interp::EngineConfig(interp::ExecEngine::Bytecode));
            ref.runInit();
            ref.runSteady(cfg.iters);
            const interp::CapturedStream& got = r.captured();
            const interp::CapturedStream& want = ref.captured();
            fatalIf(got.size() != want.size(),
                    "ULP cross-check: native captured ", got.size(),
                    " elements but the bytecode VM captured ",
                    want.size());
            const bool isFloat = got.elemType().isFloat();
            std::int64_t worst = 0;
            for (std::size_t i = 0; i < got.size(); ++i) {
                const std::uint32_t g = got.lanes()[i];
                const std::uint32_t w = want.lanes()[i];
                std::int64_t d =
                    isFloat ? support::ulpDistance(
                                  std::bit_cast<float>(g),
                                  std::bit_cast<float>(w))
                            : (g != w ? std::numeric_limits<
                                            std::int64_t>::max()
                                      : 0);
                if (d > worst)
                    worst = d;
                if (d > cfg.ulpTol) {
                    fatal("ULP cross-check FAILED at element ", i,
                          ": native ", got[i].str(), " vs VM ",
                          want[i].str(), " (", d,
                          " ULPs apart, tolerance ", cfg.ulpTol, ")");
                }
            }
            std::printf("ULP cross-check vs bytecode VM: %zu "
                        "elements, worst distance %lld (tolerance "
                        "%d): OK\n",
                        got.size(), static_cast<long long>(worst),
                        cfg.ulpTol);
        }

        // --threads N: repeat the same steady iterations on a worker
        // pool over a pipeline partition of at most N cores, with the
        // serial run above as the profiling source and the wall-clock
        // baseline.
        std::unique_ptr<machine::CostSink> parCost;
        std::unique_ptr<interp::ParallelRunner> par;
        if (cfg.threads > 1) {
            std::vector<double> actorCycles(
                compiled.graph.actors.size(), 0.0);
            if (engine == interp::ExecEngine::Native) {
                // The native run measures wall clock and charges no
                // modeled cycles, so profile a few bytecode
                // iterations to give partitionGreedy real weights.
                machine::CostSink prof(opts.machine);
                interp::Runner profiler(
                    compiled.graph, compiled.schedule, &prof,
                    interp::EngineConfig(
                        interp::ExecEngine::Bytecode));
                for (auto& [id, c] : actorConfigs)
                    profiler.setActorConfig(id, c);
                profiler.enableCapture(false);
                profiler.runInit();
                profiler.runSteady(std::min(cfg.iters, 8));
                for (const auto& a : compiled.graph.actors)
                    actorCycles[a.id] = prof.actorCycles(a.id);
            } else {
                for (const auto& a : compiled.graph.actors)
                    actorCycles[a.id] = cost.actorCycles(a.id);
            }
            multicore::Partition part = multicore::partitionGreedy(
                compiled.graph, compiled.schedule, actorCycles,
                cfg.threads);

            parCost =
                std::make_unique<machine::CostSink>(opts.machine);
            interp::ParallelOptions popt;
            popt.watchdogMs = cfg.watchdogMs;
            par = std::make_unique<interp::ParallelRunner>(
                compiled.graph, compiled.schedule, part,
                parCost.get(), econfig, popt);
            for (auto& [id, c] : actorConfigs)
                par->setActorConfig(id, c);
            par->runInit();
            par->runSteady(cfg.iters);
            par->setBaselineWallMicros(serialWallMicros);

            const bool identical = par->captured() == r.captured();
            std::printf("\nparallel run on %d of %d cores:\n",
                        part.cores, cfg.threads);
            for (int c = 0; c < part.cores; ++c) {
                std::printf("  core %d: %12.0f modeled cycles\n", c,
                            part.coreLoad[c]);
            }
            std::printf("  crossing words/iter: %lld, output %s, "
                        "measured speedup: %.2fx\n",
                        static_cast<long long>(part.commWords),
                        identical ? "bit-identical" : "MISMATCH",
                        par->steadyWallMicros() > 0.0
                            ? serialWallMicros /
                                  par->steadyWallMicros()
                            : 0.0);
            for (const auto& f : par->faults()) {
                std::printf("  FAULT %s (generation %lld): %s — "
                            "serial fallback %s\n",
                            f.kind.c_str(),
                            static_cast<long long>(f.generation),
                            f.message.c_str(),
                            f.fallbackVerified
                                ? "verified bit-identical"
                                : (f.fallbackUsed ? "used (unverified)"
                                                  : "not run"));
            }
            for (const native::NativeFaultRecord& rec :
                 par->nativeFaults())
                std::printf("  native FAULT: %s in phase %s "
                            "(partition %d, batch %lld)%s%s: %s\n",
                            toString(rec.kind).c_str(),
                            rec.phase.c_str(), rec.partition,
                            static_cast<long long>(rec.batchIndex),
                            rec.signal ? ", " : "",
                            rec.signal ? rec.signalName.c_str() : "",
                            rec.message.c_str());
        }

        if (cfg.report) {
            std::printf("\nper-op-class breakdown:\n");
            for (int c = 0;
                 c < static_cast<int>(machine::OpClass::NumClasses);
                 ++c) {
                double cyc = cost.classCycles()[c];
                if (cyc <= 0)
                    continue;
                std::printf("  %-18s %12.0f cycles  (%5.1f%%), "
                            "%lld ops\n",
                            toString(static_cast<machine::OpClass>(c))
                                .c_str(),
                            cyc, 100.0 * cyc / cost.totalCycles(),
                            static_cast<long long>(
                                cost.classOps()[c]));
            }
            std::printf("\nper-actor cycles:\n");
            for (const auto& a : compiled.graph.actors) {
                std::printf("  %-22s %12.0f\n", a.name.c_str(),
                            cost.actorCycles(a.id));
            }
        }

        if (cfg.trace) {
            std::printf("\ntrace timers:\n");
            for (const auto& [name, t] : trace.timers()) {
                std::printf("  %-28s %3lld calls %10.3f ms\n",
                            name.c_str(),
                            static_cast<long long>(t.calls),
                            t.totalMs);
            }
            std::printf("trace counters:\n");
            for (const auto& [name, v] : trace.counters()) {
                std::printf("  %-28s %lld\n", name.c_str(),
                            static_cast<long long>(v));
            }
        }

        if (!cfg.jsonReportFile.empty()) {
            std::vector<std::string> names;
            names.reserve(compiled.graph.actors.size());
            for (const auto& a : compiled.graph.actors)
                names.push_back(a.name);

            json::Value root = json::Value::object();
            root["program"] = !cfg.benchName.empty()
                                  ? cfg.benchName
                                  : cfg.sourceFile;
            root["mode"] = cfg.simd ? "macro-simd" : "scalar";
            json::Value mach = json::Value::object();
            mach["name"] = opts.machine.name;
            mach["simdWidth"] = opts.machine.simdWidth;
            mach["hasSagu"] = opts.machine.hasSagu;
            root["machine"] = std::move(mach);
            root["compilation"] = compiled.report.toJson();

            json::Value run = json::Value::object();
            run["iterations"] = cfg.iters;
            run["threads"] = cfg.threads;
            run["sinkElements"] = produced;
            run["totalCycles"] = cost.totalCycles();
            run["cyclesPerElement"] =
                produced ? cost.totalCycles() / produced : 0.0;
            run["cost"] = cost.toJson(names);
            // With --threads the parallel runner's stats subsume the
            // serial ones and add the "parallel" section (partition,
            // rings, measured speedup).
            json::Value stats =
                par ? par->statsToJson() : r.statsToJson();
            if (haveTune)
                stats["tuner"] = tuneResult.toJson();
            run["stats"] = std::move(stats);
            root["run"] = std::move(run);

            root["trace"] = trace.toJson();

            std::ofstream out(cfg.jsonReportFile);
            fatalIf(!out, "cannot open ", cfg.jsonReportFile,
                    " for writing");
            out << root.dump(2) << "\n";
            std::printf("wrote JSON report to %s\n",
                        cfg.jsonReportFile.c_str());
        }
        // Exit 5: the run finished, but only by degrading down the
        // ladder without being able to verify the pre-fault output
        // prefix (non-exact SimdSpec, or the fallback never ran to a
        // comparable point). The output is complete but from a lower
        // rung, and its prefix is unvouched-for.
        bool degradedUnverified =
            r.degradedFromNative() && !r.degradeVerified();
        if (par) {
            for (const auto& f : par->faults())
                if (f.fallbackUsed && !f.fallbackVerified)
                    degradedUnverified = true;
            if (const interp::Runner* fb = par->fallbackRunner())
                if (fb->degradedFromNative() &&
                    !fb->degradeVerified())
                    degradedUnverified = true;
        }
        if (degradedUnverified) {
            std::fprintf(stderr,
                         "run completed degraded without prefix "
                         "verification\n");
            return 5;
        }
        return 0;
    } catch (const native::NativeFaultError& e) {
        // Structured native fault under --degrade off: the typed
        // record names exactly what died and where.
        const native::NativeFaultRecord& rec = e.record();
        std::fprintf(stderr, "native fault: %s\n",
                     toString(rec.kind).c_str());
        std::fprintf(stderr, "  phase:     %s\n", rec.phase.c_str());
        if (rec.signal)
            std::fprintf(stderr, "  signal:    %d (%s)\n", rec.signal,
                         rec.signalName.c_str());
        std::fprintf(stderr, "  partition: %d\n", rec.partition);
        std::fprintf(stderr, "  batch:     %lld\n",
                     static_cast<long long>(rec.batchIndex));
        if (rec.exitCode)
            std::fprintf(stderr, "  exit code: %d\n", rec.exitCode);
        std::fprintf(stderr, "  %s\n", rec.message.c_str());
        return 4;
    } catch (const FatalError& e) {
        // User-facing input error: bad program, bad option value.
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    } catch (const PanicError& e) {
        // Internal invariant violation — a bug in this tool, not in
        // the user's input.
        std::fprintf(stderr, "internal error: %s\n", e.what());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "unexpected error: %s\n", e.what());
        return 3;
    }
}
