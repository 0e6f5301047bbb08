/**
 * @file
 * perfbench: the repository benchmark driver.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             --equalizer PATH --cache-dir DIR [--trace-out FILE]
 *             [--commit C] [--source-digest D]
 *
 * Runs one workload (serve_warm, stream_native or stream_parallel),
 * prints its numbers for a reader, and ends with one JSON line:
 * {"correct", "attempted", "failed", "metrics"}. The untraced run
 * (--trace 0) reports the end-to-end metrics; the traced run records
 * spans around every call into a layer, writes them as Chrome
 * trace-event JSON, and reports the per-layer metrics. Every per-layer
 * metric appears in every traced run; a layer the workload does not
 * exercise reads 0. Exit status: 0 when every output checked out, 1 on
 * any failed operation or output mismatch, 2 on a usage or set-up
 * error (then no result line is printed).
 */
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "benchmarks/suite.h"
#include "native/host_fingerprint.h"
#include "native/native_engine.h"

using namespace perfbench;

namespace {

/** One per-layer metric of the suite. */
struct LayerSpec {
    std::string name;
    std::string unit;
};

/** Every per-layer metric, in BENCHMARK.json's order (run.py checks
 *  that the result's metrics are exactly BENCHMARK.json's). */
std::vector<LayerSpec>
layerSpecs()
{
    std::vector<LayerSpec> s = {
        {"service.transport_us_p50", "us"},
        {"service.transport_us_p99", "us"},
        {"service.queue_us_p50", "us"},
        {"service.queue_us_p99", "us"},
        {"service.handler_us_p50", "us"},
        {"service.handler_us_p99", "us"},
        {"service.compute_us_p50", "us"},
        {"service.compute_us_p99", "us"},
        {"service.admit_batch_mean", "jobs"},
        {"service.compiles", "count"},
        {"service.cache_hits", "count"},
        {"service.coalesced", "count"},
        {"service.overloaded", "count"},
        {"runner.overhead_share", "fraction"},
        {"runner.captured_elems", "count"},
        {"native.host_compile_ms", "ms"},
        {"native.load_init_ms", "ms"},
    };
    for (const macross::benchmarks::Benchmark& b :
         macross::benchmarks::standardSuite())
        s.push_back({"native.steady_ns_per_elem." + b.name, "ns"});
    s.push_back({"native.steady_ns_per_elem.equalizer", "ns"});
    s.insert(s.end(), {
                          {"codegen.emit_ms", "ms"},
                          {"codegen.emitted_kb", "KiB"},
                          {"vectorizer.compile_ms", "ms"},
                          {"frontend.parse_ms", "ms"},
                          {"multicore.partition_ms", "ms"},
                          {"multicore.cross_words_2t", "words"},
                          {"multicore.cross_words_4t", "words"},
                          {"multicore.load_imbalance_4t", "ratio"},
                          {"parallel.partition_skew_4t", "ratio"},
                          {"parallel.outside_emitted_share_4t", "fraction"},
                          {"parallel.throughput_eps_2t", "elements/s"},
                      });
    for (const char* t : {"2t", "4t"}) {
        for (const std::string& p : kParallelPrograms)
            s.push_back({std::string("parallel.speedup_") + t + "." + p,
                         "ratio"});
    }
    s.push_back({"trace.overhead_share", "fraction"});
    return s;
}

int
usage(const char* msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload serve_warm|stream_native|"
                 "stream_parallel --seed N --seconds S --trace 0|1 "
                 "--equalizer PATH --cache-dir DIR [--trace-out FILE] "
                 "[--commit C] [--source-digest D]\n",
                 msg);
    return 2;
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
metricsJson(const std::vector<Metric>& ms)
{
    std::string out = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " +
               num(ms[i].value) + ", \"unit\": \"" + ms[i].unit + "\"}";
    }
    return out + "}";
}

} // namespace

int
main(int argc, char** argv)
{
    Options opt;
    std::string commit = "unknown", digest = "unknown";
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const char* v = argv[++i];
        char* end = nullptr;
        if (arg == "--workload") {
            opt.workload = v;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(v, &end, 10);
            haveSeed = end && *end == '\0' && *v;
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(v, &end);
            haveSeconds = end && *end == '\0' && opt.seconds > 0;
        } else if (arg == "--trace") {
            haveTrace = !std::strcmp(v, "0") || !std::strcmp(v, "1");
            opt.trace = !std::strcmp(v, "1");
        } else if (arg == "--equalizer") {
            opt.equalizerPath = v;
        } else if (arg == "--cache-dir") {
            opt.cacheDir = v;
        } else if (arg == "--trace-out") {
            opt.traceOut = v;
        } else if (arg == "--commit") {
            commit = v;
        } else if (arg == "--source-digest") {
            digest = v;
        } else {
            return usage(("unknown flag " + arg).c_str());
        }
    }
    if (!haveSeed || !haveSeconds || !haveTrace)
        return usage("--seed, --seconds and --trace take a number each");
    if (opt.cacheDir.empty() || opt.equalizerPath.empty())
        return usage("--cache-dir and --equalizer are required");

    RunResult (*run)(const Options&, Spans&) = nullptr;
    if (opt.workload == "serve_warm")
        run = runServeWarm;
    else if (opt.workload == "stream_native")
        run = runStreamNative;
    else if (opt.workload == "stream_parallel")
        run = runStreamParallel;
    else
        return usage(("unknown workload '" + opt.workload + "'").c_str());

    // The run record: what a result must be read together with.
    const macross::native::NativeOptions nopts;
    macross::json::Value env = macross::json::Value::object();
    env["workload"] = opt.workload;
    env["seed"] = static_cast<std::int64_t>(opt.seed);
    env["seconds"] = opt.seconds;
    env["trace"] = opt.trace;
    env["host"] = macross::native::hostFingerprint().toJson();
    env["nproc"] = static_cast<int>(std::thread::hardware_concurrency());
    env["commit"] = commit;
    env["sourceDigest"] = digest;

    Spans spans(opt.trace);
    RunResult res;
    double wallS = 0.0;
    try {
        env["compiler"] = macross::native::detectHostCompiler(nopts.compiler);
        env["flags"] = nopts.flags;
        std::printf("perfbench env %s\n", env.dump().c_str());
        std::fflush(stdout);
        const Clock::time_point t0 = Clock::now();
        res = run(opt, spans);
        wallS = secondsSince(t0);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     opt.workload.c_str(), e.what());
        return 2;
    }

    std::printf("perfbench e2e %s\n", metricsJson(res.endToEnd).c_str());
    std::vector<Metric> metrics = res.endToEnd;
    if (opt.trace) {
        // Every per-layer metric in suite order; unexercised layers 0.
        res.perLayer.push_back(
            {"trace.overhead_share",
             wallS > 0 ? spans.recorderNanos() * 1e-9 / wallS : 0.0,
             "fraction"});
        metrics.clear();
        for (const LayerSpec& s : layerSpecs()) {
            Metric m{s.name, 0.0, s.unit};
            for (const Metric& got : res.perLayer) {
                if (got.name == s.name)
                    m.value = got.value;
            }
            metrics.push_back(m);
        }
        for (const Metric& got : res.perLayer) {
            bool known = false;
            for (const LayerSpec& s : layerSpecs())
                known = known || s.name == got.name;
            if (!known) {
                std::fprintf(stderr, "perfbench: unlisted metric %s\n",
                             got.name.c_str());
                return 2;
            }
        }
        for (const Metric& m : metrics)
            std::printf("  %-44s %16.4f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        std::printf("  %zu spans recorded\n", spans.size());
        if (!opt.traceOut.empty()) {
            if (spans.writeChromeTrace(opt.traceOut))
                std::printf("  trace written to %s\n", opt.traceOut.c_str());
            else
                std::fprintf(stderr, "perfbench: cannot write %s\n",
                             opt.traceOut.c_str());
        }
    } else {
        for (const Metric& m : metrics)
            std::printf("  %-44s %16.4f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
    }
    const bool correct = res.failed == 0 && res.attempted > 0;
    std::printf("  operations: %" PRId64 " attempted, %" PRId64
                " failed (error rate %.6f)\n",
                res.attempted, res.failed,
                res.attempted ? static_cast<double>(res.failed) /
                                    static_cast<double>(res.attempted)
                              : 1.0);
    std::printf("{\"correct\": %s, \"attempted\": %" PRId64
                ", \"failed\": %" PRId64 ", \"metrics\": %s}\n",
                correct ? "true" : "false", res.attempted, res.failed,
                metricsJson(metrics).c_str());
    return correct ? 0 : 1;
}
