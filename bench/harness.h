/**
 * @file
 * Shared measurement harness for the figure-reproduction benches.
 *
 * Every number reported is steady-state modeled cycles per sink
 * element, measured by running the program in the interpreter under a
 * machine description; speedups are ratios against the scalar
 * baseline, exactly how the paper normalizes its figures.
 *
 * Machine-readable output: when the environment variable
 * MACROSS_BENCH_JSON names a file, every measured configuration is
 * recorded (compiler decisions from the typed CompilationReport plus
 * the per-actor/per-op-class cycle breakdown and tape traffic of the
 * run) along with every printed table, and the archive is written as
 * JSON at process exit. Benches need no per-figure code for this; it
 * rides on cyclesPerElement()/printTable().
 */
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "autovec/gcc_like.h"
#include "autovec/icc_like.h"
#include "benchmarks/suite.h"
#include "interp/runner.h"
#include "lowering/lowered.h"
#include "native/host_fingerprint.h"
#include "support/json.h"
#include "vectorizer/pipeline.h"

namespace macross::bench {

/** Which traditional auto-vectorizer model to stack on a program. */
enum class HostVectorizer {
    None,
    GccLike,
    IccLike,
};

inline const char*
toString(HostVectorizer h)
{
    switch (h) {
      case HostVectorizer::None: return "none";
      case HostVectorizer::GccLike: return "gcc-like";
      case HostVectorizer::IccLike: return "icc-like";
    }
    return "unknown";
}

/** JSON archive accumulated across the whole bench process. Every
 *  archive is stamped with the measuring host's fingerprint (CPU
 *  model, core count, probed SIMD ISA) so numbers from different
 *  machines are never silently compared. */
inline json::Value&
benchArchive()
{
    static json::Value root = [] {
        json::Value v = json::Value::object();
        v["host"] = native::hostFingerprint().toJson();
        v["runs"] = json::Value::array();
        v["tables"] = json::Value::array();
        return v;
    }();
    return root;
}

/** Path from MACROSS_BENCH_JSON, or null when recording is off. */
inline const char*
benchJsonPath()
{
    static const char* path = std::getenv("MACROSS_BENCH_JSON");
    return path;
}

/** Write the archive (called at exit; safe to call repeatedly). */
inline void
flushBenchArchive()
{
    const char* path = benchJsonPath();
    if (!path)
        return;
    std::ofstream out(path);
    out << benchArchive().dump(2) << "\n";
}

/** Register the at-exit flush exactly once. */
inline void
armBenchArchive()
{
    static bool armed = [] {
        // Touch the archive first: its destructor must register
        // after the atexit handler so the handler (run in reverse
        // order) still sees a live object.
        benchArchive();
        std::atexit(flushBenchArchive);
        return true;
    }();
    (void)armed;
}

/** Steady-state cycles per sink element for one configuration. */
inline double
cyclesPerElement(const vectorizer::CompiledProgram& p,
                 const machine::MachineDesc& m, HostVectorizer host,
                 int iters = 12)
{
    machine::CostSink cost(m);
    interp::Runner r(p.graph, p.schedule, &cost);
    if (host != HostVectorizer::None) {
        lowering::LoweredProgram lp =
            lowering::lower(p.graph, p.schedule);
        autovec::AutovecResult av =
            host == HostVectorizer::GccLike
                ? autovec::gccAutovectorize(lp, m)
                : autovec::iccAutovectorize(lp, m);
        for (auto& [id, cfg] : av.configs)
            r.setActorConfig(id, cfg);
    }
    r.runInit();
    std::size_t before = r.captured().size();
    r.runSteady(iters);
    std::size_t produced = r.captured().size() - before;
    double perElement =
        produced ? cost.totalCycles() / static_cast<double>(produced)
                 : 0.0;

    if (benchJsonPath()) {
        armBenchArchive();
        std::vector<std::string> names;
        names.reserve(p.graph.actors.size());
        for (const auto& a : p.graph.actors)
            names.push_back(a.name);
        json::Value rec = json::Value::object();
        rec["host"] = toString(host);
        rec["iterations"] = iters;
        rec["sinkElements"] = produced;
        rec["cyclesPerElement"] = perElement;
        rec["compilation"] = p.report.toJson();
        rec["cost"] = cost.toJson(names);
        rec["stats"] = r.statsToJson();
        benchArchive()["runs"].push(std::move(rec));
    }
    return perElement;
}

/** Compile a program scalar or macro-SIMDized. */
inline vectorizer::CompiledProgram
compileConfig(const graph::StreamPtr& program, bool macro,
              const vectorizer::SimdizeOptions& opts)
{
    if (!macro)
        return vectorizer::compileScalar(program);
    return vectorizer::macroSimdize(program, opts);
}

/** Print a header followed by aligned rows of named speedups. */
inline void
printTable(const std::string& title,
           const std::vector<std::string>& columns,
           const std::vector<std::pair<std::string,
                                       std::vector<double>>>& rows)
{
    std::printf("\n%s\n", title.c_str());
    std::printf("%-18s", "benchmark");
    for (const auto& c : columns)
        std::printf("%16s", c.c_str());
    std::printf("\n");
    // Speedups are ratios, so the summary row is their geometric
    // mean: the mean of the logs, exponentiated.
    std::vector<double> logSums(columns.size(), 0.0);
    for (const auto& [name, vals] : rows) {
        std::printf("%-18s", name.c_str());
        for (std::size_t i = 0; i < vals.size(); ++i) {
            std::printf("%15.2fx", vals[i]);
            logSums[i] += std::log(vals[i]);
        }
        std::printf("\n");
    }
    std::printf("%-18s", "geomean");
    for (std::size_t i = 0; i < logSums.size(); ++i)
        std::printf("%15.2fx", std::exp(logSums[i] / rows.size()));
    std::printf("\n");

    if (benchJsonPath()) {
        armBenchArchive();
        json::Value table = json::Value::object();
        table["title"] = title;
        json::Value cols = json::Value::array();
        for (const auto& c : columns)
            cols.push(c);
        table["columns"] = std::move(cols);
        json::Value jrows = json::Value::array();
        for (const auto& [name, vals] : rows) {
            json::Value row = json::Value::object();
            row["name"] = name;
            json::Value v = json::Value::array();
            for (double x : vals)
                v.push(x);
            row["values"] = std::move(v);
            jrows.push(std::move(row));
        }
        table["rows"] = std::move(jrows);
        benchArchive()["tables"].push(std::move(table));
    }
}

} // namespace macross::bench
