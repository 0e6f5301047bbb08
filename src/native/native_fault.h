/**
 * @file
 * Typed fault taxonomy for the native trust boundary.
 *
 * Everything that can go wrong between "the engine decided to run
 * emitted code" and "the emitted code returned" is classified here:
 * the host compiler misbehaving (timeout, nonzero exit, killed by a
 * signal, unspawnable), the shared object refusing to load, the
 * emitted code crashing under a signal guard, or a cache entry that
 * has already crashed enough times to be quarantined. Each incident is
 * a NativeFaultRecord — a structured, JSON-serializable description
 * carrying the signal, faulting partition, and batch index — wrapped
 * in a NativeFaultError so it unwinds as an exception.
 *
 * NativeFaultError derives from FatalError deliberately: every
 * existing recovery path that treats a failed native build as "this
 * configuration does not work" (the tuner marking a candidate failed,
 * the CLI's exit-code taxonomy) keeps working unchanged, while new
 * code — the Runner's degradation ladder, the CLI's `native fault`
 * reporting — can catch the derived type first and read the record.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/diagnostics.h"
#include "support/json.h"

namespace macross::native {

/** What failed at the native boundary. */
enum class NativeFaultKind {
    CompileTimeout,  ///< Host compile exceeded the wall-clock budget.
    CompileExit,     ///< Host compiler exited nonzero.
    CompileSignal,   ///< Host compiler killed by a signal.
    CompileSpawn,    ///< Host compiler could not be spawned at all.
    LoadFailed,      ///< Freshly built object failed to dlopen/bind.
    Crash,           ///< Emitted code crashed under a signal guard.
    Quarantined,     ///< Cache entry permanently skipped (crash history).
};

/** Stable lowercase name for reports ("compileTimeout", "crash", ...). */
std::string toString(NativeFaultKind kind);

/** Human-readable name of @p sig ("SIGSEGV"), or "signal <n>". */
std::string signalName(int sig);

/** One structured incident at the native boundary. */
struct NativeFaultRecord {
    NativeFaultKind kind = NativeFaultKind::Crash;
    /**
     * Execution phase of the incident: "compile", "load", "init",
     * "steady", or "cache".
     */
    std::string phase;
    /** Signal number for Crash/CompileSignal (0 otherwise). */
    int signal = 0;
    /** signalName(signal), empty when signal == 0. */
    std::string signalName;
    /**
     * Faulting partition (0 for a serial run, which is one
     * partition); -1 when no single partition was running: compile,
     * load and cache faults, and the warm-up of a multi-partition
     * program.
     */
    int partition = -1;
    /**
     * Steady batch index (runSteady calls completed before the
     * faulting one); -1 for faults outside the steady phase.
     */
    std::int64_t batchIndex = -1;
    /** Compiler exit code for CompileExit (0 otherwise). */
    int exitCode = 0;
    /** Wall-clock milliseconds the failing step took (0 = unknown). */
    double wallMs = 0.0;
    /** Spawn attempts made for compile faults (retries included). */
    int attempts = 0;
    /** Full diagnostic (compiler stderr excerpt, dlerror, ...). */
    std::string message;

    json::Value toJson() const;
};

/**
 * A NativeFaultRecord in flight as an exception. what() carries the
 * record's message prefixed with "fatal: native fault (<kind>): " so
 * un-laddered callers report something useful.
 */
class NativeFaultError : public FatalError {
  public:
    explicit NativeFaultError(NativeFaultRecord record);

    const NativeFaultRecord& record() const { return record_; }

  private:
    NativeFaultRecord record_;
};

/** Throw a NativeFaultError for @p record. */
[[noreturn]] void throwNativeFault(NativeFaultRecord record);

} // namespace macross::native
