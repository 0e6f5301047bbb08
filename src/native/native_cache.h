/**
 * @file
 * Internals of the native-engine program loader: the
 * compile-or-cache-load flow (content-hashed .so cache, atomic
 * install, foreign-ABI refusal) plus the small file/shell helpers it
 * is built from.
 *
 * NativeProgram loads every emitted object, serial (one partition) or
 * parallel, through this one flow: one cache directory, one hashing
 * scheme, and one install discipline. The flow takes the symbol
 * binding as a callback.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "codegen/simd_spec.h"
#include "native/native_engine.h"

namespace macross::native::detail {

/** Single-quote @p s for POSIX sh (paths may contain spaces). */
std::string shellQuote(const std::string& s);

std::string hex64(std::uint64_t v);

/** Unique suffix for temp files: pid + per-process counter. */
std::string uniqueSuffix();

std::string readFileOr(const std::string& path,
                       const std::string& fallback);

/** Write atomically: unique temp in the same directory, then rename. */
void writeFileAtomic(const std::string& path, const std::string& data);

/**
 * Extra host-compiler flags from $MACROSS_NATIVE_EXTRA_FLAGS (empty
 * when unset). Appended after NativeOptions::flags and any -march
 * derived from the SimdSpec, and included in the cache key — this is
 * how CI compiles emitted code with -fsanitize=thread for the TSan
 * job without a special engine mode.
 */
std::string extraCompileFlags();

/** What a shape-specific bind attempt reports back. */
enum class BindStatus {
    Ok,           ///< Loaded, ABI version matched, all symbols bound.
    LoadFailed,   ///< Missing/truncated/symbol-incomplete — recompile.
    AbiMismatch,  ///< Loads but speaks a foreign ABI version — fatal.
};

/**
 * The shared compile-or-cache-load flow. Resolves the compiler and
 * final flag string, hashes (compiler, flags, spec, source) into the
 * cache key, consults the crash quarantine for that entry
 * (native/quarantine.h: a distrusted entry skips the cache and
 * recompiles fresh, a quarantined one is refused with a structured
 * fault), and then: try to bind an existing cache entry; on
 * LoadFailed remove it, write the source, run the host compiler
 * through the hardened fork/exec pipeline (compile_exec.h: process
 * group, rlimits, wall-clock timeout, captured stderr) with a unique
 * temp + atomic rename, and bind the fresh object.
 *
 * The miss path is single-flight: an in-process per-entry mutex plus
 * a cross-process advisory flock on `<soPath>.lock` serialize the
 * compile-install section, and an arrival that had to wait re-checks
 * the cache before compiling. N concurrent identical requests
 * (daemon tenants, parallel CLI runs sharing one cache directory)
 * therefore cost one sandboxed compile and N-1 binds — the waiters
 * report stats->cacheHit with stats->coalesced set — instead of N
 * duplicate compiles racing fs::rename. A loadable object
 * reporting a foreign ABI version is fatal at either point (the cache
 * key covers the source, so skew means toolchain or cache tampering,
 * not staleness); every compiler failure mode throws a
 * NativeFaultError carrying the typed compile fault and a
 * path-prefixed excerpt of the compiler's stderr.
 *
 * @p try_bind receives the .so path and an out-param for the ABI
 * version the object reports; it must fully unbind on failure.
 * Fills stats: compiler, flags, sourceHash, soPath, cacheHit,
 * compileMillis, compileAttempts, quarantineFailures/Reason.
 */
void compileOrLoadCached(
    const NativeOptions& opts, const codegen::SimdSpec& spec,
    const std::string& source, NativeStats* stats,
    const std::function<BindStatus(const std::string&, int*)>&
        try_bind);

/**
 * Run @p body (a call into emitted code) under this thread's signal
 * guard. A crash is recorded against @p so_path's quarantine sidecar
 * and rethrown as a structured NativeFaultError with
 * kind = Crash, the given @p phase ("init" / "steady"), the faulting
 * @p partition (-1 when no single partition was running), and
 * @p batch_index.
 */
void runEmittedGuarded(const char* phase, int partition,
                       std::int64_t batch_index,
                       const std::string& so_path,
                       const std::function<void()>& body);

} // namespace macross::native::detail
