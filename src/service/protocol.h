/**
 * @file
 * Wire protocol for macrossd, the multi-tenant compile-and-run
 * daemon: line-delimited JSON over a Unix-domain stream socket.
 *
 * Every message is one JSON object on one '\n'-terminated line.
 * Requests carry an `op` ("run", "stats", "ping", "shutdown") plus a
 * client-chosen `id` the daemon echoes back, so a client may pipeline
 * requests on one connection and match responses out of order. A run
 * request names a program (a built-in benchmark by name, or inline
 * `.str` source text), an iteration count, an optional tenant key
 * (defaulting to the connection), and a tuner::TuneConfig-shaped
 * `config` object selecting the transform/execution point.
 *
 * Responses carry `op` ("result", "error", "stats", "pong", "ok"),
 * the echoed `id`, and `ok`. A result reports the steady-state
 * elements produced for this request, a checksum over their raw
 * 32-bit lanes (hex; the bit-identity contract — same digest the
 * emitted standalone main() prints), optionally the raw lanes
 * themselves (order-sensitive, for exact-sequence assertions), the
 * native
 * build/run stats (cache hit, coalesced, compile time), and queue /
 * service latencies. An error carries a typed `kind`:
 *
 *   - "bad-request"      malformed or out-of-policy request
 *   - "verify-rejected"  bytecode verifier findings (trust boundary)
 *   - "overloaded"       admission queue full — explicit backpressure,
 *                        retry later; never silent queuing without
 *                        bound
 *   - "fault"            the native engine faulted for THIS request
 *                        (structured NativeFaultRecord attached); the
 *                        daemon itself is healthy
 *   - "shutting-down"    daemon is draining; connection will close
 *   - "internal"         anything else (bug)
 *
 * The checksum convention matches the standalone emitted main():
 * the 64-bit sum of each captured element's raw 32-bit lane bits,
 * printed as 16 lowercase hex digits.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "interp/value.h"
#include "support/json.h"
#include "tuner/tune_config.h"

namespace macross::service {

/** Protocol revision, echoed by ping and stats. */
inline constexpr int kProtocolVersion = 1;

/** Request kinds a daemon accepts. */
enum class RequestOp { Run, Stats, Ping, Shutdown };

std::string toString(RequestOp op);

/** One parsed client request (see file comment for the schema). */
struct Request {
    RequestOp op = RequestOp::Ping;
    /** Client-chosen correlation id, echoed verbatim in responses. */
    std::string id;

    // Run-only fields.
    std::string tenant;  ///< Tenant key ("" = per-connection tenant).
    std::string bench;   ///< Built-in benchmark name, or
    std::string source;  ///< inline .str source (exactly one of the two).
    int iters = 1;       ///< Steady-state iterations to run.
    bool wantOutput = false;  ///< Include raw output lanes in the result.
    /** Transform/execution configuration (missing fields default). */
    tuner::TuneConfig config;
    /**
     * Test hook ("" = none): "native-crash" crashes this request's
     * native steady batch under the signal guard. Rejected unless the
     * daemon was started with fault injection allowed.
     */
    std::string injectFault;

    json::Value toJson() const;

    /**
     * Inverse of toJson. Throws FatalError on structural problems
     * (unknown op, non-object, wrong field kinds) with a message fit
     * for a "bad-request" response.
     */
    static Request fromJson(const json::Value& v);
};

/** Typed error kinds (stable wire strings, see file comment). */
namespace kind {
inline constexpr const char* kBadRequest = "bad-request";
inline constexpr const char* kVerifyRejected = "verify-rejected";
inline constexpr const char* kOverloaded = "overloaded";
inline constexpr const char* kFault = "fault";
inline constexpr const char* kShuttingDown = "shutting-down";
inline constexpr const char* kInternal = "internal";
} // namespace kind

/** Build an error response for @p id (fault/findings attached by
 *  the caller when it has them). */
json::Value makeError(const std::string& id, const std::string& kind,
                      const std::string& message);

/**
 * 64-bit sum of the raw 32-bit lanes of @p values — the same digest
 * the emitted standalone main() prints, so daemon results and
 * standalone binaries can be compared by checksum alone. @p first
 * skips already-reported elements (per-request deltas).
 */
std::uint64_t checksumLanes(const std::vector<interp::Value>& values,
                            std::size_t first = 0);

/** @p v's raw lanes flattened in stream order (wantOutput payload). */
std::vector<std::uint32_t>
flattenLanes(const std::vector<interp::Value>& values,
             std::size_t first = 0);

/** checksumLanes over a raw-lane stream (interp::CapturedStream's
 *  lanes(), one lane per element). */
std::uint64_t checksumLanes(const std::vector<std::uint32_t>& lanes,
                            std::size_t first = 0);

/** flattenLanes over a raw-lane stream: its lanes from @p first on. */
std::vector<std::uint32_t>
flattenLanes(const std::vector<std::uint32_t>& lanes,
             std::size_t first = 0);

/** 16 lowercase hex digits of @p v. */
std::string hex64(std::uint64_t v);

} // namespace macross::service
