/**
 * @file
 * C++ code generation: the final Emit-Intermediate-Code phase of
 * Algorithm 1.
 *
 * Emits one self-contained C++17 translation unit for a compiled
 * (possibly SIMDized) program: a portable fixed-width vector type
 * whose operations correspond 1:1 to SSE/AltiVec/NEON instructions
 * (including extract_even/odd and unpack) and — at SimdSpec lane
 * widths > 1 — are lowered onto real GCC/Clang extension vectors
 * (`ext_vector_type` on Clang, `vector_size` on GCC) rather than
 * scalar per-lane loops, tape FIFOs typed at emission (element
 * type, SAGU transpose rates and width, sink or not), one struct per
 * actor, and the runtime state split along a multicore partition:
 * one `struct Partition<k>` per core, each owning its core's actors,
 * its intra-core tapes (write window reserved once per steady
 * iteration, unchecked accessors), and a RingTape endpoint for every
 * cross-core tape. A serial program is the one-partition case (no
 * partition given: every actor on core 0, no crossing tape, and no
 * ring support compiled in). Two output shapes wrap the partitions:
 *
 *  - Standalone: a main() over the one partition that runs the init
 *    phase plus N steady iterations and prints the first K sink
 *    outputs and an order-independent 64-bit checksum over the raw
 *    lane bits.
 *  - Library: a stable `extern "C"` ABI for the native execution
 *    engine, which compiles the TU with the host compiler and
 *    dlopen()s it. The host creates one partition instance per core
 *    through the ABI (heap-allocated, so one loaded object serves any
 *    number of independent runs), binds each crossing tape to an
 *    in-process SPSC ring (interp/spsc_queue.h) via the `MacrossRing`
 *    binding struct, runs the warm-up single-threaded through
 *    `macross_init_all`, and then drives each partition's steady
 *    slice, from its own worker thread when there are several. Ring
 *    traffic follows the interpreter's protocol exactly: monotonic
 *    64-bit logical indexes, acquire/release index publication,
 *    block-granular publication on SAGU-transposed endpoints, and an
 *    exact tail flush at batch barriers.
 *
 * Both shapes must produce exactly the same output stream as the
 * interpreter (enforced by end-to-end tests and the native engine's
 * differential suites) unless the SimdSpec explicitly opts into
 * ULP-bounded divergence (see simd_spec.h for the exactness
 * taxonomy).
 */
#pragma once

#include <string>
#include <vector>

#include "codegen/simd_spec.h"
#include "graph/flat_graph.h"
#include "schedule/steady_state.h"

namespace macross::codegen {

/** Shape of the emitted translation unit. */
enum class EmitMode {
    Standalone,  ///< Self-contained one-partition program with a main().
    Library,     ///< Shared-object partition ABI for the native engine.
    /** The same shape as Library, under its earlier name. */
    PartitionedLibrary = Library,
};

/**
 * Version of the emitted `extern "C"` ABI (Library mode).
 *
 * v1: abi_version / create / destroy / init / run_steady /
 *     capture_size / capture_data.
 * v2: everything in v1, plus the SIMD lowering the object was built
 *     with — macross_simd_lanes() (lane width), macross_simd_isa()
 *     (ISA selector string), and macross_exact() (1 = bit-identical
 *     contract, 0 = ULP-bounded).
 * v3: the partition surface replaces the whole-program entry points:
 *     macross_abi_version / macross_simd_lanes / macross_simd_isa /
 *     macross_exact, plus macross_num_partitions /
 *     macross_create_partition / macross_destroy_partition /
 *     macross_ring_bind / macross_init_all /
 *     macross_run_steady_partition / macross_sink_partition, and the
 *     capture exports macross_capture_size / macross_capture_data,
 *     which take the sink partition's handle. Every object has this
 *     one symbol set, serial (one partition) or parallel.
 * v4: everything in v3, plus macross_capture_consume(sink handle),
 *     which empties the emitted sink's recorded buffer and keeps its
 *     capacity. The host copies the new lanes into its own log at
 *     every batch barrier and then consumes them, so the emitted
 *     capture holds one batch at most instead of the whole history.
 *
 * Any version other than the current one is refused with a
 * FatalError naming both.
 */
inline constexpr int kNativeAbiVersion = 4;

/** Code-generation options. */
struct EmitOptions {
    int steadyIterations = 4;  ///< Default for the emitted main().
    int printFirst = 32;       ///< Sink elements echoed by main().
    EmitMode mode = EmitMode::Standalone;
    SimdSpec simd;             ///< Vector lowering (see simd_spec.h).
    /** Number of cores (>= 1); read only when partitionCoreOf is set. */
    int partitionCores = 0;
    /** Core of each actor id (the greedy partition's coreOf; size must
     *  equal the actor count). Empty means one partition with every
     *  actor on core 0, the only shape Standalone accepts. Kept as
     *  plain values so codegen does not depend on multicore/. */
    std::vector<int> partitionCoreOf;
};

/** Emit the full translation unit. */
std::string emitCpp(const graph::FlatGraph& g,
                    const schedule::Schedule& s,
                    const EmitOptions& opts = {});

} // namespace macross::codegen
