/**
 * @file
 * TuneConfig: one point in the transform/execution space the
 * auto-tuner searches.
 *
 * The knobs are exactly the ones the rest of the repo already
 * exposes, gathered into one value type so a configuration can be
 * enumerated, cost-model scored, measured, serialized into the
 * persistent tuning cache, and finally replayed through the normal
 * Runner/ParallelRunner path:
 *
 *  - the vectorizer side (machine description incl. SIMD width SW,
 *    vertical/horizontal/single-actor segment formation, permuted
 *    tapes, the SAGU tape strategy) maps onto
 *    vectorizer::SimdizeOptions via simdizeOptions();
 *  - the execution side (native lane width W, -march ISA selector,
 *    thread count, parallel batch size, ring capacity floor) maps
 *    onto interp::EngineConfig via engineConfig().
 *
 * A TuneConfig says nothing about iteration counts or budgets; those
 * belong to the tuner's measurement protocol (tuner.h).
 */
#pragma once

#include <cstdint>
#include <string>

#include "interp/engine_config.h"
#include "support/json.h"
#include "vectorizer/pipeline.h"

namespace macross::tuner {

/** One candidate configuration (see file comment). */
struct TuneConfig {
    /** Machine description name (machine::machineByName). */
    std::string machine = "nehalem";
    /** Macro-SIMDize at all (false = the scalar baseline). */
    bool simd = true;
    /** SAGU unit + transposed tape strategy. */
    bool sagu = false;
    /** Vertical fusion of SIMDizable pipeline segments. */
    bool vertical = true;
    /** Horizontal merging of isomorphic split-join branches. */
    bool horizontal = true;
    /** Permutation-based tape accesses at SIMD boundaries. */
    bool permute = true;
    /** Emitted native lane width W (codegen::SimdSpec.laneWidth). */
    int laneWidth = 4;
    /** -march selector ("auto" inherits -march=native). */
    std::string isa = "auto";
    /** Worker threads (1 = serial native, one partition). */
    int threads = 1;
    /** Parallel batch size (0 = runtime default; threads > 1 only). */
    int batchIterations = 0;
    /** Ring capacity floor (0 = runtime default; threads > 1 only). */
    std::int64_t ringCapacity = 0;

    /** Vectorizer-side options (forceSimdize is never set: the
     *  tuner's whole point is measuring, not forcing). */
    vectorizer::SimdizeOptions simdizeOptions() const;

    /** Execution-side engine configuration for the native engine. */
    interp::EngineConfig engineConfig() const;

    /**
     * Stable one-line identity, e.g.
     * "nehalem:simd:v:h:p:w4:auto:t1" — keys measurement dedup and
     * appears in stats/logs.
     */
    std::string key() const;

    /** Full JSON form (the tuning cache's schema for a config). */
    json::Value toJson() const;

    /**
     * Inverse of toJson. Fatal on structurally invalid documents
     * (wrong kinds); missing fields keep their defaults so the cache
     * schema can grow fields compatibly.
     */
    static TuneConfig fromJson(const json::Value& v);

    bool operator==(const TuneConfig& o) const
    {
        return key() == o.key();
    }
    bool operator!=(const TuneConfig& o) const { return !(*this == o); }
};

} // namespace macross::tuner
