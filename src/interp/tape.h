/**
 * @file
 * Tape (FIFO channel) runtime.
 *
 * A tape carries scalar elements addressed by logical stream index.
 * The read pointer rp and write pointer wp delimit the resident
 * window; random-access pushes (rpush/vrpush) may write ahead of wp,
 * with a later AdvanceOut publishing them (the paper's Section 3.1
 * access discipline for SIMDized actors).
 *
 * Storage is raw 32-bit lanes (one std::uint32_t per scalar element),
 * not boxed Value objects: every element on a tape is a scalar of the
 * tape's element type, so the type tag and lane padding of Value are
 * redundant per element. The Value-typed accessors box/unbox at the
 * boundary for the tree engine and splitters/joiners; the *Raw
 * accessors are the bytecode VM's fast path.
 *
 * For the SAGU tape optimization a tape can be placed in a transposed
 * layout (Section 3.4): the vectorized endpoint performs contiguous
 * vector accesses while the scalar endpoint's accesses are remapped
 * through the block-transpose address walk that the SAGU (or the
 * Figure 8 software sequence) computes. Exactly one endpoint may be
 * transposed-scalar per direction.
 *
 * A tape can alternatively be backed by a bounded lock-free SPSC ring
 * (setRing): the parallel runner installs one on every tape whose
 * endpoints land on different cores of a multicore partition. In ring
 * mode rp_ belongs to the consumer thread and wp_ to the producer
 * thread; availability and space checks go through the ring's
 * acquire/release indexes instead of comparing the two cursors (which
 * would race), and consumers wait instead of panicking on underflow.
 * All accessor semantics (transposition, capture, stats) are
 * otherwise unchanged, and intra-core tapes pay only one predictable
 * `ring_ == nullptr` branch per access.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "interp/captured_stream.h"
#include "interp/value.h"
#include "support/diagnostics.h"

namespace macross::interp {

class SpscRing;

/** Address mapping applied to one endpoint of a tape. */
struct TransposeSpec {
    bool enabled = false;
    std::int64_t rate = 1;  ///< Vectorized neighbor's pop/push rate.
    int simdWidth = 4;
};

/** FIFO channel between two actors. */
class Tape {
  public:
    explicit Tape(ir::Type elem) : elem_(elem) {}

    ir::Type elemType() const { return elem_; }

    /** Elements available to the consumer. */
    std::int64_t available() const;

    /** @name Scalar-side accesses (subject to transposition).
     *  @{
     */
    Value peek(std::int64_t offset) const;
    Value pop();
    void push(const Value& v);
    void rpush(const Value& v, std::int64_t offset);
    /** @} */

    /** @name Vector accesses (always contiguous physical layout).
     *  @{
     */
    Value vpeek(std::int64_t offset, int lanes) const;
    Value vpop(int lanes);
    void vpush(const Value& v);
    void vrpush(const Value& v, std::int64_t offset);
    /** @} */

    /** @name Raw-lane accesses (the bytecode VM's fast path).
     *  Semantics (bounds checks, transposition, capture, stats) are
     *  identical to the Value-typed accessors above.
     *  @{
     */
    std::uint32_t popRaw();
    std::uint32_t peekRaw(std::int64_t offset) const;
    void pushRaw(std::uint32_t bits);
    void rpushRaw(std::uint32_t bits, std::int64_t offset);
    void vpopRaw(std::uint32_t* dst, int lanes);
    void vpeekRaw(std::uint32_t* dst, std::int64_t offset,
                  int lanes) const;
    void vpushRaw(const std::uint32_t* src, int lanes);
    void vrpushRaw(const std::uint32_t* src, int lanes,
                   std::int64_t offset);
    /** @} */

    void advanceIn(std::int64_t n);
    void advanceOut(std::int64_t n);

    /** Remap the consumer's scalar reads through a block transpose. */
    void setReadTranspose(TransposeSpec t) { readT_ = t; }
    /** Remap the producer's scalar writes through a block transpose. */
    void setWriteTranspose(TransposeSpec t) { writeT_ = t; }

    /**
     * Back this tape with a bounded lock-free SPSC ring (cross-thread
     * tapes of a multicore partition). Must be installed before any
     * traffic; @p ring must outlive the tape's use and be sized by the
     * caller so the producer never wraps onto unconsumed data.
     */
    void setRing(SpscRing* ring);
    bool ringBacked() const { return ring_ != nullptr; }
    /** Publish the exact write cursor, partial transpose blocks
     *  included (producer side, at iteration barriers only). */
    void flushRingTail();
    /** Release the read cursor, floored to the head block like every
     *  other release (consumer side, at iteration barriers only). A
     *  transposed reader still reads mapped slots behind its cursor
     *  inside the current block, so releasing a partial block would
     *  let the producer overwrite live slots; the ring's block slack
     *  keeps the floor deadlock-free. */
    void flushRingHead();

    /**
     * Capture the raw lane of every element the consumer pops, in
     * consumption order, into @p buf (used to record program output
     * at the sink). Null disables capture. A plain buffer pointer, not
     * a callback: this sits on the hottest loop of every run.
     */
    void setCaptureBuffer(CapturedStream* buf) { capture_ = buf; }

    /** Total elements ever pushed (for stats). */
    std::int64_t totalPushed() const { return totalPushed_; }
    /** High-water mark of resident elements (buffer sizing stats). */
    std::int64_t maxOccupancy() const { return maxOccupancy_; }

  private:
    // The scalar push/pop paths are the single hottest loop of every
    // run, so they (and these helpers) are inline below with only the
    // rare branches (transposition, capture, compaction) calling
    // out-of-line *Slow bodies.
    std::uint32_t read(std::int64_t logical) const;
    void write(std::int64_t logical, std::uint32_t bits);
    void ensure(std::int64_t logical) const;
    void compact();
    std::int64_t mapRead(std::int64_t logical) const;
    std::int64_t mapWrite(std::int64_t logical) const;
    std::int64_t mapReadSlow(std::int64_t logical) const;
    std::int64_t mapWriteSlow(std::int64_t logical) const;
    Value box(std::uint32_t bits) const;
    void capture(std::uint32_t bits);
    void captureSlow(std::uint32_t bits);
    void compactSlow();
    std::uint32_t ringPopRaw();
    std::uint32_t ringPeekRaw(std::int64_t offset) const;
    void ringPushRaw(std::uint32_t bits);

    /** Logical indexes below this many behind rp trigger compaction. */
    static constexpr std::int64_t kCompactThreshold = 1 << 16;

    ir::Type elem_;
    mutable std::vector<std::uint32_t> buf_;
    std::int64_t base_ = 0;  ///< Logical index of buf_[0].
    std::int64_t rp_ = 0;
    std::int64_t wp_ = 0;
    TransposeSpec readT_;
    TransposeSpec writeT_;
    SpscRing* ring_ = nullptr;
    CapturedStream* capture_ = nullptr;
    std::int64_t totalPushed_ = 0;
    std::int64_t maxOccupancy_ = 0;
};

inline std::int64_t
Tape::mapRead(std::int64_t logical) const
{
    return readT_.enabled ? mapReadSlow(logical) : logical;
}

inline std::int64_t
Tape::mapWrite(std::int64_t logical) const
{
    return writeT_.enabled ? mapWriteSlow(logical) : logical;
}

inline void
Tape::ensure(std::int64_t logical) const
{
    std::int64_t idx = logical - base_;
    panicIf(idx < 0, "tape access below compaction base");
    if (static_cast<std::int64_t>(buf_.size()) <= idx)
        buf_.resize(idx + 1, 0);
}

inline std::uint32_t
Tape::read(std::int64_t logical) const
{
    ensure(logical);
    return buf_[logical - base_];
}

inline void
Tape::write(std::int64_t logical, std::uint32_t bits)
{
    ensure(logical);
    buf_[logical - base_] = bits;
}

inline void
Tape::capture(std::uint32_t bits)
{
    if (capture_)
        captureSlow(bits);
}

inline void
Tape::compact()
{
    if (rp_ - base_ >= kCompactThreshold)
        compactSlow();
}

inline std::uint32_t
Tape::peekRaw(std::int64_t offset) const
{
    panicIf(offset < 0, "negative peek offset");
    if (ring_)
        return ringPeekRaw(offset);
    panicIf(rp_ + offset >= wp_, "peek(", offset,
            ") beyond available data (", available(), " elements)");
    return read(mapRead(rp_ + offset));
}

inline std::uint32_t
Tape::popRaw()
{
    if (ring_)
        return ringPopRaw();
    panicIf(rp_ >= wp_, "pop from empty tape");
    std::uint32_t bits = read(mapRead(rp_));
    ++rp_;
    capture(bits);
    compact();
    return bits;
}

inline void
Tape::pushRaw(std::uint32_t bits)
{
    if (ring_) {
        ringPushRaw(bits);
        return;
    }
    write(mapWrite(wp_), bits);
    ++wp_;
    ++totalPushed_;
    maxOccupancy_ = std::max(maxOccupancy_, wp_ - rp_);
}

} // namespace macross::interp
