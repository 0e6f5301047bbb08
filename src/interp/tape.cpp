/**
 * @file
 * Tape implementation.
 */
#include "interp/tape.h"

#include "interp/spsc_queue.h"
#include "machine/sagu.h"
#include "support/diagnostics.h"

namespace macross::interp {

std::int64_t
Tape::available() const
{
    if (ring_)
        return ring_->publishedSize(rp_);
    return wp_ - rp_;
}

void
Tape::setRing(SpscRing* ring)
{
    panicIf(wp_ != 0 || rp_ != 0,
            "setRing on a tape that already has traffic");
    ring_ = ring;
}

void
Tape::flushRingTail()
{
    if (ring_)
        ring_->publishTailExact(wp_);
}

void
Tape::flushRingHead()
{
    if (ring_)
        ring_->publishHead(rp_);
}

std::uint32_t
Tape::ringPopRaw()
{
    const std::int64_t logical = mapRead(rp_);
    ring_->waitReadable(logical);
    const std::uint32_t bits = ring_->slot(logical);
    ++rp_;
    ring_->publishHead(rp_);
    capture(bits);
    return bits;
}

std::uint32_t
Tape::ringPeekRaw(std::int64_t offset) const
{
    const std::int64_t logical = mapRead(rp_ + offset);
    ring_->waitReadable(logical);
    return ring_->slot(logical);
}

void
Tape::ringPushRaw(std::uint32_t bits)
{
    const std::int64_t logical = mapWrite(wp_);
    ring_->waitWritable(logical);
    ring_->slot(logical) = bits;
    ++wp_;
    ++totalPushed_;
    ring_->publishTail(wp_);
    maxOccupancy_ =
        std::max(maxOccupancy_, wp_ - ring_->approxHead());
}

std::int64_t
Tape::mapReadSlow(std::int64_t logical) const
{
    return machine::transposedAddress(logical, readT_.rate,
                                      readT_.simdWidth);
}

std::int64_t
Tape::mapWriteSlow(std::int64_t logical) const
{
    return machine::transposedAddress(logical, writeT_.rate,
                                      writeT_.simdWidth);
}

Value
Tape::box(std::uint32_t bits) const
{
    Value v = Value::zero(elem_);
    v.setRawBits(0, bits);
    return v;
}

void
Tape::captureSlow(std::uint32_t bits)
{
    capture_->push(bits);
}

void
Tape::compactSlow()
{
    std::int64_t cut = rp_;
    if (readT_.enabled) {
        std::int64_t block = readT_.rate * readT_.simdWidth;
        cut = (rp_ / block) * block;
    }
    if (writeT_.enabled) {
        std::int64_t block = writeT_.rate * writeT_.simdWidth;
        cut = std::min(cut, (wp_ / block) * block);
        cut = std::min(cut, rp_);
    }
    if (cut <= base_)
        return;
    buf_.erase(buf_.begin(), buf_.begin() + (cut - base_));
    base_ = cut;
}

Value
Tape::peek(std::int64_t offset) const
{
    return box(peekRaw(offset));
}

Value
Tape::pop()
{
    return box(popRaw());
}

void
Tape::push(const Value& v)
{
    panicIf(v.lanes() != 1, "scalar push of vector value");
    pushRaw(v.rawBits(0));
}

void
Tape::rpushRaw(std::uint32_t bits, std::int64_t offset)
{
    panicIf(writeT_.enabled,
            "rpush on a transposed-write tape endpoint");
    panicIf(offset < 0, "negative rpush offset");
    if (ring_) {
        ring_->waitWritable(wp_ + offset);
        ring_->slot(wp_ + offset) = bits;
        return;
    }
    write(wp_ + offset, bits);
}

void
Tape::rpush(const Value& v, std::int64_t offset)
{
    panicIf(v.lanes() != 1, "scalar rpush of vector value");
    rpushRaw(v.rawBits(0), offset);
}

void
Tape::vpeekRaw(std::uint32_t* dst, std::int64_t offset,
               int lanes) const
{
    panicIf(readT_.enabled, "vector read on a transposed-read tape");
    panicIf(offset < 0, "negative vpeek offset");
    if (ring_) {
        ring_->waitReadable(rp_ + offset + lanes - 1);
        for (int l = 0; l < lanes; ++l)
            dst[l] = ring_->slot(rp_ + offset + l);
        return;
    }
    panicIf(rp_ + offset + lanes > wp_, "vpeek beyond available data");
    for (int l = 0; l < lanes; ++l)
        dst[l] = read(rp_ + offset + l);
}

Value
Tape::vpeek(std::int64_t offset, int lanes) const
{
    Value out = Value::zero(elem_.widened(lanes));
    vpeekRaw(out.rawData(), offset, lanes);
    return out;
}

void
Tape::vpopRaw(std::uint32_t* dst, int lanes)
{
    panicIf(readT_.enabled, "vector read on a transposed-read tape");
    if (ring_) {
        ring_->waitReadable(rp_ + lanes - 1);
        for (int l = 0; l < lanes; ++l) {
            dst[l] = ring_->slot(rp_ + l);
            capture(dst[l]);
        }
        rp_ += lanes;
        ring_->publishHead(rp_);
        return;
    }
    panicIf(rp_ + lanes > wp_, "vpop beyond available data");
    for (int l = 0; l < lanes; ++l) {
        dst[l] = read(rp_ + l);
        capture(dst[l]);
    }
    rp_ += lanes;
    compact();
}

Value
Tape::vpop(int lanes)
{
    Value out = Value::zero(elem_.widened(lanes));
    vpopRaw(out.rawData(), lanes);
    return out;
}

void
Tape::vpushRaw(const std::uint32_t* src, int lanes)
{
    panicIf(writeT_.enabled, "vector write on a transposed-write tape");
    panicIf(lanes < 2, "vpush of scalar value");
    if (ring_) {
        ring_->waitWritable(wp_ + lanes - 1);
        for (int l = 0; l < lanes; ++l)
            ring_->slot(wp_ + l) = src[l];
        wp_ += lanes;
        totalPushed_ += lanes;
        ring_->publishTail(wp_);
        maxOccupancy_ =
            std::max(maxOccupancy_, wp_ - ring_->approxHead());
        return;
    }
    for (int l = 0; l < lanes; ++l)
        write(wp_ + l, src[l]);
    wp_ += lanes;
    totalPushed_ += lanes;
    maxOccupancy_ = std::max(maxOccupancy_, wp_ - rp_);
}

void
Tape::vpush(const Value& v)
{
    vpushRaw(v.rawData(), v.lanes());
}

void
Tape::vrpushRaw(const std::uint32_t* src, int lanes,
                std::int64_t offset)
{
    panicIf(writeT_.enabled, "vector write on a transposed-write tape");
    panicIf(lanes < 2, "vrpush of scalar value");
    panicIf(offset < 0, "negative vrpush offset");
    if (ring_) {
        ring_->waitWritable(wp_ + offset + lanes - 1);
        for (int l = 0; l < lanes; ++l)
            ring_->slot(wp_ + offset + l) = src[l];
        return;
    }
    for (int l = 0; l < lanes; ++l)
        write(wp_ + offset + l, src[l]);
}

void
Tape::vrpush(const Value& v, std::int64_t offset)
{
    vrpushRaw(v.rawData(), v.lanes(), offset);
}

void
Tape::advanceIn(std::int64_t n)
{
    panicIf(n < 0, "negative advanceIn");
    if (ring_) {
        if (n > 0)
            ring_->waitReadable(rp_ + n - 1);
        rp_ += n;
        ring_->publishHead(rp_);
        return;
    }
    panicIf(rp_ + n > wp_, "advanceIn beyond available data");
    rp_ += n;
    compact();
}

void
Tape::advanceOut(std::int64_t n)
{
    panicIf(n < 0, "negative advanceOut");
    wp_ += n;
    totalPushed_ += n;
    if (ring_) {
        // The rpush/vrpush writes this publishes already waited for
        // their slots; the release store makes them visible.
        ring_->publishTail(wp_);
        maxOccupancy_ =
            std::max(maxOccupancy_, wp_ - ring_->approxHead());
        return;
    }
    maxOccupancy_ = std::max(maxOccupancy_, wp_ - rp_);
}

} // namespace macross::interp
