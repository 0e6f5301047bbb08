/**
 * @file
 * Unit tests for the tape runtime, including the Section 3.1 rpush /
 * advance discipline and the SAGU transposed layout.
 */
#include "interp/tape.h"

#include <gtest/gtest.h>

#include "machine/sagu.h"
#include "support/diagnostics.h"

namespace macross::interp {
namespace {

Value
fv(float x)
{
    return Value::makeFloat(x);
}

TEST(Tape, FifoOrder)
{
    Tape t(ir::kFloat32);
    t.push(fv(1));
    t.push(fv(2));
    t.push(fv(3));
    EXPECT_EQ(t.available(), 3);
    EXPECT_FLOAT_EQ(t.pop().f(), 1);
    EXPECT_FLOAT_EQ(t.peek(1).f(), 3);
    EXPECT_FLOAT_EQ(t.pop().f(), 2);
    EXPECT_EQ(t.available(), 1);
}

TEST(Tape, PopEmptyPanics)
{
    Tape t(ir::kFloat32);
    EXPECT_THROW(t.pop(), PanicError);
    t.push(fv(1));
    EXPECT_THROW(t.peek(1), PanicError);
}

TEST(Tape, RPushWriteAheadPublishedByAdvance)
{
    // The SIMDized-push pattern of Figure 3b: strided rpush writes,
    // interleaved pointer-advancing pushes, then AdvanceOut.
    Tape t(ir::kFloat32);
    // First original push (lane values 10,11,12,13 at stride 2).
    t.rpush(fv(13), 6);
    t.rpush(fv(12), 4);
    t.rpush(fv(11), 2);
    t.push(fv(10));
    // Second original push (lane values 20..23).
    t.rpush(fv(23), 6);
    t.rpush(fv(22), 4);
    t.rpush(fv(21), 2);
    t.push(fv(20));
    t.advanceOut(6);
    EXPECT_EQ(t.available(), 8);
    const float expected[8] = {10, 20, 11, 21, 12, 22, 13, 23};
    for (float e : expected)
        EXPECT_FLOAT_EQ(t.pop().f(), e);
}

TEST(Tape, VectorAccessesAreContiguous)
{
    Tape t(ir::kFloat32);
    for (int i = 0; i < 8; ++i)
        t.push(fv(static_cast<float>(i)));
    Value v = t.vpeek(2, 4);
    for (int l = 0; l < 4; ++l)
        EXPECT_FLOAT_EQ(v.f(l), 2.0f + l);
    Value w = t.vpop(4);
    for (int l = 0; l < 4; ++l)
        EXPECT_FLOAT_EQ(w.f(l), static_cast<float>(l));
    EXPECT_EQ(t.available(), 4);

    Tape o(ir::kFloat32);
    o.vpush(v);
    EXPECT_EQ(o.available(), 4);
    EXPECT_FLOAT_EQ(o.pop().f(), 2.0f);
}

TEST(Tape, AdvanceInBoundsChecked)
{
    Tape t(ir::kFloat32);
    t.push(fv(1));
    EXPECT_THROW(t.advanceIn(2), PanicError);
    t.advanceIn(1);
    EXPECT_EQ(t.available(), 0);
}

TEST(Tape, ReadTransposeMatchesSaguWalk)
{
    // Producer is "vectorized": writes the transposed layout via
    // plain vector pushes; the scalar consumer pops in logical order
    // through the transpose map. rate=3, SW=4.
    const int rate = 3, sw = 4;
    Tape t(ir::kFloat32);
    t.setReadTranspose(TransposeSpec{true, rate, sw});
    // The vector producer writes 3 vectors; vector j holds lane f =
    // logical element f*rate + j.
    for (int j = 0; j < rate; ++j) {
        Value v = Value::zero(ir::Type{ir::Scalar::Float32, sw});
        for (int f = 0; f < sw; ++f)
            v.setF(f, static_cast<float>(f * rate + j));
        t.vpush(v);
    }
    // The consumer must observe 0,1,2,...,11 in order.
    for (int i = 0; i < rate * sw; ++i)
        EXPECT_FLOAT_EQ(t.pop().f(), static_cast<float>(i));
}

TEST(Tape, WriteTransposeMatchesVectorConsumer)
{
    const int rate = 3, sw = 4;
    Tape t(ir::kFloat32);
    t.setWriteTranspose(TransposeSpec{true, rate, sw});
    // Scalar producer pushes logical order 0..11.
    for (int i = 0; i < rate * sw; ++i)
        t.push(fv(static_cast<float>(i)));
    // The vectorized consumer's j-th vpop must be the pack of pop
    // site j: lanes {j, rate + j, 2*rate + j, 3*rate + j}.
    for (int j = 0; j < rate; ++j) {
        Value v = t.vpop(sw);
        for (int f = 0; f < sw; ++f)
            EXPECT_FLOAT_EQ(v.f(f), static_cast<float>(f * rate + j));
    }
}

TEST(Tape, TransposeGuards)
{
    Tape t(ir::kFloat32);
    t.setWriteTranspose(TransposeSpec{true, 2, 4});
    EXPECT_THROW(t.rpush(fv(1), 0), PanicError);
    Value v = Value::zero(ir::Type{ir::Scalar::Float32, 4});
    EXPECT_THROW(t.vpush(v), PanicError);
}

TEST(Tape, CaptureBufferSeesConsumptionOrder)
{
    Tape t(ir::kFloat32);
    CapturedStream seen(ir::kFloat32);
    t.setCaptureBuffer(&seen);
    for (int i = 0; i < 6; ++i)
        t.push(fv(static_cast<float>(i)));
    t.pop();
    t.vpop(4);
    ASSERT_EQ(seen.size(), 5u);
    for (int i = 0; i < 5; ++i)
        EXPECT_FLOAT_EQ(seen[i].f(), static_cast<float>(i));

    // Detaching stops capture; raw pops feed the same buffer while
    // attached. Element 5 is still queued from the pushes above.
    t.setCaptureBuffer(nullptr);
    t.pop();
    EXPECT_EQ(seen.size(), 5u);
    t.setCaptureBuffer(&seen);
    t.push(fv(6.0f));
    (void)t.popRaw();
    ASSERT_EQ(seen.size(), 6u);
    EXPECT_FLOAT_EQ(seen[5].f(), 6.0f);
}

TEST(Tape, CompactionPreservesContents)
{
    Tape t(ir::kInt32);
    // Push/pop far past the compaction threshold.
    std::int64_t next = 0;
    for (int round = 0; round < 40; ++round) {
        for (int i = 0; i < 5000; ++i)
            t.push(Value::makeInt(static_cast<std::int32_t>(next + i)));
        for (int i = 0; i < 5000; ++i) {
            ASSERT_EQ(t.pop().i(), next + i);
        }
        next += 5000;
    }
    EXPECT_EQ(t.totalPushed(), 200000);
}

} // namespace
} // namespace macross::interp
