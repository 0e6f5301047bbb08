/**
 * @file
 * Unit tests for interp::CapturedStream: raw-lane storage, boxing on
 * request, and lane-wise prefix comparison.
 */
#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "interp/captured_stream.h"

namespace macross::interp {
namespace {

TEST(CapturedStream, BoxesIntLanesRoundTrip)
{
    CapturedStream s(ir::kInt32);
    for (std::int32_t v : {0, -1, 7, INT32_MIN, INT32_MAX})
        s.push(static_cast<std::uint32_t>(v));
    ASSERT_EQ(s.size(), 5u);
    EXPECT_EQ(s[0], Value::makeInt(0));
    EXPECT_EQ(s[1], Value::makeInt(-1));
    EXPECT_EQ(s[3].i(), INT32_MIN);
    EXPECT_EQ(s[4].i(), INT32_MAX);
    EXPECT_EQ(s[2].type(), ir::kInt32);
    EXPECT_EQ(s.lanes()[1], 0xffffffffu);
}

TEST(CapturedStream, BoxesFloatLanesRoundTripBitExactly)
{
    CapturedStream s(ir::kFloat32);
    const float nan = std::bit_cast<float>(0x7fc00123u);
    for (float v : {1.5f, -0.0f, nan})
        s.push(std::bit_cast<std::uint32_t>(v));
    EXPECT_EQ(s[0], Value::makeFloat(1.5f));
    EXPECT_EQ(s[1].rawBits(0), 0x80000000u);  // -0.0f, sign kept.
    EXPECT_EQ(s[2].rawBits(0), 0x7fc00123u);  // NaN payload kept.
    EXPECT_EQ(s[2].type(), ir::kFloat32);
    // Only lane 0 is set: every sink is scalar.
    EXPECT_EQ(s[0].lanes(), 1);
    EXPECT_EQ(s[0].rawBits(1), 0u);
}

TEST(CapturedStream, PrefixComparesTypeAndLanes)
{
    CapturedStream full(ir::kInt32);
    CapturedStream prefix(ir::kInt32);
    for (std::uint32_t i = 0; i < 10; ++i) {
        full.push(i * 3);
        if (i < 6)
            prefix.push(i * 3);
    }
    EXPECT_TRUE(prefix.isPrefixOf(full));
    EXPECT_TRUE(full.isPrefixOf(full));
    EXPECT_FALSE(full.isPrefixOf(prefix));  // Longer than the stream.
    EXPECT_TRUE(CapturedStream(ir::kInt32).isPrefixOf(full));

    CapturedStream wrong = prefix;
    wrong.push(999);  // Element 6 differs from full's 18.
    EXPECT_FALSE(wrong.isPrefixOf(full));
    // Elements before `from` are taken as verified: only 6.. compare.
    EXPECT_FALSE(wrong.isPrefixOf(full, 6));
    EXPECT_TRUE(prefix.isPrefixOf(full, 6));

    // Same bits, different element type: not the same stream.
    CapturedStream asFloat(ir::kFloat32);
    for (std::uint32_t lane : prefix.lanes())
        asFloat.push(lane);
    EXPECT_FALSE(asFloat.isPrefixOf(full));
    EXPECT_FALSE(asFloat == prefix);
    EXPECT_TRUE(asFloat.lanes() == prefix.lanes());
}

TEST(CapturedStream, ConvertsToBoxedVector)
{
    CapturedStream s(ir::kFloat32);
    for (float v : {0.25f, 2.0f, -8.5f})
        s.push(std::bit_cast<std::uint32_t>(v));

    const std::vector<Value> boxed = s;  // Implicit conversion.
    ASSERT_EQ(boxed.size(), 3u);
    for (std::size_t i = 0; i < boxed.size(); ++i)
        EXPECT_EQ(boxed[i], s[i]);
    EXPECT_EQ(boxed, s.boxed());

    // The iterator boxes too, and supports prefix slicing.
    const std::vector<Value> head(s.begin(), s.begin() + 2);
    ASSERT_EQ(head.size(), 2u);
    EXPECT_FLOAT_EQ(head[1].f(), 2.0f);
    float sum = 0.0f;
    for (const Value& v : s)
        sum += v.f();
    EXPECT_FLOAT_EQ(sum, -6.25f);

    s.clear();
    EXPECT_TRUE(s.empty());
    EXPECT_TRUE(static_cast<std::vector<Value>>(s).empty());
}

} // namespace
} // namespace macross::interp
