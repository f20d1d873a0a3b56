/**
 * @file
 * Unit tests for src/common: address helpers, the deterministic
 * random number generators, and the JSON codec.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "common/json.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace oscache
{
namespace
{

TEST(AlignTest, AlignDownBasics)
{
    EXPECT_EQ(alignDown(0, 16), 0u);
    EXPECT_EQ(alignDown(15, 16), 0u);
    EXPECT_EQ(alignDown(16, 16), 16u);
    EXPECT_EQ(alignDown(17, 16), 16u);
    EXPECT_EQ(alignDown(0xffff, 4096), 0xf000u);
}

TEST(AlignTest, AlignUpBasics)
{
    EXPECT_EQ(alignUp(0, 16), 0u);
    EXPECT_EQ(alignUp(1, 16), 16u);
    EXPECT_EQ(alignUp(16, 16), 16u);
    EXPECT_EQ(alignUp(17, 16), 32u);
}

TEST(AlignTest, AlignRoundTripInvariant)
{
    for (Addr a = 0; a < 4096; a += 7) {
        for (Addr g : {2u, 4u, 16u, 32u, 4096u}) {
            EXPECT_LE(alignDown(a, g), a);
            EXPECT_GE(alignUp(a, g), a);
            EXPECT_EQ(alignDown(a, g) % g, 0u);
            EXPECT_EQ(alignUp(a, g) % g, 0u);
            EXPECT_LT(a - alignDown(a, g), g);
        }
    }
}

TEST(AlignTest, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_TRUE(isPowerOfTwo(4096));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_FALSE(isPowerOfTwo(4097));
}

TEST(AlignTest, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(16), 4u);
    EXPECT_EQ(floorLog2(4096), 12u);
}

TEST(RngTest, Deterministic)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 5);
}

TEST(RngTest, BelowIsInRange)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 10ull, 1000ull}) {
        for (int i = 0; i < 1000; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(RngTest, BelowCoversAllValues)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, RangeInclusive)
{
    Rng rng(13);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.range(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng rng(17);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    // Mean of U(0,1) is 0.5; with n=10000 the error is tiny.
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, ChanceExtremes)
{
    Rng rng(19);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(RngTest, ChanceFrequency)
{
    Rng rng(23);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, BurstBounds)
{
    Rng rng(29);
    for (int i = 0; i < 1000; ++i) {
        const auto b = rng.burst(0.5, 6);
        EXPECT_GE(b, 1u);
        EXPECT_LE(b, 6u);
    }
}

TEST(RngTest, SplitMixDeterministic)
{
    SplitMix64 a(99);
    SplitMix64 b(99);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

// ------------------------------------------------------- JSON codec

TEST(Json, RoundTripPreservesBytes)
{
    Json o = Json::object();
    o.set("type", "result");
    o.set("ok", true);
    o.set("attempt", std::int64_t(3));
    o.set("ratio", 0.5);
    o.set("error", "");
    Json arr = Json::array();
    arr.push(std::int64_t(-7));
    arr.push("a\"b\\c\n");
    arr.push(Json());
    o.set("list", std::move(arr));

    const std::string text = o.dump();
    Json back;
    std::string error;
    ASSERT_TRUE(Json::parse(text, back, &error)) << error;
    EXPECT_EQ(back.dump(), text) << "dump/parse/dump must be stable";
    EXPECT_EQ(back.get("type").asString(), "result");
    EXPECT_TRUE(back.get("ok").asBool());
    EXPECT_EQ(back.get("attempt").asInt(), 3);
    EXPECT_DOUBLE_EQ(back.get("ratio").asDouble(), 0.5);
    EXPECT_EQ(back.get("list").at(0).asInt(), -7);
    EXPECT_EQ(back.get("list").at(1).asString(), "a\"b\\c\n");
    EXPECT_TRUE(back.get("list").at(2).isNull());
}

TEST(Json, ParsesScalarsAndEscapes)
{
    Json v;
    ASSERT_TRUE(Json::parse("-12", v));
    EXPECT_EQ(v.asInt(), -12);
    ASSERT_TRUE(Json::parse("2.5e2", v));
    EXPECT_DOUBLE_EQ(v.asDouble(), 250.0);
    ASSERT_TRUE(Json::parse("9223372036854775807", v));
    EXPECT_EQ(v.asInt(), 9223372036854775807LL);
    ASSERT_TRUE(Json::parse("true", v));
    EXPECT_TRUE(v.asBool());
    ASSERT_TRUE(Json::parse("null", v));
    EXPECT_TRUE(v.isNull());
    ASSERT_TRUE(Json::parse("\"\\u0041\\u00e9\"", v));
    EXPECT_EQ(v.asString(), "A\xc3\xa9");
    // Surrogate pair: U+1F600.
    ASSERT_TRUE(Json::parse("\"\\ud83d\\ude00\"", v));
    EXPECT_EQ(v.asString(), "\xf0\x9f\x98\x80");
}

TEST(Json, RejectsMalformedInput)
{
    const char *bad[] = {
        "",                    // empty
        "{",                   // unterminated object
        "[1,",                 // unterminated array
        "01",                  // leading zero
        "1.",                  // digits required after point
        "1e",                  // digits required in exponent
        "tru",                 // bad literal
        "\"\\x\"",             // unknown escape
        "\"\x01\"",            // raw control character
        "{\"a\":1,}",          // trailing comma
        "{\"a\" 1}",           // missing colon
        "{1:2}",               // non-string key
        "\"\\ud800\"",         // unpaired surrogate
        "1 2",                 // trailing content
        "nullx",               // trailing content
    };
    for (const char *text : bad) {
        Json v;
        std::string error;
        EXPECT_FALSE(Json::parse(text, v, &error))
            << "accepted: " << text;
        EXPECT_FALSE(error.empty()) << text;
    }

    // Nesting past the depth cap must fail, not blow the stack.
    std::string deep(200, '[');
    Json v;
    EXPECT_FALSE(Json::parse(deep, v));
}

TEST(Json, MissingKeyChainingIsSafe)
{
    Json o = Json::object();
    const Json &leaf = o.get("a").get("b").at(4).get("c");
    EXPECT_TRUE(leaf.isNull());
    EXPECT_EQ(leaf.asInt(7), 7);
    EXPECT_EQ(o.get("nope").asString(), "");
}

} // namespace
} // namespace oscache
