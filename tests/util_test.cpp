#include "util/exec_policy.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <sstream>
#include <string>

namespace flh {
namespace {

/// The diagnostic text parseJson throws for `text`, or "" if it parses.
std::string parseError(std::string_view text, const JsonLimits& limits = {}) {
    try {
        (void)parseJson(text, limits);
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return {};
}

TEST(ParseJson, RoundTripsOwnWriterOutput) {
    JsonWriter w;
    w.beginObject();
    w.kv("name", "s27 \"quoted\"\n");
    w.kv("count", std::uint64_t{42});
    w.kv("rate", 0.125);
    w.key("tags");
    w.beginArray();
    w.value("a");
    w.value(true);
    w.endArray();
    w.endObject();

    const JsonValue v = parseJson(w.str());
    EXPECT_EQ(v.at("name").str, "s27 \"quoted\"\n");
    EXPECT_DOUBLE_EQ(v.at("count").num, 42.0);
    EXPECT_DOUBLE_EQ(v.at("rate").num, 0.125);
    EXPECT_TRUE(v.at("tags").arr.at(1).b);
}

TEST(ParseJson, TruncatedInputThrows) {
    EXPECT_NE(parseError(""), "");
    EXPECT_NE(parseError("{"), "");
    EXPECT_NE(parseError(R"({"a": [1, 2)"), "");
    EXPECT_NE(parseError(R"({"a": "unterminated)"), "");
    EXPECT_NE(parseError(R"("ends in esc \)"), "");
    EXPECT_NE(parseError(R"("short \u00)"), "");
}

TEST(ParseJson, TrailingBytesRejected) {
    EXPECT_NE(parseError("{} trailing"), "");
    EXPECT_NE(parseError("1 2"), "");
    EXPECT_EQ(parseError("{}  \n "), ""); // trailing whitespace is fine
}

TEST(ParseJson, DepthLimitBoundsNesting) {
    const std::string deep_ok(10, '[');
    EXPECT_EQ(parseError(deep_ok + std::string(10, ']'),
                         JsonLimits{.max_depth = 16}),
              "");
    const std::string too_deep(17, '[');
    const std::string msg =
        parseError(too_deep + std::string(17, ']'), JsonLimits{.max_depth = 16});
    EXPECT_NE(msg.find("nesting deeper than 16"), std::string::npos) << msg;

    // The default budget also holds against a hostile megabyte of '['.
    EXPECT_NE(parseError(std::string(1 << 20, '[')), "");
}

TEST(ParseJson, StringLimitBoundsDecodedBytes) {
    JsonLimits tight;
    tight.max_string_bytes = 8;
    EXPECT_EQ(parseError(R"("12345678")", tight), "");
    const std::string msg = parseError(R"("123456789")", tight);
    EXPECT_NE(msg.find("string longer than 8"), std::string::npos) << msg;
}

TEST(ParseJson, NumberLimitBoundsTokenLength) {
    JsonLimits tight;
    tight.max_number_chars = 6;
    EXPECT_EQ(parseError("123456", tight), "");
    EXPECT_NE(parseError("1234567", tight), "");
}

TEST(ParseJson, StrictNumberGrammar) {
    EXPECT_DOUBLE_EQ(parseJson("1.5e3").num, 1500.0);
    EXPECT_DOUBLE_EQ(parseJson("-0.25").num, -0.25);
    EXPECT_NE(parseError("01"), "");    // no leading zeros
    EXPECT_NE(parseError("+1"), "");    // no leading plus
    EXPECT_NE(parseError("1."), "");    // digits required after '.'
    EXPECT_NE(parseError("1e"), "");    // digits required in exponent
    EXPECT_NE(parseError("-"), "");
    EXPECT_NE(parseError("1e999"), ""); // out of double range
}

TEST(ParseJson, InvalidUtf8AndControlBytesRejected) {
    EXPECT_NE(parseError("\"\xff\""), "");         // invalid lead byte
    EXPECT_NE(parseError("\"\xc3\""), "");         // truncated sequence
    EXPECT_NE(parseError("\"\xc0\xaf\""), "");     // overlong form lead
    EXPECT_NE(parseError("\"a\x01b\""), "");       // raw control byte
    EXPECT_NE(parseError("\"ok \\x\""), "");       // unknown escape
    EXPECT_EQ(parseError("\"caf\xc3\xa9\""), "");  // valid two-byte UTF-8
    EXPECT_EQ(parseJson("\"caf\xc3\xa9\"").str, "caf\xc3\xa9");
}

TEST(ParseJson, ErrorsCarryByteAndLineColumnPosition) {
    const std::string msg = parseError("{\n  \"a\": nope\n}");
    EXPECT_NE(msg.find("json parse error at byte"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
}

TEST(ParseJson, ObjectAccessors) {
    const JsonValue v = parseJson(R"({"a": 1, "b": null})");
    EXPECT_TRUE(v.has("a"));
    EXPECT_FALSE(v.has("zz"));
    EXPECT_EQ(v.at("b").kind, JsonValue::Kind::Null);
    EXPECT_THROW((void)v.at("zz"), std::runtime_error);
}

TEST(Rng, Deterministic) {
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next()) ++same;
    EXPECT_EQ(same, 0);
}

TEST(Rng, BelowRespectsBound) {
    Rng r(7);
    for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, BelowOne) {
    Rng r(7);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, RangeInclusive) {
    Rng r(3);
    std::set<int> seen;
    for (int i = 0; i < 1000; ++i) {
        const int v = r.range(-2, 3);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 6u); // all values hit
}

TEST(Rng, UniformInUnitInterval) {
    Rng r(11);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
    Rng r(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, BernoulliMaskMatchesChance) {
    // Bit for bit the mask of 64 chance(p) draws, and the same generator
    // state afterwards, at the extremes of (0, 1) and at rates with and
    // without an exact 53-bit threshold.
    for (const double p : {0x1.0p-53, 0.1, 0.3, 1.0 / 3.0, 0.85, 1.0 - 0x1.0p-53}) {
        for (const std::uint64_t seed : {1ULL, 99ULL, 2024ULL}) {
            Rng mask_rng(seed), chance_rng(seed);
            for (int round = 0; round < 200; ++round) {
                std::uint64_t want = 0;
                for (int i = 0; i < 64; ++i)
                    if (chance_rng.chance(p)) want |= 1ULL << i;
                ASSERT_EQ(mask_rng.bernoulliMask(p), want) << "p " << p << " round " << round;
            }
            EXPECT_EQ(mask_rng.next(), chance_rng.next()) << "p " << p;
        }
    }
    // Out of (0, 1) the mask is constant and draws nothing.
    Rng r(5), untouched(5);
    EXPECT_EQ(r.bernoulliMask(0.0), 0u);
    EXPECT_EQ(r.bernoulliMask(-1.0), 0u);
    EXPECT_EQ(r.bernoulliMask(1.0), ~0ULL);
    EXPECT_EQ(r.bernoulliMask(2.0), ~0ULL);
    EXPECT_EQ(r.next(), untouched.next());
}

TEST(Rng, ShufflePreservesElements) {
    Rng r(9);
    std::vector<int> v(50);
    std::iota(v.begin(), v.end(), 0);
    auto w = v;
    r.shuffle(w);
    EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), w.begin()));
    EXPECT_NE(v, w); // astronomically unlikely to be identity
}

TEST(Rng, WeightedRespectsZeroWeights) {
    Rng r(13);
    const std::vector<double> w = {0.0, 1.0, 0.0};
    for (int i = 0; i < 200; ++i) EXPECT_EQ(r.weighted(w), 1u);
}

TEST(Rng, WeightedProportions) {
    Rng r(17);
    const std::vector<double> w = {1.0, 3.0};
    int hits1 = 0;
    for (int i = 0; i < 10000; ++i)
        if (r.weighted(w) == 1) ++hits1;
    EXPECT_NEAR(hits1 / 10000.0, 0.75, 0.03);
}

TEST(Strings, Trim) {
    EXPECT_EQ(trim("  abc  "), "abc");
    EXPECT_EQ(trim("abc"), "abc");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("\t a b \n"), "a b");
}

TEST(Strings, SplitTrim) {
    const auto parts = splitTrim(" a , b ,, c ", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "b");
    EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitTrimEmpty) {
    EXPECT_TRUE(splitTrim("", ',').empty());
    EXPECT_TRUE(splitTrim(" , , ", ',').empty());
}

TEST(Strings, ToUpperAndStartsWith) {
    EXPECT_EQ(toUpper("aBc9"), "ABC9");
    EXPECT_TRUE(startsWith("INPUT(G0)", "INPUT"));
    EXPECT_FALSE(startsWith("IN", "INPUT"));
}

TEST(Table, RendersAligned) {
    TextTable t({"a", "bbbb"});
    t.addRow({"xx", "y"});
    const std::string s = t.render();
    EXPECT_NE(s.find("| a  | bbbb |"), std::string::npos);
    EXPECT_NE(s.find("| xx | y    |"), std::string::npos);
}

TEST(Table, ShortRowsPadded) {
    TextTable t({"a", "b", "c"});
    t.addRow({"1"});
    EXPECT_EQ(t.rowCount(), 1u);
    EXPECT_NE(t.render().find("| 1 |"), std::string::npos);
}

TEST(Table, Fmt) {
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmt(-0.5, 1), "-0.5");
    EXPECT_EQ(fmtPct(0.333, 1), "33.3");
}

TEST(Table, Csv) {
    std::ostringstream os;
    writeCsv(os, {"x", "y"}, {{"1", "2"}, {"3", "4"}});
    EXPECT_EQ(os.str(), "x,y\n1,2\n3,4\n");
}

TEST(ExecPolicy, ExplicitThreadCountClampedByWorkFloor) {
    ExecPolicy p;
    p.threads = 8;
    p.min_items_per_worker = 64;
    EXPECT_EQ(p.resolveThreads(100000), 8u);
    EXPECT_EQ(p.resolveThreads(64 * 3), 3u); // floor shrinks the pool
    EXPECT_EQ(p.resolveThreads(10), 1u);
    EXPECT_EQ(p.resolveThreads(0), 1u); // never zero workers
}

TEST(ExecPolicy, AutoThreadsFollowsHardware) {
    ExecPolicy p;
    p.threads = 0; // auto
    p.min_items_per_worker = 1;
    const unsigned hw = ExecPolicy::hardwareThreads();
    EXPECT_GE(hw, 1u); // guarded even where hardware_concurrency() == 0
    EXPECT_EQ(p.resolveThreads(1u << 20), hw);
    EXPECT_EQ(p.resolveThreads(1), 1u);
}

TEST(ExecPolicy, ZeroFloorMeansNoWorkBasedClamp) {
    // min_items_per_worker == 0 must not divide by zero: it disables the
    // work-based clamp entirely.
    ExecPolicy p;
    p.threads = 6;
    p.min_items_per_worker = 0;
    EXPECT_EQ(p.resolveThreads(1), 6u);
    EXPECT_EQ(p.resolveThreads(0), 6u);
    EXPECT_EQ(p.resolveThreads(100000), 6u);
}

TEST(ExecPolicy, DefaultIsSerial) {
    const ExecPolicy p;
    EXPECT_EQ(p.resolveThreads(100000), 1u);
}

TEST(Stats, PercentileSortedEmptyAndSingle) {
    EXPECT_EQ(stats::percentileSorted(std::vector<double>{}, 0.5), 0.0);
    EXPECT_EQ(stats::percentileSorted({7.5}, 0.0), 7.5);
    EXPECT_EQ(stats::percentileSorted({7.5}, 0.5), 7.5);
    EXPECT_EQ(stats::percentileSorted({7.5}, 1.0), 7.5);
}

TEST(Stats, PercentileSortedInterpolatesLinearly) {
    // NumPy "linear" convention: rank = p * (n - 1), lerp between the
    // bracketing samples.
    const std::vector<double> v = {10.0, 20.0, 30.0, 40.0};
    EXPECT_DOUBLE_EQ(stats::percentileSorted(v, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(stats::percentileSorted(v, 0.5), 25.0);  // rank 1.5
    EXPECT_DOUBLE_EQ(stats::percentileSorted(v, 0.25), 17.5); // rank 0.75
    EXPECT_DOUBLE_EQ(stats::percentileSorted(v, 1.0), 40.0);
}

TEST(Stats, PercentileSortedClampsP) {
    const std::vector<double> v = {1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(stats::percentileSorted(v, -0.5), 1.0);
    EXPECT_DOUBLE_EQ(stats::percentileSorted(v, 2.0), 3.0);
}

TEST(Stats, MedianSortedMatchesHalvesConvention) {
    EXPECT_DOUBLE_EQ(stats::medianSorted({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(stats::medianSorted({1.0, 2.0, 3.0, 4.0}), 2.5);
    EXPECT_EQ(stats::medianSorted(std::vector<double>{}), 0.0);
}

} // namespace
} // namespace flh
