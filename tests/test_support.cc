/**
 * @file
 * Unit tests for the support layer: formatting, RNG, statistics,
 * tables and string helpers.
 */

#include <climits>

#include <gtest/gtest.h>

#include "support/diag.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/strings.h"
#include "support/table.h"

namespace dms {
namespace {

TEST(Strfmt, FormatsLikePrintf)
{
    EXPECT_EQ(strfmt("a%db", 7), "a7b");
    EXPECT_EQ(strfmt("%s-%s", "x", "y"), "x-y");
    EXPECT_EQ(strfmt("%.2f", 1.5), "1.50");
}

TEST(Strfmt, EmptyAndLong)
{
    EXPECT_EQ(strfmt("%s", ""), "");
    std::string big(500, 'z');
    EXPECT_EQ(strfmt("%s", big.c_str()), big);
    // Past any on-stack first attempt, with conversions on both
    // sides of the boundary.
    std::string huge(5000, 'q');
    EXPECT_EQ(strfmt("<%s>%d%s!", huge.c_str(), -123456, huge.c_str()),
              "<" + huge + ">-123456" + huge + "!");
    for (int n : {511, 512, 513, 1023, 1024, 1025}) {
        std::string s(static_cast<size_t>(n), 'a');
        EXPECT_EQ(strfmt("%s", s.c_str()), s) << n;
        EXPECT_EQ(strfmt("%s%d", s.c_str(), 9), s + "9") << n;
    }
}

TEST(Rng, Deterministic)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, RangeInclusiveBounds)
{
    Rng r(7);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        int v = r.range(3, 6);
        ASSERT_GE(v, 3);
        ASSERT_LE(v, 6);
        saw_lo |= v == 3;
        saw_hi |= v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, SingletonRange)
{
    Rng r(9);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(r.range(5, 5), 5);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(11);
    double sum = 0.0;
    for (int i = 0; i < 4000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 4000.0, 0.5, 0.03);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(13);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, PickWeightedRespectsWeights)
{
    Rng r(17);
    std::vector<double> w{0.0, 1.0, 3.0};
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 6000; ++i)
        ++counts[r.pickWeighted(w)];
    EXPECT_EQ(counts[0], 0);
    EXPECT_GT(counts[2], counts[1]);
    EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0,
                0.5);
}

TEST(Rng, ForkIndependent)
{
    Rng a(21);
    Rng fork = a.fork();
    EXPECT_NE(a.next(), fork.next());
}

TEST(Accumulator, BasicMoments)
{
    Accumulator acc;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        acc.add(v);
    EXPECT_EQ(acc.count(), 8u);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 9.0);
    EXPECT_NEAR(acc.stddev(), 2.138, 0.001);
}

TEST(Accumulator, EmptyAndSingle)
{
    Accumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
    acc.add(3.5);
    EXPECT_DOUBLE_EQ(acc.mean(), 3.5);
    EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
}

TEST(Histogram, BucketsAndClamping)
{
    Histogram h(0, 10, 3); // [0,10) [10,20) [20,30)
    h.add(-5);
    h.add(0);
    h.add(9);
    h.add(10);
    h.add(25);
    h.add(99);
    EXPECT_EQ(h.total(), 6u);
    EXPECT_EQ(h.bucketCount(0), 3u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 2u);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.5);
    EXPECT_EQ(h.bucketLabel(1), "[10,20)");
}

TEST(Table, AsciiAlignsColumns)
{
    Table t("demo");
    t.header({"a", "bee"});
    t.row({"1", "2"});
    t.row({"333", "4"});
    std::string s = t.ascii();
    EXPECT_NE(s.find("== demo =="), std::string::npos);
    EXPECT_NE(s.find("333"), std::string::npos);
    EXPECT_NE(s.find("bee"), std::string::npos);
}

TEST(Table, CsvRoundTrip)
{
    Table t("");
    t.header({"x", "y"});
    t.row({"1", "2"});
    EXPECT_EQ(t.csv(), "x,y\n1,2\n");
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(Table::num(3), "3");
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::pct(0.256), "25.6%");
}

TEST(Strings, Split)
{
    auto v = split("a,b,,c", ',');
    ASSERT_EQ(v.size(), 4u);
    EXPECT_EQ(v[0], "a");
    EXPECT_EQ(v[2], "");
    EXPECT_EQ(v[3], "c");
}

TEST(Strings, JoinAndTrim)
{
    EXPECT_EQ(join({"a", "b"}, "+"), "a+b");
    EXPECT_EQ(join({}, "+"), "");
    EXPECT_EQ(trim("  x y\t"), "x y");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trimView("\r\v a b \f"), "a b");
}

TEST(Strings, AppendIntPadsLikePrintf)
{
    std::string s = "x";
    appendInt(s, 7, 3);
    appendInt(s, -5, 3);
    appendInt(s, 1234, 2);
    appendInt(s, 0);
    appendInt(s, LLONG_MIN);
    EXPECT_EQ(s, strfmt("x%3d%3d%2d%d%lld", 7, -5, 1234, 0, LLONG_MIN));
    s.clear();
    append(s, "op ", 12, ' ', std::string("add"), " lit=", -3L, '\n');
    EXPECT_EQ(s, "op 12 add lit=-3\n");
}

TEST(Strings, ParseInt)
{
    int v = -1;
    EXPECT_TRUE(parseInt("42", v));
    EXPECT_EQ(v, 42);
    EXPECT_TRUE(parseInt(" 7 ", v));
    EXPECT_EQ(v, 7);
    EXPECT_FALSE(parseInt("x", v));
    EXPECT_FALSE(parseInt("", v));
    EXPECT_FALSE(parseInt("3x", v));
    // strtol's grammar: surrounding whitespace, a leading sign, and
    // "-0" as a non-negative value.
    EXPECT_TRUE(parseInt("+7", v));
    EXPECT_EQ(v, 7);
    EXPECT_TRUE(parseInt("\t 7\n", v));
    EXPECT_EQ(v, 7);
    EXPECT_TRUE(parseInt("-0", v));
    EXPECT_EQ(v, 0);
    EXPECT_TRUE(parseInt("007", v));
    EXPECT_EQ(v, 7);
    EXPECT_TRUE(parseInt("2147483647", v));
    EXPECT_EQ(v, 2147483647);
    EXPECT_FALSE(parseInt("2147483648", v));
    EXPECT_FALSE(parseInt("-1", v));
    EXPECT_FALSE(parseInt("+", v));
    EXPECT_FALSE(parseInt("+-1", v));
    EXPECT_FALSE(parseInt("1 2", v));
    EXPECT_FALSE(parseInt("0x10", v));
    EXPECT_FALSE(parseInt("   ", v));
    // Only the view's own characters count, and an embedded NUL
    // ends the number the way it ends a C string.
    EXPECT_TRUE(parseInt(std::string_view("123", 2), v));
    EXPECT_EQ(v, 12);
    EXPECT_TRUE(parseInt(std::string_view("5\0x", 3), v));
    EXPECT_EQ(v, 5);
    EXPECT_FALSE(parseInt(std::string_view("\0" "5", 2), v));
}

TEST(Strings, ParseSignedInt)
{
    int v = 0;
    EXPECT_TRUE(parseSignedInt("-17", v));
    EXPECT_EQ(v, -17);
    EXPECT_TRUE(parseSignedInt("42", v));
    EXPECT_EQ(v, 42);
    EXPECT_TRUE(parseSignedInt(" -3 ", v));
    EXPECT_EQ(v, -3);
    EXPECT_FALSE(parseSignedInt("-", v));
    EXPECT_FALSE(parseSignedInt("-3x", v));
    EXPECT_FALSE(parseSignedInt("", v));
    // Overflow in both directions is rejected, not clamped.
    EXPECT_FALSE(parseSignedInt("99999999999999", v));
    EXPECT_FALSE(parseSignedInt("-99999999999999", v));
    EXPECT_TRUE(parseSignedInt("+7", v));
    EXPECT_EQ(v, 7);
    EXPECT_TRUE(parseSignedInt("-2147483648", v));
    EXPECT_EQ(v, -2147483647 - 1);
    EXPECT_FALSE(parseSignedInt("-2147483649", v));
    EXPECT_FALSE(parseSignedInt("2147483648", v));
    EXPECT_FALSE(parseSignedInt("--1", v));
}

TEST(Samples, PercentilesNearestRank)
{
    Samples s;
    EXPECT_EQ(s.percentile(50), 0.0);
    EXPECT_EQ(s.mean(), 0.0);
    for (int i = 100; i >= 1; --i)
        s.add(i); // 1..100, reverse insertion order
    EXPECT_EQ(s.count(), 100u);
    EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(s.percentile(99), 99.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 100.0);
    EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(Samples, ReservoirCapBoundsMemoryKeepsExactMoments)
{
    Samples s(10);
    for (int i = 1; i <= 1000; ++i)
        s.add(i);
    // count/mean/max are exact over everything added; percentiles
    // come from the 10-sample reservoir but stay in range.
    EXPECT_EQ(s.count(), 1000u);
    EXPECT_DOUBLE_EQ(s.mean(), 500.5);
    EXPECT_DOUBLE_EQ(s.max(), 1000.0);
    double p50 = s.percentile(50);
    EXPECT_GE(p50, 1.0);
    EXPECT_LE(p50, 1000.0);
}

} // namespace
} // namespace dms
