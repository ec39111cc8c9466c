/** @file Engine and Rng facade unit tests. */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "stat_assert.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace uncertain {
namespace {

TEST(SplitMix64, IsDeterministicForASeed)
{
    SplitMix64 a(42);
    SplitMix64 b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge)
{
    SplitMix64 a(1);
    SplitMix64 b(2);
    int differing = 0;
    for (int i = 0; i < 64; ++i)
        differing += a.next() != b.next() ? 1 : 0;
    EXPECT_GE(differing, 60);
}

TEST(Xoshiro256, IsDeterministicForASeed)
{
    Xoshiro256StarStar a(7);
    Xoshiro256StarStar b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro256, JumpProducesDisjointPrefix)
{
    Xoshiro256StarStar a(7);
    Xoshiro256StarStar b(7);
    b.jump();
    std::set<std::uint64_t> fromA;
    for (int i = 0; i < 1000; ++i)
        fromA.insert(a.next());
    for (int i = 0; i < 1000; ++i)
        EXPECT_FALSE(fromA.count(b.next()));
}

TEST(Pcg32, IsDeterministicForASeed)
{
    Pcg32 a(99, 3);
    Pcg32 b(99, 3);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Pcg32, StreamsDiffer)
{
    Pcg32 a(99, 3);
    Pcg32 b(99, 4);
    int differing = 0;
    for (int i = 0; i < 64; ++i)
        differing += a.next() != b.next() ? 1 : 0;
    EXPECT_GE(differing, 60);
}

TEST(Rng, NextDoubleIsInHalfOpenUnitInterval)
{
    Rng rng = testing::testRng(1);
    for (int i = 0; i < 100000; ++i) {
        double u = rng.nextDouble();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, NextDoubleOpenAvoidsEndpoints)
{
    Rng rng = testing::testRng(2);
    for (int i = 0; i < 100000; ++i) {
        double u = rng.nextDoubleOpen();
        EXPECT_GT(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, NextDoubleIsUniformByChiSquare)
{
    Rng rng = testing::testRng(3);
    std::vector<std::size_t> counts(20, 0);
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        auto bin = static_cast<std::size_t>(rng.nextDouble() * 20.0);
        ++counts[bin];
    }
    std::vector<double> expected(20, 1.0);
    EXPECT_TRUE(testing::chiSquareMatches(counts, expected, 1e-4));
}

TEST(Rng, NextBelowStaysBelowBound)
{
    Rng rng = testing::testRng(4);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBelow(7), 7u);
}

TEST(Rng, NextBelowCoversAllResidues)
{
    Rng rng = testing::testRng(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextBelow(5));
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextBelowRejectsZeroBound)
{
    Rng rng = testing::testRng(6);
    EXPECT_THROW(rng.nextBelow(0), Error);
}

TEST(Rng, FillBelowMatchesNextBelow)
{
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    for (std::uint64_t bound :
         {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
          std::uint64_t{4000}, std::uint64_t{0xffffffff},
          std::uint64_t{0x100000001}, (std::uint64_t{1} << 63) + 1,
          kMax}) {
        SCOPED_TRACE(::testing::Message() << "bound " << bound);
        Rng filled = testing::testRng(8);
        Rng called = testing::testRng(8);
        std::vector<std::uint64_t> out(1001);
        filled.fillBelow(bound, out.data(), out.size());
        for (std::size_t i = 0; i < out.size(); ++i)
            ASSERT_EQ(out[i], called.nextBelow(bound)) << "draw " << i;
        // Both engines consumed the same words, rejections included.
        EXPECT_EQ(filled.nextU64(), called.nextU64());
    }
    Rng rng = testing::testRng(8);
    std::uint64_t out = 0;
    EXPECT_THROW(rng.fillBelow(0, &out, 1), Error);
}

TEST(Rng, NextRangeRespectsBounds)
{
    Rng rng = testing::testRng(7);
    for (int i = 0; i < 10000; ++i) {
        double x = rng.nextRange(-3.0, 5.0);
        EXPECT_GE(x, -3.0);
        EXPECT_LT(x, 5.0);
    }
    EXPECT_THROW(rng.nextRange(1.0, 1.0), Error);
}

TEST(Rng, NextBoolMatchesProbability)
{
    Rng rng = testing::testRng(8);
    const int n = 100000;
    int hits = 0;
    for (int i = 0; i < n; ++i)
        hits += rng.nextBool(0.3) ? 1 : 0;
    double pHat = static_cast<double>(hits) / n;
    EXPECT_NEAR(pHat, 0.3, testing::proportionTolerance(0.3, n));
    EXPECT_THROW(rng.nextBool(1.5), Error);
}

TEST(Rng, NextBoolEdgeProbabilities)
{
    Rng rng = testing::testRng(9);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_FALSE(rng.nextBool(0.0));
        EXPECT_TRUE(rng.nextBool(1.0));
    }
}

TEST(Rng, ForkedStreamsAreUncorrelated)
{
    Rng parent = testing::testRng(10);
    Rng child = parent.fork();
    // Correlation of two long uniform streams should be ~0.
    const int n = 20000;
    double sxy = 0.0;
    double sx = 0.0;
    double sy = 0.0;
    double sxx = 0.0;
    double syy = 0.0;
    for (int i = 0; i < n; ++i) {
        double x = parent.nextDouble();
        double y = child.nextDouble();
        sx += x;
        sy += y;
        sxy += x * y;
        sxx += x * x;
        syy += y * y;
    }
    double cov = sxy / n - (sx / n) * (sy / n);
    double vx = sxx / n - (sx / n) * (sx / n);
    double vy = syy / n - (sy / n) * (sy / n);
    double corr = cov / std::sqrt(vx * vy);
    EXPECT_NEAR(corr, 0.0, 5.0 / std::sqrt(static_cast<double>(n)));
}

TEST(Rng, GlobalRngIsReseedable)
{
    seedGlobalRng(123);
    double a = globalRng().nextDouble();
    seedGlobalRng(123);
    double b = globalRng().nextDouble();
    EXPECT_EQ(a, b);
}

} // namespace
} // namespace uncertain
