/**
 * @file
 * Parameterized sweep over every conditional-evaluation strategy x
 * threshold: all strategies must agree on clear-cut questions, and
 * the sequential ones must respect their sample budgets.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>

#include "core/core.hpp"
#include "test_util.hpp"

namespace uncertain {
namespace core {
namespace {

struct StrategyCase
{
    std::string label;
    ConditionalStrategy strategy;
};

// gtest_discover_tests puts the printed parameter into each ctest
// name. Without this, gtest dumps the raw bytes of the std::string,
// whose first word is a heap address.
void
PrintTo(const StrategyCase& c, std::ostream* os)
{
    *os << c.label;
}

using Param = std::tuple<StrategyCase, double>; // strategy, threshold

class ConditionalStrategySweep
    : public ::testing::TestWithParam<Param>
{
  protected:
    ConditionalOptions
    options() const
    {
        ConditionalOptions o;
        o.strategy = std::get<0>(GetParam()).strategy;
        o.sprt.maxSamples = 2000;
        o.fixedSamples = 500;
        return o;
    }

    double threshold() const { return std::get<1>(GetParam()); }
};

TEST_P(ConditionalStrategySweep, CertainEventAlwaysPasses)
{
    Rng rng = testing::testRng(431);
    auto sure = Uncertain<bool>::fromSampler(
        [](Rng&) { return true; }, "always");
    EXPECT_TRUE(sure.pr(threshold(), options(), rng));
}

TEST_P(ConditionalStrategySweep, ImpossibleEventNeverPasses)
{
    Rng rng = testing::testRng(432);
    auto never = Uncertain<bool>::fromSampler(
        [](Rng&) { return false; }, "never");
    EXPECT_FALSE(never.pr(threshold(), options(), rng));
}

TEST_P(ConditionalStrategySweep, ClearMarginsDecideCorrectly)
{
    Rng rng = testing::testRng(433);
    double t = threshold();
    // p well above / below the threshold (outside any indifference
    // band).
    double pHigh = std::min(0.98, t + 0.25);
    double pLow = std::max(0.02, t - 0.25);
    if (pHigh > t + 0.12) {
        auto likely = Uncertain<bool>::fromSampler(
            [pHigh](Rng& r) { return r.nextBool(pHigh); }, "likely");
        EXPECT_TRUE(likely.pr(t, options(), rng))
            << "p=" << pHigh << " t=" << t;
    }
    if (pLow < t - 0.12) {
        auto unlikely = Uncertain<bool>::fromSampler(
            [pLow](Rng& r) { return r.nextBool(pLow); }, "unlikely");
        EXPECT_FALSE(unlikely.pr(t, options(), rng))
            << "p=" << pLow << " t=" << t;
    }
}

TEST_P(ConditionalStrategySweep, SampleBudgetIsRespected)
{
    Rng rng = testing::testRng(434);
    auto coin = Uncertain<bool>::fromSampler(
        [](Rng& r) { return r.nextBool(0.5); }, "coin");
    auto result = coin.evaluate(threshold(), options(), rng);
    std::size_t budget =
        options().strategy == ConditionalStrategy::FixedSample
            ? options().fixedSamples
            : options().sprt.maxSamples;
    EXPECT_LE(result.samplesUsed, budget);
    EXPECT_GE(result.samplesUsed, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesAndThresholds, ConditionalStrategySweep,
    ::testing::Combine(
        ::testing::Values(
            StrategyCase{"sprt", ConditionalStrategy::Sprt},
            StrategyCase{"groupseq",
                         ConditionalStrategy::GroupSequential},
            StrategyCase{"fixed", ConditionalStrategy::FixedSample}),
        ::testing::Values(0.2, 0.5, 0.8, 0.95)),
    [](const ::testing::TestParamInfo<Param>& info) {
        auto threshold = static_cast<int>(
            std::get<1>(info.param) * 100.0);
        return std::get<0>(info.param).label + "_t"
               + std::to_string(threshold);
    });

} // namespace
} // namespace core
} // namespace uncertain
