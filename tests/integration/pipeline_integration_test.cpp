/**
 * @file
 * Cross-module integrations: SensorLife over multiple noise levels,
 * Parakeet edge detection against ground truth, and an
 * Uncertain<T>-vs-rejection-sampling comparison on a forward query.
 */

#include <gtest/gtest.h>

#include <memory>

#include "life/variants.hpp"
#include "nn/parakeet.hpp"
#include "nn/sobel.hpp"
#include "prob/model.hpp"
#include "random/gaussian.hpp"
#include "stats/precision_recall.hpp"
#include "test_util.hpp"

namespace uncertain {
namespace {

TEST(SensorLifeIntegration, SensorErrorsGrowWithNoiseLevel)
{
    core::ConditionalOptions options;
    options.sprt.maxSamples = 120;

    Rng rng = testing::testRng(281);
    life::Board board(10, 10);
    board.randomize(rng, 0.35);

    double lowNoise =
        life::runNoisyGame(board, life::SensorLife(0.05, options), 5,
                           rng)
            .errorRate();
    double highNoise =
        life::runNoisyGame(board, life::SensorLife(0.45, options), 5,
                           rng)
            .errorRate();
    EXPECT_LT(lowNoise, highNoise);
    EXPECT_LT(lowNoise, 0.02);
}

TEST(ParakeetIntegration, PrecisionRisesWithTheEvidenceThreshold)
{
    Rng rng = testing::testRng(282);
    nn::Dataset train = nn::makeSobelDataset(800, rng);
    nn::ParakeetOptions options;
    options.sgd.epochs = 120;
    options.hmc.burnIn = 150;
    options.hmc.thinning = 4;
    options.hmc.posteriorSamples = 40;
    options.hmcDataLimit = 400;
    auto model = nn::Parakeet::train(train, options, rng);

    nn::Dataset eval = nn::makeSobelDataset(250, rng);
    core::ConditionalOptions conditional;
    conditional.sprt.maxSamples = 200;

    auto evaluateAt = [&](double alpha) {
        stats::ConfusionMatrix matrix;
        for (std::size_t i = 0; i < eval.size(); ++i) {
            bool truth = eval.targets[i] > nn::kEdgeThreshold;
            auto evidence =
                model.predict(eval.inputs[i]) > nn::kEdgeThreshold;
            matrix.add(truth, evidence.pr(alpha, conditional, rng));
        }
        return matrix;
    };

    auto lax = evaluateAt(0.15);
    auto strict = evaluateAt(0.9);
    // Figure 16's trade-off: stricter evidence -> higher precision,
    // lower (or equal) recall.
    EXPECT_GE(strict.precision(), lax.precision());
    EXPECT_LE(strict.recall(), lax.recall());
    // And the detector must actually work at all.
    EXPECT_GT(lax.recall(), 0.5);
}

TEST(BaselineIntegration, ForwardQueriesAreCheapForUncertainT)
{
    // The alarm model's *forward* marginal Pr[phoneWorking] needs no
    // conditioning; Uncertain<T> answers it with a handful of SPRT
    // samples, while the posterior query pays 1/Pr[alarm] per sample
    // in rejection sampling. This is the efficiency asymmetry of
    // paper section 6.
    Rng rng = testing::testRng(283);

    auto phoneWorking = Uncertain<bool>::fromSampler(
        [](Rng& r) {
            bool earthquake = r.nextBool(0.0001);
            return earthquake ? r.nextBool(0.7) : r.nextBool(0.99);
        },
        "phoneWorking");
    core::ConditionalOptions options;
    auto result = phoneWorking.evaluate(0.5, options, rng);
    EXPECT_EQ(result.decision, stats::TestDecision::AcceptAlternative);
    EXPECT_LT(result.samplesUsed, 200u);

    auto posterior = prob::rejectionQuery(prob::alarmModel, 100, rng);
    EXPECT_GT(posterior.simulations, 10000u);
    EXPECT_GT(static_cast<double>(posterior.simulations)
                  / static_cast<double>(result.samplesUsed),
              100.0);
}

TEST(EndToEnd, CompoundComputationThroughEveryOperator)
{
    // One expression exercising arithmetic, comparison, logical ops,
    // expected value, and conditionals together.
    Rng rng = testing::testRng(284);
    auto a = core::fromDistribution(
        std::make_shared<random::Gaussian>(2.0, 0.5));
    auto b = core::fromDistribution(
        std::make_shared<random::Gaussian>(3.0, 0.5));

    auto expr = (a * 2.0 + b) / 2.0 - 1.0; // mean (4 + 3)/2 - 1 = 2.5
    EXPECT_NEAR(expr.expectedValue(20000, rng), 2.5, 0.05);

    auto inBand = (expr > 2.0) && (expr < 3.0);
    core::ConditionalOptions options;
    EXPECT_TRUE(inBand.pr(0.5, options, rng));
    EXPECT_FALSE((!inBand).pr(0.5, options, rng));
}

} // namespace
} // namespace uncertain
