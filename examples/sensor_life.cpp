/**
 * @file
 * SensorLife (paper section 5.2): Conway's Game of Life played
 * through noisy sensors, comparing the naive, uncertain, and
 * Bayesian implementations live.
 *
 *   ./sensor_life [--sigma S] [--generations N]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "life/variants.hpp"

using namespace uncertain;
using namespace uncertain::life;

int
main(int argc, char** argv)
{
    double sigma = 0.2;
    std::size_t generations = 8;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--sigma") == 0)
            sigma = std::atof(argv[i + 1]);
        if (std::strcmp(argv[i], "--generations") == 0)
            generations = static_cast<std::size_t>(
                std::atoi(argv[i + 1]));
    }

    Rng rng(7);
    Board initial(16, 16);
    initial.randomize(rng, 0.35);

    std::printf("Game of Life through sensors with N(0, %.2f) noise, "
                "%zu generations\n\n",
                sigma, generations);
    std::printf("Initial board:\n%s\n", initial.render().c_str());

    core::ConditionalOptions options;
    options.sprt.maxSamples = 160;

    NaiveLife naive(sigma);
    SensorLife sensor(sigma, options);
    BayesLife bayes(sigma, options);
    const LifeVariant* variants[] = {&naive, &sensor, &bayes};

    std::printf("%-12s %14s %18s\n", "variant", "error rate",
                "samples/update");
    for (const LifeVariant* variant : variants) {
        Rng variantRng(99); // same noise realization for fairness
        RunStats stats =
            runNoisyGame(initial, *variant, generations, variantRng);
        std::printf("%-12s %13.2f%% %18.1f\n",
                    variant->name().c_str(), 100.0 * stats.errorRate(),
                    stats.samplesPerUpdate());
    }

    std::printf("\nBoards after %zu noisy generations (vs. exact):\n",
                generations);
    Board exact = initial;
    for (std::size_t g = 0; g < generations; ++g)
        exact = exact.stepExact();

    Board noisy = initial;
    Rng runRng(99);
    for (std::size_t g = 0; g < generations; ++g)
        stepNoisy(noisy, bayes, runRng);

    std::printf("exact:\n%s\nBayesLife:\n%s", exact.render().c_str(),
                noisy.render().c_str());
    return 0;
}
