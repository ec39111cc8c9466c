/**
 * @file
 * Figure 11: the GPS posterior is a Rayleigh distribution over the
 * Earth's surface — the true location is *unlikely* to be at the
 * reported center, and most likely at a fixed radius from it.
 *
 * On top of the shape exposition, this harness times the full
 * posterior-improvement pipeline built on that GPS model (the
 * section 5.1 chain behind Figure 13): speed from two fixes,
 * SIR-reweighted by the walking prior, then a downstream
 * distance-projection and a conditional over the posterior.
 * Axes:
 *   --engine {tree,batch}            per-sample walk vs columnar plans
 *   --scheme {multinomial,systematic} SIR resampling scheme
 *   --backend {auto,simd,scalar}     execution backend for the batch
 *                                    plans' strips
 *   --json FILE                      google-benchmark-style JSON for
 *                                    scripts/bench_compare.py
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/batch.hpp"
#include "gps/gps_library.hpp"
#include "gps/walking.hpp"
#include "random/rayleigh.hpp"
#include "stats/histogram.hpp"

using namespace uncertain;
using namespace uncertain::gps;

int
main(int argc, char** argv)
{
    bench::banner("Figure 11: the GPS posterior "
                  "Rayleigh(eps / sqrt(ln 400))");
    bool paper = bench::hasFlag(argc, argv, "--paper");
    std::string engine = bench::engineFlag(argc, argv);
    std::string schemeName =
        bench::stringFlag(argc, argv, "--scheme", "multinomial");
    if (schemeName != "multinomial" && schemeName != "systematic") {
        std::fprintf(stderr,
                     "unknown --scheme '%s' (expected multinomial or "
                     "systematic)\n",
                     schemeName.c_str());
        return 2;
    }
    std::string jsonPath = bench::stringFlag(argc, argv, "--json", "");
    const simd::ExecBackend backend =
        bench::applyBackend(bench::backendFlag(argc, argv));
    const std::size_t n = paper ? 500000 : 80000;
    const double epsilon = 4.0;

    auto radial = random::Rayleigh::fromHorizontalAccuracy(epsilon);
    std::printf("horizontal accuracy eps:   %.1f m (95%% radius)\n",
                epsilon);
    std::printf("Rayleigh scale rho:        %.3f m "
                "(= eps / sqrt(ln 400))\n",
                radial.rho());
    std::printf("density mode (peak):       %.3f m from the center\n",
                radial.mode());
    std::printf("mean radial error:         %.3f m\n", radial.mean());
    std::printf("Pr[within eps]:            %.4f (by construction "
                "0.95)\n",
                radial.cdf(epsilon));
    std::printf("Pr[within 0.5 m of center]: %.4f -- the center is "
                "an unlikely place\n\n",
                radial.cdf(0.5));

    // Radial histogram of posterior samples from the library.
    GeoCoordinate center{47.62, -122.35};
    auto location = getLocation({center, epsilon, 0.0});
    Rng rng(11);
    stats::Histogram histogram(0.0, 8.0, 24);
    for (const auto& sample : location.takeSamples(n, rng))
        histogram.add(distanceMeters(center, sample));
    std::printf("radial distance from the reported fix (m):\n%s",
                histogram.render(44).c_str());
    std::printf("\nShape check: density rises from zero, peaks near "
                "rho = %.2f m, decays —\nnot a bell curve centered at "
                "the fix.\n\n",
                radial.mode());

    // ------------------------------------------------------------------
    // Posterior-improvement pipeline timing (--engine axis).
    // ------------------------------------------------------------------
    const std::size_t iterations = paper ? 60 : 20;
    inference::ReweightOptions options; // default pool sizes 4000/2000
    options.scheme = schemeName == "systematic"
                         ? inference::ResamplingScheme::Systematic
                         : inference::ResamplingScheme::Multinomial;
    core::BatchOptions batchConfig;
    batchConfig.optimizer.backend = backend;
    core::BatchSampler sampler(batchConfig);
    const bool batch = engine == "batch";
    if (batch)
        options.sampler = &sampler;

    const GpsFix earlier{center, 8.0, 0.0};
    const GpsFix later{destination(center, 0.3, 6.0), 8.0, 4.0};
    core::ConditionalOptions conditional;

    // One speed model for the fix pair; each iteration re-runs the
    // SIR improvement and the downstream queries against it (so the
    // batch engine's plan cache sees the same proposal graph, as a
    // deployed pipeline would).
    Uncertain<double> speed = speedFromFixes(earlier, later);

    Rng prng(1101);
    double checksum = 0.0;
    std::size_t briskCount = 0;
    // Best-of-repetitions timing: each repetition runs the full
    // pipeline loop, and the fastest one is reported, so scheduler
    // noise does not leak into the engine comparison.
    const std::size_t repetitions = 3;
    double seconds = 1e300;
    for (std::size_t rep = 0; rep < repetitions; ++rep) {
        checksum = 0.0;
        briskCount = 0;
        double repSeconds = bench::timeSeconds([&] {
            for (std::size_t i = 0; i < iterations; ++i) {
                Uncertain<double> improved =
                    improveSpeed(speed, options, prng);
                // Downstream graph over the posterior pool leaf:
                // miles covered in the next five minutes at this
                // speed.
                Uncertain<double> projected = improved * (5.0 / 60.0);
                double mean =
                    batch
                        ? projected.expectedValue(2000, prng, sampler)
                        : projected.expectedValue(2000, prng);
                checksum += mean;
                Uncertain<bool> brisk = improved > kBriskWalkMph;
                bool decision =
                    batch ? brisk.pr(0.5, conditional, prng, sampler)
                          : brisk.pr(0.5, conditional, prng);
                briskCount += decision ? 1 : 0;
            }
        });
        seconds = std::min(seconds, repSeconds);
    }
    const double perSecond =
        static_cast<double>(iterations) / seconds;

    std::printf("posterior pipeline (%zu iterations, %zu/%zu SIR "
                "pool, %s resampling):\n",
                iterations, options.proposalSamples,
                options.resampleSize, schemeName.c_str());
    std::printf("  engine %-6s  %.3f s total, %.2f pipelines/s "
                "(mean projected %.3f mi, brisk %zu/%zu)\n",
                engine.c_str(), seconds, perSecond,
                checksum / static_cast<double>(iterations),
                briskCount, iterations);
    std::printf("\nCompare engines: run once with --engine tree and "
                "once with --engine batch;\nthe law is identical, "
                "only the sampling engine changes.\n");

    if (!jsonPath.empty()) {
        bench::writeBenchJson(
            jsonPath, {{"fig11/posterior_pipeline", perSecond}});
        std::printf("wrote %s\n", jsonPath.c_str());
    }
    return 0;
}
