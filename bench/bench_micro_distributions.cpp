/**
 * @file
 * Microbenchmarks: sampling throughput of every distribution family
 * (the cost floor under every Uncertain<T> leaf) and of the SIR
 * reweighting pipeline. The bulk paths run what the CPU picks:
 * BM_SampleManyGaussian goes through the vectorized ziggurat-accept
 * kernel on an AVX2 host (the "isa" context entry says which).
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/simd_kernels.hpp"
#include "inference/reweight.hpp"
#include "random/beta.hpp"
#include "random/binomial.hpp"
#include "random/cauchy.hpp"
#include "random/discrete.hpp"
#include "random/empirical.hpp"
#include "random/gamma.hpp"
#include "random/gaussian.hpp"
#include "random/kde.hpp"
#include "random/mixture.hpp"
#include "random/poisson.hpp"
#include "random/rayleigh.hpp"
#include "random/student_t.hpp"
#include "random/truncated.hpp"
#include "random/uniform.hpp"

using namespace uncertain;

namespace {

template <typename Dist, typename... Args>
void
samplingBenchmark(benchmark::State& state, Args... args)
{
    Dist dist(args...);
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(dist.sample(rng));
}

void
BM_SampleUniform(benchmark::State& s)
{
    samplingBenchmark<random::Uniform>(s, 0.0, 1.0);
}
BENCHMARK(BM_SampleUniform);

void
BM_SampleGaussian(benchmark::State& s)
{
    samplingBenchmark<random::Gaussian>(s, 0.0, 1.0);
}
BENCHMARK(BM_SampleGaussian);

void
BM_SampleRayleigh(benchmark::State& s)
{
    samplingBenchmark<random::Rayleigh>(s, 1.63);
}
BENCHMARK(BM_SampleRayleigh);

void
BM_SampleGamma(benchmark::State& s)
{
    samplingBenchmark<random::Gamma>(s, 4.5, 1.5);
}
BENCHMARK(BM_SampleGamma);

void
BM_SampleBeta(benchmark::State& s)
{
    samplingBenchmark<random::Beta>(s, 2.0, 5.0);
}
BENCHMARK(BM_SampleBeta);

void
BM_SampleStudentT(benchmark::State& s)
{
    samplingBenchmark<random::StudentT>(s, 8.0);
}
BENCHMARK(BM_SampleStudentT);

void
BM_SampleCauchy(benchmark::State& s)
{
    samplingBenchmark<random::Cauchy>(s, 0.0, 1.0);
}
BENCHMARK(BM_SampleCauchy);

void
BM_SamplePoissonSmallLambda(benchmark::State& s)
{
    samplingBenchmark<random::Poisson>(s, 3.5);
}
BENCHMARK(BM_SamplePoissonSmallLambda);

void
BM_SamplePoissonLargeLambda(benchmark::State& s)
{
    samplingBenchmark<random::Poisson>(s, 300.0);
}
BENCHMARK(BM_SamplePoissonLargeLambda);

void
BM_SampleBinomial(benchmark::State& s)
{
    samplingBenchmark<random::Binomial>(s, 12, 0.4);
}
BENCHMARK(BM_SampleBinomial);

void
BM_SampleDiscreteAlias(benchmark::State& state)
{
    std::vector<double> values(1000);
    std::vector<double> weights(1000);
    Rng setup(2);
    for (int i = 0; i < 1000; ++i) {
        values[i] = i;
        weights[i] = setup.nextDoubleOpen();
    }
    random::Discrete dist(values, weights);
    Rng rng(3);
    for (auto _ : state)
        benchmark::DoNotOptimize(dist.sample(rng));
}
BENCHMARK(BM_SampleDiscreteAlias);

void
BM_SampleMixture(benchmark::State& state)
{
    random::Mixture dist({std::make_shared<random::Gaussian>(0.0, 1.0),
                          std::make_shared<random::Gaussian>(5.0, 2.0)},
                         {0.7, 0.3});
    Rng rng(4);
    for (auto _ : state)
        benchmark::DoNotOptimize(dist.sample(rng));
}
BENCHMARK(BM_SampleMixture);

void
BM_SampleTruncatedAnalytic(benchmark::State& state)
{
    random::Truncated dist(
        std::make_shared<random::Gaussian>(0.0, 1.0), -1.0, 1.0);
    Rng rng(5);
    for (auto _ : state)
        benchmark::DoNotOptimize(dist.sample(rng));
}
BENCHMARK(BM_SampleTruncatedAnalytic);

void
BM_SampleKde(benchmark::State& state)
{
    Rng setup(6);
    std::vector<double> pool;
    random::Gaussian source(0.0, 1.0);
    for (int i = 0; i < 1000; ++i)
        pool.push_back(source.sample(setup));
    random::GaussianKde dist(pool);
    Rng rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(dist.sample(rng));
}
BENCHMARK(BM_SampleKde);

// ----------------------------------------------------------------------
// Bulk paths.
// ----------------------------------------------------------------------

void
BM_SampleManyGaussian(benchmark::State& state)
{
    random::Gaussian dist(0.0, 1.0);
    Rng rng(9);
    std::vector<double> out(
        static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        dist.sampleMany(rng, out.data(), out.size());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * out.size()));
}
BENCHMARK(BM_SampleManyGaussian)->Arg(1024)->Arg(65536);

void
BM_FillDouble(benchmark::State& state)
{
    Rng rng(10);
    std::vector<double> out(
        static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        rng.fillDouble(out.data(), out.size());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * out.size()));
}
BENCHMARK(BM_FillDouble)->Arg(65536);

void
BM_ReweightPipeline(benchmark::State& state)
{
    auto estimate = core::fromDistribution(
        std::make_shared<random::Gaussian>(2.0, 1.0));
    random::Gaussian prior(0.0, 1.0);
    Rng rng(8);
    inference::ReweightOptions options;
    options.proposalSamples = static_cast<std::size_t>(state.range(0));
    options.resampleSize = options.proposalSamples / 2;
    for (auto _ : state) {
        auto posterior =
            inference::applyPrior(estimate, prior, options, rng);
        benchmark::DoNotOptimize(posterior.node().get());
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ReweightPipeline)->Range(256, 16384)->Complexity();

} // namespace

int
main(int argc, char** argv)
{
    benchmark::AddCustomContext(
        "isa", simd::isaName(simd::activeIsa()));
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
