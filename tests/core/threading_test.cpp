/**
 * @file
 * Concurrency contract tests. Since the memo-table refactor, nodes
 * are immutable and all per-pass state lives in the SampleContext, so
 * ONE SHARED GRAPH may be sampled concurrently from many threads —
 * each with its own context and generator. These tests pin that
 * contract: concurrent takeSamples on a shared graph, shared-leaf
 * (Figure 8) correctness under parallelism, a many-contexts stress
 * test, plus the original per-thread guarantees (independent global
 * generators, globally unique epochs, thread-local eval stats). Run
 * under ThreadSanitizer in CI.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/core.hpp"
#include "random/gaussian.hpp"
#include "stats/summary.hpp"
#include "test_util.hpp"

namespace uncertain {
namespace core {
namespace {

TEST(Threading, IndependentGraphsOnIndependentThreads)
{
    constexpr int kThreads = 8;
    std::vector<double> means(kThreads, 0.0);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, &means] {
            // Each thread builds and samples its own graph with its
            // own generator.
            Rng rng = testing::testRng(
                static_cast<std::uint64_t>(500 + t));
            auto a = fromDistribution(
                std::make_shared<random::Gaussian>(
                    static_cast<double>(t), 1.0));
            auto expr = (a + 1.0) * 2.0;
            means[t] = expr.expectedValue(20000, rng);
        });
    }
    for (auto& thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_NEAR(means[t], 2.0 * (t + 1.0), 0.1) << "thread " << t;
}

TEST(Threading, EpochsAreGloballyUniqueAcrossThreads)
{
    constexpr int kThreads = 8;
    constexpr int kEpochsPerThread = 2000;
    std::vector<std::vector<std::uint64_t>> perThread(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, &perThread] {
            Rng rng = testing::testRng(
                static_cast<std::uint64_t>(520 + t));
            SampleContext ctx(rng);
            perThread[t].reserve(kEpochsPerThread);
            for (int i = 0; i < kEpochsPerThread; ++i) {
                perThread[t].push_back(ctx.epoch());
                ctx.newEpoch();
            }
        });
    }
    for (auto& thread : threads)
        thread.join();

    std::set<std::uint64_t> all;
    for (const auto& epochs : perThread)
        for (std::uint64_t e : epochs)
            EXPECT_TRUE(all.insert(e).second)
                << "duplicate epoch " << e;
}

TEST(Threading, GlobalRngIsPerThread)
{
    // Each thread gets its own deterministic stream; concurrent use
    // must not interleave or crash.
    constexpr int kThreads = 6;
    std::vector<double> sums(kThreads, 0.0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, &sums] {
            seedGlobalRng(static_cast<std::uint64_t>(t));
            double total = 0.0;
            for (int i = 0; i < 10000; ++i)
                total += globalRng().nextDouble();
            sums[t] = total;
        });
    }
    for (auto& thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_NEAR(sums[t], 5000.0, 200.0);
}

TEST(Threading, ConcurrentTakeSamplesOnASharedGraph)
{
    // One graph, eight threads, each drawing its own batch through
    // its own generator/context. Every batch must see the correct
    // distribution: mean 2(mu + 1) = 8 for mu = 3.
    constexpr int kThreads = 8;
    auto a = fromDistribution(
        std::make_shared<random::Gaussian>(3.0, 1.0));
    auto expr = (a + 1.0) * 2.0;
    std::vector<double> means(kThreads, 0.0);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, &expr, &means] {
            Rng rng = testing::testRng(
                static_cast<std::uint64_t>(540 + t));
            stats::OnlineSummary s;
            for (double v : expr.takeSamples(20000, rng))
                s.add(v);
            means[t] = s.mean();
        });
    }
    for (auto& thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_NEAR(means[t], 8.0, 0.1) << "thread " << t;
}

TEST(Threading, SharedLeafSemanticsHoldInEveryThread)
{
    // Figure 8(b) under concurrency: both X occurrences in (Y+X)+X
    // must see one draw per epoch in every thread, so the residual
    // B - Y - 2X is ~0 for every sample on every thread, and the
    // variance of B is Var[Y] + 4 Var[X] = 5.
    constexpr int kThreads = 8;
    auto x = fromDistribution(
        std::make_shared<random::Gaussian>(0.0, 1.0));
    auto y = fromDistribution(
        std::make_shared<random::Gaussian>(0.0, 1.0));
    auto b = (y + x) + x;
    auto residual = b - y - (x * 2.0);
    std::vector<int> badResiduals(kThreads, 0);
    std::vector<double> variances(kThreads, 0.0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back(
            [t, &residual, &b, &badResiduals, &variances] {
                Rng rng = testing::testRng(
                    static_cast<std::uint64_t>(560 + t));
                for (double v : residual.takeSamples(2000, rng)) {
                    if (std::abs(v) > 1e-12)
                        ++badResiduals[t];
                }
                stats::OnlineSummary s;
                for (double v : b.takeSamples(50000, rng))
                    s.add(v);
                variances[t] = s.variance();
            });
    }
    for (auto& thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(badResiduals[t], 0) << "thread " << t;
        EXPECT_NEAR(variances[t], 5.0, 0.35) << "thread " << t;
    }
}

TEST(Threading, ManyContextsOnOneGraphStress)
{
    // 16 threads x 64 short-lived contexts each, all over one shared
    // graph, interleaving single draws and epoch churn. Exercises
    // memo-table create/destroy under maximal context turnover; run
    // under TSan this is the data-race canary for the design.
    constexpr int kThreads = 16;
    constexpr int kContextsPerThread = 64;
    auto x = fromDistribution(
        std::make_shared<random::Gaussian>(1.0, 2.0));
    auto expr = (x * x) + x - 0.5;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, &expr, &failures] {
            Rng rng = testing::testRng(
                static_cast<std::uint64_t>(580 + t));
            for (int c = 0; c < kContextsPerThread; ++c) {
                SampleContext ctx(rng);
                for (int i = 0; i < 20; ++i) {
                    double v = expr.node()->sample(ctx);
                    if (!std::isfinite(v))
                        ++failures;
                    ctx.newEpoch();
                }
            }
        });
    }
    for (auto& thread : threads)
        thread.join();
    EXPECT_EQ(failures.load(), 0);
}

TEST(Threading, ThreadedSamplersOnDistinctThreadsShareAGraph)
{
    // Each thread drives its own BatchSampler over its own
    // BlockScheduler (one helper each) over the same graph — contexts nest two levels deep in
    // the concurrency hierarchy.
    constexpr int kThreads = 4;
    auto x = fromDistribution(
        std::make_shared<random::Gaussian>(2.0, 1.0));
    auto expr = x + x; // shared leaf
    std::vector<double> means(kThreads, 0.0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, &expr, &means] {
            Rng rng = testing::testRng(
                static_cast<std::uint64_t>(600 + t));
            BatchSampler sampler(BatchOptions{128}, nullptr,
                                 std::make_shared<BlockScheduler>(1));
            means[t] = expr.expectedValue(20000, rng, sampler);
        });
    }
    for (auto& thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_NEAR(means[t], 4.0, 0.1) << "thread " << t;
}

TEST(Threading, EvalStatsAreThreadLocal)
{
    resetEvalStats();
    std::atomic<bool> childSawZero{false};
    std::thread child([&childSawZero] {
        resetEvalStats();
        Rng rng = testing::testRng(530);
        auto a = fromDistribution(
            std::make_shared<random::Gaussian>(0.0, 1.0));
        (void)a.sample(rng);
        childSawZero = evalStats().rootSamples == 1;
    });
    child.join();
    EXPECT_TRUE(childSawZero);
    // The child's sampling did not touch this thread's counters.
    EXPECT_EQ(evalStats().rootSamples, 0u);
}

} // namespace
} // namespace core
} // namespace uncertain
