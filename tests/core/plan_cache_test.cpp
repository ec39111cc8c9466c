/**
 * @file
 * PlanCache behaviour under churn (core/batch.hpp): bounded LRU
 * eviction with counters, no stale plans after a root is rebuilt at a
 * possibly recycled address, and thread safety when one cache is
 * shared between samplers. The staleness guarantee rests on the plan
 * pinning its graph alive while cached — a live cache key can never
 * alias a recycled node address, and once an entry is evicted its key
 * is gone, so a recycled address simply misses.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "core/core.hpp"
#include "core/jit/jit_compiler.hpp"
#include "core/simd.hpp"
#include "random/gaussian.hpp"
#include "test_util.hpp"

namespace uncertain {
namespace core {
namespace {

Uncertain<double>
gaussianLeaf()
{
    return fromDistribution(
        std::make_shared<random::Gaussian>(0.0, 1.0));
}

/** A throwaway graph whose exact sample value identifies it. */
Uncertain<double>
taggedConstGraph(double tag)
{
    return Uncertain<double>(tag) * Uncertain<double>(2.0)
           + Uncertain<double>(1.0);
}

TEST(PlanCache, EvictsLeastRecentlyUsedAtCapacity)
{
    PlanCache cache(4);
    std::vector<Uncertain<double>> roots;
    for (int i = 0; i < 6; ++i)
        roots.push_back(taggedConstGraph(static_cast<double>(i)));

    for (const auto& root : roots)
        cache.planFor(root.node());
    EXPECT_EQ(cache.size(), 4u);
    auto stats = cache.stats();
    EXPECT_EQ(stats.misses, 6u);
    EXPECT_EQ(stats.evictions, 2u);
    EXPECT_EQ(stats.hits, 0u);

    // The two oldest (0, 1) are gone; the four newest hit.
    for (int i = 2; i < 6; ++i)
        cache.planFor(roots[static_cast<std::size_t>(i)].node());
    EXPECT_EQ(cache.stats().hits, 4u);
    cache.planFor(roots[0].node());
    EXPECT_EQ(cache.stats().misses, 7u);
}

TEST(PlanCache, TouchingAnEntryProtectsItFromEviction)
{
    PlanCache cache(2);
    auto a = taggedConstGraph(1.0);
    auto b = taggedConstGraph(2.0);
    auto c = taggedConstGraph(3.0);
    cache.planFor(a.node());
    cache.planFor(b.node());
    cache.planFor(a.node()); // a becomes MRU
    cache.planFor(c.node()); // evicts b, not a
    EXPECT_EQ(cache.stats().evictions, 1u);
    cache.planFor(a.node());
    EXPECT_EQ(cache.stats().misses, 3u); // a still cached
    cache.planFor(b.node());
    EXPECT_EQ(cache.stats().misses, 4u); // b was the victim
}

TEST(PlanCache, DistinctOptimizerConfigsGetDistinctPlans)
{
    PlanCache cache;
    auto expr = gaussianLeaf() + gaussianLeaf();
    auto optimized = cache.planFor(expr.node(), PlanOptions{});
    auto plain = cache.planFor(expr.node(), PlanOptions::disabled());
    EXPECT_NE(optimized.get(), plain.get());
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.planFor(expr.node(), PlanOptions{}).get(),
              optimized.get());
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PlanCache, BackendAndJitAvailabilityAreKeyed)
{
    // One cache shared between samplers that request different
    // backends must hold one plan per backend — an Auto plan (JIT
    // fragments on an AVX2 host) served to a Scalar sampler (or vice
    // versa) would silently run the wrong code. JIT availability
    // needs no key bits of its own: it is fixed per process, and
    // only Auto consults it.
    PlanCache cache;
    auto expr = gaussianLeaf() * Uncertain<double>(3.0)
                + Uncertain<double>(0.5);

    PlanOptions autoOpt;
    PlanOptions simdOpt;
    simdOpt.backend = simd::ExecBackend::Simd;
    PlanOptions scalarOpt;
    scalarOpt.backend = simd::ExecBackend::Scalar;

    auto autoPlan = cache.planFor(expr.node(), autoOpt);
    auto simdPlan = cache.planFor(expr.node(), simdOpt);
    auto scalarPlan = cache.planFor(expr.node(), scalarOpt);
    EXPECT_NE(autoPlan.get(), simdPlan.get());
    EXPECT_NE(autoPlan.get(), scalarPlan.get());
    EXPECT_NE(simdPlan.get(), scalarPlan.get());
    EXPECT_EQ(cache.stats().misses, 3u);

    // Same backend again: hits, not recompiles.
    EXPECT_EQ(cache.planFor(expr.node(), autoOpt).get(), autoPlan.get());
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(autoPlan->stats().jitStrips, jit::available());
}

TEST(PlanCache, NeverReturnsStalePlanUnderRootChurn)
{
    // Rebuild-and-drop roots through a tiny cache so entries are
    // evicted and node addresses get recycled by the allocator. Every
    // returned plan must compute *its* root's value — a stale plan
    // for a recycled address would produce a different constant.
    auto cache = std::make_shared<PlanCache>(4);
    Rng rng = testing::testRng(60);
    for (int i = 0; i < 100; ++i) {
        BatchSampler sampler(BatchOptions{}, cache);
        auto expr = taggedConstGraph(static_cast<double>(i));
        auto samples = expr.takeSamples(64, rng, sampler);
        for (double v : samples)
            ASSERT_EQ(v, static_cast<double>(i) * 2.0 + 1.0)
                << "stale plan at iteration " << i;
    }
    EXPECT_GE(cache->stats().evictions, 90u);
}

TEST(PlanCache, SharedAcrossSamplersReusesOnePlan)
{
    auto cache = std::make_shared<PlanCache>();
    auto expr = gaussianLeaf() * Uncertain<double>(3.0);
    BatchSampler first(BatchOptions{}, cache);
    BatchSampler second(BatchOptions{}, cache);
    Rng rng = testing::testRng(61);
    first.takeSamples(expr.node(), 256, rng);
    second.takeSamples(expr.node(), 256, rng);
    auto stats = cache->stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_GE(stats.hits, 1u);
}

TEST(PlanCache, ThreadSafeWhenSharedWithThreadedSampler)
{
    // One cache shared by a BatchSampler over a BlockScheduler and
    // per-thread serial BatchSamplers, hammered concurrently with both a shared root
    // and thread-private churning roots. Run under TSan in CI.
    auto cache = std::make_shared<PlanCache>(8);
    auto shared = gaussianLeaf() + gaussianLeaf();
    const auto sharedNode = shared.node();

    std::vector<std::thread> threads;
    std::vector<int> failures(4, 0);
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            Rng rng = testing::testRng(
                static_cast<std::uint64_t>(70 + t));
            BatchSampler sampler(BatchOptions{}, cache);
            for (int i = 0; i < 25; ++i) {
                auto tagged = taggedConstGraph(
                    static_cast<double>(t * 1000 + i));
                auto values = tagged.takeSamples(32, rng, sampler);
                for (double v : values)
                    if (v
                        != static_cast<double>(t * 1000 + i) * 2.0
                               + 1.0)
                        ++failures[static_cast<std::size_t>(t)];
                auto draws =
                    sampler.takeSamples(sharedNode, 128, rng);
                if (draws.size() != 128)
                    ++failures[static_cast<std::size_t>(t)];
            }
        });
    }
    BatchSampler parallel(BatchOptions{256}, cache,
                          std::make_shared<BlockScheduler>(1));
    Rng rng = testing::testRng(62);
    for (int i = 0; i < 25; ++i)
        parallel.takeSamples(sharedNode, 512, rng);
    for (auto& thread : threads)
        thread.join();
    for (int t = 0; t < 4; ++t)
        EXPECT_EQ(failures[static_cast<std::size_t>(t)], 0)
            << "thread " << t;
}

TEST(PlanCache, EvictedPlanStaysUsableWhileHeld)
{
    PlanCache cache(1);
    auto a = gaussianLeaf() * Uncertain<double>(2.0);
    auto b = gaussianLeaf() + Uncertain<double>(1.0);
    auto planA = cache.planFor(a.node());
    cache.planFor(b.node()); // evicts a's entry
    EXPECT_EQ(cache.stats().evictions, 1u);
    // The handed-out shared_ptr (and its pinned graph) stay valid.
    auto ws = planA->makeWorkspace();
    Rng rng = testing::testRng(63);
    planA->runBlock(ws, rng, 0, 128);
    EXPECT_EQ(planA->leafCount(), 1u);
}

} // namespace
} // namespace core
} // namespace uncertain
