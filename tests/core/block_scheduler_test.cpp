/**
 * @file
 * BlockScheduler: the caller-participating block scheduler behind
 * every multi-block columnar query (run under TSan in CI). The
 * output must be the serial block loop's, bit for bit, for any
 * helper count and any partition edge; callers may share one
 * scheduler concurrently; an exception in a block reaches only its
 * own caller; a helper held inside a block never stalls its caller,
 * and its late copy is discarded. Default thread counts follow the
 * affinity mask.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "core/core.hpp"
#include "random/gaussian.hpp"
#include "serve/server.hpp"
#include "test_util.hpp"

namespace uncertain {
namespace core {
namespace {

constexpr std::size_t kBlock = 256;

/** A shared-leaf graph with a few fused steps: (x * x + y) + x. */
Uncertain<double>
sharedLeafChain()
{
    auto x = fromDistribution(std::make_shared<random::Gaussian>(1.0, 2.0));
    auto y = fromDistribution(std::make_shared<random::Gaussian>(0.0, 1.0));
    return (x * x + y) + x;
}

std::uint64_t
bits(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

TEST(BlockScheduler, BitExactAgainstTheSerialLoop)
{
    const auto value = sharedLeafChain();
    const auto event = value > 1.5;
    for (unsigned helpers : {0u, 1u, 3u}) {
        auto scheduler = std::make_shared<BlockScheduler>(helpers);
        BatchSampler spread(BatchOptions{kBlock}, nullptr, scheduler);
        BatchSampler serial(BatchOptions{kBlock});
        for (std::size_t n : {kBlock - 1, kBlock, 3 * kBlock + 17}) {
            SCOPED_TRACE(::testing::Message()
                         << "helpers " << helpers << " n " << n);
            Rng a = testing::testRng(1100 + n);
            Rng b = testing::testRng(1100 + n);
            EXPECT_EQ(spread.takeSamples(value.node(), n, a),
                      serial.takeSamples(value.node(), n, b));
            EXPECT_EQ(bits(spread.expectedValue(value.node(), n, a)),
                      bits(serial.expectedValue(value.node(), n, b)));
            EXPECT_EQ(spread.takeSamples(event.node(), n, a),
                      serial.takeSamples(event.node(), n, b));
            EXPECT_EQ(spread.probability(event.node(), n, a),
                      serial.probability(event.node(), n, b));

            std::vector<std::uint8_t> spreadEvidence(n);
            std::vector<std::uint8_t> serialEvidence(n);
            spread.fillEvidencePlan(spread.planFor(event.node()), a, 7, n,
                                    spreadEvidence.data());
            serial.fillEvidencePlan(serial.planFor(event.node()), b, 7, n,
                                    serialEvidence.data());
            EXPECT_EQ(spreadEvidence, serialEvidence);
        }
        if (helpers == 0) {
            EXPECT_EQ(scheduler->startedHelpers(), 0u);
        }
    }
}

TEST(BlockScheduler, TwoConcurrentCallersShareOneScheduler)
{
    const auto value = sharedLeafChain();
    const std::size_t n = 8 * kBlock + 5;
    constexpr int kRounds = 12;

    // Serial references, one per (caller, round).
    std::vector<std::uint64_t> expectedMean(2 * kRounds);
    std::vector<std::vector<double>> expectedDraws(2 * kRounds);
    BatchSampler serial(BatchOptions{kBlock});
    for (int i = 0; i < 2 * kRounds; ++i) {
        Rng rng = testing::testRng(1200 + static_cast<std::uint64_t>(i));
        expectedMean[i] = bits(serial.expectedValue(value.node(), n, rng));
        expectedDraws[i] = serial.takeSamples(value.node(), n, rng);
    }

    auto scheduler = std::make_shared<BlockScheduler>(2);
    std::atomic<int> mismatches{0};
    std::vector<std::thread> callers;
    for (int c = 0; c < 2; ++c) {
        callers.emplace_back([&, c] {
            BatchSampler sampler(BatchOptions{kBlock}, nullptr, scheduler);
            for (int round = 0; round < kRounds; ++round) {
                const int i = 2 * round + c;
                Rng rng =
                    testing::testRng(1200 + static_cast<std::uint64_t>(i));
                if (bits(sampler.expectedValue(value.node(), n, rng))
                        != expectedMean[i]
                    || sampler.takeSamples(value.node(), n, rng)
                           != expectedDraws[i]) {
                    ++mismatches;
                }
            }
        });
    }
    for (auto& caller : callers)
        caller.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(scheduler->startedHelpers(), 2u);
    scheduler->stop();
    EXPECT_EQ(scheduler->startedHelpers(), 0u);
}

/** PlanBlocks whose fill throws for one block, on every thread. */
class FailingBlocks final : public PlanBlocks<double>
{
  public:
    FailingBlocks(std::shared_ptr<const BatchPlan> plan, const Rng& base,
                  std::size_t n, double* out, std::size_t failing)
        : PlanBlocks<double>(std::move(plan), base, 0, n, kBlock, out),
          failing_(failing)
    {}

    BatchWorkspace&
    fill(std::size_t block, WorkspacePool& workspaces) override
    {
        if (block == failing_)
            throw Error("block " + std::to_string(block) + " failed");
        return PlanBlocks<double>::fill(block, workspaces);
    }

  private:
    std::size_t failing_;
};

TEST(BlockScheduler, AnExceptionReachesOnlyItsOwnCaller)
{
    const auto value = sharedLeafChain();
    const std::size_t n = 12 * kBlock;
    auto scheduler = std::make_shared<BlockScheduler>(2);
    auto plan = BatchPlan::compile(value.node());

    BatchSampler serial(BatchOptions{kBlock});
    Rng referenceRng = testing::testRng(1300);
    const std::uint64_t expected =
        bits(serial.expectedValue(value.node(), n, referenceRng));

    std::atomic<int> thrown{0};
    std::atomic<int> mismatches{0};
    constexpr int kRounds = 10;
    std::thread failing([&] {
        WorkspacePool workspaces;
        std::vector<double> out(n);
        for (int round = 0; round < kRounds; ++round) {
            try {
                // Blocks 0 and 11: one the caller claims first, one a
                // helper most likely claims.
                scheduler->run(
                    std::make_shared<FailingBlocks>(
                        plan, testing::testRng(1301), n, out.data(),
                        round % 2 == 0 ? 0 : 11),
                    workspaces);
            } catch (const Error&) {
                ++thrown;
            }
        }
    });
    std::thread healthy([&] {
        BatchSampler sampler(BatchOptions{kBlock}, nullptr, scheduler);
        for (int round = 0; round < kRounds; ++round) {
            Rng rng = testing::testRng(1300);
            if (bits(sampler.expectedValue(value.node(), n, rng))
                != expected)
                ++mismatches;
        }
    });
    failing.join();
    healthy.join();
    EXPECT_EQ(thrown.load(), kRounds);
    EXPECT_EQ(mismatches.load(), 0);

    // The scheduler is still whole afterwards.
    BatchSampler sampler(BatchOptions{kBlock}, nullptr, scheduler);
    Rng rng = testing::testRng(1300);
    EXPECT_EQ(bits(sampler.expectedValue(value.node(), n, rng)), expected);
}

/**
 * PlanBlocks whose first block filled off the caller's thread waits
 * for a release the test gives only after run() has returned, and
 * whose caller waits (bounded) for that helper to be held before it
 * fills anything, so a helper has claimed a block for certain.
 */
class HeldBlocks final : public PlanBlocks<double>
{
  public:
    HeldBlocks(std::shared_ptr<const BatchPlan> plan, const Rng& base,
               std::size_t n, double* out)
        : PlanBlocks<double>(std::move(plan), base, 0, n, kBlock, out),
          commits_(blocks()), caller_(std::this_thread::get_id())
    {}

    BatchWorkspace&
    fill(std::size_t block, WorkspacePool& workspaces) override
    {
        if (std::this_thread::get_id() != caller_) {
            bool first = false;
            if (held_.compare_exchange_strong(first, true)) {
                heldBlock_.store(block);
                release_.wait(false);
                BatchWorkspace& late =
                    PlanBlocks<double>::fill(block, workspaces);
                lateFilled_.store(true);
                return late;
            }
        } else if (!callerWaited_) {
            callerWaited_ = true;
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(30);
            while (!held_.load()
                   && std::chrono::steady_clock::now() < deadline)
                std::this_thread::yield();
        }
        return PlanBlocks<double>::fill(block, workspaces);
    }

    void
    commit(std::size_t block, BatchWorkspace& workspace) override
    {
        ++commits_[block];
        PlanBlocks<double>::commit(block, workspace);
    }

    void
    release()
    {
        release_.store(true);
        release_.notify_all();
    }

    std::atomic<bool> held_{false};
    std::atomic<std::size_t> heldBlock_{0};
    std::atomic<bool> lateFilled_{false};
    std::vector<std::atomic<int>> commits_;

  private:
    std::thread::id caller_;
    bool callerWaited_ = false;
    std::atomic<bool> release_{false};
};

TEST(BlockScheduler, AHeldHelperNeverStallsItsCaller)
{
    const auto value = sharedLeafChain();
    const std::size_t n = 6 * kBlock + 9;
    Rng base = testing::testRng(1400);

    BatchSampler serial(BatchOptions{kBlock});
    std::vector<double> expected(n);
    serial.sampleIntoPlan(serial.planFor(value.node()), n, base,
                          expected.data());

    auto scheduler = std::make_shared<BlockScheduler>(1);
    WorkspacePool workspaces;
    std::vector<double> out(n);
    auto task = std::make_shared<HeldBlocks>(
        BatchPlan::compile(value.node()), base, n, out.data());

    // A caller that waited for its helper would never return; the
    // watchdog releases the helper after a while so such a failure
    // reports instead of hanging.
    std::atomic<bool> returned{false};
    std::atomic<bool> watchdogFired{false};
    std::thread watchdog([&] {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(20);
        while (!returned.load()
               && std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        if (!returned.load()) {
            watchdogFired.store(true);
            task->release();
        }
    });
    scheduler->run(task, workspaces);
    returned.store(true);
    watchdog.join();

    // run() returned while the helper is still held inside its block:
    // the caller took that block over.
    ASSERT_TRUE(task->held_.load()) << "no helper claimed a block";
    EXPECT_FALSE(watchdogFired.load()) << "run() waited for the helper";
    EXPECT_FALSE(task->lateFilled_.load());
    EXPECT_EQ(out, expected);
    for (std::size_t b = 0; b < task->blocks(); ++b)
        EXPECT_EQ(task->commits_[b].load(), 1) << "block " << b;

    // Let the helper finish; its late copy loses the race and is
    // discarded, leaving the output untouched.
    task->release();
    scheduler->stop();
    EXPECT_TRUE(task->lateFilled_.load());
    EXPECT_EQ(task->commits_[task->heldBlock_.load()].load(), 1);
    EXPECT_EQ(out, expected);
}

#if defined(__linux__)
std::size_t
processThreads()
{
    std::size_t count = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task"))
        ++count;
    return count;
}

TEST(BlockScheduler, DefaultThreadCountsFollowTheAffinityMask)
{
    cpu_set_t saved;
    ASSERT_EQ(sched_getaffinity(0, sizeof saved, &saved), 0);
    int first = 0;
    while (first < CPU_SETSIZE && !CPU_ISSET(first, &saved))
        ++first;
    ASSERT_LT(first, CPU_SETSIZE);
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);

    const unsigned cpus = availableCpus();
    const std::size_t threadsBefore = processThreads();
    auto scheduler = std::make_shared<BlockScheduler>(cpus - 1);
    BatchSampler sampler(BatchOptions{kBlock}, nullptr, scheduler);
    Rng rng = testing::testRng(1500);
    const std::size_t drawn =
        sampler.takeSamples(sharedLeafChain().node(), 8 * kBlock, rng)
            .size();
    const std::size_t threadsAfter = processThreads();
    serve::ServerOptions options;
    options.workers = 1;
    const unsigned serverHelpers =
        serve::UncertainServer(options).blockScheduler()->helpers();

    ASSERT_EQ(sched_setaffinity(0, sizeof saved, &saved), 0);
    EXPECT_EQ(cpus, 1u);
    EXPECT_EQ(scheduler->helpers(), 0u);
    EXPECT_EQ(drawn, 8 * kBlock);
    EXPECT_EQ(threadsAfter, threadsBefore);
    EXPECT_EQ(serverHelpers, 0u);
}
#endif

} // namespace
} // namespace core
} // namespace uncertain
