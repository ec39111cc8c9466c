/**
 * @file
 * Parallel columnar sampling engine.
 *
 * The graph is compiled once into the flat plan of
 * core/batch_plan.hpp; a batch of N draws is partitioned into column
 * blocks of chunkSize samples, and a BlockScheduler runs whole
 * blocks on the calling thread plus threads - 1 helper threads, each
 * participant filling its own reusable workspace of contiguous
 * columns. Blocks are independent (leaf streams derive from the
 * caller's Rng snapshot and the block's start index), so the batch is
 * embarrassingly parallel.
 *
 * Determinism: the block partition is fixed by chunkSize alone, and
 * the block starting at absolute index s always draws from
 * `base.split(s)` (one child stream per leaf under it). Output is
 * therefore bit-identical for any thread count — and bit-identical to
 * the serial BatchSampler with blockSize == chunkSize, which is what
 * this engine is: a BatchSampler whose blocks the scheduler spreads.
 * Changing chunkSize changes the stream partition (and so the
 * samples), unlike the per-sample engine this replaces.
 */

#ifndef UNCERTAIN_CORE_PARALLEL_HPP
#define UNCERTAIN_CORE_PARALLEL_HPP

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

#include "core/batch.hpp"
#include "core/block_scheduler.hpp"
#include "core/conditional.hpp"
#include "core/node.hpp"
#include "support/rng.hpp"

namespace uncertain {
namespace core {

/** Tuning for the parallel sampling engine. */
struct ParallelOptions
{
    /** Threads blocks run on, the caller included; 0 = the CPUs in
     *  the affinity mask (availableCpus()), 1 = inline. */
    unsigned threads = 0;
    /**
     * Samples per column block (one work item). Large enough to
     * amortize dispatch, small enough to load-balance a mixed-cost
     * batch. Part of the determinism contract: the block partition —
     * and therefore the stream family — is a function of this value.
     */
    std::size_t chunkSize = 1024;
    /**
     * Optimizer pass toggles for plan compilation (see PlanOptions in
     * core/batch_plan.hpp). Never changes the samples, so the
     * bit-identity guarantees above hold for any setting.
     */
    PlanOptions optimizer{};
};

/**
 * Parallel batch sampling engine: a BatchSampler with blockSize =
 * chunkSize over a private BlockScheduler of threads - 1 helpers
 * (none, and no scheduler, at one thread). One engine may be reused
 * across graphs and calls; it is not itself thread-safe (use one
 * engine per calling thread).
 */
class ParallelSampler
{
  public:
    explicit ParallelSampler(ParallelOptions options = {},
                             std::shared_ptr<PlanCache> cache = nullptr)
        : threads_(options.threads > 0 ? options.threads
                                       : availableCpus()),
          batch_(BatchOptions{options.chunkSize, options.optimizer},
                 std::move(cache),
                 threads_ > 1
                     ? std::make_shared<BlockScheduler>(threads_ - 1)
                     : nullptr)
    {}

    explicit ParallelSampler(unsigned threads)
        : ParallelSampler(ParallelOptions{threads, 1024})
    {}

    /** Threads blocks run on (>= 1; 1 means inline). */
    unsigned threads() const { return threads_; }
    std::size_t chunkSize() const { return batch_.blockSize(); }

    /** The optimizer configuration plans are compiled with. */
    const PlanOptions& optimizer() const { return batch_.optimizer(); }

    /** The (shareable, thread-safe) plan cache backing this engine. */
    const std::shared_ptr<PlanCache>& planCache() const
    {
        return batch_.planCache();
    }

    /**
     * Draw @p n root samples of @p node into a vector. The block
     * starting at index s uses stream family base.split(s); @p rng is
     * advanced once at the end so the next batch sees a fresh stream
     * family. Bit-identical output for any thread count, and equal to
     * BatchSampler with blockSize == chunkSize.
     */
    template <typename T>
    std::vector<T>
    takeSamples(const NodePtr<T>& node, std::size_t n, Rng& rng)
    {
        return batch_.takeSamples(node, n, rng);
    }

    /**
     * Mean of @p n samples. The reduction runs serially in index
     * order, so the result is bit-identical for any thread count.
     */
    template <typename T>
    T
    expectedValue(const NodePtr<T>& node, std::size_t n, Rng& rng)
    {
        return batch_.expectedValue(node, n, rng);
    }

    /** Point estimate of Pr[node] from @p n parallel samples. */
    double
    probability(const NodePtr<bool>& node, std::size_t n, Rng& rng)
    {
        return batch_.probability(node, n, rng);
    }

    /**
     * Conditional evaluation with chunk-parallel draws: each chunk of
     * Bernoulli evidence is sampled concurrently, then the sequential
     * test consumes it in index order and Wald's boundaries are
     * consulted between chunks (core/conditional.hpp). The decision
     * matches a serial test fed the same observation sequence.
     */
    ConditionalResult
    evaluateCondition(const NodePtr<bool>& node, double threshold,
                      const ConditionalOptions& options, Rng& rng)
    {
        // Chunks sized for the threads: a serial-width SPRT batch
        // (k=10) would leave helpers idle.
        const std::size_t chunk = std::max<std::size_t>(
            options.sprt.batchSize,
            static_cast<std::size_t>(threads_) * 64);
        return batch_.evaluateConditionPlan(batch_.planFor(node),
                                            threshold, options, rng,
                                            chunk);
    }

  private:
    unsigned threads_;
    BatchSampler batch_;
};

} // namespace core
} // namespace uncertain

#endif // UNCERTAIN_CORE_PARALLEL_HPP
