/**
 * @file
 * Columnar batched sampling engine.
 *
 * BatchSampler is the driver for the flat plans of
 * core/batch_plan.hpp: it compiles a graph once (cached per root and
 * optimizer configuration), then fills contiguous columns block by
 * block — per-node kernel loops instead of a per-sample tree walk
 * with memo lookups. This is the compiled-forward-inference shape of
 * a PPL runtime: the graph is the program, the plan is its object
 * code (optimized by the pass pipeline in core/batch_plan.hpp), a
 * block is one vectorized execution.
 *
 * Determinism contract (see docs/API.md): output is a pure function
 * of (caller Rng snapshot, n, blockSize, graph shape) — the optimizer
 * passes do not change it (they are bit-exact; see PlanOptions).
 * Identical across runs and across BlockScheduler helper counts
 * (blocks may run on any thread; see core/block_scheduler.hpp), so
 * parallel sampling is this engine built over a scheduler:
 * `BatchSampler(BatchOptions{blockSize}, cache,
 * std::make_shared<BlockScheduler>(threads - 1))`, bit-identical to
 * the same sampler without one. Not bit-identical to the tree walk;
 * the statistical-equivalence suite pins both engines to the same
 * law.
 * Memory footprint: columnCount() * blockSize elements per
 * workspace, where columnCount() is the number of *physical* columns
 * after buffer reuse (one workspace per engine, one more per
 * scheduler helper that has run the plan).
 */

#ifndef UNCERTAIN_CORE_BATCH_HPP
#define UNCERTAIN_CORE_BATCH_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/batch_plan.hpp"
#include "core/block_scheduler.hpp"
#include "core/conditional.hpp"
#include "core/node.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace uncertain {
namespace core {

/** Tuning for the columnar batch engine. */
struct BatchOptions
{
    /**
     * Samples per column block. Large enough that per-node kernel
     * dispatch amortizes to nothing, small enough that a block's
     * columns stay cache-resident. Part of the determinism contract:
     * changing it changes the stream partition (and so the samples).
     */
    std::size_t blockSize = 8192;

    /**
     * How plans are compiled: the optimizer switch (on by default)
     * and the strip backend. Neither changes the samples, only the
     * speed and the workspace footprint.
     */
    PlanOptions optimizer{};
};

/** Counters for PlanCache observability (core::inspect / --verbose). */
struct PlanCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;    //!< lookups that compiled a plan
    std::uint64_t evictions = 0; //!< LRU entries dropped at capacity
};

/**
 * Bounded, thread-safe LRU cache of compiled plans keyed by
 * (root-node identity, optimizer configuration). A cached plan pins
 * its graph alive (BatchPlan::keepAlive_), so a key can never alias a
 * recycled node address while the entry lives: a rebuilt root is a
 * new allocation and necessarily misses. At capacity the
 * least-recently-used entry is evicted; a plan handed out earlier
 * stays valid (shared_ptr) even after its entry is evicted.
 *
 * One cache may be shared between samplers — including the
 * BatchSamplers of several server workers — because lookups and
 * insertions are mutex-guarded and plans themselves are immutable.
 * Compilation happens outside the lock; two threads racing on the
 * same new root may both compile, and the loser adopts the winner's
 * plan.
 */
class PlanCache
{
  public:
    static constexpr std::size_t kDefaultCapacity = 64;

    explicit PlanCache(std::size_t capacity = kDefaultCapacity)
        : capacity_(capacity > 0 ? capacity : 1)
    {}

    /** The compiled plan for @p root under @p options, cached. */
    template <typename T>
    std::shared_ptr<const BatchPlan>
    planFor(const NodePtr<T>& root, const PlanOptions& options = {})
    {
        UNCERTAIN_REQUIRE(root != nullptr,
                          "batch sampling requires a node");
        const Key key{root.get(), packOptions(options)};
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = entries_.find(key);
            if (it != entries_.end()) {
                ++stats_.hits;
                lru_.splice(lru_.begin(), lru_, it->second.lruPos);
                return it->second.plan;
            }
        }
        // Compile outside the lock so other roots' lookups do not
        // serialize behind a large lowering.
        auto plan = BatchPlan::compile(root, options);
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.misses;
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second.lruPos);
            return it->second.plan;
        }
        while (entries_.size() >= capacity_) {
            entries_.erase(lru_.back());
            lru_.pop_back();
            ++stats_.evictions;
        }
        lru_.push_front(key);
        entries_.emplace(key, Entry{std::move(plan), lru_.begin()});
        return entries_.find(key)->second.plan;
    }

    PlanCacheStats
    stats() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return stats_;
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return entries_.size();
    }

    std::size_t capacity() const { return capacity_; }

  private:
    struct Key
    {
        const GraphNode* root;
        std::uint8_t options;

        bool
        operator==(const Key& other) const
        {
            return root == other.root && options == other.options;
        }
    };

    struct KeyHash
    {
        std::size_t
        operator()(const Key& key) const
        {
            auto z = reinterpret_cast<std::uintptr_t>(key.root) >> 4;
            z ^= static_cast<std::uintptr_t>(key.options) << 48;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            return static_cast<std::size_t>(z ^ (z >> 31));
        }
    };

    struct Entry
    {
        std::shared_ptr<const BatchPlan> plan;
        std::list<Key>::iterator lruPos;
    };

    static std::uint8_t
    packOptions(const PlanOptions& options)
    {
        // The optimizer switch, then the backend in bits 1-2, so
        // Auto/Simd/Scalar plans for the same root cache as distinct
        // entries (their strip lambdas differ even when the output is
        // bit-identical). Nothing else varies: what Auto resolves
        // against (simd::activeIsa(), jit::available()) is fixed for
        // the life of the process.
        return static_cast<std::uint8_t>(
            (options.optimize ? 1u : 0u)
            | (static_cast<unsigned>(options.backend) << 1));
    }

    mutable std::mutex mutex_;
    std::size_t capacity_;
    std::list<Key> lru_;                          //!< MRU at front
    std::unordered_map<Key, Entry, KeyHash> entries_;
    PlanCacheStats stats_;
};

/**
 * Columnar batch engine behind the same surface as the tree-walk
 * path: takeSamples / expectedValue / probability /
 * evaluateCondition. One engine may be reused across graphs and
 * calls; it is not itself thread-safe (one engine per calling
 * thread), though its PlanCache and BlockScheduler may be shared
 * between engines.
 *
 * Without a scheduler (or with one that has no helpers) every query
 * runs its blocks serially on the calling thread. With one, a query
 * of more than blockSize draws runs its blocks on the calling thread
 * together with the scheduler's helpers (core/block_scheduler.hpp);
 * the output is the same bits either way.
 */
class BatchSampler
{
  public:
    explicit BatchSampler(BatchOptions options = {},
                          std::shared_ptr<PlanCache> cache = nullptr,
                          std::shared_ptr<BlockScheduler> scheduler =
                              nullptr)
        : blockSize_(options.blockSize > 0 ? options.blockSize : 1),
          optimizer_(options.optimizer),
          cache_(cache ? std::move(cache)
                       : std::make_shared<PlanCache>()),
          scheduler_(std::move(scheduler))
    {}

    /**
     * Width of the SPRT's evidence chunks: part of the stream
     * schedule, so the same for every helper count. Wide enough for
     * the columnar kernels to amortize over; the decision is that of
     * a test fed one observation at a time either way.
     */
    static constexpr std::size_t kEvidenceChunk = 256;

    std::size_t blockSize() const { return blockSize_; }

    /** The optimizer configuration plans are compiled with. */
    const PlanOptions& optimizer() const { return optimizer_; }

    /** The (shareable) plan cache backing this engine. */
    const std::shared_ptr<PlanCache>& planCache() const { return cache_; }

    /** The compiled (and cached) plan for @p node — for inspection. */
    template <typename T>
    std::shared_ptr<const BatchPlan>
    planFor(const NodePtr<T>& node)
    {
        return cache_->planFor(node, optimizer_);
    }

    /**
     * Draw @p n root samples of @p node into a vector. @p rng is
     * advanced once at the end so the next batch sees a fresh stream
     * family.
     */
    template <typename T>
    std::vector<T>
    takeSamples(const NodePtr<T>& node, std::size_t n, Rng& rng)
    {
        return takeSamplesPlan<T>(cache_->planFor(node, optimizer_), n,
                                  rng);
    }

    /** Mean of @p n samples: sumInBlocks of the draws, over n. */
    template <typename T>
    T
    expectedValue(const NodePtr<T>& node, std::size_t n, Rng& rng)
    {
        return expectedValuePlan<T>(cache_->planFor(node, optimizer_), n,
                                    rng);
    }

    /** Point estimate of Pr[node] from @p n batched samples. */
    double
    probability(const NodePtr<bool>& node, std::size_t n, Rng& rng)
    {
        UNCERTAIN_REQUIRE(n >= 1, "probability requires n >= 1");
        const std::size_t hits = reducePlan<bool>(
            cache_->planFor(node, optimizer_), n, rng,
            [](const std::uint8_t* x, std::size_t len) {
                std::size_t count = 0;
                for (std::size_t i = 0; i < len; ++i)
                    count += x[i] != 0 ? 1 : 0;
                return count;
            });
        evalStats().rootSamples += n;
        rng.advance();
        return static_cast<double>(hits) / static_cast<double>(n);
    }

    /**
     * Conditional evaluation with batched evidence columns: each
     * chunk of Bernoulli observations is filled by the columnar
     * kernels, then the sequential test consumes it in index order
     * (core/conditional.hpp).
     */
    ConditionalResult
    evaluateCondition(const NodePtr<bool>& node, double threshold,
                      const ConditionalOptions& options, Rng& rng)
    {
        return evaluateConditionPlan(cache_->planFor(node, optimizer_),
                                     threshold, options, rng);
    }

    // ----- plan-direct entry points ---------------------------------
    // The node-keyed methods above resolve their plan through the
    // shared cache and forward here; callers that already hold a
    // plan — the serving coalescer executing a batch of requests
    // against one plan-cache entry, or anything driving several
    // queries through the same compiled graph — call these directly
    // to pay the lookup once per group instead of once per request.
    // Output is a pure function of (Rng snapshot, n, blockSize, plan).

    /**
     * Fill out[0..n) with root draws of @p plan; block b covers
     * absolute indices [b*blockSize, ...). Does not advance @p base
     * and does not touch evalStats.
     */
    template <typename T>
    void
    sampleIntoPlan(const std::shared_ptr<const BatchPlan>& plan,
                   std::size_t n, const Rng& base, T* out)
    {
        fillPlan<T>(plan, base, 0, n, out);
    }

    /** takeSamples against an already-resolved plan. */
    template <typename T>
    std::vector<T>
    takeSamplesPlan(const std::shared_ptr<const BatchPlan>& plan,
                    std::size_t n, Rng& rng)
    {
        std::vector<T> samples;
        if constexpr (std::is_same_v<T, bool>) {
            // vector<bool>'s packed bits cannot be written per block
            // by concurrent participants.
            std::unique_ptr<bool[]> buffer(new bool[n]);
            sampleIntoPlan(plan, n, rng, buffer.get());
            samples.assign(buffer.get(), buffer.get() + n);
        } else if (spreads(n)) {
            samples.resize(n);
            sampleIntoPlan(plan, n, rng, samples.data());
        } else {
            samples.reserve(n);
            forEachBlock<T>(plan, rng, 0, n,
                            [&](const auto* col, std::size_t len) {
                                samples.insert(samples.end(), col,
                                               col + len);
                            });
        }
        evalStats().rootSamples += n;
        rng.advance();
        return samples;
    }

    /**
     * expectedValue against an already-resolved plan. Each block's
     * root column is summed by blockSum where it is drawn, and the
     * block sums are added in block order (sumInBlocks), so memory
     * stays O(blockSize) and the bits are the same for every helper
     * count.
     */
    template <typename T>
    T
    expectedValuePlan(const std::shared_ptr<const BatchPlan>& plan,
                      std::size_t n, Rng& rng)
    {
        UNCERTAIN_REQUIRE(n >= 1, "expectedValue requires n >= 1");
        const auto total = reducePlan<T>(
            plan, n, rng, [](const auto* x, std::size_t len) {
                return blockSum(x, len);
            });
        evalStats().rootSamples += n;
        ++evalStats().expectations;
        rng.advance();
        return total / static_cast<double>(n);
    }

    /**
     * Evidence fill for a window [offset, offset + count) of the
     * index space: Bernoulli observations of @p plan as bytes, blocks
     * at absolute offsets so the stream sequence is deterministic for
     * a given chunk schedule.
     */
    void
    fillEvidencePlan(const std::shared_ptr<const BatchPlan>& plan,
                     const Rng& base, std::size_t offset,
                     std::size_t count, std::uint8_t* out)
    {
        fillPlan<bool>(plan, base, offset, count, out);
    }

    /**
     * evaluateCondition against an already-resolved plan: one cache
     * lookup for the whole sequential test instead of one per
     * evidence chunk. The SPRT draws its evidence in chunks of
     * kEvidenceChunk, part of the stream schedule like blockSize; a
     * chunk wider than blockSize spreads over the scheduler's helpers
     * like any other multi-block fill.
     */
    ConditionalResult
    evaluateConditionPlan(const std::shared_ptr<const BatchPlan>& plan,
                          double threshold,
                          const ConditionalOptions& options, Rng& rng)
    {
        auto result = core::evaluateCondition(
            [&](std::size_t offset, std::size_t count,
                std::uint8_t* out) {
                fillEvidencePlan(plan, rng, offset, count, out);
            },
            threshold, options, kEvidenceChunk);
        rng.advance();
        return result;
    }

  private:
    /** Whether a query of @p n draws runs on the scheduler. */
    bool
    spreads(std::size_t n) const
    {
        return scheduler_ != nullptr && scheduler_->helpers() > 0
               && n > blockSize_;
    }

    /**
     * The serial block loop: run the blocks of [offset, offset + n)
     * in index order on this thread, handing each root column and
     * its length to @p visit.
     */
    template <typename T, typename Visit>
    void
    forEachBlock(const std::shared_ptr<const BatchPlan>& plan,
                 const Rng& base, std::size_t offset, std::size_t n,
                 Visit&& visit)
    {
        UNCERTAIN_REQUIRE(plan != nullptr,
                          "plan-direct sampling requires a plan");
        auto& workspace = workspaces_.acquire(plan);
        const std::size_t rootCol = plan->rootColumn();
        for (std::size_t start = 0; start < n; start += blockSize_) {
            const std::size_t len = std::min(blockSize_, n - start);
            plan->runBlock(workspace, base, offset + start, len);
            visit(workspace.template column<T>(rootCol).data(), len);
        }
    }

    /**
     * Reduce each block of the first @p n draws with @p reduce (root
     * column, length) and add the partials in block order: on the
     * committing participant when the query spreads, block by block
     * on this thread otherwise.
     */
    template <typename T, typename Reduce>
    typename ReduceBlocks<T, Reduce>::Partial
    reducePlan(const std::shared_ptr<const BatchPlan>& plan,
               std::size_t n, const Rng& base, Reduce reduce)
    {
        using Task = ReduceBlocks<T, Reduce>;
        UNCERTAIN_REQUIRE(plan != nullptr,
                          "plan-direct sampling requires a plan");
        if (spreads(n)) {
            auto task = std::make_shared<Task>(plan, base, 0, n,
                                               blockSize_,
                                               std::move(reduce));
            scheduler_->run(task, workspaces_);
            return task->total();
        }
        std::optional<typename Task::Partial> total;
        forEachBlock<T>(plan, base, 0, n,
                        [&](const auto* col, std::size_t len) {
                            auto partial = reduce(col, len);
                            if (total)
                                *total = *total + partial;
                            else
                                total.emplace(partial);
                        });
        return *total;
    }

    /** Write the draws of [offset, offset + n) to out[0..n). */
    template <typename T, typename Out>
    void
    fillPlan(const std::shared_ptr<const BatchPlan>& plan,
             const Rng& base, std::size_t offset, std::size_t n,
             Out* out)
    {
        if (spreads(n)) {
            UNCERTAIN_REQUIRE(plan != nullptr,
                              "plan-direct sampling requires a plan");
            scheduler_->run(std::make_shared<PlanBlocks<T, Out>>(
                                plan, base, offset, n, blockSize_, out),
                            workspaces_);
            return;
        }
        Out* next = out;
        forEachBlock<T>(plan, base, offset, n,
                        [&](const auto* col, std::size_t len) {
                            next = std::copy(col, col + len, next);
                        });
    }

    std::size_t blockSize_;
    PlanOptions optimizer_;
    std::shared_ptr<PlanCache> cache_;
    std::shared_ptr<BlockScheduler> scheduler_;
    WorkspacePool workspaces_;
};

} // namespace core
} // namespace uncertain

#endif // UNCERTAIN_CORE_BATCH_HPP
