/**
 * @file
 * The block scheduler behind every multi-block columnar query.
 *
 * A query of n draws is partitioned into column blocks of blockSize
 * samples; block b always draws from `base.split(offset + b *
 * blockSize)`, so it is a pure function of (plan, base, offset,
 * length) and any thread may run it. BlockScheduler runs the blocks
 * of one query on the calling thread plus a fixed set of helper
 * threads:
 *
 *   - The caller participates. It claims blocks from the query's
 *     shared counter exactly like a helper does, so a query never
 *     waits for a thread to wake up before it makes progress.
 *   - Many callers may run queries at once (server workers share one
 *     scheduler). Helpers join the oldest query that still has
 *     unclaimed blocks.
 *   - A slow helper never stalls its caller. Once no unclaimed block
 *     remains, the caller recomputes every block a helper has claimed
 *     but not finished. A per-block compare-and-swap lets exactly one
 *     finisher commit the block; the other discards its copy. Both
 *     computed the same bits, so the reply does not depend on who
 *     won. The caller waits only for a commit already in progress.
 *   - A reduction runs where each block is committed: the
 *     participant that commits a block reduces its root column to one
 *     partial (ReduceBlocks), and the caller joins the partials in
 *     block order once every block is in. The serial loop reduces
 *     each block with the same function and joins in the same order,
 *     so the mean of expectedValue and the hit count of probability
 *     are bit-identical to it, and no n-sized buffer is kept.
 *   - An exception thrown in a block reaches only its own caller. A
 *     helper that fails a block leaves it unfinished, the caller takes
 *     it over and throws the same error itself.
 *   - Every participant reuses one workspace per plan (WorkspacePool):
 *     the caller its sampler's pool, each helper a pool of its own.
 *
 * The task holds everything helpers touch (plan, Rng copy, output
 * pointer or partials) and is shared with them, so a helper still
 * filling a block after its caller returned works on live state; it
 * can no longer write the output, because every block is finished by
 * then.
 *
 * Helper threads start lazily on the first query that is published to
 * them and are joined by stop(). A scheduler with zero helpers never
 * starts a thread, and samplers skip it entirely: their serial block
 * loop is the same execution.
 */

#ifndef UNCERTAIN_CORE_BLOCK_SCHEDULER_HPP
#define UNCERTAIN_CORE_BLOCK_SCHEDULER_HPP

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/batch_plan.hpp"
#include "support/rng.hpp"

namespace uncertain {
namespace core {

/**
 * CPUs in this process's scheduling-affinity mask (what `nproc`
 * counts), at least 1. Under a cpuset or `taskset` this is smaller
 * than the online count std::thread::hardware_concurrency() reports;
 * that count is the fallback where no mask is available.
 */
unsigned availableCpus();

/**
 * A private pool of reusable workspaces, one per plan. Not
 * thread-safe: each sampler and each scheduler helper owns one. Each
 * entry keeps its plan alive so the pointer key cannot dangle even
 * after the shared PlanCache evicts the plan.
 */
class WorkspacePool
{
  public:
    static constexpr std::size_t kMaxWorkspaces = 16;

    BatchWorkspace&
    acquire(const std::shared_ptr<const BatchPlan>& plan)
    {
        auto it = entries_.find(plan.get());
        if (it != entries_.end())
            return it->second.workspace;
        if (entries_.size() >= kMaxWorkspaces)
            entries_.clear();
        Entry entry{plan, plan->makeWorkspace()};
        return entries_.emplace(plan.get(), std::move(entry))
            .first->second.workspace;
    }

  private:
    struct Entry
    {
        std::shared_ptr<const BatchPlan> plan;
        BatchWorkspace workspace;
    };

    std::unordered_map<const BatchPlan*, Entry> entries_;
};

/**
 * One multi-block query as the scheduler sees it. fill() may run
 * twice for one block (a take-over) and on any thread, so it must be
 * a pure function of the block index; commit() runs exactly once per
 * block, on whichever thread won it, and is visible to the caller
 * when run() returns.
 */
class BlockTask
{
  public:
    explicit BlockTask(std::size_t blocks);
    virtual ~BlockTask() = default;

    BlockTask(const BlockTask&) = delete;
    BlockTask& operator=(const BlockTask&) = delete;

    std::size_t blocks() const { return blocks_; }

    /** Compute block @p block in a workspace from @p workspaces and
     *  return that workspace. May throw. */
    virtual BatchWorkspace& fill(std::size_t block,
                                 WorkspacePool& workspaces) = 0;

    /** Consume the block fill() computed in @p workspace. */
    virtual void commit(std::size_t block, BatchWorkspace& workspace) = 0;

  private:
    friend class BlockScheduler;

    enum State : std::uint8_t { kOpen, kWriting, kDone, kAbandoned };

    std::size_t blocks_;
    std::atomic<std::size_t> next_{0}; //!< next unclaimed block
    std::unique_ptr<std::atomic<std::uint8_t>[]> state_;
};

/**
 * The blocks of [offset, offset + n) of a plan's root column, filled
 * in the participant's workspace; subclasses say what commit() does
 * with each.
 */
class PlanTask : public BlockTask
{
  public:
    PlanTask(std::shared_ptr<const BatchPlan> plan, const Rng& base,
             std::size_t offset, std::size_t n, std::size_t blockSize)
        : BlockTask((n + blockSize - 1) / blockSize),
          plan_(std::move(plan)), base_(base), offset_(offset), n_(n),
          blockSize_(blockSize)
    {}

    BatchWorkspace&
    fill(std::size_t block, WorkspacePool& workspaces) override
    {
        BatchWorkspace& workspace = workspaces.acquire(plan_);
        const std::size_t start = block * blockSize_;
        plan_->runBlock(workspace, base_, offset_ + start,
                        std::min(blockSize_, n_ - start));
        return workspace;
    }

  protected:
    std::shared_ptr<const BatchPlan> plan_;
    Rng base_;
    std::size_t offset_;
    std::size_t n_;
    std::size_t blockSize_;
};

/**
 * The blocks of a plan's root column written to out[0..n) (Out
 * differs from T only for the byte-per-observation evidence of a bool
 * root).
 */
template <typename T, typename Out = T>
class PlanBlocks : public PlanTask
{
  public:
    PlanBlocks(std::shared_ptr<const BatchPlan> plan, const Rng& base,
               std::size_t offset, std::size_t n, std::size_t blockSize,
               Out* out)
        : PlanTask(std::move(plan), base, offset, n, blockSize), out_(out)
    {}

    void
    commit(std::size_t block, BatchWorkspace& workspace) override
    {
        const auto* col =
            workspace.template column<T>(plan_->rootColumn()).data();
        std::copy(col, col + workspace.length(),
                  out_ + block * blockSize_);
    }

  private:
    Out* out_;
};

/**
 * The sum of x[0..len), len >= 1, in the one shape every batch and
 * served mean takes. Below eight values it is the left fold x0 + x1 +
 * ... . Otherwise lane j (j < 8) sums x[j], x[j + 8], x[j + 16], ...
 * in index order, and the lanes are joined as ((l0 + l1) + (l2 + l3))
 * + ((l4 + l5) + (l6 + l7)). Eight independent chains let the adds
 * overlap where one chain would wait on each; the shape is fixed, so
 * the bits depend only on the values. Needs only T + T, no T{}.
 */
template <typename T>
T
blockSum(const T* x, std::size_t len)
{
    if (len < 8) {
        T sum = x[0];
        for (std::size_t i = 1; i < len; ++i)
            sum = sum + x[i];
        return sum;
    }
    std::array<T, 8> lane{x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]};
    std::size_t i = 8;
    for (; i + 8 <= len; i += 8) {
        for (std::size_t j = 0; j < 8; ++j)
            lane[j] = lane[j] + x[i + j];
    }
    for (std::size_t j = 0; i + j < len; ++j)
        lane[j] = lane[j] + x[i + j];
    return ((lane[0] + lane[1]) + (lane[2] + lane[3]))
           + ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

/**
 * The sum of x[0..n), n >= 1, cut into blocks of @p blockSize: each
 * block's blockSum, added in block order. This is the sum behind a
 * batch expectedValue of n draws at that block size.
 */
template <typename T>
T
sumInBlocks(const T* x, std::size_t n, std::size_t blockSize)
{
    T sum = blockSum(x, std::min(blockSize, n));
    for (std::size_t start = blockSize; start < n; start += blockSize)
        sum = sum + blockSum(x + start, std::min(blockSize, n - start));
    return sum;
}

/**
 * The blocks of a plan's root column reduced where they are
 * committed: partial b is reduce(column, length) of block b, and
 * total() adds the partials in block order. Holds blocks() partials,
 * never the draws.
 */
template <typename T, typename Reduce>
class ReduceBlocks final : public PlanTask
{
  public:
    using Partial = std::invoke_result_t<const Reduce&,
                                         const batch::Store<T>*,
                                         std::size_t>;

    ReduceBlocks(std::shared_ptr<const BatchPlan> plan, const Rng& base,
                 std::size_t offset, std::size_t n, std::size_t blockSize,
                 Reduce reduce)
        : PlanTask(std::move(plan), base, offset, n, blockSize),
          reduce_(std::move(reduce)),
          partials_(blocks())
    {}

    void
    commit(std::size_t block, BatchWorkspace& workspace) override
    {
        partials_[block].emplace(reduce_(
            workspace.template column<T>(plan_->rootColumn()).data(),
            workspace.length()));
    }

    /** The joined partials; valid once run() has returned. */
    Partial
    total() const
    {
        Partial sum = *partials_[0];
        for (std::size_t b = 1; b < blocks(); ++b)
            sum = sum + *partials_[b];
        return sum;
    }

  private:
    Reduce reduce_;
    std::vector<std::optional<Partial>> partials_;
};

/**
 * Runs BlockTasks on the calling thread plus @p helpers shared helper
 * threads (see the file comment). Thread-safe: any number of threads
 * may call run() concurrently.
 */
class BlockScheduler
{
  public:
    explicit BlockScheduler(unsigned helpers);
    ~BlockScheduler();

    BlockScheduler(const BlockScheduler&) = delete;
    BlockScheduler& operator=(const BlockScheduler&) = delete;

    /** Helper threads this scheduler may start. */
    unsigned helpers() const { return helpers_; }

    /** Helper threads running now: 0 until the first run(), and again
     *  after stop(). */
    std::size_t startedHelpers() const;

    /** Join the helpers. Later runs execute on the caller alone.
     *  Idempotent. */
    void stop();

    /**
     * Run every block of @p task, claiming blocks on this thread
     * alongside the helpers, and return once every block is
     * committed. @p workspaces is the caller's own pool. Rethrows
     * the first exception a block throws on this thread; blocks a
     * helper could not finish are recomputed here first.
     */
    void run(const std::shared_ptr<BlockTask>& task,
             WorkspacePool& workspaces);

  private:
    /** Fill @p block and commit it unless another participant
     *  finished it first. */
    static void finish(BlockTask& task, std::size_t block,
                       WorkspacePool& workspaces);
    static void awaitCommit(const BlockTask& task, std::size_t block);

    void helperLoop();
    bool publish(const std::shared_ptr<BlockTask>& task);
    void retireExhausted();

    unsigned helpers_;
    mutable std::mutex mutex_; //!< guards open_, stopping_, threads_
    std::condition_variable wake_;
    std::vector<std::shared_ptr<BlockTask>> open_; //!< oldest first
    bool stopping_ = false;
    std::vector<std::thread> threads_;
};

} // namespace core
} // namespace uncertain

#endif // UNCERTAIN_CORE_BLOCK_SCHEDULER_HPP
