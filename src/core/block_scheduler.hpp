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
 *     finisher write the output; the other discards its copy. Both
 *     computed the same bits, so the reply does not depend on who
 *     won. The caller waits only for a copy already in progress.
 *   - The caller folds finished blocks in index order while later
 *     blocks are still filling (BlockTask::fold), so a reduction such
 *     as the mean of expectedValue stays serial and in index order:
 *     bit-identical to the serial loop.
 *   - An exception thrown in a block reaches only its own caller. A
 *     helper that fails a block leaves it unfinished, the caller takes
 *     it over and throws the same error itself.
 *   - Every participant reuses one workspace per plan (WorkspacePool):
 *     the caller its sampler's pool, each helper a pool of its own.
 *
 * The task holds everything helpers touch (plan, Rng copy, output
 * pointer) and is shared with them, so a helper still filling a
 * block after its caller returned works on live state; it can no
 * longer write the output, because every block is finished by then.
 *
 * Helper threads start lazily on the first query that is published to
 * them and are joined by stop(). A scheduler with zero helpers never
 * starts a thread, and samplers skip it entirely: their serial block
 * loop is the same execution.
 */

#ifndef UNCERTAIN_CORE_BLOCK_SCHEDULER_HPP
#define UNCERTAIN_CORE_BLOCK_SCHEDULER_HPP

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
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
 * block; fold() runs on the caller only, in index order.
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

    /** Write the block fill() computed in @p workspace to the output. */
    virtual void commit(std::size_t block, BatchWorkspace& workspace) = 0;

    /** Consume a committed block; the caller's in-order reduction. */
    virtual void fold(std::size_t /*block*/) {}

  private:
    friend class BlockScheduler;

    enum State : std::uint8_t { kOpen, kWriting, kDone, kAbandoned };

    std::size_t blocks_;
    std::atomic<std::size_t> next_{0}; //!< next unclaimed block
    std::unique_ptr<std::atomic<std::uint8_t>[]> state_;
};

/**
 * The blocks of [offset, offset + n) of a plan's root column, written
 * to out[0..n) (Out differs from T only for the byte-per-observation
 * evidence of a bool root).
 */
template <typename T, typename Out = T>
class PlanBlocks : public BlockTask
{
  public:
    PlanBlocks(std::shared_ptr<const BatchPlan> plan, const Rng& base,
               std::size_t offset, std::size_t n, std::size_t blockSize,
               Out* out)
        : BlockTask((n + blockSize - 1) / blockSize),
          plan_(std::move(plan)), base_(base), offset_(offset), n_(n),
          blockSize_(blockSize), out_(out)
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

    void
    commit(std::size_t block, BatchWorkspace& workspace) override
    {
        const auto* col =
            workspace.template column<T>(plan_->rootColumn()).data();
        std::copy(col, col + workspace.length(),
                  out_ + block * blockSize_);
    }

  protected:
    std::shared_ptr<const BatchPlan> plan_;
    Rng base_;
    std::size_t offset_;
    std::size_t n_;
    std::size_t blockSize_;
    Out* out_;
};

/** PlanBlocks that also sums the draws in index order as blocks
 *  finish: `total = x0; total = total + xi` over i = 1..n-1, the
 *  exact order of the serial expectedValue loop. */
template <typename T>
class MeanBlocks final : public PlanBlocks<T>
{
  public:
    using PlanBlocks<T>::PlanBlocks;

    void
    fold(std::size_t block) override
    {
        const std::size_t start = block * this->blockSize_;
        const T* x = this->out_ + start;
        const std::size_t len =
            std::min(this->blockSize_, this->n_ - start);
        std::size_t i = 0;
        if (block == 0)
            total_ = x[i++];
        for (; i < len; ++i)
            total_ = total_ + x[i];
    }

    const T& total() const { return total_; }

  private:
    T total_{};
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
     * alongside the helpers, and return once every block is committed
     * and folded. @p workspaces is the caller's own pool. Rethrows
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
