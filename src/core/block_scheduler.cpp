#include "core/block_scheduler.hpp"

#include <system_error>

#if defined(__linux__)
#include <sched.h>
#endif

namespace uncertain {
namespace core {

unsigned
availableCpus()
{
#if defined(__linux__)
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
        const int count = CPU_COUNT(&mask);
        if (count > 0)
            return static_cast<unsigned>(count);
    }
#endif
    const unsigned online = std::thread::hardware_concurrency();
    return online > 0 ? online : 1;
}

void
BlockScheduler::finish(BlockTask& task, std::size_t block,
                       WorkspacePool& workspaces)
{
    BatchWorkspace& workspace = task.fill(block, workspaces);
    std::uint8_t expected = BlockTask::kOpen;
    if (!task.state_[block].compare_exchange_strong(
            expected, BlockTask::kWriting, std::memory_order_acq_rel))
        return; // another participant's copy won; discard ours
    task.commit(block, workspace);
    task.state_[block].store(BlockTask::kDone, std::memory_order_release);
}

void
BlockScheduler::awaitCommit(const BlockTask& task, std::size_t block)
{
    // A copy of one block another participant has begun, never a
    // block's computation.
    while (task.state_[block].load(std::memory_order_acquire)
           == BlockTask::kWriting)
        std::this_thread::yield();
}

BlockTask::BlockTask(std::size_t blocks)
    : blocks_(blocks),
      state_(new std::atomic<std::uint8_t>[blocks])
{
    for (std::size_t b = 0; b < blocks; ++b)
        state_[b].store(kOpen, std::memory_order_relaxed);
}

BlockScheduler::BlockScheduler(unsigned helpers) : helpers_(helpers) {}

BlockScheduler::~BlockScheduler()
{
    stop();
}

std::size_t
BlockScheduler::startedHelpers() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return threads_.size();
}

void
BlockScheduler::stop()
{
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
        threads.swap(threads_);
    }
    wake_.notify_all();
    for (auto& thread : threads)
        thread.join();
}

bool
BlockScheduler::publish(const std::shared_ptr<BlockTask>& task)
{
    if (helpers_ == 0)
        return false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_)
            return false;
        if (threads_.empty()) {
            threads_.reserve(helpers_);
            try {
                for (unsigned i = 0; i < helpers_; ++i)
                    threads_.emplace_back([this] { helperLoop(); });
            } catch (const std::system_error&) {
                // Run with the helpers that did start; the caller
                // alone can finish any query.
            }
            if (threads_.empty())
                return false;
        }
        open_.push_back(task);
    }
    wake_.notify_all();
    return true;
}

void
BlockScheduler::retireExhausted()
{
    std::erase_if(open_, [](const std::shared_ptr<BlockTask>& task) {
        return task->next_.load(std::memory_order_relaxed)
               >= task->blocks_;
    });
}

void
BlockScheduler::run(const std::shared_ptr<BlockTask>& task,
                    WorkspacePool& workspaces)
{
    BlockTask& t = *task;
    const std::size_t blocks = t.blocks_;
    const bool shared = publish(task);
    std::size_t folded = 0;
    try {
        // Claim like any helper; fold the finished prefix between
        // blocks so the reduction overlaps the helpers' fills.
        for (std::size_t b;
             (b = t.next_.fetch_add(1, std::memory_order_relaxed))
             < blocks;) {
            finish(t, b, workspaces);
            while (folded < blocks
                   && t.state_[folded].load(std::memory_order_acquire)
                          == BlockTask::kDone) {
                t.fold(folded++);
            }
        }
        if (shared) {
            std::lock_guard<std::mutex> lock(mutex_);
            retireExhausted();
        }
        // Nothing unclaimed remains: take over every block a helper
        // has claimed but not finished instead of waiting for it.
        for (; folded < blocks; ++folded) {
            if (t.state_[folded].load(std::memory_order_acquire)
                == BlockTask::kOpen)
                finish(t, folded, workspaces);
            awaitCommit(t, folded);
            t.fold(folded);
        }
    } catch (...) {
        // No helper may write the caller's output once it unwinds:
        // close the counter, abandon every open block, and wait out
        // the copies already in progress.
        t.next_.store(blocks, std::memory_order_relaxed);
        for (std::size_t b = 0; b < blocks; ++b) {
            std::uint8_t expected = BlockTask::kOpen;
            if (!t.state_[b].compare_exchange_strong(
                    expected, BlockTask::kAbandoned,
                    std::memory_order_acq_rel))
                awaitCommit(t, b);
        }
        if (shared) {
            std::lock_guard<std::mutex> lock(mutex_);
            retireExhausted();
        }
        throw;
    }
}

void
BlockScheduler::helperLoop()
{
    WorkspacePool workspaces;
    std::shared_ptr<BlockTask> task;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        retireExhausted();
        wake_.wait(lock, [this] { return stopping_ || !open_.empty(); });
        if (stopping_)
            return;
        task = open_.front();
        lock.unlock();
        BlockTask& t = *task;
        for (std::size_t b;
             (b = t.next_.fetch_add(1, std::memory_order_relaxed))
             < t.blocks_;) {
            try {
                finish(t, b, workspaces);
            } catch (...) {
                // Leave the block open: its caller takes it over and
                // meets the same error on its own thread.
            }
        }
        task.reset();
        lock.lock();
    }
}

} // namespace core
} // namespace uncertain
