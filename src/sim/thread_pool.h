/**
 * @file
 * Fixed-size worker pool for fanning out independent simulations.
 *
 * The experiment layer fans independent (config, workload, seed)
 * points out as one task each (src/core_api/parallel_runner.h). A
 * plain FIFO queue is enough: tasks are seconds-long simulations, so
 * queue contention is irrelevant and work stealing would buy nothing.
 */

#ifndef CMPSIM_SIM_THREAD_POOL_H
#define CMPSIM_SIM_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cmpsim {

/**
 * Fixed worker pool with FIFO dispatch.
 *
 * submit() enqueues a task; wait() blocks until every submitted task
 * has finished. Task exceptions are collected, not dropped: one
 * failure is rethrown as-is, several are folded into a SimError
 * carrying the failure count and the first error's message. The
 * destructor drains outstanding work and joins the workers.
 */
class ThreadPool
{
  public:
    using Task = std::function<void()>;

    /** @param threads worker count; 0 is clamped to 1. */
    explicit ThreadPool(unsigned threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue @p task. Must not be called concurrently with wait(). */
    void submit(Task task);

    /** Block until all submitted tasks finished. One task exception
     *  since the last wait() is rethrown as-is; several become one
     *  SimError reporting the count and the first message. */
    void wait();

    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable work_ready_;
    std::condition_variable all_done_;
    std::deque<Task> queue_;
    std::size_t in_flight_ = 0; ///< queued + currently executing
    std::vector<std::exception_ptr> errors_;
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

} // namespace cmpsim

#endif // CMPSIM_SIM_THREAD_POOL_H
