/**
 * @file
 * A small work-stealing thread pool for embarrassingly-parallel
 * simulator sweeps.
 *
 * Each worker owns a deque of tasks: it pops from the back of its own
 * deque (LIFO, cache-friendly) and steals from the front of a victim's
 * deque (FIFO, oldest work first) when its own runs dry. submit() and
 * the completion accounting are what the sweep runner needs: tasks may
 * be submitted from any thread, wait() blocks until every submitted
 * task has finished, and destruction joins the workers.
 *
 * Task execution order is unspecified — callers that need deterministic
 * output must make each task pure and aggregate results by submission
 * index (see sim::SweepRunner).
 *
 * Fault tolerance: a task that throws does not take the pool (or the
 * process) down. The exception is captured into an std::exception_ptr
 * slot, completion is still accounted (pending_ is always
 * decremented), and the remaining tasks keep running. wait() surfaces
 * the first captured failure by rethrowing it once every task has
 * finished; the recorded failures are cleared so the pool stays
 * usable for the next batch. Callers that must see *every* failure
 * (not just the first) should catch inside their tasks, as
 * sim::SweepRunner does.
 */

#ifndef REST_UTIL_THREAD_POOL_HH
#define REST_UTIL_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/logging.hh"

namespace rest::util
{

class ThreadPool
{
  public:
    /**
     * @param num_threads worker count; 0 is clamped to 1. With one
     *        worker the pool still runs tasks on that worker thread,
     *        preserving submit()/wait() semantics.
     */
    explicit ThreadPool(unsigned num_threads)
        : queues_(std::max(1u, num_threads))
    {
        unsigned n = std::max(1u, num_threads);
        workers_.reserve(n);
        for (unsigned i = 0; i < n; ++i)
            workers_.emplace_back([this, i] { workerLoop(i); });
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    ~ThreadPool()
    {
        {
            std::unique_lock lock(mutex_);
            stopping_ = true;
        }
        cv_.notify_all();
        for (auto &w : workers_)
            w.join();
    }

    unsigned numThreads() const { return unsigned(workers_.size()); }

    /** Enqueue one task; round-robins across worker deques. */
    void
    submit(std::function<void()> task)
    {
        {
            std::unique_lock lock(mutex_);
            rest_assert(!stopping_, "submit() on a stopping pool");
            ++pending_;
            queues_[next_queue_].push_back(std::move(task));
            next_queue_ = (next_queue_ + 1) % queues_.size();
        }
        cv_.notify_one();
    }

    /**
     * Block until every task submitted so far has completed. If any
     * task threw, the first captured exception is rethrown here (after
     * all tasks finished) and the failure record is cleared, so the
     * pool remains usable. Additional failures from the same batch are
     * dropped; their count is reported via taskFailures() before the
     * rethrow clears it.
     */
    void
    wait()
    {
        std::exception_ptr first;
        {
            std::unique_lock lock(mutex_);
            done_cv_.wait(lock, [this] { return pending_ == 0; });
            if (!failures_.empty()) {
                first = failures_.front();
                failures_.clear();
            }
        }
        if (first)
            std::rethrow_exception(first);
    }

    /** Number of failed tasks recorded since the last wait() rethrow. */
    std::size_t
    taskFailures() const
    {
        std::unique_lock lock(mutex_);
        return failures_.size();
    }

  private:
    void
    workerLoop(unsigned self)
    {
        for (;;) {
            std::function<void()> task;
            {
                std::unique_lock lock(mutex_);
                cv_.wait(lock, [this, self] {
                    return stopping_ || findWork(self);
                });
                if (stopping_ && !findWork(self))
                    return;
                task = std::move(takeWork(self));
            }
            std::exception_ptr failure;
            try {
                task();
            } catch (...) {
                // Never let a task exception escape the worker thread
                // (that would std::terminate the process) or skip the
                // completion accounting below (that would hang wait()
                // on the leaked pending_ count forever).
                failure = std::current_exception();
            }
            {
                std::unique_lock lock(mutex_);
                if (failure)
                    failures_.push_back(std::move(failure));
                if (--pending_ == 0)
                    done_cv_.notify_all();
            }
        }
    }

    /** Any runnable task visible to worker `self`? Caller holds lock. */
    bool
    findWork(unsigned self) const
    {
        if (!queues_[self].empty())
            return true;
        for (const auto &q : queues_)
            if (!q.empty())
                return true;
        return false;
    }

    /** Pop own work (back) or steal (front). Caller holds the lock and
     *  has established via findWork() that a task exists. */
    std::function<void()>
    takeWork(unsigned self)
    {
        auto &own = queues_[self];
        if (!own.empty()) {
            auto task = std::move(own.back());
            own.pop_back();
            return task;
        }
        for (std::size_t i = 1; i <= queues_.size(); ++i) {
            auto &victim = queues_[(self + i) % queues_.size()];
            if (!victim.empty()) {
                auto task = std::move(victim.front());
                victim.pop_front();
                return task;
            }
        }
        rest_panic("takeWork() with no runnable task");
    }

    std::vector<std::deque<std::function<void()>>> queues_;
    std::vector<std::thread> workers_;
    std::vector<std::exception_ptr> failures_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::condition_variable done_cv_;
    std::size_t next_queue_ = 0;
    std::size_t pending_ = 0;
    bool stopping_ = false;
};

} // namespace rest::util

#endif // REST_UTIL_THREAD_POOL_HH
