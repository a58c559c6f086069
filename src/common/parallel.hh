/**
 * @file
 * Thread-pool parallelism for embarrassingly parallel sweeps.
 *
 * The simulator itself is single-threaded and deterministic; what the
 * experiment harness needs is to run many independent simulations at
 * once and still produce output that is bit-identical to a serial run.
 * The primitives here guarantee exactly that:
 *
 *  - ThreadPool: a fixed set of workers draining a FIFO task queue.
 *    Tasks may submit further tasks (nested submission); wait() blocks
 *    until the pool is fully drained, including such children.
 *  - parallelMap(jobs, n, fn): evaluate fn(0..n-1) and return the
 *    results **in index order** regardless of completion order or
 *    thread count, on at most min(jobs, n) worker threads (one per
 *    task at most). With jobs == 1 the calls run inline on the caller,
 *    reproducing serial behavior bit-for-bit (no threads are created).
 *    If any invocation throws, the exception from the **lowest index**
 *    is rethrown after all tasks finish - again matching what a serial
 *    loop would have reported first.
 */

#ifndef HSCD_COMMON_PARALLEL_HH
#define HSCD_COMMON_PARALLEL_HH

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hscd {

/** Number of hardware threads (always >= 1). */
unsigned hardwareJobs();

/**
 * Fixed-size worker pool over a FIFO queue. Construction spawns the
 * workers; destruction waits for the queue to drain and joins them.
 */
class ThreadPool
{
  public:
    /** @p jobs == 0 selects hardwareJobs(). */
    explicit ThreadPool(unsigned jobs = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned jobs() const { return _jobs; }

    /**
     * Enqueue @p task. Safe from any thread, including pool workers
     * (nested submission). The task must not throw; wrap fallible work
     * and capture its std::exception_ptr (parallelMap does this).
     */
    void submit(std::function<void()> task);

    /**
     * Block until every submitted task - including tasks submitted by
     * running tasks - has completed.
     */
    void wait();

  private:
    void workerLoop();

    unsigned _jobs;
    std::vector<std::thread> _workers;
    std::deque<std::function<void()>> _queue;
    std::mutex _mtx;
    std::condition_variable _workReady; ///< queue non-empty or stopping
    std::condition_variable _allDone;   ///< pending dropped to zero
    std::size_t _pending = 0;           ///< queued + running tasks
    bool _stopping = false;
};

/**
 * Run fn(0), ..., fn(n-1) on @p jobs threads and return the results in
 * index order (deterministic aggregation). See the file comment for the
 * serial-equivalence and exception contract. @p jobs == 0 selects
 * hardwareJobs(); the result type must be default-constructible.
 */
template <typename Fn>
auto
parallelMap(unsigned jobs, std::size_t n, Fn &&fn)
    -> std::vector<decltype(fn(std::size_t{0}))>
{
    using R = decltype(fn(std::size_t{0}));
    std::vector<R> results(n);
    if (jobs == 0)
        jobs = hardwareJobs();
    if (jobs <= 1 || n <= 1) {
        // Inline serial path: same thread, same order, exceptions
        // propagate exactly as a plain loop would.
        for (std::size_t i = 0; i < n; ++i)
            results[i] = fn(i);
        return results;
    }

    std::vector<std::exception_ptr> errors(n);
    {
        ThreadPool pool(
            static_cast<unsigned>(std::min<std::size_t>(jobs, n)));
        for (std::size_t i = 0; i < n; ++i) {
            pool.submit([&, i] {
                try {
                    results[i] = fn(i);
                } catch (...) {
                    errors[i] = std::current_exception();
                }
            });
        }
        pool.wait();
    }
    for (std::size_t i = 0; i < n; ++i)
        if (errors[i])
            std::rethrow_exception(errors[i]);
    return results;
}

/** parallelMap for side-effecting loops (no result vector). */
template <typename Fn>
void
parallelFor(unsigned jobs, std::size_t n, Fn &&fn)
{
    parallelMap(jobs, n, [&](std::size_t i) {
        fn(i);
        return 0;
    });
}

} // namespace hscd

#endif // HSCD_COMMON_PARALLEL_HH
