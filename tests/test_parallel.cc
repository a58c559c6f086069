/**
 * @file
 * Unit tests for the sweep thread pool (common/parallel.hh): result
 * ordering, exception propagation, zero/nested submission, and the
 * jobs=1 serial-degenerate case.
 */

#include <atomic>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.hh"

using namespace hscd;

namespace {

void
napMs(int ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

} // namespace

TEST(Parallel, HardwareJobsIsPositive)
{
    EXPECT_GE(hardwareJobs(), 1u);
}

TEST(Parallel, ResultsInSubmissionOrder)
{
    // Later tasks finish first (earlier ones sleep longer); the result
    // vector must still be in submission order.
    const std::size_t n = 24;
    std::vector<int> out = parallelMap(8, n, [&](std::size_t i) {
        napMs(i < 4 ? int(8 - 2 * i) : 0);
        return int(i) * 10;
    });
    ASSERT_EQ(out.size(), n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i], int(i) * 10) << "index " << i;
}

TEST(Parallel, Jobs1RunsInlineOnCaller)
{
    const std::thread::id self = std::this_thread::get_id();
    std::vector<std::size_t> order;
    std::vector<std::thread::id> ids = parallelMap(1, 8, [&](std::size_t i) {
        order.push_back(i); // safe: inline execution is serial
        return std::this_thread::get_id();
    });
    for (const std::thread::id &id : ids)
        EXPECT_EQ(id, self);
    ASSERT_EQ(order.size(), 8u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Parallel, ZeroTasks)
{
    std::vector<int> out = parallelMap(4, 0, [](std::size_t) { return 1; });
    EXPECT_TRUE(out.empty());

    // An idle pool constructs, waits, and destructs cleanly.
    ThreadPool pool(4);
    pool.wait();
}

TEST(Parallel, ExceptionFromLowestIndexWins)
{
    // Index 9 throws immediately, index 2 throws late: the serial
    // equivalent would have reported index 2 first, so we must too.
    EXPECT_THROW(
        {
            try {
                parallelMap(8, 12, [&](std::size_t i) -> int {
                    if (i == 9)
                        throw std::runtime_error("late index");
                    if (i == 2) {
                        napMs(10);
                        throw std::runtime_error("early index");
                    }
                    return 0;
                });
            } catch (const std::runtime_error &e) {
                EXPECT_STREQ(e.what(), "early index");
                throw;
            }
        },
        std::runtime_error);
}

TEST(Parallel, Jobs1ExceptionStopsLikeASerialLoop)
{
    std::vector<std::size_t> executed;
    EXPECT_THROW(parallelMap(1, 8,
                             [&](std::size_t i) -> int {
                                 executed.push_back(i);
                                 if (i == 2)
                                     throw std::runtime_error("boom");
                                 return 0;
                             }),
                 std::runtime_error);
    // Inline mode must not run anything past the throwing index.
    EXPECT_EQ(executed, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Parallel, NestedSubmission)
{
    ThreadPool pool(4);
    std::atomic<int> done{0};
    for (int i = 0; i < 6; ++i) {
        pool.submit([&pool, &done] {
            // Each parent enqueues two children onto the same pool.
            for (int c = 0; c < 2; ++c)
                pool.submit([&done] { ++done; });
            ++done;
        });
    }
    pool.wait(); // must cover children queued by running parents
    EXPECT_EQ(done.load(), 6 * 3);
}

TEST(Parallel, MoreJobsThanTasks)
{
    std::vector<int> out =
        parallelMap(16, 3, [](std::size_t i) { return int(i) + 1; });
    EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
}

TEST(Parallel, NoMoreThreadsThanTasks)
{
    // Two tasks get two workers, not the 64 asked for: the process's
    // thread count, read while a task runs, stays far below 64.
    const std::vector<std::size_t> threads =
        parallelMap(64, 2, [](std::size_t) {
            std::size_t n = 0;
            for (const auto &e :
                 std::filesystem::directory_iterator("/proc/self/task"))
            {
                (void)e;
                ++n;
            }
            return n;
        });
    for (std::size_t n : threads) {
        EXPECT_GT(n, 0u);
        EXPECT_LT(n, 64u);
    }
}

TEST(Parallel, ParallelForSideEffects)
{
    std::atomic<long> sum{0};
    parallelFor(8, 100, [&](std::size_t i) { sum += long(i); });
    EXPECT_EQ(sum.load(), 99L * 100 / 2);
}

TEST(Parallel, PoolReusableAcrossWaves)
{
    ThreadPool pool(3);
    std::atomic<int> count{0};
    for (int wave = 0; wave < 3; ++wave) {
        for (int i = 0; i < 10; ++i)
            pool.submit([&count] { ++count; });
        pool.wait();
        EXPECT_EQ(count.load(), (wave + 1) * 10);
    }
}
