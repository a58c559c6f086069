/**
 * @file
 * Regression tests for the compiledBenchmark() cache: concurrent
 * first-touch from many threads used to race on an unsynchronized map
 * (and could hand out references into a map mid-mutation). The cache is
 * thread-safe, insert-once and hands out shared ownership; every caller
 * for a key must get the same object.
 *
 * The keys here use affinity=false so no other test in this binary has
 * already warmed them - the racy path was specifically concurrent
 * FIRST-touch.
 */

#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness.hh"

using namespace hscd;
using namespace hscd::bench;

TEST(HarnessCache, ConcurrentFirstTouchSameKey)
{
    constexpr int kThreads = 8;
    std::vector<CompiledProgramPtr> got(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&got, t] {
            got[t] = compiledBenchmark("OCEAN", 1, /*affinity=*/false);
        });
    for (std::thread &th : threads)
        th.join();
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(got[t].get(), got[0].get())
            << "thread " << t << " got a different cache entry";
    ASSERT_NE(got[0], nullptr);
    EXPECT_GT(got[0]->program.dataBytes(), 0u);
}

TEST(HarnessCache, ConcurrentMixedKeysHammer)
{
    const std::vector<std::string> names = {"ADM", "QCD2", "TRFD"};
    constexpr int kThreads = 8;
    constexpr int kIters = 25;

    // pointers[t][k]: what thread t saw for key k on its last call.
    std::vector<std::vector<CompiledProgramPtr>> pointers(
        kThreads, std::vector<CompiledProgramPtr>(names.size()));

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (int it = 0; it < kIters; ++it) {
                // Rotate the starting key per thread so first-touches
                // collide across different keys at once.
                for (std::size_t k = 0; k < names.size(); ++k) {
                    std::size_t key = (k + t) % names.size();
                    CompiledProgramPtr cp =
                        compiledBenchmark(names[key], 1,
                                          /*affinity=*/false);
                    if (pointers[t][key]) {
                        ASSERT_EQ(pointers[t][key].get(), cp.get())
                            << "cache entry moved for " << names[key];
                    }
                    pointers[t][key] = std::move(cp);
                }
            }
        });
    for (std::thread &th : threads)
        th.join();

    // All threads agree per key, and distinct keys are distinct objects.
    std::set<const compiler::CompiledProgram *> distinct;
    for (std::size_t k = 0; k < names.size(); ++k) {
        for (int t = 1; t < kThreads; ++t)
            EXPECT_EQ(pointers[t][k].get(), pointers[0][k].get());
        distinct.insert(pointers[0][k].get());
    }
    EXPECT_EQ(distinct.size(), names.size());
}
