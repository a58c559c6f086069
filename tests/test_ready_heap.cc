/**
 * @file
 * Differential test of the executor's ready heap against the
 * std::priority_queue ordering it replaced.
 */

#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "sim/ready_heap.hh"

using namespace hscd;
using namespace hscd::sim;

namespace {

using Entry = std::pair<Cycles, ProcId>;
using Reference =
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>>;

/**
 * Random push / pop / replace-top sequences over a narrow time range
 * (so many entries tie on time and order by processor). replaceTop is
 * mirrored on the reference as pop + push of the same processor.
 */
void
runSequence(std::uint64_t seed, unsigned ops, std::uint32_t time_span)
{
    Rng rng(seed);
    ReadyHeap heap;
    Reference ref;
    for (unsigned i = 0; i < ops; ++i) {
        const unsigned what = rng.below(3);
        if (what == 0 || ref.empty()) {
            const Cycles t = rng.below(time_span);
            const ProcId p = rng.below(16);
            heap.push(t, p);
            ref.emplace(t, p);
        } else if (what == 1) {
            heap.pop();
            ref.pop();
        } else {
            const ProcId p = ref.top().second;
            const Cycles t = ref.top().first + rng.below(time_span);
            heap.replaceTop(t);
            ref.pop();
            ref.emplace(t, p);
        }
        ASSERT_EQ(heap.size(), ref.size()) << "seed " << seed;
        if (!ref.empty()) {
            ASSERT_EQ(heap.top().time, ref.top().first) << "seed " << seed;
            ASSERT_EQ(heap.top().proc, ref.top().second) << "seed " << seed;
        }
    }
    while (!ref.empty()) {
        ASSERT_FALSE(heap.empty());
        ASSERT_EQ(heap.top().time, ref.top().first) << "seed " << seed;
        ASSERT_EQ(heap.top().proc, ref.top().second) << "seed " << seed;
        heap.pop();
        ref.pop();
    }
    EXPECT_TRUE(heap.empty());
}

} // namespace

TEST(ReadyHeap, PopOrderMatchesPriorityQueue)
{
    for (std::uint64_t seed = 1; seed <= 200; ++seed)
        runSequence(seed, 400, seed % 2 ? 4 : 64);
}

/** The executor's shape: each processor queued once, clocks only grow. */
TEST(ReadyHeap, ReplaceTopRunAheadMatchesPopPush)
{
    Rng rng(42);
    ReadyHeap heap;
    Reference ref;
    for (ProcId p = 0; p < 16; ++p) {
        heap.push(100, p);
        ref.emplace(100, p);
    }
    std::vector<ProcId> got, want;
    for (unsigned i = 0; i < 5000; ++i) {
        // Mostly one-cycle hits (ties everywhere), sometimes a miss.
        const Cycles stall = rng.below(8) == 0 ? 100 + rng.below(50) : 1;
        got.push_back(heap.top().proc);
        heap.replaceTop(heap.top().time + stall);
        const auto [t, p] = ref.top();
        want.push_back(p);
        ref.pop();
        ref.emplace(t + stall, p);
    }
    EXPECT_EQ(got, want);
}
