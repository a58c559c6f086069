/**
 * @file
 * Differential test of the executor's ready queue against the
 * std::priority_queue ordering it must reproduce, and of its packed
 * keys' limits.
 *
 * The queue holds one entry per processor (a winner tree keeps a leaf
 * per processor), as the executor uses it: every sequence here pushes
 * only processors that are not queued.
 */

#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "fault/abort.hh"
#include "mem/machine_config.hh"
#include "sim/ready_heap.hh"

using namespace hscd;
using namespace hscd::sim;

namespace {

using Entry = std::pair<Cycles, ProcId>;
using Reference =
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>>;

::testing::AssertionResult
sameTop(const ReadyHeap &heap, const Reference &ref)
{
    if (heap.size() != ref.size())
        return ::testing::AssertionFailure()
               << "size " << heap.size() << ", reference " << ref.size();
    if (!ref.empty() && (heap.top().time != ref.top().first ||
                         heap.top().proc != ref.top().second))
        return ::testing::AssertionFailure()
               << "top (" << heap.top().time << ", " << heap.top().proc
               << "), reference (" << ref.top().first << ", "
               << ref.top().second << ")";
    return ::testing::AssertionSuccess();
}

/** Pop both to empty, checking every top on the way. */
::testing::AssertionResult
drainsAlike(ReadyHeap &heap, Reference &ref)
{
    while (!ref.empty()) {
        if (::testing::AssertionResult same = sameTop(heap, ref); !same)
            return same;
        heap.pop();
        ref.pop();
    }
    if (!heap.empty())
        return ::testing::AssertionFailure()
               << heap.size() << " entries left after the reference drained";
    return ::testing::AssertionSuccess();
}

/**
 * Random push / pop / replace-top sequences over @p procs processors and
 * a narrow time range (so many entries tie on time and order by
 * processor). Pops park a processor; pushes wake a parked one, so no
 * processor is ever queued twice. replaceTop is mirrored on the
 * reference as pop + push of the same processor.
 */
void
runSequence(std::uint64_t seed, unsigned procs, unsigned ops,
            std::uint32_t time_span)
{
    Rng rng(seed);
    ReadyHeap heap;
    heap.reserve(rng.below(2) ? procs : 1); // grown by push otherwise
    Reference ref;
    std::vector<ProcId> parked;
    for (ProcId p = 0; p < procs; ++p)
        parked.push_back(p);
    for (unsigned i = 0; i < ops; ++i) {
        const unsigned what = rng.below(3);
        if (ref.empty() || (what == 0 && !parked.empty())) {
            const std::size_t pick = rng.below(parked.size());
            const ProcId p = parked[pick];
            parked[pick] = parked.back();
            parked.pop_back();
            const Cycles t = rng.below(time_span);
            heap.push(t, p);
            ref.emplace(t, p);
        } else if (what == 1) {
            parked.push_back(ref.top().second);
            heap.pop();
            ref.pop();
        } else {
            const auto [t0, p] = ref.top();
            const Cycles t = t0 + rng.below(time_span);
            heap.replaceTop(t);
            ref.pop();
            ref.emplace(t, p);
        }
        ASSERT_TRUE(sameTop(heap, ref))
            << "seed " << seed << " P=" << procs << " op " << i;
    }
    ASSERT_TRUE(drainsAlike(heap, ref)) << "seed " << seed << " P=" << procs;
}

} // namespace

TEST(ReadyHeap, PopOrderMatchesPriorityQueue)
{
    for (std::uint64_t seed = 1; seed <= 200; ++seed)
        runSequence(seed, 16, 400, seed % 2 ? 4 : 64);
}

/**
 * Machine shapes whose processor count is not a power of two (padded
 * leaves), the smallest, and the largest the key's field holds.
 */
TEST(ReadyHeap, PopOrderMatchesPriorityQueueAtEveryWidth)
{
    for (unsigned procs : {1u, 3u, 5u, 48u, 64u, 4096u}) {
        const unsigned ops = procs == 4096 ? 20000 : 2000;
        for (std::uint64_t seed = 1; seed <= 8; ++seed)
            runSequence(seed * 7919 + procs, procs, ops,
                        seed % 2 ? 4 : 1024);
    }
}

/** The executor's shape: each processor queued once, clocks only grow. */
TEST(ReadyHeap, ReplaceTopRunAheadMatchesPopPush)
{
    Rng rng(42);
    ReadyHeap heap;
    heap.reserve(16);
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

/**
 * Keys at the edges of both packed fields: the largest processor id and
 * times just below the limit still order exactly as (time, proc) pairs.
 * (2^52 - 1, 4095) packs to all-ones, the value of an absent leaf; it is
 * still a live entry, and the queue's size says so.
 */
TEST(ReadyHeap, KeysAtTheBoundOrderAsPairs)
{
    static_assert(ReadyHeap::kTimeLimit == Cycles(1) << 52);
    const Cycles top = ReadyHeap::kTimeLimit - 1;
    const ProcId last = MachineConfig::kMaxProcs - 1;
    // Each round queues distinct processors; the bound keys that share
    // a processor (last, 0) fall in different rounds.
    const std::vector<std::vector<Entry>> rounds = {
        {{top, last}, {top, 0}, {top - 1, last - 1}, {0, 2},
         {top, 17}, {top - 4096, 1}, {1, 3}, {top - 1, 4}},
        {{top - 1, last}, {1, 0}, {top, 1}, {top - 1, 2}},
        {{0, last}, {top - 1, 0}, {top, last - 1}},
    };
    for (const std::vector<Entry> &entries : rounds) {
        ReadyHeap heap;
        Reference ref;
        for (const auto &[t, p] : entries) {
            heap.push(t, p);
            ref.emplace(t, p);
        }
        // Re-key the earliest processor to the last representable time.
        const ProcId first = ref.top().second;
        heap.replaceTop(top);
        ref.pop();
        ref.emplace(top, first);
        ASSERT_TRUE(drainsAlike(heap, ref));
    }

    // The all-ones entry alone: a live top, then an empty queue.
    ReadyHeap heap;
    heap.push(top, last);
    ASSERT_EQ(heap.size(), 1u);
    EXPECT_EQ(heap.top().time, top);
    EXPECT_EQ(heap.top().proc, last);
    heap.pop();
    EXPECT_TRUE(heap.empty());
}

/**
 * A queue sized for one processor grows to hold the largest id on its
 * first push, and keeps its entries as it grows.
 */
TEST(ReadyHeap, GrowsFromAFirstPushOfTheLargestId)
{
    const ProcId last = MachineConfig::kMaxProcs - 1;
    ReadyHeap heap;
    Reference ref;
    heap.push(50, last);
    ref.emplace(50, last);
    ASSERT_TRUE(sameTop(heap, ref));
    for (ProcId p : {0u, 7u, 2048u, 4094u, 1u}) {
        heap.push(50 + p % 3, p);
        ref.emplace(50 + p % 3, p);
        ASSERT_TRUE(sameTop(heap, ref));
    }
    heap.replaceTop(60);
    const ProcId p = ref.top().second;
    ref.pop();
    ref.emplace(60, p);
    EXPECT_TRUE(drainsAlike(heap, ref));

    // Growth in steps keeps what was queued before.
    ReadyHeap small;
    Reference sref;
    for (ProcId q : {0u, 1u, 2u, 5u, 9u, 33u, 100u, 4095u}) {
        small.push(1000 - q, q);
        sref.emplace(1000 - q, q);
        ASSERT_TRUE(sameTop(small, sref)) << "after pushing " << q;
    }
    EXPECT_TRUE(drainsAlike(small, sref));
}

/**
 * A lock or a flag parks the processor on top (pop); it is woken later
 * by another processor's op (push) while it is not the earliest, and
 * then must wait its turn.
 */
TEST(ReadyHeap, ParkedProcessorWakesBehindTheTop)
{
    ReadyHeap heap;
    heap.reserve(8);
    Reference ref;
    for (ProcId p = 0; p < 8; ++p) {
        heap.push(10 * p, p);
        ref.emplace(10 * p, p);
    }
    // Processor 0 parks; the others run ahead of it.
    ASSERT_EQ(heap.top().proc, 0u);
    heap.pop();
    ref.pop();
    for (unsigned i = 0; i < 20; ++i) {
        const auto [t, p] = ref.top();
        heap.replaceTop(t + 7);
        ref.pop();
        ref.emplace(t + 7, p);
        ASSERT_TRUE(sameTop(heap, ref));
    }
    // Woken at a time behind the current top.
    const Cycles wake = ref.top().first + 15;
    heap.push(wake, 0);
    ref.emplace(wake, 0);
    ASSERT_TRUE(sameTop(heap, ref));
    EXPECT_NE(heap.top().proc, 0u);
    for (unsigned i = 0; i < 40; ++i) {
        const auto [t, p] = ref.top();
        heap.replaceTop(t + 3);
        ref.pop();
        ref.emplace(t + 3, p);
        ASSERT_TRUE(sameTop(heap, ref));
    }
    EXPECT_TRUE(drainsAlike(heap, ref));
}

#ifndef NDEBUG
/** Debug builds reject a second push of a queued processor. */
TEST(ReadyHeap, SecondPushOfAQueuedProcessorPanics)
{
    ReadyHeap heap;
    heap.push(5, 3);
    EXPECT_THROW(heap.push(9, 3), PanicError);
}
#endif

/**
 * A time the key cannot hold ends the run as a structured abort, before
 * the queue changes: never a silently mis-ordered processor.
 */
TEST(ReadyHeap, TimeAtTheLimitAbortsUnchanged)
{
    ReadyHeap heap;
    heap.push(5, 3);
    heap.push(ReadyHeap::kTimeLimit - 1, 4095);
    for (Cycles t : {ReadyHeap::kTimeLimit, ReadyHeap::kTimeLimit + 1,
                     ~Cycles(0)})
    {
        try {
            heap.push(t, 9);
            ADD_FAILURE() << "push at " << t << " accepted";
        } catch (const fault::RunAbort &ab) {
            EXPECT_EQ(ab.info.kind, fault::AbortKind::ClockLimit);
            EXPECT_EQ(ab.info.cycle, t);
            EXPECT_EQ(ab.info.proc, 9u);
        }
        try {
            heap.replaceTop(t);
            ADD_FAILURE() << "replaceTop at " << t << " accepted";
        } catch (const fault::RunAbort &ab) {
            EXPECT_EQ(ab.info.kind, fault::AbortKind::ClockLimit);
            EXPECT_EQ(ab.info.proc, 3u);
        }
    }
    ASSERT_EQ(heap.size(), 2u);
    EXPECT_EQ(heap.top().time, 5u);
    EXPECT_EQ(heap.top().proc, 3u);
    heap.pop();
    EXPECT_EQ(heap.top().time, ReadyHeap::kTimeLimit - 1);
    EXPECT_EQ(heap.top().proc, 4095u);
}
