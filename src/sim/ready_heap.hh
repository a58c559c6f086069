/**
 * @file
 * The executor's ready queue: a winner (tournament) tree over
 * (time, processor) entries, one leaf per processor.
 *
 * Inside a parallel epoch the processor with the earliest clock issues
 * next. After a memory reference (and the Computes folded into it) only
 * that processor re-queues, so the common step is "the top entry's time
 * grew" (replaceTop). The tree keeps one leaf per processor, padded to a
 * power of two; an absent processor's leaf holds all-ones, and every
 * inner node holds the smaller of its two children. Any update rewrites
 * the path from one leaf to the root with branch-free mins. The sibling
 * read at each level sits at an address fixed by the leaf alone, so the
 * log2(P) loads do not wait on each other the way a heap's sift-down
 * compares do.
 *
 * The executor does not wait for that update to learn who issues next.
 * Before the top processor p's reference goes out, it reads p's
 * runner-up (runnerUp): the least key among the siblings on p's
 * leaf-to-root path, which is the least key of every other entry. It
 * does not depend on p's new time, so those loads and mins overlap the
 * reference. When the reference returns, replaceTop(p, time, runner-up)
 * writes the path as before but names the next top from one compare: p
 * if its new key is below the runner-up, else the runner-up's processor.
 * The next step's loads depend on that compare only, not on the chain of
 * mins that ends in the root's store and its re-read.
 *
 * Entries order by time, then by processor id, exactly as
 * std::pair<Cycles, ProcId> under std::greater. Each processor is queued
 * at most once (a leaf holds one entry), so keys are unique and the pop
 * order is fully determined by the key order: any correct priority queue
 * pops the same sequence.
 *
 * A key packs both into one 64-bit integer, so times must stay below
 * kTimeLimit (2^52 cycles): queueing a later time ends the run with a
 * structured fault::RunAbort instead of mis-ordering the processors.
 * The largest legal key, (2^52 - 1, 4095), packs to all-ones like an
 * absent leaf, so the queue's size is a live count, never read off the
 * tree; a root of all-ones with a non-zero count is that entry. For the
 * same reason an all-ones runner-up may be "no other entry" or that
 * entry, and replaceTop then reads the updated root.
 */

#ifndef HSCD_SIM_READY_HEAP_HH
#define HSCD_SIM_READY_HEAP_HH

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/strutil.hh"
#include "common/types.hh"
#include "fault/abort.hh"
#include "mem/machine_config.hh"

namespace hscd {
namespace sim {

class ReadyHeap
{
    /** Low key bits hold the processor id. */
    static constexpr unsigned kProcBits = 12;
    static_assert(MachineConfig::kMaxProcs == 1u << kProcBits,
                  "a key's processor field holds every valid processor id");

  public:
    /** First time a key cannot hold. */
    static constexpr Cycles kTimeLimit = Cycles(1) << (64 - kProcBits);

    /**
     * (time, proc) as one 64-bit integer, time in the high 52 bits: key
     * order is the lexicographic pair order, and a compare is a single
     * integer comparison.
     */
    using Key = std::uint64_t;

    struct Entry
    {
        Cycles time = 0;
        ProcId proc = 0;
    };

    bool empty() const { return _size == 0; }
    std::size_t size() const { return _size; }

    void
    clear()
    {
        std::fill(_t.begin(), _t.end(), kAbsent);
        _size = 0;
    }

    /** Leaves for processors 0 .. @p procs - 1 (push grows past them). */
    void
    reserve(std::size_t procs)
    {
        if (procs > _leaves)
            grow(procs);
    }

    /** The earliest entry; the queue must not be empty. */
    Entry
    top() const
    {
        hscd_dassert(_size != 0, "top() of an empty ready queue");
        return Entry{timeOf(_t[1]), procOf(_t[1])};
    }

    /** Queue @p proc, which must not be queued already, at @p time. */
    void
    push(Cycles time, ProcId proc)
    {
        const Key k = keyOf(time, proc);
        if (proc >= _leaves)
            grow(std::size_t(proc) + 1);
        // The one legal key that packs to all-ones slips past this check.
        hscd_dassert(_t[_leaves + proc] == kAbsent,
                     "processor %d pushed while already queued", proc);
        ++_size;
        update(proc, k);
    }

    void
    pop()
    {
        hscd_dassert(_size != 0, "pop() of an empty ready queue");
        --_size;
        update(procOf(_t[1]), kAbsent);
    }

    /** Re-key the top entry's processor at @p time (pop + push in one). */
    void
    replaceTop(Cycles time)
    {
        hscd_dassert(_size != 0, "replaceTop() of an empty ready queue");
        const ProcId proc = procOf(_t[1]);
        replaceTop(proc, time, runnerUp(proc));
    }

    /**
     * The least key among every queued entry but @p proc's (all-ones if
     * there is none): the siblings on proc's leaf-to-root path, none of
     * which proc's own update writes.
     */
    Key
    runnerUp(ProcId proc) const
    {
        const Key *t = _t.data();
        Key runner = kAbsent;
        for (std::size_t i = _leaves + proc; i > 1; i >>= 1)
            runner = std::min(runner, t[i ^ 1]);
        return runner;
    }

    /**
     * Re-key the top entry, @p proc's, at @p time, and return the
     * processor on top afterwards. @p runner is runnerUp(proc), read
     * before proc's time changed.
     */
    ProcId
    replaceTop(ProcId proc, Cycles time, Key runner)
    {
        hscd_dassert(_size != 0 && procOf(_t[1]) == proc,
                     "replaceTop() of processor %d, not the top", proc);
        const Key k = keyOf(time, proc);
        update(proc, k);
        if (runner == kAbsent) [[unlikely]]
            return procOf(_t[1]);
        return k < runner ? proc : procOf(runner);
    }

  private:
    /** An absent processor's leaf: it loses every comparison. */
    static constexpr Key kAbsent = ~Key(0);

    static Key
    keyOf(Cycles time, ProcId proc)
    {
        hscd_dassert(proc < MachineConfig::kMaxProcs,
                     "processor %d beyond the key's field", proc);
        if (time >= kTimeLimit) [[unlikely]]
            clockPastLimit(time, proc);
        return (time << kProcBits) | proc;
    }
    static Cycles timeOf(Key k) { return k >> kProcBits; }
    static ProcId
    procOf(Key k)
    {
        return static_cast<ProcId>(k & ((Key(1) << kProcBits) - 1));
    }

    [[noreturn, gnu::cold, gnu::noinline]] static void
    clockPastLimit(Cycles time, ProcId proc)
    {
        fault::AbortInfo info;
        info.kind = fault::AbortKind::ClockLimit;
        info.reason = csprintf("processor %d's clock %d passed the ready "
                               "queue's 2^52-cycle limit",
                               proc, time);
        info.cycle = time;
        info.proc = proc;
        throw fault::RunAbort(std::move(info));
    }

    /** Set @p proc's leaf to @p k and replay the matches above it. */
    void
    update(ProcId proc, Key k)
    {
        Key *t = _t.data();
        std::size_t i = _leaves + proc;
        t[i] = k;
        for (; i > 1; i >>= 1) {
            k = std::min(k, t[i ^ 1]);
            t[i >> 1] = k;
        }
    }

    /** Widen to a power of two >= @p procs leaves, keeping every entry. */
    [[gnu::cold, gnu::noinline]] void
    grow(std::size_t procs)
    {
        std::size_t leaves = 1;
        while (leaves < procs)
            leaves *= 2;
        std::vector<Key> t(2 * leaves, kAbsent);
        std::copy(_t.begin() + _leaves, _t.end(), t.begin() + leaves);
        for (std::size_t i = leaves - 1; i >= 1; --i)
            t[i] = std::min(t[2 * i], t[2 * i + 1]);
        _t = std::move(t);
        _leaves = leaves;
    }

    /**
     * Node 1 is the root, node i's children are 2i and 2i + 1, and
     * processor p's leaf is node _leaves + p (node 0 is unused).
     */
    std::vector<Key> _t = std::vector<Key>(2, kAbsent);
    std::size_t _leaves = 1;
    std::size_t _size = 0;
};

} // namespace sim
} // namespace hscd

#endif // HSCD_SIM_READY_HEAP_HH
