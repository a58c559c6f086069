/**
 * @file
 * The executor's ready queue: a binary min-heap of (time, processor)
 * entries with a replace-top operation.
 *
 * Inside a parallel epoch the processor with the earliest clock issues
 * next. After a memory reference or a compute burst only that processor
 * re-queues, so the common step is "the top entry's time grew": one
 * sift-down from the root (replaceTop) instead of a pop and a push. When
 * the processor is still the earliest, that costs two compares.
 *
 * Entries order by time, then by processor id, exactly as
 * std::pair<Cycles, ProcId> under std::greater. Each processor is queued
 * at most once, so keys are unique and the pop order is fully determined
 * by the key order: any correct heap pops the same sequence.
 */

#ifndef HSCD_SIM_READY_HEAP_HH
#define HSCD_SIM_READY_HEAP_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace hscd {
namespace sim {

class ReadyHeap
{
  public:
    struct Entry
    {
        Cycles time = 0;
        ProcId proc = 0;
    };

    bool empty() const { return _h.empty(); }
    std::size_t size() const { return _h.size(); }
    void clear() { _h.clear(); }
    void reserve(std::size_t n) { _h.reserve(n); }

    /** The earliest entry; the heap must not be empty. */
    Entry
    top() const
    {
        hscd_dassert(!_h.empty(), "top() of an empty ready heap");
        return Entry{timeOf(_h.front()), procOf(_h.front())};
    }

    void
    push(Cycles time, ProcId proc)
    {
        const Key k = keyOf(time, proc);
        _h.push_back(k);
        std::size_t i = _h.size() - 1;
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            if (!(k < _h[parent]))
                break;
            _h[i] = _h[parent];
            i = parent;
        }
        _h[i] = k;
    }

    void
    pop()
    {
        hscd_dassert(!_h.empty(), "pop() of an empty ready heap");
        const Key last = _h.back();
        _h.pop_back();
        if (!_h.empty())
            siftDown(last);
    }

    /** Re-key the top entry's processor at @p time (pop + push in one). */
    void
    replaceTop(Cycles time)
    {
        hscd_dassert(!_h.empty(), "replaceTop() of an empty ready heap");
        siftDown(keyOf(time, procOf(_h.front())));
    }

  private:
    /**
     * (time, proc) as one 128-bit integer, time in the high half: key
     * order is the lexicographic pair order, and a compare is a single
     * branch-free integer comparison.
     */
    using Key = unsigned __int128;

    static Key
    keyOf(Cycles time, ProcId proc)
    {
        return (Key(time) << 64) | proc;
    }
    static Cycles timeOf(Key k) { return static_cast<Cycles>(k >> 64); }
    static ProcId procOf(Key k) { return static_cast<ProcId>(k); }

    /** Place @p k at the root's hole and sift it down. */
    void
    siftDown(Key k)
    {
        Key *h = _h.data();
        const std::size_t n = _h.size();
        std::size_t i = 0;
        while (true) {
            std::size_t child = 2 * i + 1;
            if (child >= n)
                break;
            if (child + 1 < n)
                child += h[child + 1] < h[child];
            if (!(h[child] < k))
                break;
            h[i] = h[child];
            i = child;
        }
        h[i] = k;
    }

    std::vector<Key> _h;
};

} // namespace sim
} // namespace hscd

#endif // HSCD_SIM_READY_HEAP_HH
